"""The one index rule (`planner.planned_indexes`): every async-result table and
shadow of one is indexed on request_timestep, and an event or history table
on timestep on each instance that evaluates a read comparing that column by a
range. Each read that asks for an index uses it, the indexes never change a
log, and a range read over a growing history keeps its per-event cost flat."""

from __future__ import annotations

import random
import re
import statistics
from time import thread_time_ns

from diel import planner
from diel.ast_nodes import ColumnDef, InsertStatement
from diel.compiler import all_table_refs
from diel.corpus import load_examples
from diel.planner import PlannedIndex, dump_plan, evaluated_on, index_name
from diel.session import DbConfig, RunConfig, Session, TraceEntry

from conftest import FLIGHT_COLUMNS
from replays import bench_runs, corpus_runs

FLIGHTS = [
    ("LAX", "JFK", 1998, 5, 2475),
    ("LAX", "ORD", 1999, -2, 1744),
    ("SFO", "JFK", 1998, 11, 2586),
    ("SFO", "ORD", 2000, 0, 1846),
]
SLIDE = "CREATE EVENT TABLE slideItx(flight_year INT);\n"


def engines(session: Session) -> dict:
    runtime = session.runtime
    return {
        session.plan.coordinator: runtime.engine,
        **{db_id: instance.engine for db_id, instance in runtime.federation.instances.items()},
    }


def planned_reads(plan, db_id: str) -> dict[str, list[str]]:
    """Each planned read evaluated on db_id -> the statements it runs."""
    reads = {name: [sql] for name, sql in plan.relation_sql.items() if db_id in evaluated_on(plan, name)}
    if db_id == plan.coordinator:
        reads.update(
            (name, [sql for command in commands for sql in command])
            for name, commands in plan.program_sql.items()
        )
    return reads


def bindings_of(plan, table: str) -> set[str]:
    """Every name a query or program command binds `table` to."""
    queries = [rel.query for rel in plan.catalog.relations.values() if rel.query is not None]
    queries += [
        command.select if isinstance(command, InsertStatement) else command
        for program in plan.catalog.programs.values() for command in program.commands
    ]
    return {ref.binding for query in queries if query is not None
            for ref in all_table_refs(query) if ref.name == table}


def reads_using_planned_indexes(session: Session) -> dict[tuple[str, str, str], list[str]]:
    """On every engine, each planned read that asks for an index finds its rows
    through it: a range read through its table's timestep index, every read of
    an async-result table or shadow through its request_timestep index. No
    planned read there builds an AUTOMATIC index on an indexed column.
    Returns (table, column, instance) -> the reads checked."""
    plan = session.plan
    checked = {}
    for db_id, engine in engines(session).items():
        details = {
            name: [row[3] for sql in statements for row in engine.conn.execute("EXPLAIN QUERY PLAN " + sql)]
            for name, statements in planned_reads(plan, db_id).items()
        }
        for index in plan.indexes:
            if index.instance != db_id:
                continue
            name = index_name(index.table, index.column)
            askers = list(index.reads) or sorted(
                read for read in details if index.table in plan.catalog.graph.reads.get(read, ())
            )
            for read in askers:
                assert any(name in detail.split() for detail in details[read]), (index, read, details[read])
            automatic = re.compile(rf"(?:SCAN|SEARCH) (\S+) USING AUTOMATIC .*\b{index.column}\b")
            bound = bindings_of(plan, index.table)
            for read, lines in details.items():
                for detail in lines:
                    match = automatic.match(detail)
                    assert not (match and match.group(1) in bound), (index, read, detail)
            checked[index.table, index.column, db_id] = askers
    return checked


# --- the rule, program by program -------------------------------------------------


def policy(table: str, db_id: str = "main") -> PlannedIndex:
    return PlannedIndex(table, "request_timestep", db_id)


def ranged(table: str, *reads: str, db_id: str = "main") -> PlannedIndex:
    return PlannedIndex(table, "timestep", db_id, reads)


EXPECTED = {
    "brush_select": [],
    "brush_vs_map": [ranged("brushItx", "brushAfterMap"), ranged("mapItx", "brushAfterMap")],
    "brushed_countries": [],
    "connect": [],
    "connect_templates": [],
    "latest_request": [policy("distDataEvent")],
    "multi_select": [ranged("clickItx", "multiSelect")],
    "panning": [],
    "reaction_time": [],
    "realtime_tweets": [ranged("brushItx", "fixedBrushTweets"), ranged("tweets", "fixedBrushTweets")],
    "reconfigure_order": [],
    "reconfigure_sample": [],
    "scroll": [],
    "slider": [],
    "slider_remote": [policy("distDataEvent")],
    "slider_reordered": [policy("distDataEvent")],
    "snapped_brush": [],
    "undo": [ranged("clickItx", "curUndoSel"), ranged("undoItx", "curUndoSel")],
    "zoom_histogram": [],
    "zoom_scatter": [],
}
BENCH_EXPECTED = {
    "local_dashboard": [
        ranged("clickItx", "curUndoSel"), ranged("undoItx", "curUndoSel"),
        ranged("brushItx", "fixedBrushTweets"), ranged("tweets", "fixedBrushTweets"),
    ],
    # the parent's list exactly: no remote benchmark program reads a range
    "remote_brush": [policy("brushedTweetsEvent"), policy("followerAgeDistEvent")],
    "remote_reorder_cached": [policy("distDataEvent"), policy("distStrictEvent")],
}


def test_exact_indexes_of_the_corpus_and_benchmark_programs():
    runs = [*corpus_runs(seeds=(1,)), *bench_runs(seeds=(1,))]
    indexes = {name: Session.build(config).plan.indexes for name, _seed, config, _trace in runs}
    assert indexes == {**EXPECTED, **BENCH_EXPECTED}


def test_every_planned_index_is_used_by_the_reads_that_ask_for_it():
    covered = {}
    for name, _seed, config, _trace in [*corpus_runs(seeds=(1,)), *bench_runs(seeds=(1,))]:
        checked = reads_using_planned_indexes(Session.build(config))
        covered[name] = {key: reads for key, reads in checked.items() if key[1] == "timestep"}
    assert covered["undo"] == {("clickItx", "timestep", "main"): ["curUndoSel"],
                               ("undoItx", "timestep", "main"): ["curUndoSel"]}
    assert covered["multi_select"] == {("clickItx", "timestep", "main"): ["multiSelect"]}
    assert len(covered["local_dashboard"]) == 4


def local(program: str, tables=None) -> Session:
    return Session.build(RunConfig([program], [DbConfig("main", "quick", tables=tables or {})], seed=1))


def test_a_table_read_only_through_latest_gets_no_index():
    session = local(SLIDE + "CREATE OUTPUT o AS SELECT flight_year FROM LATEST slideItx;")
    assert session.plan.indexes == []


def test_a_range_over_a_select_alias_gets_no_index():
    session = local(
        SLIDE + "CREATE OUTPUT o AS SELECT flight_year AS timestep FROM LATEST slideItx ORDER BY timestep > 1;"
    )
    assert session.plan.indexes == []


def test_a_base_table_compared_by_timestep_gets_no_index():
    logs = {"logs": ([ColumnDef("origin", "TEXT"), ColumnDef("timestep", "INT")], [("LAX", 1), ("SFO", 3)])}
    session = local(
        SLIDE + "CREATE OUTPUT o AS SELECT l.origin FROM logs l JOIN LATEST slideItx s "
        "ON l.timestep < s.timestep;",
        logs,
    )
    # the event table on the other side of the range is indexed; the base table is not
    assert session.plan.indexes == [ranged("slideItx", "o")]


def test_an_equality_of_two_timesteps_gets_no_index():
    session = local(
        SLIDE + "CREATE EVENT TABLE pickItx(k INT);"
        "CREATE OUTPUT o AS SELECT p.k FROM pickItx p JOIN slideItx s ON p.timestep = s.timestep;"
    )
    assert session.plan.indexes == []


def test_unqualified_correlated_and_history_ranges_are_indexed():
    """Each reference is resolved in its own scope: an unqualified timestep
    names the history table, a correlated one the outer query's table."""
    session = local(
        SLIDE + """CREATE EVENT TABLE resetItx();
CREATE TABLE seen(flight_year INT);
CREATE PROGRAM AFTER (slideItx) BEGIN INSERT INTO seen SELECT flight_year FROM LATEST slideItx; END;
CREATE VIEW sinceReset AS
  SELECT flight_year FROM seen WHERE timestep >= (SELECT timestep FROM LATEST resetItx);
CREATE OUTPUT o AS
  SELECT flight_year, (SELECT COUNT() FROM slideItx s WHERE s.timestep > r.timestep) AS later
  FROM sinceReset, LATEST resetItx r;
"""
    )
    assert session.plan.indexes == [
        ranged("slideItx", "o"), ranged("resetItx", "o"), ranged("seen", "sinceReset"),
    ]
    reads_using_planned_indexes(session)


def test_a_range_on_a_remote_leader_indexes_its_shadow():
    """An async view on r1 that ranges over an event table indexes r1's copy
    of it, and renders the final frames of the all-local run."""
    program = SLIDE + """CREATE EVENT TABLE resetItx();
CREATE ASYNC VIEW sinceReset AS
  SELECT f.origin, COUNT() AS n FROM flights f JOIN slideItx s ON f.flight_year = s.flight_year
    JOIN LATEST resetItx r ON s.timestep > r.timestep
  GROUP BY f.origin;
CREATE OUTPUT o AS SELECT origin, n FROM LATEST_REQUEST sinceReset;
"""
    flights = {"flights": (FLIGHT_COLUMNS, FLIGHTS)}
    events = ["resetItx", "slideItx", "slideItx", "resetItx", "slideItx", "slideItx", "slideItx"]
    years = iter([1998, 1999, 1998, 2000, 1999])
    trace = [
        TraceEntry(40 * i, event, {"flight_year": next(years)} if event == "slideItx" else {})
        for i, event in enumerate(events)
    ]
    finals, plans = [], []
    for databases in (
        [DbConfig("main", "quick", tables=flights)],
        [DbConfig("main", "quick"), DbConfig("r1", "remote", latency="uniform(0,40)", tables=flights)],
    ):
        session = Session.build(RunConfig([program], databases, seed=2))
        reads_using_planned_indexes(session)
        session.run_replay(trace)
        finals.append({frame.output: frame.rows for frame in session.runtime.frames})
        plans.append(session.plan)
    assert plans[0].indexes == [
        ranged("slideItx", "sinceReset"), ranged("resetItx", "sinceReset"), policy("sinceReset"),
    ]
    assert plans[1].leaders == {"sinceReset": "r1"}
    assert plans[1].indexes == [
        policy("sinceReset"),
        ranged("slideItx", "sinceReset", db_id="r1"), ranged("resetItx", "sinceReset", db_id="r1"),
    ]
    assert reads_using_planned_indexes(session)[("slideItx", "timestep", "r1")] == ["sinceReset"]
    assert finals[0] == finals[1]
    assert finals[1]["o"] == (("LAX", 2), ("SFO", 2))


def test_index_names_never_collide():
    """An event table a_request ranged on timestep and an async view a would
    both be __idx_a_request_timestep under a plain join of the two names."""
    assert index_name("a_request", "timestep") != index_name("a", "request_timestep")
    program = SLIDE + """CREATE EVENT TABLE a_request(v INT);
CREATE ASYNC VIEW a AS SELECT origin FROM flights JOIN LATEST slideItx ON flight_year;
CREATE OUTPUT o AS SELECT v FROM a_request JOIN LATEST slideItx s ON a_request.timestep < s.timestep;
CREATE OUTPUT oa AS SELECT origin FROM LATEST_REQUEST a;
"""
    session = local(program, {"flights": (FLIGHT_COLUMNS, FLIGHTS)})
    assert session.plan.indexes == [ranged("slideItx", "o"), ranged("a_request", "o"), policy("a")]
    assert reads_using_planned_indexes(session)[("a", "request_timestep", "main")] == ["oa"]
    session.run_replay([TraceEntry(0, "a_request", {"v": 1}), TraceEntry(10, "slideItx", {"flight_year": 1998})])
    assert {frame.output: frame.rows for frame in session.runtime.frames}["o"] == ((1,),)


def test_dump_plan_names_the_read_behind_each_index():
    undo = Session.build(load_examples()["undo"].config())
    assert "== indexes ==\nclickItx (timestep) @ main, range in curUndoSel\n" \
           "undoItx (timestep) @ main, range in curUndoSel\n" in dump_plan(undo.plan)
    remote = Session.build(load_examples()["slider_remote"].config())
    assert "== indexes ==\ndistDataEvent (request_timestep) @ main, policy reads\n" in dump_plan(remote.plan)


# --- transparency -------------------------------------------------------------------


def without_timestep_indexes(monkeypatch) -> None:
    """Build every program as if the range rule did not exist."""
    rule = planner.planned_indexes
    monkeypatch.setattr(
        planner, "planned_indexes",
        lambda plan, stored: [index for index in rule(plan, stored) if index.column != "timestep"],
    )


def test_timestep_indexes_never_change_a_log_a_summary_or_a_diagnostic(monkeypatch):
    """Over the corpus and the benchmark programs at seeds 1-3, the frames,
    summary and diagnostics are the same with the timestep indexes dropped."""

    def replay(config, trace, dropped: bool):
        with monkeypatch.context() as patch:
            if dropped:
                without_timestep_indexes(patch)
            session = Session.build(config)
            session.run_replay(trace)
            indexed = [index for index in session.plan.indexes if index.column == "timestep"]
            return (session.output_log_text(), session.summary(), session.runtime.diagnostics), indexed

    with_indexes = 0
    for name, seed, config, trace in [*corpus_runs(), *bench_runs()]:
        indexed, timestep_indexes = replay(config, trace, False)
        dropped, none = replay(config, trace, True)
        assert none == []
        assert indexed == dropped, (name, seed)
        with_indexes += bool(timestep_indexes)
    assert with_indexes == 3 * 5  # brush_vs_map, multi_select, realtime_tweets, undo, local_dashboard


# --- flat cost ------------------------------------------------------------------------


def test_undo_cost_per_event_stays_flat_as_history_grows():
    """A range read over history costs about the same per event at 4000
    events as at 500: the median µs of the last 200 of each window."""
    rng = random.Random(11)
    trace = [
        TraceEntry(10 * i, "clickItx", {"id": rng.randrange(100)}) if rng.random() < 0.7
        else TraceEntry(10 * i, "undoItx", {})
        for i in range(4000)
    ]
    session = Session.build(load_examples()["undo"].config())
    costs = []
    for entry in trace:
        started = thread_time_ns()
        session.inject(entry)
        costs.append(thread_time_ns() - started)
    early, late = statistics.median(costs[300:500]), statistics.median(costs[3800:4000])
    assert late <= 2 * early, (early / 1000, late / 1000)
