from __future__ import annotations

import importlib
import random
from collections import Counter
from pathlib import Path

import pytest

from diel.ast_nodes import ColumnDef
from diel.compiler import RelationKind, compile_program
from diel.corpus import load_examples
from diel.errors import CompileError, DuplicateRelationError, EngineError, UnknownRelationError
from diel.parser import parse_diel
from diel.planner import (
    DbDescriptor,
    base_schemas_of,
    choose_leader,
    dump_plan,
    emit_per_db_sql,
    plan_federation,
)
from diel.printer import query_sql
from diel.engine import SqlEngine
from diel.session import DbConfig, RunConfig, Session, TraceEntry

from conftest import FLIGHT_COLUMNS
from test_indexes import reads_using_planned_indexes
from listing_texts import (
    PICKED,
    PICKED_REWRITTEN,
    SLIDER,
    SLIDER_LATEST_REQUEST,
    SLIDER_REWRITTEN,
    SLIDER_TWINS,
)


def quick(name="main", tables=None):
    tables = tables or {}
    return DbDescriptor(name, "quick", tables, {t: len(t) for t in tables})


def remote(name, tables, estimates=None):
    return DbDescriptor(name, "remote", tables, estimates or {t: 100 for t in tables})


def slider_plan(remote_flights=True):
    if remote_flights:
        dbs = [
            quick(),
            remote("r1", {"flights": FLIGHT_COLUMNS}, {"flights": 10_000}),
        ]
    else:
        dbs = [quick(tables={"flights": FLIGHT_COLUMNS})]
    catalog = compile_program(parse_diel(SLIDER), base_schemas_of(dbs))
    return plan_federation(catalog, dbs), dbs


# --- placement ----------------------------------------------------------------


def test_remote_base_placement():
    plan, _ = slider_plan()
    assert plan.placement["flights"] == "r1"
    assert plan.placement["slideItx"] == "main"
    assert plan.placement["distData"] == "main"


def test_all_local_placement():
    plan, _ = slider_plan(remote_flights=False)
    assert set(plan.placement.values()) == {"main"}
    assert plan.shipments == []
    assert plan.rewritten_outputs == {}


def test_unknown_relation_across_instances():
    dbs = [quick(), remote("r1", {"flights": FLIGHT_COLUMNS})]
    catalog = compile_program(parse_diel(SLIDER), {"flights": FLIGHT_COLUMNS})
    catalog.relations.pop("flights")
    catalog.graph.reads.pop("flights")
    with pytest.raises(UnknownRelationError):
        plan_federation(catalog, dbs)


def test_duplicate_base_relation_rejected():
    dbs = [quick(tables={"flights": FLIGHT_COLUMNS}), remote("r1", {"flights": FLIGHT_COLUMNS})]
    with pytest.raises(DuplicateRelationError):
        base_schemas_of(dbs)


# --- choose_leader --------------------------------------------------------------


def test_leader_prefers_keeping_big_table_still():
    plan, _ = slider_plan()
    assert plan.leaders["distDataEvent"] == "r1"


def test_leader_all_local_is_coordinator():
    dbs = [quick(tables={"flights": FLIGHT_COLUMNS})]
    catalog = compile_program(parse_diel(SLIDER_LATEST_REQUEST), base_schemas_of(dbs))
    plan = plan_federation(catalog, dbs)
    assert plan.leaders["distDataEvent"] == "main"


def test_leader_two_remote_tables():
    dbs = [
        quick(),
        remote("r1", {"a": [ColumnDef("x", "INT")]}, {"a": 10}),
        remote("r2", {"b": [ColumnDef("x", "INT")]}, {"b": 1000}),
    ]
    catalog = compile_program(
        parse_diel("CREATE OUTPUT o AS SELECT a.x FROM a JOIN b ON a.x = b.x;"),
        base_schemas_of(dbs),
    )
    plan = plan_federation(catalog, dbs)
    (async_view,) = plan.leaders
    assert plan.leaders[async_view] == "r2"
    snapshot = [s for s in plan.shipments if s.snapshot]
    assert [(s.relation, s.destination) for s in snapshot] == [("a", "r2")]


def test_leader_minimizes_shipped_rows_exhaustively():
    """Brute-force the cost model over random <=3-instance federations."""
    rng = random.Random(42)
    for _ in range(120):
        n_remote = rng.randint(1, 2)
        db_ids = ["main"] + [f"r{i + 1}" for i in range(n_remote)]
        tables = ["t1", "t2", "t3"]
        owners = {t: rng.choice(db_ids) for t in tables}
        estimates = {t: rng.randint(1, 1000) for t in tables}
        dbs = []
        for db_id in db_ids:
            owned = {t: [ColumnDef("x", "INT")] for t in tables if owners[t] == db_id}
            kind = "quick" if db_id == "main" else "remote"
            dbs.append(DbDescriptor(db_id, kind, owned, {t: estimates[t] for t in owned}))
        catalog = compile_program(
            parse_diel(
                "CREATE VIEW v AS SELECT t1.x FROM t1 JOIN t2 ON t1.x = t2.x "
                "JOIN t3 ON t1.x = t3.x;"
            ),
            base_schemas_of(dbs),
        )
        placement = {t: owners[t] for t in tables}
        chosen = choose_leader("v", placement, estimates, catalog, dbs, "main")

        def cost(db_id):
            return sum(estimates[t] for t in tables if owners[t] != db_id)

        best = min(cost(d) for d in db_ids)
        assert cost(chosen) == best
        # tie break: coordinator first, then lexicographic
        tied = [d for d in db_ids if cost(d) == best]
        expected = "main" if "main" in tied else min(tied)
        assert chosen == expected


# --- rewrite_remote_output ---------------------------------------------------------


def test_rewrite_produces_async_view_and_recheck_join():
    plan, _ = slider_plan()
    assert plan.rewritten_outputs == {"distData": "distDataEvent"}
    assert plan.waits_on == {"distData": ["slideItx"]}
    async_view = plan.catalog.relations["distDataEvent"]
    assert async_view.kind is RelationKind.ASYNC_VIEW
    assert "flights" in query_sql(async_view.query)
    coord = plan.catalog.relations["distData"]
    # the newest interaction is the event table's last row
    assert query_sql(coord.query) == (
        "SELECT e.origin, e.count FROM distDataEvent AS e WHERE (e.request_timestep = "
        "(SELECT timestep FROM slideItx ORDER BY rowid DESC LIMIT 1))"
    )
    assert not coord.query.joins


def test_rewrite_skipped_for_local_output():
    plan, _ = slider_plan(remote_flights=False)
    assert plan.rewritten_outputs == {}
    assert plan.waits_on == {}
    assert "distDataEvent" not in plan.catalog.relations


def test_explicit_async_view_never_rewritten():
    dbs = [quick(), remote("r1", {"flights": FLIGHT_COLUMNS}, {"flights": 10_000})]
    catalog = compile_program(parse_diel(SLIDER_LATEST_REQUEST), base_schemas_of(dbs))
    plan = plan_federation(catalog, dbs)
    assert plan.rewritten_outputs == {}
    assert plan.waits_on == {}  # a custom policy is never skipped
    sql = query_sql(plan.catalog.relations["distData"].query)
    assert "LATEST_REQUEST" in sql or "request_timestep" in sql


def test_rewrite_with_two_latest_event_tables():
    dbs = [quick(), remote("r1", {"flights": FLIGHT_COLUMNS}, {"flights": 10_000})]
    catalog = compile_program(parse_diel(PICKED), base_schemas_of(dbs))
    plan = plan_federation(catalog, dbs)
    assert plan.waits_on == {"picked": ["yearItx", "originItx"]}
    assert PICKED_REWRITTEN in dump_plan(plan)
    coord_sql = query_sql(plan.catalog.relations["picked"].query)
    # two tables never share a timestep: the newest of their last rows is awaited
    assert "e.request_timestep = MAX((SELECT timestep FROM yearItx ORDER BY rowid DESC LIMIT 1), " in coord_sql
    assert "(SELECT timestep FROM originItx ORDER BY rowid DESC LIMIT 1))" in coord_sql


def test_rewritten_async_view_takes_the_next_free_name():
    dbs = [quick(), remote("r1", {"flights": FLIGHT_COLUMNS}, {"flights": 10_000})]
    program = SLIDER + "CREATE EVENT TABLE distDataEvent(x INT);"
    plan = plan_federation(compile_program(parse_diel(program), base_schemas_of(dbs)), dbs)
    assert plan.rewritten_outputs == {"distData": "distDataEvent2"}
    assert plan.catalog.relations["distDataEvent"].kind is RelationKind.EVENT_TABLE


@pytest.mark.parametrize("column", ["timestep", "request_timestep", "rowid", "_ROWID_", "oid"])
def test_an_output_over_remote_data_may_not_select_a_reserved_column(column):
    """Its rows become an async view's result table, which has the system
    columns and is read by rowid; on the coordinator the name is free."""
    program = (
        "CREATE EVENT TABLE slideItx(flight_year INT);"
        f"CREATE OUTPUT o AS SELECT delay AS {column} FROM flights JOIN LATEST slideItx ON flight_year;"
    )
    dbs = [quick(), remote("r1", {"flights": FLIGHT_COLUMNS}, {"flights": 10_000})]
    catalog = compile_program(parse_diel(program), base_schemas_of(dbs))
    with pytest.raises(CompileError, match=f"named {column!r}"):
        plan_federation(catalog, dbs)
    local = [quick(tables={"flights": FLIGHT_COLUMNS})]
    plan = plan_federation(compile_program(parse_diel(program), base_schemas_of(local)), local)
    assert plan.rewritten_outputs == {}


# --- emit_per_db_sql -----------------------------------------------------------------


def test_emitted_programs_rebuild_fresh_instances():
    plan, _ = slider_plan()
    programs = emit_per_db_sql(plan)
    assert set(programs) == {"main", "r1"}
    remote_sql = programs["r1"]
    assert "CREATE TABLE flights" in remote_sql
    assert "CREATE TABLE slideItx" in remote_sql and "timestep INTEGER" in remote_sql
    assert "distDataEvent" not in remote_sql  # r1 runs its lowered query instead
    coordinator_sql = programs["main"]
    assert "CREATE TABLE distDataEvent" in coordinator_sql
    assert "request_timestep INTEGER" in coordinator_sql
    for db_id, sql in programs.items():
        engine = SqlEngine("fresh")
        engine.execute_script(sql)  # must execute cleanly on an empty engine
        if db_id == "r1":
            engine.run_query(plan.relation_sql["distDataEvent"])
        with pytest.raises(EngineError):
            engine.execute_script(sql)  # no IF NOT EXISTS: setup is once per run


def test_empty_program_emits_coordinator_only():
    dbs = [quick()]
    catalog = compile_program([], {})
    plan = plan_federation(catalog, dbs)
    programs = emit_per_db_sql(plan)
    assert set(programs) == {"main"}
    SqlEngine("fresh").execute_script(programs["main"])


def test_plan_invariants_hold_across_corpus_and_remote_slider():
    """After rewriting, every output reads only coordinator-resident leaves and
    every async view reads only leader-resident or shipped relations."""
    from diel.compiler import RelationKind
    from diel.planner import base_closure

    plans = [slider_plan()[0], slider_plan(remote_flights=False)[0]]
    dbs = [quick(), remote("r1", {"flights": FLIGHT_COLUMNS}, {"flights": 10_000})]
    catalog = compile_program(parse_diel(SLIDER_LATEST_REQUEST), base_schemas_of(dbs))
    plans.append(plan_federation(catalog, dbs))

    for plan in plans:
        shipped = {(s.relation, s.destination) for s in plan.shipments}
        for rel in plan.catalog.relations.values():
            if rel.kind is RelationKind.OUTPUT:
                for leaf in base_closure(rel.name, plan.catalog):
                    leaf_rel = plan.catalog.relations[leaf]
                    if leaf_rel.kind is RelationKind.ASYNC_VIEW:
                        continue  # its result table lives at the coordinator
                    assert plan.placement[leaf] == plan.coordinator, (rel.name, leaf)
            elif rel.kind is RelationKind.ASYNC_VIEW:
                leader = plan.leaders[rel.name]
                if leader == plan.coordinator:
                    continue
                for leaf in base_closure(rel.name, plan.catalog):
                    resident = plan.placement[leaf] == leader
                    assert resident or (leaf, leader) in shipped, (rel.name, leaf)


def test_view_over_remote_data_has_no_placement():
    """A plain view over an off-coordinator table is placed nowhere; with no
    async view reading it, no instance's program creates it."""
    dbs = [quick(), remote("r1", {"flights": FLIGHT_COLUMNS}, {"flights": 10_000})]
    text = SLIDER + "CREATE VIEW flightsOnly AS SELECT origin FROM flights;"
    catalog = compile_program(parse_diel(text), base_schemas_of(dbs))
    plan = plan_federation(catalog, dbs)
    programs = emit_per_db_sql(plan)
    assert "flightsOnly" not in plan.placement
    assert "flightsOnly" not in dump_plan(plan)
    assert set(programs) == {"main", "r1"}
    assert not [db_id for db_id, sql in programs.items() if "flightsOnly" in sql]


def test_dump_plan_lists_sections():
    plan, _ = slider_plan()
    emit_per_db_sql(plan)
    text = dump_plan(plan)
    assert "flights @ r1" in text
    assert "distDataEvent -> r1" in text
    assert "slideItx -> r1 (deltas)" in text
    assert SLIDER_REWRITTEN + "\n== shipments ==" in text
    assert "== indexes ==\ndistDataEvent (request_timestep) @ main, policy reads\n" in text
    assert "== delta ==" not in text  # distData reads slideItx only through LATEST
    session = Session.build(load_examples()["realtime_tweets"].config())
    assert dump_plan(session.plan).endswith("== delta ==\ntweetsInBrush on tweets")
    assert "== outputs ==\ntweetsInBrush: SELECT * FROM tweetsInBrush ORDER BY " in dump_plan(session.plan)
    undo = Session.build(load_examples()["undo"].config())
    assert "== indexes ==\nclickItx (timestep) @ main, range in curUndoSel\n" in dump_plan(undo.plan)
    assert dump_plan(undo.plan).endswith(
        '== outputs ==\ncurrSel: SELECT * FROM currSel ORDER BY "id", typeof("id")'
    )
    dbs = [quick(), remote("r1", {"flights": FLIGHT_COLUMNS})]
    twins = plan_federation(compile_program(parse_diel(SLIDER_TWINS), base_schemas_of(dbs)), dbs)
    emit_per_db_sql(twins)
    # twins share evaluations on their engine; the plan names no group
    assert "shared" not in dump_plan(twins)
    assert dump_plan(twins).endswith(
        'distStrict: SELECT * FROM distStrict ORDER BY "origin", typeof("origin"), "count", typeof("count")'
    )


def test_planning_leaves_the_compiled_catalog_untouched():
    dbs = [quick(), remote("r1", {"flights": FLIGHT_COLUMNS}, {"flights": 10_000})]
    catalog = compile_program(parse_diel(SLIDER), base_schemas_of(dbs))
    printed = {name: query_sql(rel.query) for name, rel in catalog.relations.items() if rel.query}
    graph, constraints = catalog.graph, list(catalog.constraints)
    plan = plan_federation(catalog, dbs)
    emit_per_db_sql(plan)

    assert plan.rewritten_outputs == {"distData": "distDataEvent"}
    assert {n: query_sql(r.query) for n, r in catalog.relations.items() if r.query} == printed
    assert catalog.graph is graph and catalog.constraints == constraints
    assert "distDataEvent" not in catalog.relations and "distDataEvent" not in graph.reads
    # the output keeps its query in the compiled catalog; only the plan reads the async view
    assert catalog.relations["distData"].query.table.name == "flights"
    assert plan.catalog.relations["distData"].query.table.name == "distDataEvent"
    assert plan.catalog.relations["distDataEvent"].query is catalog.relations["distData"].query


def test_session_catalog_keeps_rewritten_outputs_as_compiled():
    example = load_examples()["slider_remote"]
    session = Session.build(example.config())
    assert session.plan.rewritten_outputs == {"distData": "distDataEvent"}
    schemas = {t: cols for db in example.databases() for t, (cols, _rows) in db.tables.items()}
    compiled = compile_program(parse_diel("\n".join(example.diel_sources())), schemas)
    assert set(session.catalog.relations) == set(compiled.relations)
    for name, rel in compiled.relations.items():
        if rel.query is not None:
            assert query_sql(session.catalog.relations[name].query) == query_sql(rel.query), name
    assert query_sql(session.plan.catalog.relations["distData"].query).startswith(
        "SELECT e.origin, e.count FROM distDataEvent AS e"
    )


# --- indexes on async results ---------------------------------------------------------


def policy_reads(session: Session) -> dict[str, list[str]]:
    """Every planned index is used by the reads that ask for it, on every
    engine (`reads_using_planned_indexes`); instance -> the reads of async
    results checked there."""
    checked: dict[str, list[str]] = {}
    for (_table, column, db_id), reads in reads_using_planned_indexes(session).items():
        if column == "request_timestep" and reads:
            checked.setdefault(db_id, []).extend(reads)
    return checked


def test_corpus_policy_outputs_use_the_request_timestep_index():
    covered = {}
    for name, example in load_examples().items():
        checked = policy_reads(Session.build(example.config()))
        if checked:
            covered[name] = checked
    assert covered == {
        "latest_request": {"main": ["distData"]},
        "slider_remote": {"main": ["distData"]},
        "slider_reordered": {"main": ["distData"]},
    }


def remote_benchmark_sessions(monkeypatch) -> dict[str, Session]:
    """The two remote benchmark programs at seed 1, built without files."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    sessions = {}
    for name in ("remote_brush", "remote_reorder_cached"):
        workload = workloads.WORKLOADS[name](1, scale=0.2)
        databases = [
            DbConfig(inst.name, inst.kind, latency=inst.latency, tables=dict(inst.tables))
            for inst in workload.instances
        ]
        sessions[name] = Session.build(RunConfig([workload.program], databases, seed=1))
    return sessions


def test_benchmark_policy_outputs_use_the_request_timestep_index(monkeypatch):
    expected = {
        "remote_brush": ["brushedTweets", "followerAgeDist"],
        "remote_reorder_cached": ["distData", "distStrict"],
    }
    for name, session in remote_benchmark_sessions(monkeypatch).items():
        assert sorted(policy_reads(session)["main"]) == expected[name]


def test_shipped_async_results_are_indexed_on_the_instance():
    """A shadow of an async view's results is indexed where it is shipped to,
    and the downstream async view there searches it by that index."""
    text = """\
CREATE EVENT TABLE slideItx(flight_year INT);
CREATE ASYNC VIEW perOrigin AS
  SELECT origin, COUNT() count FROM flights JOIN LATEST slideItx ON flight_year
  GROUP BY origin;
CREATE ASYNC VIEW perRegion AS
  SELECT region, count FROM lookup JOIN LATEST_REQUEST perOrigin ON origin;
CREATE OUTPUT regions AS SELECT region, count FROM LATEST_REQUEST perRegion;
"""
    lookup = [ColumnDef("origin", "TEXT"), ColumnDef("region", "TEXT")]
    regions = [("LAX", "west"), ("SFO", "west"), ("JFK", "east")]
    flights = [("LAX", "JFK", 1998, 5, 2475), ("SFO", "ORD", 2000, 0, 1846)]
    config = RunConfig(
        diel_sources=[text],
        databases=[
            DbConfig("main", "quick"),
            DbConfig("r1", "remote", tables={"flights": (FLIGHT_COLUMNS, flights)}),
            DbConfig("r2", "remote", tables={"lookup": (lookup, regions)}),
        ],
        seed=1,
    )
    session = Session.build(config)
    assert session.plan.leaders == {"perOrigin": "r1", "perRegion": "r2"}
    assert session.plan.indexes == [
        ("perOrigin", "request_timestep", "main", ()),
        ("perRegion", "request_timestep", "main", ()),
        ("perOrigin", "request_timestep", "r2", ()),
    ]
    assert policy_reads(session) == {"main": ["regions"], "r2": ["perRegion"]}
    assert "perOrigin (request_timestep) @ r2, policy reads" in dump_plan(session.plan).splitlines()


def test_an_async_view_reads_another_of_its_leader_as_results():
    """b reads a on their common leader as a's result history, shipped there
    as deltas, exactly as the coordinator reads it when all data is local."""
    text = """\
CREATE EVENT TABLE slideItx(flight_year INT);
CREATE ASYNC VIEW a AS
  SELECT origin, COUNT() AS n FROM flights JOIN LATEST slideItx ON flight_year GROUP BY origin;
CREATE ASYNC VIEW b AS
  SELECT f.origin, a.n, a.request_timestep AS rq FROM flights f JOIN a ON f.origin = a.origin;
CREATE OUTPUT ob AS SELECT origin, n, rq FROM b;
"""
    flights = {"flights": (FLIGHT_COLUMNS, [
        ("LAX", "JFK", 1998, 5, 2475), ("LAX", "ORD", 1999, -2, 1744), ("SFO", "JFK", 1998, 11, 2586),
    ])}
    trace = [TraceEntry(0, "slideItx", {"flight_year": 1998}),
             TraceEntry(100, "slideItx", {"flight_year": 1999})]
    finals = []
    for databases in (
        [DbConfig("main", "quick", tables=flights)],
        [DbConfig("main", "quick"), DbConfig("r1", "remote", latency="fixed(5)", tables=flights)],
    ):
        session = Session.build(RunConfig([text], databases, seed=1))
        session.run_replay(trace)
        finals.append({f.output: f.rows for f in session.runtime.frames})
    assert session.plan.leaders == {"a": "r1", "b": "r1"}
    plan_text = dump_plan(session.plan).splitlines()
    assert "a -> r1 (deltas)" in plan_text and "a (request_timestep) @ r1, policy reads" in plan_text
    assert finals[0] == finals[1]
    assert finals[1]["ob"] == (("LAX", 1, 1), ("LAX", 1, 1), ("LAX", 1, 1), ("LAX", 1, 1),
                               ("LAX", 1, 4), ("LAX", 1, 4), ("SFO", 1, 1), ("SFO", 1, 1))


def test_no_program_declares_an_async_view_as_a_view(monkeypatch):
    """Each async view's leader runs its lowered query; every engine reads it
    as its result table or a shadow of that, never as a view."""
    sessions = {name: Session.build(example.config()) for name, example in load_examples().items()}
    sessions.update(remote_benchmark_sessions(monkeypatch))
    remote_led = set()
    for name, session in sessions.items():
        plan = session.plan
        remote_led |= {view for view, leader in plan.leaders.items() if leader != plan.coordinator}
        for db_id, program in plan.programs.items():
            for view in plan.leaders:
                assert f"CREATE VIEW {view} " not in program, (name, db_id, view)
    assert {"distDataEvent", "brushedTweetsEvent", "followerAgeDistEvent"} <= remote_led


# --- the strict policy's newest interaction -----------------------------------------


def tail_reads_only(session: Session) -> list[str]:
    """Every rewritten output scans an event table only in the read of its
    last row, `(SELECT timestep FROM T ORDER BY rowid DESC LIMIT 1)`, which
    walks the rowid b-tree backwards and stops at one row; nothing is sorted.
    Returns the outputs checked."""
    plan = session.plan
    events = {r.name for r in plan.catalog.by_kind(RelationKind.EVENT_TABLE)}
    for output in plan.rewritten_outputs:
        sql = plan.relation_sql[output]
        details = [
            row[3] for row in session.runtime.engine.conn.execute("EXPLAIN QUERY PLAN " + sql)
        ]
        scanned = Counter(d[len("SCAN "):] for d in details if d.startswith("SCAN "))
        for table in events & set(scanned):
            tails = sql.count(f"(SELECT timestep FROM {table} ORDER BY rowid DESC LIMIT 1)")
            assert scanned[table] <= tails, (output, details)
        assert not [d for d in details if "TEMP B-TREE" in d], (output, details)
    return sorted(plan.rewritten_outputs)


def test_strict_outputs_read_the_newest_interaction_without_a_scan(monkeypatch):
    checked = {}
    for name, example in load_examples().items():
        outputs = tail_reads_only(Session.build(example.config()))
        if outputs:
            checked[name] = outputs
    for name, session in remote_benchmark_sessions(monkeypatch).items():
        checked[name] = tail_reads_only(session)
    assert checked == {
        "slider_remote": ["distData"],
        "slider_reordered": ["distData"],
        "remote_brush": ["brushedTweets", "followerAgeDist"],
        "remote_reorder_cached": ["distStrict"],
    }


def vm_steps(engine: SqlEngine, sql: str, params: tuple = ()) -> int:
    """SQLite virtual-machine instructions one run of `sql` takes."""
    steps = 0

    def count() -> int:
        nonlocal steps
        steps += 1
        return 0

    engine.conn.set_progress_handler(count, 1)
    try:
        engine.conn.execute(sql, params).fetchall()
    finally:
        engine.conn.set_progress_handler(None, 1)
    return steps


def steps_at_50_and_2000(session: Session, trace: list[TraceEntry], sql, params=lambda t: ()) -> list[int]:
    """VM steps of one run of `sql` after the first 50 of the 2000 trace
    entries (and their results) are in, and again after all of them."""
    counts = []
    for part in (trace[:50], trace[50:]):
        for entry in part:
            session.inject(entry)
        session.run_quiescent()
        counts.append(vm_steps(session.runtime.engine, sql, params(session.runtime.clock)))
    return counts


# t on r1 picks rows by k and k2; v = 10 * k + k2
PICK_COLUMNS = [ColumnDef("k", "INT"), ColumnDef("k2", "INT"), ColumnDef("v", "INT")]
PICK_ROWS = [(1, 1, 11), (1, 2, 12), (2, 1, 21), (2, 2, 22)]


@pytest.mark.parametrize("joins, events", [
    ("JOIN LATEST aItx ON t.k = aItx.x", ["aItx"]),
    ("JOIN LATEST aItx ON t.k = aItx.x JOIN LATEST bItx ON t.k2 = bItx.x", ["aItx", "bItx"]),
], ids=["one-latest-table", "two-latest-tables"])
def test_a_strict_output_costs_the_same_as_history_grows(joins, events):
    program = (
        "CREATE EVENT TABLE aItx(x INT);\nCREATE EVENT TABLE bItx(x INT);\n"
        f"CREATE OUTPUT o AS SELECT t.v FROM t {joins};\n"
    )
    tables = {"t": (PICK_COLUMNS, PICK_ROWS)}
    session = Session.build(RunConfig([program], [
        DbConfig("main", "quick"), DbConfig("r1", "remote", latency="fixed(0)", tables=tables),
    ], seed=1))
    assert session.plan.rewritten_outputs == {"o": "oEvent"}
    trace = [
        TraceEntry(10 * i, events[i % len(events)], {"x": 1 + i // len(events) % 2})
        for i in range(2000)
    ]
    first, last = steps_at_50_and_2000(session, trace, session.plan.relation_sql["o"])
    assert session.runtime.frames[-1].rows
    assert first == last


def test_a_delta_probe_costs_the_same_as_history_grows():
    program = (
        "CREATE EVENT TABLE tweets(tId INT, lat REAL);\n"
        "CREATE OUTPUT o AS SELECT t.tId, p.name FROM tweets t JOIN places p ON t.lat = p.lat;\n"
    )
    places = ([ColumnDef("name", "TEXT"), ColumnDef("lat", "REAL")], [("north", 1.0)])
    session = Session.build(RunConfig(
        [program], [DbConfig("main", "quick", tables={"places": places})], seed=1,
    ))
    event, sql = session.plan.delta_sql["o"]
    assert event == "tweets"
    # every 50th tweet is at lat 1, the 50th and the 2000th among them
    trace = [
        TraceEntry(10 * i, "tweets", {"tId": i, "lat": 1.0 if i % 50 == 49 else 0.0})
        for i in range(2000)
    ]
    first, last = steps_at_50_and_2000(session, trace, sql, params=lambda t: (t,))
    assert len(session.runtime.frames[-1].rows) == 40
    assert first == last
