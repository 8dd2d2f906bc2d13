"""Evaluation groups: async views on one engine whose reads are the same SQL,
such as a strict twin and its async view. Nothing in the plan names them: an
engine serves a repeated read the rows of the last identical one while none
of its rows has changed (`SqlEngine.read`), so a group is evaluated once per
instance state, and that reuse never changes a frame, a summary or a message."""

from __future__ import annotations

from collections import Counter

import pytest

from diel import encode_message
from diel.engine import SqlEngine
from diel.federation import EVAL_REQUEST, SHIP_DATA, Message, SimInstance
from diel.session import DbConfig, RunConfig, Session, TraceEntry

from conftest import FLIGHT_COLUMNS
from listing_texts import SLIDER_TWINS
from replays import bench_runs, corpus_runs

FLIGHT_ROWS = [
    ("LAX", "JFK", 1998, 5, 2475),
    ("LAX", "ORD", 1999, -2, 1744),
    ("SFO", "JFK", 1998, 11, 2586),
    ("SFO", "ORD", 2000, 0, 1846),
    ("JFK", "LAX", 2000, 30, 2475),
]
SLIDES = [
    TraceEntry(20 * i, "slideItx", {"flight_year": year})
    for i, year in enumerate([1998, 1999, 2000, 1998, 1999, 2001, 2000])
]
SLIDE = "CREATE EVENT TABLE slideItx(flight_year INT);\n"
COUNTS = "SELECT origin, COUNT() FROM flights JOIN LATEST slideItx ON flight_year GROUP BY origin"


def session(program: str, remote: bool = True) -> Session:
    """flights on r1 behind reordering latency, or on the coordinator."""
    flights = {"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)}
    databases = [DbConfig("main", "quick", tables={} if remote else flights)]
    if remote:
        databases.append(DbConfig("r1", "remote", latency="uniform(10,150)", tables=flights))
    return Session.build(RunConfig([program], databases, seed=3))


def served_views(monkeypatch):
    """Count reads from now on; the returned function gives (engine, async
    view) -> how many of its evaluations an engine served without running."""
    asked, ran = Counter(), Counter()
    read, run_query = SqlEngine.read, SqlEngine.run_query

    def counted_read(engine, sql, params=(), context="query"):
        asked[engine.db_id, context] += 1
        return read(engine, sql, params, context)

    def counted_run(engine, sql, params=(), context="query"):
        ran[engine.db_id, context] += 1
        return run_query(engine, sql, params, context=context)

    monkeypatch.setattr(SqlEngine, "read", counted_read)
    monkeypatch.setattr(SqlEngine, "run_query", counted_run)
    return lambda: {
        (db_id, context.removeprefix("async view ")): n
        for (db_id, context), n in (asked - ran).items()
        if context.startswith("async view ")
    }


def every_read_runs(monkeypatch) -> None:
    """Switch the engine's reuse off: every read reaches SQLite."""
    monkeypatch.setattr(
        SqlEngine, "read",
        lambda engine, sql, params=(), context="query": engine.run_query(sql, params, context=context)[1],
    )


def statements(engine: SqlEngine, *markers: str) -> list[str]:
    """Every statement the engine runs from now on that contains a marker."""
    seen: list[str] = []
    engine.conn.set_trace_callback(
        lambda sql: seen.append(sql) if any(m in sql for m in markers) else None
    )
    return seen


# --- which evaluations are shared ----------------------------------------------------------


def test_no_corpus_program_has_an_evaluation_group(monkeypatch):
    """No corpus replay evaluates an async view twice on an unchanged engine."""
    for name, _seed, config, trace in corpus_runs(seeds=(1,)):
        served = served_views(monkeypatch)
        Session.build(config).run_replay(trace)
        assert served() == {}, name


def test_evaluation_groups_of_the_benchmark_programs(monkeypatch):
    """Only remote_reorder_cached's twins share evaluations, on r1, and the
    strict twin, asked second, is always the one served."""
    for name, seed, config, trace in bench_runs(seeds=(1,)):
        served = served_views(monkeypatch)
        run = Session.build(config)
        run.run_replay(trace)
        if name == "remote_reorder_cached":
            asked = sum(1 for m in run.runtime.federation.transport.log
                        if m.kind == EVAL_REQUEST and m.view == "distStrictEvent")
            assert asked > 0
            assert served() == {("r1", "distStrictEvent"): asked}, name
        else:
            assert served() == {}, name


def test_a_strict_twin_shares_the_evaluation_of_its_async_view(monkeypatch):
    twins = session(SLIDER_TWINS)
    plan = twins.plan
    assert plan.leaders == {"distDataEvent": "r1", "distStrictEvent": "r1"}
    assert plan.relation_sql["distDataEvent"] == plan.relation_sql["distStrictEvent"]
    served = served_views(monkeypatch)
    twins.run_replay(SLIDES)
    requests = Counter(m.view for m in twins.runtime.federation.transport.log if m.kind == EVAL_REQUEST)
    assert requests["distStrictEvent"] == requests["distDataEvent"] > 0
    assert served() == {("r1", "distStrictEvent"): requests["distStrictEvent"]}


@pytest.mark.parametrize("program, served_b", [
    (f"""CREATE ASYNC VIEW a AS {COUNTS};
CREATE ASYNC VIEW b AS {COUNTS.replace("COUNT()", "COUNT() AS n")};
""", 0),
    # the year 2001 has no flight: the join is empty, so no RANDOM() is drawn,
    # and b's run would draw none either and return the same empty rows
    ("""CREATE ASYNC VIEW a AS SELECT origin FROM flights JOIN LATEST slideItx ON flight_year
  ORDER BY RANDOM() LIMIT 2;
CREATE ASYNC VIEW b AS SELECT origin FROM flights JOIN LATEST slideItx ON flight_year
  ORDER BY RANDOM() LIMIT 2;
""", 1),
    ("""CREATE VIEW sample AS SELECT origin, flight_year FROM flights ORDER BY RANDOM() LIMIT 3;
CREATE ASYNC VIEW a AS SELECT origin FROM sample JOIN LATEST slideItx ON flight_year;
CREATE ASYNC VIEW b AS SELECT origin FROM sample JOIN LATEST slideItx ON flight_year;
""", 0),
], ids=["different-sql", "random", "random-in-a-view"])
def test_views_that_may_differ_are_not_grouped(program, served_b, monkeypatch):
    """Different SQL runs, and so does a read that drew RANDOM()."""
    run = session(SLIDE + program + "CREATE OUTPUT oa AS SELECT * FROM a;\n"
                  "CREATE OUTPUT ob AS SELECT * FROM b;\n")
    assert run.plan.leaders == {"a": "r1", "b": "r1"}
    served = served_views(monkeypatch)
    run.run_replay(SLIDES)
    assert any(m.kind == EVAL_REQUEST for m in run.runtime.federation.transport.log)
    assert served() == ({("r1", "b"): served_b} if served_b else {})


def test_views_on_different_leaders_are_not_grouped():
    """Each engine decides for its own reads: the same read on two instances
    runs on each."""
    instances = [twin_instance("r1"), twin_instance("r2")]
    seen = [statements(instance.engine, TWIN_SQL) for instance in instances]
    for instance in instances:
        for msg in [
            message(SHIP_DATA, 1, 1, relation="ev", rows=[(10, 1, 0)]),
            message(EVAL_REQUEST, 1, 2, view="v"),
            message(EVAL_REQUEST, 1, 3, view="w"),
        ]:
            assert [m.rows for m in instance.receive(msg, 0)] == ([[(10,)]] if msg.view else [])
    assert seen == [[TWIN_SQL], [TWIN_SQL]]


# --- one evaluation per instance state ---------------------------------------------------


TWIN_SQL = "SELECT x FROM ev WHERE timestep = (SELECT MAX(timestep) FROM ev)"


def twin_instance(db_id: str = "r1") -> SimInstance:
    engine = SqlEngine(db_id)
    engine.execute_script("CREATE TABLE ev(x INTEGER, timestep INTEGER, timestamp INTEGER);")
    return SimInstance(db_id, engine, {"v": TWIN_SQL, "w": TWIN_SQL})


def message(kind: str, t: int, link_seq: int, **fields) -> Message:
    return Message(kind=kind, from_db="main", to_db="r1", send_ms=0,
                   request_timestep=t, link_seq=link_seq, **fields)


def test_a_group_is_evaluated_once_per_shipment_position():
    instance = twin_instance()
    seen = statements(instance.engine, TWIN_SQL)
    out = []
    for msg in [
        message(SHIP_DATA, 1, 1, relation="ev", rows=[(10, 1, 0)]),
        message(EVAL_REQUEST, 1, 2, view="v"),
        message(EVAL_REQUEST, 1, 3, view="w"),
        message(EVAL_REQUEST, 2, 4, view="v"),  # no shipment at 2: the state is unchanged
        message(SHIP_DATA, 3, 5, relation="ev", rows=[(30, 3, 0)]),
        message(EVAL_REQUEST, 3, 6, view="w"),
        message(EVAL_REQUEST, 3, 7, view="v"),
    ]:
        out += instance.receive(msg, 0)
    assert [(m.view, m.request_timestep, m.rows) for m in out] == [
        ("v", 1, [(10,)]), ("w", 1, [(10,)]), ("v", 2, [(10,)]),
        ("w", 3, [(30,)]), ("v", 3, [(30,)]),
    ]
    assert seen == [TWIN_SQL, TWIN_SQL]


def test_a_shipment_between_two_requests_forces_a_second_evaluation():
    instance = twin_instance()
    seen = statements(instance.engine, TWIN_SQL)
    out = []
    # delivered out of order; the channel releases them by link_seq
    for msg in [
        message(EVAL_REQUEST, 2, 4, view="w"),
        message(SHIP_DATA, 2, 3, relation="ev", rows=[(20, 2, 0)]),
        message(EVAL_REQUEST, 1, 2, view="v"),
        message(SHIP_DATA, 1, 1, relation="ev", rows=[(10, 1, 0)]),
    ]:
        out += instance.receive(msg, 0)
    assert [(m.view, m.rows) for m in out] == [("v", [(10,)]), ("w", [(20,)])]
    assert seen == [TWIN_SQL, TWIN_SQL]


def test_r1_runs_one_statement_per_group_and_shipment_position(monkeypatch):
    grouped = session(SLIDER_TWINS)
    twin_sql = grouped.plan.relation_sql["distDataEvent"]
    seen = statements(grouped.runtime.federation.instances["r1"].engine, twin_sql)
    grouped.run_replay(SLIDES)
    positions, shipped, requests = set(), 0, 0
    log = grouped.runtime.federation.transport.log
    for msg in sorted((m for m in log if m.to_db == "r1"), key=lambda m: m.link_seq):
        if msg.kind == SHIP_DATA:
            shipped += 1
        else:
            requests += 1
            positions.add((shipped, grouped.plan.relation_sql[msg.view]))
    assert len(seen) == len(positions) < requests

    every_read_runs(monkeypatch)
    plain = session(SLIDER_TWINS)
    seen = statements(plain.runtime.federation.instances["r1"].engine, twin_sql)
    plain.run_replay(SLIDES)
    assert len(seen) == requests
    assert plain.output_log_text() == grouped.output_log_text()


def test_the_coordinator_evaluates_a_group_once_per_dispatch(monkeypatch):
    program = SLIDE + f"""CREATE ASYNC VIEW a AS {COUNTS};
CREATE ASYNC VIEW b AS {COUNTS};
CREATE OUTPUT oa AS SELECT * FROM LATEST_REQUEST a;
CREATE OUTPUT ob AS SELECT * FROM b;
"""
    runs = []
    for plain in (False, True):
        with monkeypatch.context() as patch:
            if plain:
                every_read_runs(patch)
            local = session(program, remote=False)
            assert local.plan.leaders == {"a": "main", "b": "main"}
            seen = statements(local.runtime.engine, local.plan.relation_sql["a"])
            local.run_replay(SLIDES)
            runs.append((len(seen), local.output_log_text(), local.summary()))
    (grouped, log, summary), (plain, plain_log, plain_summary) = runs
    assert plain == summary["local_evals"] == 2 * grouped
    assert (log, summary) == (plain_log, plain_summary)


def test_groups_never_change_a_log_a_summary_or_a_message(monkeypatch):
    """The engine's reuse is invisible: over the corpus and the benchmark
    programs at seeds 1-3, the frames, diagnostics, summary and every message
    are the same when every read runs. On the benchmark programs only
    remote_reorder_cached's twins share evaluations, half of r1's."""

    def replay(name, config, trace, plain: bool):
        with monkeypatch.context() as patch:
            if plain:
                every_read_runs(patch)
            run = Session.build(config)
            federation = run.runtime.federation
            queries = [run.plan.relation_sql[view] for view in run.plan.leaders]
            seen = [statements(inst.engine, *queries) for inst in federation.instances.values()]
            run.run_replay(trace)
            messages = [encode_message(m) for m in federation.transport.log]
            logs = (run.output_log_text(), run.summary(), run.runtime.diagnostics, messages)
            return logs, sum(map(len, seen))

    checked = 0
    for source, runs in (("corpus", corpus_runs()), ("bench", bench_runs())):
        for name, seed, config, trace in runs:
            shared, evaluations = replay(name, config, trace, False)
            plain, plain_evaluations = replay(name, config, trace, True)
            assert shared == plain, (name, seed)
            if source == "bench" and name == "remote_reorder_cached":
                assert 2 * evaluations == plain_evaluations, seed
            elif source == "bench":
                assert evaluations == plain_evaluations, (name, seed)
            checked += 1
    assert checked == 3 * (20 + 3)
