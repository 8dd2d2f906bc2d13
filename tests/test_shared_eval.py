"""Evaluation groups: which async views share one evaluation per instance
state, and that sharing it never changes a frame, a summary or a message."""

from __future__ import annotations

import importlib
from functools import partial
from pathlib import Path

import pytest

from diel import encode_message
from diel.compiler import compile_program
from diel.corpus import load_examples
from diel.engine import SqlEngine
from diel.federation import EVAL_REQUEST, SHIP_DATA, Message, SimInstance
from diel.parser import parse_diel
from diel.planner import DbDescriptor, base_schemas_of, emit_per_db_sql, plan_federation
from diel.session import DbConfig, RunConfig, Session, TraceEntry

from conftest import FLIGHT_COLUMNS
from listing_texts import SLIDER_TWINS

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


def groups(plan) -> set[tuple[str, frozenset[str]]]:
    """(leader, views) of each evaluation group of a plan."""
    members: dict[str, set[str]] = {}
    for view, first in plan.eval_groups.items():
        members.setdefault(first, set()).add(view)
    return {(plan.placement[first], frozenset(views)) for first, views in members.items()}


def remote_plan(program: str):
    dbs = [
        DbDescriptor("main", "quick"),
        DbDescriptor("r1", "remote", {"flights": FLIGHT_COLUMNS}, {"flights": 100}),
        DbDescriptor("r2", "remote", {"airports": FLIGHT_COLUMNS[:1]}, {"airports": 100}),
    ]
    plan = plan_federation(compile_program(parse_diel(program), base_schemas_of(dbs)), dbs)
    emit_per_db_sql(plan)
    return plan


def session(program: str, remote: bool = True) -> Session:
    """flights on r1 behind reordering latency, or on the coordinator."""
    flights = {"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)}
    databases = [DbConfig("main", "quick", tables={} if remote else flights)]
    if remote:
        databases.append(DbConfig("r1", "remote", latency="uniform(10,150)", tables=flights))
    return Session.build(RunConfig([program], databases, seed=3))


def bench_sessions(monkeypatch):
    """A fresh session of each benchmark program at seeds 1-3, with its trace."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    for name, make in workloads.WORKLOADS.items():
        for seed in (1, 2, 3):
            workload = make(seed, scale=0.2)
            databases = [
                DbConfig(inst.name, inst.kind, latency=inst.latency, tables=dict(inst.tables))
                for inst in workload.instances
            ]
            config = RunConfig([workload.program], databases, seed=seed)
            yield name, seed, workload.trace, partial(Session.build, config)


def statements(engine: SqlEngine, *markers: str) -> list[str]:
    """Every statement the engine runs from now on that contains a marker."""
    seen: list[str] = []
    engine.conn.set_trace_callback(
        lambda sql: seen.append(sql) if any(m in sql for m in markers) else None
    )
    return seen


# --- which views are grouped -------------------------------------------------------------


def test_no_corpus_program_has_an_evaluation_group():
    for name, example in load_examples().items():
        assert Session.build(example.config()).plan.eval_groups == {}, name


def test_evaluation_groups_of_the_benchmark_programs(monkeypatch):
    expected = {
        "local_dashboard": set(),
        "remote_brush": set(),
        "remote_reorder_cached": {("r1", frozenset({"distDataEvent", "distStrictEvent"}))},
    }
    for name, seed, _trace, build in bench_sessions(monkeypatch):
        if seed == 1:
            assert groups(build().plan) == expected[name], name


def test_a_strict_twin_shares_the_evaluation_of_its_async_view():
    plan = remote_plan(SLIDER_TWINS)
    assert plan.relation_sql["distDataEvent"] == plan.relation_sql["distStrictEvent"]
    assert groups(plan) == {("r1", frozenset({"distDataEvent", "distStrictEvent"}))}
    assert plan.eval_groups == {"distDataEvent": "distDataEvent", "distStrictEvent": "distDataEvent"}


@pytest.mark.parametrize("program", [
    f"""CREATE ASYNC VIEW a AS {COUNTS};
CREATE ASYNC VIEW b AS {COUNTS.replace("COUNT()", "COUNT() AS n")};
""",
    """CREATE ASYNC VIEW a AS SELECT origin FROM flights JOIN LATEST slideItx ON flight_year
  ORDER BY RANDOM() LIMIT 2;
CREATE ASYNC VIEW b AS SELECT origin FROM flights JOIN LATEST slideItx ON flight_year
  ORDER BY RANDOM() LIMIT 2;
""",
    """CREATE VIEW sample AS SELECT origin, flight_year FROM flights ORDER BY RANDOM() LIMIT 3;
CREATE ASYNC VIEW a AS SELECT origin FROM sample JOIN LATEST slideItx ON flight_year;
CREATE ASYNC VIEW b AS SELECT origin FROM sample JOIN LATEST slideItx ON flight_year;
""",
], ids=["different-sql", "random", "random-in-a-view"])
def test_views_that_may_differ_are_not_grouped(program):
    plan = remote_plan(SLIDE + program)
    assert plan.leaders == {"a": "r1", "b": "r1"}
    assert plan.eval_groups == {}


def test_views_on_different_leaders_are_not_grouped():
    program = SLIDE + f"CREATE ASYNC VIEW a AS {COUNTS};\nCREATE ASYNC VIEW b AS {COUNTS};\n"
    plan = remote_plan(program)
    assert groups(plan) == {("r1", frozenset({"a", "b"}))}
    plan.placement["b"] = "r2"
    emit_per_db_sql(plan)
    assert plan.eval_groups == {}


# --- one evaluation per instance state ---------------------------------------------------


TWIN_SQL = "SELECT x FROM ev WHERE timestep = (SELECT MAX(timestep) FROM ev)"


def twin_instance() -> SimInstance:
    engine = SqlEngine("r1")
    engine.execute_script("CREATE TABLE ev(x INTEGER, timestep INTEGER, timestamp INTEGER);")
    return SimInstance("r1", engine, {"v": TWIN_SQL, "w": TWIN_SQL}, {"v": "v", "w": "v"})


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
    assert instance.evaluated == [1, 1, 2, 3, 3]


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


def test_r1_runs_one_statement_per_group_and_shipment_position():
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
            positions.add((shipped, grouped.plan.eval_groups[msg.view]))
    assert len(seen) == len(positions) < requests

    plain = session(SLIDER_TWINS)
    plain.plan.eval_groups.clear()
    seen = statements(plain.runtime.federation.instances["r1"].engine, twin_sql)
    plain.run_replay(SLIDES)
    assert len(seen) == requests
    assert plain.output_log_text() == grouped.output_log_text()


def test_the_coordinator_evaluates_a_group_once_per_dispatch():
    program = SLIDE + f"""CREATE ASYNC VIEW a AS {COUNTS};
CREATE ASYNC VIEW b AS {COUNTS};
CREATE OUTPUT oa AS SELECT * FROM LATEST_REQUEST a;
CREATE OUTPUT ob AS SELECT * FROM b;
"""
    runs = []
    for clear in (False, True):
        local = session(program, remote=False)
        if clear:
            local.plan.eval_groups.clear()
        else:
            assert groups(local.plan) == {("main", frozenset({"a", "b"}))}
        seen = statements(local.runtime.engine, local.plan.relation_sql["a"])
        local.run_replay(SLIDES)
        runs.append((len(seen), local.output_log_text(), local.summary()))
    (grouped, log, summary), (plain, plain_log, plain_summary) = runs
    assert plain == summary["local_evals"] == 2 * grouped
    assert (log, summary) == (plain_log, plain_summary)


def test_groups_never_change_a_log_a_summary_or_a_message(monkeypatch):
    def replay(build, trace, clear: bool):
        run = build()
        if clear:
            run.plan.eval_groups.clear()
        federation = run.runtime.federation
        instances = federation.instances.values() if federation else ()
        queries = [run.plan.relation_sql[view] for view in run.plan.leaders]
        seen = [statements(inst.engine, *queries) for inst in instances]
        run.run_replay(trace)
        messages = [encode_message(m) for m in federation.transport.log] if federation else []
        return (run.output_log_text(), run.summary(), messages), sum(map(len, seen))

    for name, seed, trace, build in bench_sessions(monkeypatch):
        grouped, evaluations = replay(build, trace, False)
        plain, plain_evaluations = replay(build, trace, True)
        assert grouped == plain, (name, seed)
        if name == "remote_reorder_cached":
            assert 2 * evaluations == plain_evaluations, seed
        else:
            assert evaluations == plain_evaluations, (name, seed)
