"""Strict outputs that wait on an interaction: in the pass of that
interaction they show no rows without running their query, and skipping the
query never changes a frame, a summary or a message."""

from __future__ import annotations

import importlib
from collections import Counter
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diel import encode_message
from diel.corpus import load_examples
from diel.errors import UnknownRequestError
from diel.planner import dump_plan
from diel.session import DbConfig, RunConfig, Session, TraceEntry

from conftest import FLIGHT_COLUMNS
from listing_texts import PICKED

EXAMPLES = load_examples()
FLIGHT_ROWS = [
    ("LAX", "JFK", 1998, 5, 2475),
    ("LAX", "ORD", 1999, -2, 1744),
    ("SFO", "JFK", 1998, 11, 2586),
]
BOX = {"latMin": -50.0, "lonMin": -120.0, "latMax": 50.0, "lonMax": 120.0}


@cache
def corpus_tables(name: str) -> dict:
    """Every base table of a corpus example, wherever its manifest puts it."""
    return {t: rows for db in EXAMPLES[name].databases() for t, rows in db.tables.items()}


def remote_example(name: str, latency: str, seed: int = 7) -> Session:
    """brush_select with tweets on r1, or slider_reordered (flights on r1),
    behind `latency`."""
    remote_table = {"brush_select": "tweets", "slider_reordered": "flights"}[name]
    tables = dict(corpus_tables(name))
    remote = {remote_table: tables.pop(remote_table)}
    databases = [
        DbConfig("main", "quick", tables=tables),
        DbConfig("r1", "remote", latency=latency, tables=remote),
    ]
    return Session.build(RunConfig(EXAMPLES[name].diel_sources(), databases, seed=seed))


def picked_session() -> Session:
    databases = [
        DbConfig("main", "quick"),
        DbConfig("r1", "remote", latency="fixed(0)", tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)}),
    ]
    return Session.build(RunConfig([PICKED], databases, seed=1))


def without_waits(session: Session) -> Session:
    session.runtime.plan.waits_on.clear()
    return session


def contexts(session: Session) -> Counter:
    """Count the coordinator's statements by context from now on."""
    seen: Counter = Counter()
    engine = session.runtime.engine
    run_query = engine.run_query

    def counted(sql, params=(), context="query"):
        seen[context] += 1
        return run_query(sql, params, context=context)

    engine.run_query = counted
    return seen


def artifacts(session: Session) -> tuple:
    messages = [encode_message(m) for m in session.runtime.federation.transport.log]
    return session.output_log_text(), session.summary(), session.runtime.diagnostics, messages


# --- the plan -------------------------------------------------------------------------


def test_waited_on_tables_of_the_remote_corpus_programs():
    plan = remote_example("brush_select", "fixed(0)").plan
    assert plan.rewritten_outputs == {"brushedTweets": "brushedTweetsEvent"}
    assert plan.waits_on == {"brushedTweets": ["brushItx"]}
    assert "brushedTweets via brushedTweetsEvent, waits on brushItx\n" in dump_plan(plan)
    waits = {
        name: Session.build(example.config()).plan.waits_on
        for name, example in EXAMPLES.items()
    }
    assert {name: w for name, w in waits.items() if w} == {
        "slider_remote": {"distData": ["slideItx"]},
        "slider_reordered": {"distData": ["slideItx"]},
    }


def test_a_rewritten_output_over_no_latest_table_waits_on_nothing():
    databases = [
        DbConfig("main", "quick"),
        DbConfig("r1", "remote", latency="fixed(0)", tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)}),
    ]
    session = Session.build(RunConfig(
        ["CREATE EVENT TABLE slideItx(flight_year INT);"
         "CREATE OUTPUT total AS SELECT COUNT() AS n FROM flights;"],
        databases, seed=1,
    ))
    assert session.plan.rewritten_outputs == {"total": "totalEvent"}
    assert session.plan.waits_on == {}
    assert "total via totalEvent\n" in dump_plan(session.plan)


# --- no query in the pass of the awaited interaction ----------------------------------------


def test_an_interaction_runs_no_query_of_the_output_that_awaits_it():
    session = remote_example("brush_select", "fixed(0)")
    seen = contexts(session)
    session.inject(TraceEntry(0, "brushItx", BOX))
    assert seen["output brushedTweets"] == 0
    assert seen["output curBrush"] == 1
    session.run_quiescent()
    assert seen["output brushedTweets"] == 1  # admitting the answer runs it
    frames = [(f.timestep, len(f.rows)) for f in session.runtime.frames if f.output == "brushedTweets"]
    assert frames[0] == (1, 0) and frames[1][0] == 2 and frames[1][1] > 0

    plain = without_waits(remote_example("brush_select", "fixed(0)"))
    seen = contexts(plain)
    plain.run_replay([TraceEntry(0, "brushItx", BOX)])
    assert seen["output brushedTweets"] == 2
    assert artifacts(plain) == artifacts(session)


@pytest.mark.parametrize("first, second", [("yearItx", "originItx"), ("originItx", "yearItx")])
def test_an_event_on_either_awaited_table_skips_the_query(first, second):
    payloads = {"yearItx": {"flight_year": 1998}, "originItx": {"origin": "LAX"}}
    runs = []
    for clear in (False, True):
        session = picked_session()
        if clear:
            without_waits(session)
        seen = contexts(session)
        for name in (first, second):
            session.runtime.new_event(name, payloads[name], at_ms=0)
            assert seen["output picked"] == (2 if name == second else 1) * clear
        session.run_quiescent()
        # the two answers run it; without the skip the two events run it too,
        # but the first answer is empty: its pass changes no row, so the
        # engine serves that read the rows of the second event's
        assert seen["output picked"] == (3 if clear else 2)
        frames = [(f.timestep, f.rows) for f in session.runtime.frames if f.output == "picked"]
        # the answer to the first event is no longer the newest one's
        assert frames == [(1, ()), (2, ()), (3, ()), (4, ((5,),))]
        runs.append(artifacts(session))
    assert runs[0] == runs[1]


def test_a_result_may_not_answer_a_request_no_event_has_made():
    session = remote_example("brush_select", "fixed(0)")
    session.inject(TraceEntry(0, "brushItx", BOX))
    with pytest.raises(UnknownRequestError):
        session.runtime.on_async_result("brushedTweetsEvent", [], 2, at_ms=0)
    session.runtime.on_async_result("brushedTweetsEvent", [], 1, at_ms=0)
    assert session.runtime.clock == 2


# --- the benchmark programs ------------------------------------------------------------------


def test_skips_never_change_a_benchmark_log_and_save_one_query_per_waiting_output(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    expected = {
        "local_dashboard": {},
        "remote_brush": {"brushedTweets": ["brushItx"], "followerAgeDist": ["brushItx"]},
        "remote_reorder_cached": {"distStrict": ["slideItx"]},
    }
    for name, make in workloads.WORKLOADS.items():
        for seed in (1, 2, 3):
            workload = make(seed, scale=0.2)
            databases = [
                DbConfig(inst.name, inst.kind, latency=inst.latency, tables=dict(inst.tables))
                for inst in workload.instances
            ]
            config = RunConfig([workload.program], databases, seed=seed)
            runs = []
            for clear in (False, True):
                session = Session.build(config)
                assert session.plan.waits_on == expected[name], name
                awaited = Counter(t for tables in session.plan.waits_on.values() for t in tables)
                if clear:
                    without_waits(session)
                seen = contexts(session)
                session.run_replay(workload.trace)
                outputs = sum(n for context, n in seen.items() if context.startswith("output "))
                accepted = Counter(e.relation for e in session.runtime.event_log())
                runs.append((outputs, artifacts(session)))
            (skipping, log), (full, plain_log) = runs
            assert log == plain_log, (name, seed)
            assert full - skipping == sum(n * accepted[t] for t, n in awaited.items()), (name, seed)


# --- the policy, over generated traces and latencies -----------------------------------------


def check_strict_frames(session: Session) -> None:
    """Every frame of an output that waits on interactions holds exactly the
    rows of the answer to the newest of them, once that answer has entered,
    and no rows before."""
    runtime, plan = session.runtime, session.plan
    log = runtime.event_log()
    for output, tables in plan.waits_on.items():
        view = plan.rewritten_outputs[output]
        answers = {e.request_timestep: e for e in log if e.relation == view}
        for frame in (f for f in runtime.frames if f.output == output):
            newest = [
                max((e.timestep for e in log if e.relation == t and e.timestep <= frame.timestep),
                    default=None)
                for t in tables
            ]
            answer = None if None in newest else answers.get(max(newest))
            if answer is None or answer.timestep > frame.timestep:
                assert frame.rows == (), (output, frame.timestep)
            else:
                rows = answer.payload["rows"]
                assert Counter(map(repr, frame.rows)) == Counter(map(repr, map(tuple, rows)))


DEGREES = st.integers(-4, 4).map(lambda v: 30.0 * v)
BRUSHES = st.tuples(DEGREES, DEGREES, DEGREES, DEGREES).map(
    lambda b: ("brushItx", dict(zip(("latMin", "lonMin", "latMax", "lonMax"), b)))
)
SLIDES = st.integers(1995, 2001).map(lambda year: ("slideItx", {"flight_year": year}))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_strict_output_renders_only_the_newest_interactions_answer(data):
    name = data.draw(st.sampled_from(["brush_select", "slider_reordered"]))
    events = data.draw(st.lists(BRUSHES if name == "brush_select" else SLIDES, min_size=1, max_size=10))
    gaps = data.draw(st.lists(st.integers(0, 120), min_size=len(events), max_size=len(events)))
    low = data.draw(st.integers(0, 100))
    latency = f"uniform({low},{low + data.draw(st.integers(0, 150))})"
    seed = data.draw(st.integers(0, 2**16))
    at = [sum(gaps[: i + 1]) for i in range(len(events))]
    trace = [TraceEntry(ms, event, payload) for ms, (event, payload) in zip(at, events)]

    session = remote_example(name, latency, seed)
    assert session.plan.waits_on
    session.run_replay(trace)
    check_strict_frames(session)
    plain = without_waits(remote_example(name, latency, seed))
    plain.run_replay(trace)
    assert artifacts(plain) == artifacts(session)
