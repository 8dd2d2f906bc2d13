"""Built-in UDFs lowered to SQL: the native body answers as the Python function
does, only calls that are safe to inline are inlined, and no planned statement
of the corpus or the benchmark programs calls back into Python for them."""

from __future__ import annotations

import importlib
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diel.ast_nodes import ColumnDef, ColumnRef, FuncCall
from diel.corpus import load_examples
from diel.engine import SqlEngine
from diel.errors import EngineError
from diel.printer import expr_sql
from diel.session import DbConfig, RunConfig, Session
from diel.udfs import BUILTIN_UDFS, UdfDef

from conftest import TWEET_COLUMNS

BUILTIN_CALL = re.compile(r"\b(point_in_box|is_within_box|box_in_box)\s*\(", re.IGNORECASE)
BOX = "COALESCE((b.latMin <= t.lat AND t.lat <= b.latMax AND b.lonMin <= t.lon AND t.lon <= b.lonMax), 0)"

ENGINE = SqlEngine("main")


def answers(name: str, values: tuple) -> tuple:
    """The lowered call's answer and the Python call's answer (or the error it
    raises) over `values`, bound as parameters, so no column affinity applies."""
    arity = BUILTIN_UDFS[name].arity
    call = FuncCall(name, [ColumnRef(f"a{i}") for i in range(arity)])
    row = ", ".join(f"? AS a{i}" for i in range(arity))
    native = ENGINE.run_query(f"SELECT {expr_sql(call, lower=True)} FROM (SELECT {row})", values)
    try:
        python = ENGINE.run_query(f"SELECT {expr_sql(call)} FROM (SELECT {row})", values)[1][0][0]
    except EngineError as exc:
        python = exc
    return native[1][0][0], python


EDGE_NUMBERS = [
    0, 1, -1, 2**53, 2**53 + 1, -(2**53 + 1), 10**16, -(10**16),
    0.0, -0.0, 1.0, math.inf, -math.inf, float(2**53), 1e16,
]
NUMBERS = st.one_of(
    st.none(),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-2, 2),
    st.floats(allow_nan=False),
    st.sampled_from(EDGE_NUMBERS),
)
TEXTS = st.one_of(st.none(), st.text(max_size=3), st.sampled_from(["", "a", "b", "\x00", "é", "日"]))


def argument_lists(data, values, arity: int) -> tuple:
    """Arguments drawn mostly from a small pool, so values equal to a bound are common."""
    pool = data.draw(st.lists(values, min_size=1, max_size=3))
    return tuple(data.draw(st.lists(st.sampled_from(pool) | values, min_size=arity, max_size=arity)))


@pytest.mark.parametrize("name", sorted(BUILTIN_UDFS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_native_body_answers_as_the_python_function(name, data):
    values = NUMBERS if data.draw(st.booleans()) else TEXTS
    args = argument_lists(data, values, BUILTIN_UDFS[name].arity)
    native, python = answers(name, args)
    assert native == python and type(native) is int, args


@pytest.mark.parametrize("name", sorted(BUILTIN_UDFS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_native_body_agrees_wherever_python_answers_mixed_types(name, data):
    args = argument_lists(data, NUMBERS | TEXTS, BUILTIN_UDFS[name].arity)
    native, python = answers(name, args)
    if not isinstance(python, EngineError):
        assert native == python, args


def test_text_against_a_number_follows_sqlite_type_order():
    # SQLite sorts every number before every text value; Python cannot
    # compare them, so the Python call fails the statement
    native, python = answers("point_in_box", ("5", 1, 0, 0, 10, 10))
    assert native == 0 and isinstance(python, EngineError)
    native, python = answers("point_in_box", (5, 1, 0, 0, "10", 10))
    assert native == 1 and isinstance(python, EngineError)


def test_text_columns_against_real_columns_compare_by_affinity():
    """Column affinity applies as in any SQL comparison: a REAL column against
    a TEXT one compares the text as a number when it reads as one."""
    session = Session.build(RunConfig(
        ["CREATE EVENT TABLE brushItx(latMin REAL, lonMin REAL, latMax REAL, lonMax REAL);"
         "CREATE OUTPUT o AS SELECT t.id FROM pts t JOIN LATEST brushItx b"
         " ON point_in_box(t.lat, t.lon, b.*);"],
        [DbConfig("main", "quick", tables={"pts": (
            [ColumnDef("id", "INT"), ColumnDef("lat", "TEXT"), ColumnDef("lon", "TEXT")],
            [(1, "5", "1"), (2, "abc", "1"), (3, "50", "1")],
        )})],
        seed=1,
    ))
    session.runtime.new_event("brushItx", {"latMin": 0.0, "lonMin": 0.0, "latMax": 10.0, "lonMax": 10.0}, 0)
    assert session.runtime.frames[-1].rows == ((1,),)


# --- which calls are inlined ----------------------------------------------------------

BRUSH = "CREATE EVENT TABLE brushItx(latMin REAL, lonMin REAL, latMax REAL, lonMax REAL);\n"
PTS = {"pts": (
    [ColumnDef("id", "INT"), ColumnDef("lat", "REAL"), ColumnDef("lon", "REAL")],
    [(1, 1.0, 1.0), (2, 5.0, 5.0), (3, 9.0, 2.0)],
)}


def pts_session(on: str, udfs=None, program: str = "") -> Session:
    text = BRUSH + program + f"CREATE OUTPUT o AS SELECT t.id FROM pts t JOIN LATEST brushItx b ON {on};"
    return Session.build(RunConfig([text], [DbConfig("main", "quick", tables=PTS)], seed=1, udfs=udfs))


def brush(session: Session) -> tuple:
    session.runtime.new_event("brushItx", {"latMin": 0.0, "lonMin": 0.0, "latMax": 6.0, "lonMax": 6.0}, 0)
    return session.runtime.frames[-1].rows


def test_column_and_literal_arguments_are_inlined():
    session = pts_session("point_in_box(t.lat, t.lon, 0, 0.5, b.latMax, 'x')")
    assert session.plan.relation_sql["o"] == (
        "SELECT t.id FROM pts AS t JOIN brushItx AS b ON COALESCE((0 <= t.lat AND t.lat <= b.latMax "
        "AND 0.5 <= t.lon AND t.lon <= 'x'), 0) WHERE (b.timestep = (SELECT MAX(timestep) FROM brushItx))"
    )
    assert brush(session) == ((1,), (2,))


def test_a_negated_number_is_inlined_like_a_literal():
    session = pts_session("point_in_box(t.lat, t.lon, -10, 0, 6, 20)")
    assert session.plan.relation_sql["o"].startswith(
        "SELECT t.id FROM pts AS t JOIN brushItx AS b ON COALESCE(((-10) <= t.lat AND t.lat <= 6 "
        "AND 0 <= t.lon AND t.lon <= 20), 0)"
    )
    assert brush(session) == ((1,), (2,))


@pytest.mark.parametrize("argument, call", [
    ("t.lat + 0", "point_in_box((t.lat + 0), t.lon, "),
    ("RANDOM()", "point_in_box(RANDOM(), t.lon, "),
    ("-t.lat", "point_in_box((-t.lat), t.lon, "),
])
def test_calls_with_other_arguments_stay_python(argument, call):
    session = pts_session(f"point_in_box({argument}, t.lon, b.*)")
    assert call + "b.latMin, b.lonMin, b.latMax, b.lonMax)" in session.plan.relation_sql["o"]
    assert "COALESCE" not in session.plan.relation_sql["o"]
    brush(session)


@pytest.mark.parametrize("key, udf", [
    ("point_in_box", UdfDef("point_in_box", 6, lambda *args: 1)),
    # SQLite folds case: this one replaces the built-in for every call by name
    ("Point_In_Box", UdfDef("Point_In_Box", 6, lambda *args: 1)),
], ids=["same-name", "other-case"])
def test_a_user_udf_over_a_builtin_name_stays_python(key, udf):
    session = pts_session("point_in_box(t.lat, t.lon, b.*)", udfs={key: udf})
    assert "point_in_box(t.lat, t.lon, b.latMin" in session.plan.relation_sql["o"]
    assert brush(session) == ((1,), (2,), (3,))


def test_a_user_udf_under_another_name_leaves_the_builtin_inlined():
    session = pts_session("point_in_box(t.lat, t.lon, b.*)", udfs={"twice": UdfDef("twice", 1, lambda v: 2 * v)})
    assert BOX in session.plan.relation_sql["o"]
    assert brush(session) == ((1,), (2,))


def test_a_check_calls_the_python_builtin():
    session = pts_session(
        "point_in_box(t.lat, t.lon, b.*)",
        program="CREATE EVENT TABLE pick(lat REAL CHECK point_in_box(lat, lat, 0, 0, 10, 10));\n",
    )
    [(column, sql)] = session.runtime._check_sql["pick"]
    assert "point_in_box(lat, lat, 0, 0, 10, 10)" in sql
    assert session.runtime.new_event("pick", {"lat": 20.0}, 0) is None
    assert session.runtime.new_event("pick", {"lat": 5.0}, 0) is not None


# --- the planned statements -----------------------------------------------------------


def planned_statements(session: Session) -> list[str]:
    plan = session.plan
    statements = list(plan.relation_sql.values())
    statements += [sql for commands in plan.program_sql.values() for sqls in commands for sql in sqls]
    statements += [sql for _event, sql in plan.delta_sql.values()]
    statements += [
        line for program in plan.programs.values() for line in program.splitlines()
        if not line.startswith("--")
    ]
    return statements


def bench_sessions() -> dict[str, Session]:
    workloads = importlib.import_module("workloads")
    sessions = {}
    for name, make in workloads.WORKLOADS.items():
        workload = make(1, scale=0.2)
        databases = [
            DbConfig(inst.name, inst.kind, latency=inst.latency, tables=dict(inst.tables))
            for inst in workload.instances
        ]
        sessions[name] = Session.build(RunConfig([workload.program], databases, seed=1))
    return sessions


def test_no_planned_statement_calls_a_builtin(monkeypatch):
    """Every built-in call in the corpus and the benchmark programs has column
    or literal arguments, so none is left for SQLite to call back into Python."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    sessions = {name: Session.build(example.config()) for name, example in load_examples().items()}
    sessions.update(bench_sessions())
    assert len(sessions) == 23
    callers = {name for name, s in sessions.items() if BUILTIN_CALL.search(" ".join(s.config.diel_sources))}
    assert len(callers) == 7
    for name, session in sessions.items():
        for sql in planned_statements(session):
            assert not BUILTIN_CALL.search(sql), (name, sql)


def test_brush_select_async_view_is_lowered():
    example = load_examples()["brush_select"]
    tweets = [(f"t{i}", "u", "", float(i), float(i)) for i in range(8)]
    databases = [DbConfig("main", "quick"), DbConfig("r1", "remote", tables={"tweets": (TWEET_COLUMNS, tweets)})]
    session = Session.build(RunConfig(example.diel_sources(), databases, seed=1))
    plan = session.plan
    assert plan.leaders == {"brushedTweetsEvent": "r1"}
    sql = (
        f"SELECT t.tId, t.lat, t.lon FROM tweets AS t JOIN brushItx AS b ON {BOX} "
        "WHERE (b.timestep = (SELECT MAX(timestep) FROM brushItx))"
    )
    assert plan.relation_sql["brushedTweetsEvent"] == sql
    seen: list[str] = []
    session.runtime.federation.instances["r1"].engine.conn.set_trace_callback(seen.append)
    session.run_replay(example.trace()[:1])
    assert sql in seen


def test_realtime_tweets_delta_probe_is_lowered():
    plan = Session.build(load_examples()["realtime_tweets"].config()).plan
    assert plan.delta_sql["tweetsInBrush"] == (
        "tweets",
        "WITH tweets AS (SELECT * FROM main.tweets WHERE timestep = ? "
        "AND _rowid_ = (SELECT MAX(_rowid_) FROM main.tweets)), fixedBrushTweets(tId, lat, lon) AS "
        f"(SELECT t.tId, t.lat, t.lon FROM tweets AS t JOIN brushItx AS b ON ({BOX} "
        "AND (t.timestep < b.timestep)) WHERE (b.timestep = (SELECT MAX(timestep) FROM brushItx))) "
        "SELECT 1 FROM (SELECT tId, lat, lon FROM fixedBrushTweets) LIMIT 1",
    )

