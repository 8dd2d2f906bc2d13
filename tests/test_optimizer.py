from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from diel.ast_nodes import ColumnDef
from diel.compiler import compile_program
from diel.engine import read_csv_table
from diel.optimizer import RequestCache, cacheable_views, materialize_shared_views
from diel.parser import parse_diel
from diel.planner import materialized_on
from diel.session import DbConfig, RunConfig, Session, TraceEntry

from conftest import FLIGHT_COLUMNS
from replays import bench_runs, corpus_runs

FLIGHT_ROWS = [
    ("LAX", "JFK", 1998, 5, 2475),
    ("SFO", "JFK", 1998, 11, 2586),
    ("SFO", "ORD", 2000, 0, 1846),
    ("JFK", "LAX", 2000, 30, 2475),
]

SHARED_VIEW = """\
CREATE EVENT TABLE yearItx(flight_year INT);
CREATE VIEW filtered AS
  SELECT origin, delay FROM flights JOIN LATEST yearItx ON flight_year;
CREATE OUTPUT byOrigin AS SELECT origin, COUNT() FROM filtered GROUP BY origin;
CREATE OUTPUT total AS SELECT COUNT() FROM filtered;
CREATE VIEW single AS SELECT delay FROM filtered;
"""


# --- materialization plan ----------------------------------------------------------


def test_view_with_two_consumers_is_materialized():
    catalog = compile_program(parse_diel(SHARED_VIEW), {"flights": FLIGHT_COLUMNS})
    materialized = materialize_shared_views(catalog, catalog.graph)
    assert "filtered" in materialized
    assert materialized["filtered"] == {"yearItx"}  # flights never changes


def test_view_with_one_consumer_stays_virtual():
    catalog = compile_program(parse_diel(SHARED_VIEW), {"flights": FLIGHT_COLUMNS})
    materialized = materialize_shared_views(catalog, catalog.graph)
    assert "single" not in materialized


def test_materialization_respects_evaluable_filter():
    catalog = compile_program(parse_diel(SHARED_VIEW), {"flights": FLIGHT_COLUMNS})
    materialized = materialize_shared_views(catalog, catalog.graph, evaluable=set())
    assert materialized == {}


def test_a_shared_view_that_calls_random_is_not_materialized():
    """Each read of `sample` draws its own row: stored once, a and b would
    share one sample, and the seeded generator would move once per pass."""
    program = """\
CREATE EVENT TABLE pick(k INT);
CREATE VIEW sample AS SELECT t.v FROM t JOIN LATEST pick p ON t.k >= p.k ORDER BY RANDOM() LIMIT 1;
CREATE OUTPUT a AS SELECT v FROM sample;
CREATE OUTPUT b AS SELECT v FROM sample;
"""
    tables = {"t": ([ColumnDef("k", "INT"), ColumnDef("v", "INT")], [(i % 3, i) for i in range(50)])}
    trace = [TraceEntry(10 * i, "pick", {"k": k}) for i, k in enumerate((0, 1, 2, 0, 1, 2))]
    sessions = []
    for materialize in (True, False):
        config = RunConfig([program], [DbConfig("main", "quick", tables=tables)], seed=3, materialize=materialize)
        sessions.append(Session.build(config))
        sessions[-1].run_replay(trace)
    on, off = sessions
    assert on.plan.materialized == {}
    assert [f.rows for f in off.runtime.frames[:2]] == [((47,),), ((37,),)]
    assert on.output_log_text() == off.output_log_text()


def test_materialization_is_transparent_end_to_end():
    trace = [
        TraceEntry(0, "yearItx", {"flight_year": 1998}),
        TraceEntry(10, "yearItx", {"flight_year": 2000}),
        TraceEntry(20, "yearItx", {"flight_year": 1998}),
    ]

    def run(materialize):
        config = RunConfig(
            diel_sources=[SHARED_VIEW],
            databases=[DbConfig("main", "quick", tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})],
            seed=3,
            materialize=materialize,
        )
        session = Session.build(config)
        session.run_replay(trace)
        return session

    on = run(True)
    off = run(False)
    assert on.plan.materialized and not off.plan.materialized
    assert on.output_log_text() == off.output_log_text()
    # the engine really holds a table for the shared view when materializing
    _, kinds = on.runtime.engine.run_query(
        "SELECT type FROM sqlite_master WHERE name = 'filtered'"
    )
    assert kinds == [("table",)]


CACHED_AND_SHARED = SHARED_VIEW + """\
CREATE ASYNC VIEW delays AS
  SELECT origin, delay FROM flights JOIN LATEST yearItx ON flight_year;
CREATE OUTPUT delayed AS SELECT * FROM LATEST_REQUEST delays;
"""


@pytest.mark.parametrize("off", ["cache", "materialize"])
def test_an_optimization_switched_off_leaves_its_plan_field_empty(off):
    trace = [
        TraceEntry(10 * i, "yearItx", {"flight_year": year})
        for i, year in enumerate([1998, 2000, 1998])
    ]

    def run(**flags):
        config = RunConfig(
            diel_sources=[CACHED_AND_SHARED],
            databases=[DbConfig("main", "quick", tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})],
            seed=3,
            **flags,
        )
        session = Session.build(config)
        session.run_replay(trace)
        return session

    default = run()
    assert default.plan.cached_views == {"delays"} and default.summary()["cache_hits"] == 1
    assert set(default.plan.materialized) == {"filtered"}
    session = run(**{off: False})
    if off == "cache":
        assert session.plan.cached_views == set() and session.summary()["cache_hits"] == 0
        assert session.plan.materialized == default.plan.materialized
    else:
        assert session.plan.materialized == {}
        assert session.plan.cached_views == default.plan.cached_views
    assert session.output_log_text() == default.output_log_text()


# --- request cache ----------------------------------------------------------------


def test_cold_cache_always_misses():
    cache = RequestCache()
    assert cache.lookup("v", (2000,)) is None
    assert cache.lookup("v", (2000,)) is None
    assert cache.misses == 2 and cache.hits == 0


def test_store_then_hit_returns_same_rows():
    cache = RequestCache()
    cache.store("v", (2000,), [("LAX", 1)])
    assert cache.lookup("v", (2000,)) == [("LAX", 1)]
    assert cache.hits == 1


def test_each_key_keeps_the_rows_it_was_given():
    cache = RequestCache()
    rows = {params: [("LAX", 1)] for params in [(1998,), (1999,)]}
    rows[(2000,)] = [("SFO", 2)]
    for params, given in rows.items():
        cache.store("v", params, given)
    assert set(cache.rows) == {("v", params) for params in rows}
    for params, given in rows.items():
        assert cache.lookup("v", params) is given  # equal rows are not merged


def test_the_first_answer_for_a_key_is_kept():
    cache = RequestCache()
    first, second = [("LAX", 1)], [("SFO", 2)]
    cache.store("v", (1,), first)
    cache.store("v", (1,), second)
    assert cache.lookup("v", (1,)) is first


def test_zero_row_result_is_cached_like_any_other():
    cache = RequestCache()
    cache.store("v", (1887,), [])
    assert cache.lookup("v", (1887,)) == []


def test_cache_key_distinguishes_views_and_params():
    cache = RequestCache()
    for view, params in [("v", (1,)), ("v", (1,)), ("w", (1,)), ("v", (2,))]:
        cache.store(view, params, [(view, params[0])])
    assert set(cache.rows) == {("v", (1,)), ("w", (1,)), ("v", (2,))}
    assert cache.lookup("w", (1,)) == [("w", 1)]
    # a REAL column stores 2000 and 2000.0 alike, so they are one key
    assert cache.lookup("v", (2.0,)) == [("v", 2)]


def test_a_hit_keeps_int_and_real_apart():
    cache = RequestCache()
    ints, reals = [(1,)], [(1.0,)]
    cache.store("v", (1,), ints)
    cache.store("v", (2,), reals)
    assert cache.lookup("v", (1,)) is ints and cache.lookup("v", (2,)) is reals
    assert [type(x) for (x,) in reals] == [float]


@pytest.mark.parametrize("first, second", [
    (0.0, -0.0),
    (b"\x00", "b'\\x00'"),  # a BLOB and the TEXT of its str()
    (b"x", "x"),
    (None, "None"),
], ids=["signed-zero", "blob-vs-its-str", "blob-vs-text", "null-vs-text"])
def test_row_set_key_keeps_types_and_zero_signs_apart(first, second):
    cache = RequestCache()
    rows = {(1,): [(first,)], (2,): [(second,)]}
    for params, given in rows.items():
        cache.store("v", params, given)
    for params, value in [((1,), first), ((2,), second)]:
        hit = cache.lookup("v", params)
        assert hit is rows[params] and repr(hit[0][0]) == repr(value)


def test_a_hit_returns_the_stored_rows_object_with_its_types():
    cache = RequestCache()
    rows = [("LAX", 1, 2.5, None, b"\x01"), ("", -0.0, 2**62, "x", b"")]
    cache.store("v", (1,), rows)
    hit = cache.lookup("v", (1,))
    assert hit is rows
    assert [[type(x) for x in row] for row in hit] == [
        [str, int, float, type(None), bytes], [str, float, int, str, bytes]
    ]
    assert repr(hit[1][1]) == "-0.0"


def test_cache_hit_count_equals_repeated_pairs():
    cache = RequestCache()
    sequence = [("v", (1,)), ("v", (2,)), ("v", (1,)), ("v", (1,)), ("w", (1,))]
    for view, params in sequence:
        if cache.lookup(view, params) is None:
            cache.store(view, params, [(0,)])
    assert cache.hits == 2  # the two repeats of ("v", (1,))


def test_exact_cached_views_of_the_corpus_and_benchmark_programs():
    runs = [*corpus_runs(seeds=(1,)), *bench_runs(seeds=(1,))]
    cached = {name: Session.build(config).plan.cached_views for name, _seed, config, _trace in runs}
    expected = {name: set() for name in cached}
    expected.update({
        "latest_request": {"distDataEvent"},
        "slider_remote": {"distDataEvent"},
        "slider_reordered": {"distDataEvent"},
        "remote_brush": {"brushedTweetsEvent", "followerAgeDistEvent"},
        "remote_reorder_cached": {"distDataEvent", "distStrictEvent"},
    })
    assert len(cached) == 23 and cached == expected


def test_exact_materialized_views_of_the_corpus_and_benchmark_programs():
    runs = [*corpus_runs(seeds=(1,)), *bench_runs(seeds=(1,))]
    plans = {name: Session.build(config).plan for name, _seed, config, _trace in runs}
    materialized = {name: {view: materialized_on(plan, view) for view in plan.materialized}
                    for name, plan in plans.items()}
    expected = {name: {} for name in materialized}
    for name in ("connect_templates", "local_dashboard"):
        expected[name] = {"__pre_flights_delay": ["main"], "filteredFlights": ["main"]}
    expected["zoom_histogram"] = {"__pre_flights_delay": ["main"]}
    assert len(materialized) == 23 and materialized == expected


@pytest.mark.parametrize("name, seed, config, trace", [
    pytest.param(*run, id=f"{run[0]}-{run[1]}") for run in [*corpus_runs(), *bench_runs()]
])
def test_materialization_is_transparent_over_every_program(name, seed, config, trace):
    """The output log and the diagnostics are the same with materialization
    on and off."""
    runs = []
    for materialize in (True, False):
        session = Session.build(dataclasses.replace(config, materialize=materialize))
        session.run_replay(trace)
        runs.append((session.output_log_text(), session.runtime.diagnostics))
    assert runs[0] == runs[1] and runs[0][0]


READING_COLUMNS = [ColumnDef("k", "INT"), ColumnDef("timestep", "INT"), ColumnDef("v", "INT")]
READINGS = [(1, 5, 10), (1, 6, 3), (2, 7, 8), (2, 9, 20)]


def test_a_subquery_reading_its_own_tables_timestep_keeps_a_view_cacheable():
    """The unqualified `timestep` in the subquery is readings', resolved in
    the subquery's own scope, not the triggering event's."""
    program = """\
CREATE EVENT TABLE pick(k INT);
CREATE ASYNC VIEW av AS SELECT r.v FROM readings r JOIN LATEST pick p ON r.k = p.k
  WHERE r.v >= (SELECT MIN(timestep) FROM readings);
"""
    catalog = compile_program(parse_diel(program), {"readings": READING_COLUMNS})
    assert cacheable_views(catalog) == {"av"}

    def run(cache: bool) -> Session:
        config = RunConfig(
            [program + "CREATE OUTPUT shown AS SELECT request_timestep, v FROM av;"],
            [DbConfig("main", "quick", tables={"readings": (READING_COLUMNS, READINGS)})],
            seed=1, cache=cache,
        )
        session = Session.build(config)
        session.run_replay([TraceEntry(10 * i, "pick", {"k": k}) for i, k in enumerate((1, 2, 1, 2, 1))])
        return session

    cached, uncached = run(cache=True), run(cache=False)
    assert cached.summary()["cache_hits"] == 3 and uncached.summary()["cache_hits"] == 0
    assert cached.output_log_text() == uncached.output_log_text()


FLIGHTS_CSV = Path(__file__).resolve().parent.parent / "src" / "diel" / "corpus" / "data" / "flights.csv"
YEAR_PICKS = [TraceEntry(10 * i, "pick", {"y": y}) for i, y in enumerate((1998, 2000, 2001))]


@pytest.mark.parametrize("select, where, expected", [
    ("flight_year AS y, origin", "yrs.y = '2000'", 12),
    # SQLite gives the rowid INTEGER affinity
    ("rowid AS r, flight_year AS y", "yrs.r = '2'", 1),
    # and a scalar subquery the affinity of its one result column
    ("(SELECT f.flight_year FROM flights f WHERE f.rowid = flights.rowid) AS s, flight_year AS y",
     "yrs.s = '2000'", 12),
    ("(SELECT f.flight_year FROM flights f WHERE f.rowid = flights.rowid), flight_year AS y",
     "yrs.col1 = '2000'", 12),
    # `*` over a one-column view takes that column's affinity
    ("(SELECT * FROM ys WHERE ys.y = flights.flight_year) AS s, flight_year AS y", "yrs.s = '2000'", 12),
], ids=["column", "rowid", "scalar_subquery", "unaliased_scalar_subquery", "star_scalar_subquery"])
def test_a_materialized_view_compares_as_the_live_view_does(select, where, expected):
    """Each column of a materialized view is declared with the type the
    compiler infers, so its rows compare against text as the view's do."""
    program = (
        "CREATE EVENT TABLE pick(y INT);"
        "CREATE VIEW ys AS SELECT flight_year AS y FROM flights;"
        f"CREATE VIEW yrs AS SELECT {select} FROM flights;"
        f"CREATE OUTPUT hits AS SELECT COUNT(*) AS n FROM yrs JOIN LATEST pick WHERE {where};"
        # a second reader, so that yrs is materialized
        "CREATE OUTPUT years AS SELECT COUNT(*) AS n FROM yrs JOIN LATEST pick ON yrs.y = pick.y;"
    )

    def run(materialize):
        config = RunConfig(
            diel_sources=[program],
            databases=[DbConfig("main", "quick", tables={"flights": read_csv_table(FLIGHTS_CSV)})],
            seed=1,
            materialize=materialize,
        )
        session = Session.build(config)
        session.run_replay(YEAR_PICKS)
        return session

    on, off = run(True), run(False)
    assert "yrs" in on.plan.materialized and not off.plan.materialized
    assert on.output_log_text() == off.output_log_text()
    assert off.runtime.current_output("hits").rows == ((expected,),)
