from __future__ import annotations

from diel.compiler import compile_program
from diel.optimizer import RequestCache, materialize_shared_views
from diel.parser import parse_diel
from diel.session import DbConfig, RunConfig, Session, TraceEntry

from conftest import FLIGHT_COLUMNS

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
    plan = materialize_shared_views(catalog, catalog.graph)
    assert "filtered" in plan
    assert plan.tables["filtered"] == catalog.graph.closure("filtered")


def test_view_with_one_consumer_stays_virtual():
    catalog = compile_program(parse_diel(SHARED_VIEW), {"flights": FLIGHT_COLUMNS})
    plan = materialize_shared_views(catalog, catalog.graph)
    assert "single" not in plan


def test_materialization_respects_evaluable_filter():
    catalog = compile_program(parse_diel(SHARED_VIEW), {"flights": FLIGHT_COLUMNS})
    plan = materialize_shared_views(catalog, catalog.graph, evaluable=set())
    assert plan.tables == {}


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
    assert on.mat_plan.tables and not off.mat_plan.tables
    assert on.output_log_text() == off.output_log_text()
    # the engine really holds a table for the shared view when materializing
    _, kinds = on.runtime.engine.run_query(
        "SELECT type FROM sqlite_master WHERE name = 'filtered'"
    )
    assert kinds == [("table",)]


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


def test_identical_rows_share_one_data_id():
    cache = RequestCache()
    a = cache.store("v", (1998,), [("LAX", 1)])
    b = cache.store("v", (1999,), [("LAX", 1)])
    c = cache.store("v", (2000,), [("SFO", 2)])
    assert a == b != c
    assert len(cache.rows) == 3  # three hash rows ...
    assert len(cache.data) == 2  # ... sharing two stored row sets
    by_view = {row.viewName for row in cache.rows.values()}
    assert by_view == {"v"}


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


def test_row_set_digest_keeps_int_and_real_apart():
    cache = RequestCache()
    assert cache.store("v", (1,), [(1,)]) != cache.store("v", (2,), [(1.0,)])
    assert [type(x) for (x,) in cache.lookup("v", (2,))] == [float]


def test_cache_hit_count_equals_repeated_pairs():
    cache = RequestCache()
    sequence = [("v", (1,)), ("v", (2,)), ("v", (1,)), ("v", (1,)), ("w", (1,))]
    for view, params in sequence:
        if cache.lookup(view, params) is None:
            cache.store(view, params, [(0,)])
    assert cache.hits == 2  # the two repeats of ("v", (1,))
