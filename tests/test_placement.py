"""Placement transparency of outputs: a program renders the same final frames,
rows in order and columns by name, whether its data is on the coordinator or
on a remote instance, and the same log with materialization on and off."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from diel.ast_nodes import ColumnDef
from diel.compiler import SYSTEM_COLUMNS
from diel.corpus import load_examples
from diel.engine import read_csv_table
from diel.errors import ReservedColumnNameError
from diel.planner import materialized_on
from diel.session import DbConfig, RunConfig, Session, TraceEntry

from replays import DRAWS_PER_INSTANCE, fixed_shared_view_run, placement_runs

T = {"t": ([ColumnDef("k", "INT"), ColumnDef("v", "INT")], [(1, 10), (2, 20), (3, 30)])}
PICKS = [TraceEntry(30 * i, "pick", {"k": k}) for i, k in enumerate((1, 2, 3))]
CLICKS = [TraceEntry(30 * i, "clickItx", {"v": v}) for i, v in enumerate((1, 2, 3))]
REMOTE_RUNS = [(latency, seed) for latency in ("fixed(5)", "uniform(0,40)") for seed in (1, 2, 3)]

# name -> (program, trace, the error every placement raises or None)
CASES = {
    # reads an async view and a remote base table
    "async_view_and_remote_table": (
        "CREATE EVENT TABLE pick(k INT);"
        "CREATE ASYNC VIEW a AS SELECT t.k, t.v FROM t JOIN LATEST pick ON t.k = pick.k;"
        "CREATE OUTPUT o AS SELECT t.v, a.v AS av FROM t JOIN LATEST_REQUEST a ON t.k = a.k;",
        PICKS, None,
    ),
    # reads an event table without LATEST: every pick requests the output
    "plain_event_table": (
        "CREATE EVENT TABLE pick(k INT);"
        "CREATE OUTPUT o AS SELECT t.v FROM t JOIN pick ON t.k = pick.k;",
        PICKS, None,
    ),
    "order_by": (
        "CREATE EVENT TABLE pick(k INT);"
        "CREATE OUTPUT o AS SELECT t.v FROM t JOIN LATEST pick ON t.k <= pick.k ORDER BY t.v DESC;",
        PICKS, None,
    ),
    # unaliased duplicates and calls take the compiler's names everywhere
    "column_names": (
        "CREATE EVENT TABLE pick(k INT);"
        "CREATE OUTPUT o AS SELECT a.v, b.v, COUNT(*) FROM t a JOIN t b ON a.k = b.k "
        "JOIN LATEST pick ON a.k <= pick.k GROUP BY a.v, b.v;",
        PICKS, None,
    ),
    # a view's duplicate column is x_2 whether or not it is materialized
    "duplicate_view_column": (
        "CREATE EVENT TABLE pick(k INT);"
        "CREATE VIEW pairs AS SELECT a.k, b.k FROM pick a, pick b;"
        "CREATE OUTPUT o AS SELECT k_2 FROM pairs;"
        "CREATE OUTPUT n AS SELECT COUNT(*) AS n FROM pairs;",
        PICKS, None,
    ),
    # a state program reads a materialized view as of its own timestep
    "program_reads_materialized_view": (
        "CREATE EVENT TABLE clickItx(v INT);"
        "CREATE TABLE picks(v INT);"
        "CREATE VIEW cur AS SELECT v FROM LATEST clickItx;"
        "CREATE PROGRAM AFTER (clickItx) BEGIN INSERT INTO picks SELECT v FROM cur; END;"
        "CREATE OUTPUT o AS SELECT v FROM picks;"
        "CREATE OUTPUT shown AS SELECT v FROM cur;",
        CLICKS, None,
    ),
    # a result column named like the rowid would break reads by rowid
    "rowid_named_result_column": (
        "CREATE EVENT TABLE pick(k INT);"
        "CREATE ASYNC VIEW a AS SELECT t.v AS _rowid_, t.k FROM t JOIN LATEST pick ON t.k <= pick.k;"
        "CREATE ASYNC VIEW b AS SELECT t.v, a.k FROM t JOIN a ON t.k = a.k;"
        "CREATE OUTPUT ob AS SELECT v, k FROM b;",
        PICKS, ReservedColumnNameError,
    ),
}


def build(
    program: str, latency: str | None = None, seed: int = 1, materialize: bool = True, tables=T
) -> Session:
    """All tables on the coordinator when latency is None, else on r1."""
    databases = [DbConfig("main", "quick", tables={} if latency else tables)]
    if latency:
        databases.append(DbConfig("r1", "remote", latency=latency, tables=tables))
    return Session.build(RunConfig([program], databases, seed=seed, materialize=materialize))


def final_frames(program: str, trace, latency: str | None = None, seed: int = 1, tables=T) -> dict:
    """The last frame of each output, as (columns, rows); the log must not
    depend on materialization."""
    logs = []
    for materialize in (True, False):
        session = build(program, latency, seed, materialize, tables)
        session.run_replay(trace)
        logs.append(session.output_log_text())
    assert logs[0] == logs[1]
    return {f.output: (f.columns, f.rows) for f in session.runtime.frames}


@pytest.mark.parametrize("case", sorted(CASES))
def test_remote_outputs_render_the_all_local_final_frames(case):
    program, trace, error = CASES[case]
    if error is not None:
        for latency in (None, "fixed(5)"):
            with pytest.raises(error):
                build(program, latency)
        return
    local = final_frames(program, trace)
    assert local and all(rows for _, rows in local.values())
    for latency, seed in REMOTE_RUNS:
        assert final_frames(program, trace, latency, seed) == local, (latency, seed)


def test_one_rewrite_rule_for_every_remote_output():
    """Every relation whose new rows request the rewritten view bounds the
    re-check; only event tables are waited on; the output's order is kept."""
    plans = {
        case: build(CASES[case][0], "fixed(5)").plan
        for case in ("async_view_and_remote_table", "plain_event_table", "order_by", "column_names")
    }
    newest = "(e.request_timestep = (SELECT timestep FROM {} ORDER BY rowid DESC LIMIT 1))"
    plan = plans["async_view_and_remote_table"]
    assert plan.rewritten_outputs == {"o": "oEvent"} and plan.waits_on == {}
    assert plan.relation_sql["o"] == "SELECT e.v, e.av FROM oEvent AS e WHERE " + newest.format("a")
    plan = plans["plain_event_table"]
    assert plan.waits_on == {"o": ["pick"]}
    assert plan.relation_sql["o"] == "SELECT e.v FROM oEvent AS e WHERE " + newest.format("pick")
    plan = plans["order_by"]
    assert plan.relation_sql["o"].endswith(newest.format("pick") + " ORDER BY e.rowid")
    # every engine names a view's columns as the compiler does
    assert "CREATE VIEW o(v, v_2, count) AS " in plans["column_names"].programs["main"]


FLIGHTS = {"flights": read_csv_table(
    Path(__file__).resolve().parent.parent / "src" / "diel" / "corpus" / "data" / "flights.csv"
)}
ZOOMS = [TraceEntry(30 * i, "zoomItx", {"minD": lo, "maxD": hi})
         for i, (lo, hi) in enumerate(((-10, 60), (0, 30), (-20, 100), (5, 25)))]
ZOOM_HISTOGRAM = "\n".join(load_examples()["zoom_histogram"].diel_sources())
# the same query as an async view, read under the relaxed policy
ZOOM_ASYNC = ZOOM_HISTOGRAM.replace("CREATE VIEW flightDelayDist", "CREATE ASYNC VIEW flightDelayDist").replace(
    "SELECT * FROM flightDelayDist", "SELECT delayBin, count FROM LATEST_REQUEST flightDelayDist"
)


@pytest.mark.parametrize("program", [ZOOM_HISTOGRAM, ZOOM_ASYNC], ids=["rewritten", "async_view"])
def test_a_preaggregated_zoom_led_by_r1_renders_the_all_local_final_frames(program):
    """zoom_histogram's query, led by r1 through the strict rewrite or as a
    declared async view, reads a pre-aggregate that r1 builds and fills."""
    local = final_frames(program, ZOOMS, tables=FLIGHTS)
    assert local["delayHistogram"][1]
    for latency, seed in REMOTE_RUNS:
        assert final_frames(program, ZOOMS, latency, seed, FLIGHTS) == local, (latency, seed)
    plan = build(program, "fixed(5)", tables=FLIGHTS).plan
    assert {view: materialized_on(plan, view) for view in plan.materialized} == {"__pre_flights_delay": ["r1"]}
    assert "__pre_flights_delay" in plan.programs["r1"] and "__pre_" not in plan.programs["main"]


T_COLUMNS = [ColumnDef("k", "INT"), ColumnDef("v", "INT")]
PICK_ONE_LAST = [TraceEntry(0, "pick", {"k": 2}), TraceEntry(30, "pick", {"k": 1})]


@pytest.mark.parametrize("program, rows, expected", [
    # one row on r1 against one pick: the tie goes to the coordinator
    ("CREATE EVENT TABLE pick(k INT);"
     "CREATE OUTPUT o AS SELECT t.v FROM t JOIN LATEST pick ON t.k = pick.k;",
     [(1, 11)], ((11,),)),
    # an empty t costs nothing to ship, so the coordinator leads
    ("CREATE EVENT TABLE pick(k INT);"
     "CREATE ASYNC VIEW hits AS SELECT t.v FROM t JOIN LATEST pick ON t.k = pick.k;"
     "CREATE OUTPUT o AS SELECT v FROM LATEST_REQUEST hits;",
     [], ()),
], ids=["rewritten_output", "async_view_of_an_empty_table"])
def test_a_coordinator_leader_takes_a_snapshot_of_a_remote_table(program, rows, expected):
    tables = {"t": (T_COLUMNS, rows)}
    local = final_frames(program, PICK_ONE_LAST, tables=tables)
    assert local["o"] == (("v",), expected)
    for latency, seed in REMOTE_RUNS:
        assert final_frames(program, PICK_ONE_LAST, latency, seed, tables) == local, (latency, seed)
    plan = build(program, "fixed(5)", tables=tables).plan
    assert set(plan.leaders.values()) == {"main"}
    assert [(s.relation, s.destination, s.snapshot) for s in plan.shipments] == [("t", "main", True)]


def test_a_stored_remote_answer_compares_as_the_live_query_does():
    """o1's rows, stored in its result table on the coordinator, keep the
    INTEGER affinity of flight_year, so o2 matches them against text as the
    all-local view does."""
    program = (
        "CREATE EVENT TABLE pick(y INT);"
        "CREATE OUTPUT o1 AS SELECT flight_year AS y FROM flights "
        "JOIN LATEST pick ON flights.flight_year = pick.y;"
        "CREATE OUTPUT o2 AS SELECT COUNT(*) AS n FROM o1 WHERE y = '2000';"
    )
    trace = [TraceEntry(0, "pick", {"y": 1998}), TraceEntry(30, "pick", {"y": 2000})]
    local = final_frames(program, trace, tables=FLIGHTS)
    assert local["o2"] == (("n",), ((12,),))
    for latency, seed in REMOTE_RUNS:
        assert final_frames(program, trace, latency, seed, FLIGHTS) == local, (latency, seed)


def test_a_fixed_shared_view_is_a_table_on_every_instance_that_evaluates_it():
    """sums reads only t, so r1, which leads labelled, keeps it as a table too:
    each instance fills it once at setup, and no pass writes it again."""
    _, _, config, trace = fixed_shared_view_run(latency=None)
    local = Session.build(config)
    local.run_replay(trace)
    for latency, seed in REMOTE_RUNS:
        _, _, config, trace = fixed_shared_view_run(seed, latency)
        session = Session.build(config)
        plan, runtime = session.plan, session.runtime
        assert plan.leaders == {"labelled": "r1"} and plan.materialized == {"sums": frozenset()}
        assert materialized_on(plan, "sums") == ["main", "r1"]
        statements = []
        for engine in (runtime.engine, runtime.federation.instances["r1"].engine):
            assert engine.run_query("SELECT type FROM sqlite_master WHERE name = 'sums'")[1] == [("table",)]
            assert engine.run_query("SELECT * FROM sums ORDER BY k")[1] == [(1, 21), (2, 41), (3, 61)]
            engine.conn.set_trace_callback(statements.append)
        session.run_replay(trace)
        assert statements and not [s for s in statements if s.startswith(("INSERT INTO sums", "DELETE FROM sums"))]
        finals = {f.output: f.rows for f in session.runtime.frames}
        assert finals == {f.output: f.rows for f in local.runtime.frames} and finals["named"], (latency, seed)


def test_a_materialized_view_read_by_remote_leaders_stays_a_view_there():
    """sel is read by two outputs, so the coordinator stores it as a table;
    both outputs read r1's flights, so each becomes an async view led by r1,
    whose program must read sel as a view over its own copy of pick (only
    the coordinator fills a materialized view)."""
    program = (
        "CREATE EVENT TABLE pick(y INT);"
        "CREATE VIEW sel AS SELECT y FROM LATEST pick;"
        "CREATE OUTPUT o1 AS SELECT COUNT(*) AS n FROM flights JOIN sel ON flights.flight_year = sel.y;"
        "CREATE OUTPUT o2 AS SELECT MIN(origin) AS a FROM flights JOIN sel ON flights.flight_year = sel.y;"
    )
    trace = [TraceEntry(0, "pick", {"y": 1998}), TraceEntry(30, "pick", {"y": 2000})]
    local = final_frames(program, trace, tables=FLIGHTS)
    assert local["o1"] == (("n",), ((12,),))
    remote = build(program, "fixed(5)", tables=FLIGHTS)
    assert "sel" in remote.plan.materialized
    assert "CREATE VIEW sel(y)" in remote.plan.programs["r1"]
    for latency, seed in REMOTE_RUNS:
        assert final_frames(program, trace, latency, seed, FLIGHTS) == local, (latency, seed)


def without_clock(frame) -> tuple[tuple, list[tuple]]:
    """A frame's columns and rows without its system columns."""
    kept = [i for i, column in enumerate(frame.columns) if column not in SYSTEM_COLUMNS]
    return tuple(frame.columns[i] for i in kept), [tuple(row[i] for i in kept) for row in frame.rows]


@pytest.mark.parametrize("latency", ["fixed(0)", "uniform(0,50)", "fixed(30)"])
def test_each_corpus_example_renders_its_all_local_final_frames_wherever_its_tables_live(latency):
    """Every base table of each corpus example moved to r1, alone and all
    together, and split over r1 and r2 (`replays.placements`), with the
    request cache on and off: the last frame of each output, rows in order
    and columns by name, is the all-local run's, as C04 compares them,
    system columns aside: the clock counts each async result as a timestep
    of its own, stamped with its arrival time, so an event's timestep
    (brush_select's curBrush) and a result's timestamp (latest_request's
    distData) depend on placement. An example whose draws of RANDOM()
    depend on the instance is left out."""
    local: dict[str, dict] = {}
    differ, placed = [], set()
    for name, placement, config, trace in placement_runs(latency):
        for cache in (True, False):
            session = Session.build(dataclasses.replace(config, cache=cache))
            session.run_replay(trace)
            final = {frame.output: without_clock(frame) for frame in session.runtime.frames}
            if final != local.setdefault(name, final):
                differ.append((name, placement, cache))
            placed.add(placement)
    assert not differ, differ
    assert len(local) >= 12 and DRAWS_PER_INSTANCE.isdisjoint(local)
    assert {"all@r1", "split"} <= placed
