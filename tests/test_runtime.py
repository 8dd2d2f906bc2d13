from __future__ import annotations

import importlib
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diel.ast_nodes import ColumnDef
from diel.corpus import load_examples, run_example
from diel.errors import (
    EngineError,
    ReservedColumnNameError,
    SchemaMismatchError,
    SetupError,
    TypeMismatchError,
    UnknownAsyncViewError,
    UnknownEventError,
    UnknownOutputError,
)
from diel.session import DbConfig, RunConfig, Session, TraceEntry
from diel.udfs import UdfDef

from conftest import FLIGHT_COLUMNS
from listing_texts import (
    ALL_LISTINGS,
    MULTI_SELECT,
    REACTION_TIME,
    SLIDER,
    SLIDER_LATEST_REQUEST,
    UNDO,
)

FLIGHT_ROWS = [
    ("LAX", "JFK", 1998, 5, 2475),
    ("LAX", "ORD", 1999, -2, 1744),
    ("SFO", "JFK", 1998, 11, 2586),
    ("SFO", "ORD", 2000, 0, 1846),
    ("JFK", "LAX", 2000, 30, 2475),
]

TRACE3 = [
    TraceEntry(0, "slideItx", {"flight_year": 1998}),
    TraceEntry(300, "slideItx", {"flight_year": 1999}),
    TraceEntry(600, "slideItx", {"flight_year": 2000}),
]


def local_session(text, tables=None, **kwargs):
    config = RunConfig(
        diel_sources=[text],
        databases=[DbConfig("main", "quick", tables=tables or {})],
        seed=1,
        **kwargs,
    )
    return Session.build(config)


def remote_session(text, latency="fixed(0)", **kwargs):
    config = RunConfig(
        diel_sources=[text],
        databases=[
            DbConfig("main", "quick"),
            DbConfig("r1", "remote", latency=latency,
                     tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)}),
        ],
        seed=1,
        **kwargs,
    )
    return Session.build(config)


# --- setup -----------------------------------------------------------------------


def test_setup_ready_at_clock_zero():
    session = local_session(SLIDER, tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})
    assert session.runtime.clock == 0
    assert session.runtime.event_log() == []


def test_binding_unknown_output_is_an_error():
    session = local_session(SLIDER, tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})
    with pytest.raises(UnknownOutputError) as exc_info:
        session.runtime.bind_output("nope", lambda frame: None)
    assert "distData" in str(exc_info.value)


def test_setup_failure_names_instance():
    session = remote_session(SLIDER)
    from diel.runtime import setup

    # replaying the same per-db programs on fresh engines works, but a broken
    # program surfaces as a SetupError naming the instance
    session.plan.programs["r1"] += "\nCREATE TABLE flights (x INTEGER);"
    with pytest.raises(SetupError) as exc_info:
        setup(session.plan, {}, links={"r1": None})
    assert "r1" in str(exc_info.value)


def test_callbacks_given_to_build_fire_as_bound_ones_do():
    """`Session.build(config, bindings=...)`, the README's example: a callback
    given to the build sees the frames one bound after it sees."""
    def config():
        return RunConfig([SLIDER], [DbConfig("main", "quick", tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})],
                         seed=1)
    given, bound = [], []
    session = Session.build(config(), bindings={"distData": given.append})
    session.run_replay(TRACE3)
    other = Session.build(config())
    other.runtime.bind_output("distData", bound.append)
    other.run_replay(TRACE3)
    assert given == bound == other.runtime.frames
    assert len(given) == 3


def test_a_callback_given_to_build_for_an_unknown_output_is_an_error():
    with pytest.raises(UnknownOutputError, match="known outputs: distData"):
        Session.build(
            RunConfig([SLIDER], [DbConfig("main", "quick", tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})]),
            bindings={"nope": print},
        )


def test_setup_needs_a_link_to_each_remote_instance():
    session = remote_session(SLIDER)
    from diel.runtime import setup

    with pytest.raises(SetupError, match="r1.*no latency link configured"):
        setup(session.plan, {}, links={})


def test_the_coordinator_admits_result_rows_alone():
    from diel.federation import Message

    session = remote_session(SLIDER_LATEST_REQUEST)
    with pytest.raises(EngineError, match="unexpected message kind ShipData"):
        session.runtime.admit(Message("ShipData", "r1", "main", send_ms=0, relation="flights", rows=[]))


def test_not_empty_on_an_event_table_is_a_diagnostic_and_no_probe():
    session = local_session(SLIDER + "slideItx NOT EMPTY;", tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})
    assert session.catalog.diagnostics == ["NOT EMPTY target 'slideItx' is a EventTable, not a view"]
    assert session.runtime._probes == []
    session.run_replay(TRACE3)
    assert session.runtime.diagnostics == []


def test_coordinator_led_async_view_leaves_every_view_name_free():
    # the view runs its planned query directly, under no name of its own
    program = """\
CREATE EVENT TABLE pick(k INT);
CREATE VIEW __eval_hits AS SELECT v FROM t;
CREATE ASYNC VIEW hits AS SELECT t.v FROM t JOIN LATEST pick ON t.k = pick.k;
CREATE OUTPUT o AS SELECT v FROM LATEST_REQUEST hits;
"""
    columns = [ColumnDef("k", "INT"), ColumnDef("v", "INT")]
    session = local_session(program, tables={"t": (columns, [(1, 11), (2, 12)])})
    assert session.plan.placement["hits"] == session.plan.coordinator
    session.run_replay([TraceEntry(0, "pick", {"k": 1}), TraceEntry(10, "pick", {"k": 2})])
    assert [[list(row) for row in f.rows] for f in session.runtime.frames] == [[[11]], [[12]]]


# --- new_event ---------------------------------------------------------------------


def test_first_event_gets_timestep_one():
    session = local_session(SLIDER, tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})
    assert session.runtime.new_event("slideItx", {"flight_year": 1998}, at_ms=0) == 1


def test_timesteps_form_contiguous_sequence():
    session = local_session(MULTI_SELECT)
    session.runtime.new_event("clickItx", {"tweetId": "a"}, at_ms=0)
    session.runtime.new_event("resetItx", {}, at_ms=5)
    session.runtime.new_event("clickItx", {"tweetId": "b"}, at_ms=9)
    log = session.runtime.event_log()
    assert [r.timestep for r in log] == [1, 2, 3]


def test_event_shipped_to_remote_with_request_timestep():
    session = remote_session(SLIDER)
    session.inject(TraceEntry(0, "slideItx", {"flight_year": 1998}))
    session.inject(TraceEntry(10, "slideItx", {"flight_year": 1999}))
    ships = [m for m in session.runtime.federation.transport.log if m.kind == "ShipData"]
    # each user event ships its delta tagged with the event's own timestep
    assert [m.request_timestep for m in ships] == [1, 3]
    assert ships[1].rows[0][0] == 1999


def test_check_violation_ignores_event_and_keeps_clock():
    session = local_session(
        "CREATE EVENT TABLE sampleSizeItx (size INT CHECK size > 0);"
        "CREATE OUTPUT sizes AS SELECT size FROM sampleSizeItx;"
    )
    assert session.runtime.new_event("sampleSizeItx", {"size": -1}, at_ms=0) is None
    assert session.runtime.clock == 0
    assert session.runtime.ignored_events == 1
    assert any("CHECK" in d for d in session.runtime.diagnostics)
    assert session.runtime.new_event("sampleSizeItx", {"size": 2}, at_ms=1) == 1


def test_check_whose_udf_raises_ignores_the_event_and_keeps_the_clock():
    def fails(size):
        raise ValueError("no verdict")

    session = local_session(
        "CREATE EVENT TABLE sampleSizeItx (size INT CHECK fails(size));"
        "CREATE OUTPUT sizes AS SELECT size FROM sampleSizeItx;",
        udfs={"fails": UdfDef("fails", 1, fails)},
    )
    assert session.runtime.new_event("sampleSizeItx", {"size": 2}, at_ms=0) is None
    assert session.runtime.clock == 0
    assert session.runtime.ignored_events == 1
    assert session.runtime.frames == []
    assert session.runtime.diagnostics[-1].startswith("check on sampleSizeItx.size failed to run: ")


def test_a_null_payload_value_is_stored_as_null():
    session = local_session(
        "CREATE EVENT TABLE pick(k INT CHECK k > 0, label TEXT);"
        "CREATE OUTPUT picked AS SELECT k, label FROM LATEST pick;"
    )
    assert session.runtime.new_event("pick", {"k": None, "label": "a"}, at_ms=0) == 1
    assert session.runtime.frames[-1].rows == ((None, "a"),)


def test_unknown_event_and_type_mismatch():
    session = local_session(SLIDER, tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})
    with pytest.raises(UnknownEventError):
        session.runtime.new_event("mystery", {}, at_ms=0)
    with pytest.raises(TypeMismatchError):
        session.runtime.new_event("slideItx", {"flight_year": "x"}, at_ms=0)
    with pytest.raises(TypeMismatchError):
        session.runtime.new_event("slideItx", {}, at_ms=0)
    with pytest.raises(TypeMismatchError):
        session.runtime.new_event("slideItx", {"flight_year": 1, "extra": 2}, at_ms=0)


# --- on_async_result ------------------------------------------------------------------


def test_result_for_latest_request_renders_under_default_policy():
    session = remote_session(SLIDER)
    session.inject(TraceEntry(0, "slideItx", {"flight_year": 1998}))
    frames = session.runtime.frames
    assert frames[-1].rows == ()  # response not back yet at t1
    session.run_quiescent()
    assert session.runtime.clock == 2
    last = session.runtime.frames[-1]
    assert last.timestep == 2
    assert last.rows  # request 1 is still the latest interaction


def test_superseded_result_stays_empty():
    # delayed responses: both user events land before any response
    session = remote_session(SLIDER, latency="fixed(0)/fixed(500)")
    session.inject(TraceEntry(0, "slideItx", {"flight_year": 1998}))
    session.inject(TraceEntry(10, "slideItx", {"flight_year": 1999}))
    session.run_quiescent()
    frames = {f.timestep: f for f in session.runtime.frames}
    # t3 is request 1's response arriving after the second interaction
    assert frames[3].rows == ()
    assert frames[4].rows != ()


def test_empty_result_rows_still_advance_clock_and_render():
    session = remote_session(SLIDER)
    session.inject(TraceEntry(0, "slideItx", {"flight_year": 1887}))  # matches nothing
    session.run_quiescent()
    assert session.runtime.clock == 2
    assert [f.timestep for f in session.runtime.frames] == [1, 2]
    assert session.runtime.frames[1].rows == ()


def test_async_result_validation():
    session = remote_session(SLIDER)
    with pytest.raises(UnknownAsyncViewError):
        session.runtime.on_async_result("nope", [], 1, at_ms=0)
    with pytest.raises(SchemaMismatchError):
        session.runtime.on_async_result("distDataEvent", [(1, 2, 3)], 1, at_ms=0)


# --- process_timestep ------------------------------------------------------------------


def test_program_insert_visible_from_next_timestep():
    session = local_session(UNDO)
    session.runtime.new_event("clickItx", {"id": 7}, at_ms=0)
    # the program stored currSel at t1, but outputs at t1 saw the pre-insert state
    _, rows = session.runtime.engine.run_query("SELECT id, timestep FROM allSels")
    assert rows == [(7, 1)]
    assert session.runtime.frames[-1].rows == ((7,),)


def test_a_program_reads_a_materialized_view_as_of_its_timestep():
    session = local_session(
        "CREATE EVENT TABLE clickItx(v INT);"
        "CREATE TABLE picks(v INT);"
        "CREATE VIEW cur AS SELECT v FROM LATEST clickItx;"
        "CREATE PROGRAM AFTER (clickItx) BEGIN INSERT INTO picks SELECT v FROM cur; END;"
        "CREATE OUTPUT o AS SELECT v FROM picks;"
        "CREATE OUTPUT shown AS SELECT v FROM cur;"
    )
    assert "cur" in session.plan.materialized  # the program and `shown` read it
    for v in (1, 2, 3):
        session.runtime.new_event("clickItx", {"v": v}, at_ms=v)
    frames = [f.rows for f in session.runtime.frames if f.output == "o"]
    assert frames[-1] == ((1,), (2,))


def test_undo_trace_matches_formula():
    session = local_session(UNDO)
    for i, (event, payload) in enumerate(
        [("clickItx", {"id": 1}), ("clickItx", {"id": 2}), ("clickItx", {"id": 3}),
         ("undoItx", {}), ("undoItx", {})]
    ):
        session.runtime.new_event(event, payload, at_ms=i * 10)
    currsel = [f.rows for f in session.runtime.frames if f.output == "currSel"]
    assert currsel == [((1,),), ((2,),), ((3,),), ((2,),), ((1,),)]


CHAINED_VIEWS = """\
CREATE EVENT TABLE slideItx(flight_year INT);
CREATE ASYNC VIEW perOrigin AS
  SELECT origin, COUNT() count FROM flights JOIN LATEST slideItx ON flight_year
  GROUP BY origin;
CREATE ASYNC VIEW perRegion AS
  SELECT region, count FROM lookup JOIN LATEST_REQUEST perOrigin ON origin;
CREATE OUTPUT regions AS
  SELECT region, count FROM LATEST_REQUEST perRegion ORDER BY region, count;
"""


def chained_session(program: str = CHAINED_VIEWS) -> Session:
    """perOrigin leads on r1 (fixed(3)), perRegion on r2 (fixed(2))."""
    from diel.ast_nodes import ColumnDef

    lookup_cols = [ColumnDef("origin", "TEXT"), ColumnDef("region", "TEXT")]
    lookup_rows = [("LAX", "west"), ("SFO", "west"), ("JFK", "east")]
    config = RunConfig(
        diel_sources=[program],
        databases=[
            DbConfig("main", "quick"),
            DbConfig("r1", "remote", latency="fixed(3)",
                     tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)}),
            DbConfig("r2", "remote", latency="fixed(2)",
                     tables={"lookup": (lookup_cols, lookup_rows)}),
        ],
        seed=9,
    )
    return Session.build(config)


def test_chained_async_views_hop_between_instances():
    """An async view may consume another's results: the downstream view is
    triggered by result events, with result deltas shipped one hop on."""
    session = chained_session()
    assert session.plan.leaders == {"perOrigin": "r1", "perRegion": "r2"}
    shipped = {(s.relation, s.destination) for s in session.plan.shipments}
    assert shipped == {("slideItx", "r1"), ("perOrigin", "r2")}
    session.run_replay([TraceEntry(0, "slideItx", {"flight_year": 2000})])
    # event -> first result -> second result: three timesteps, one frame at the end
    assert session.runtime.clock == 3
    frames = [f for f in session.runtime.frames if f.rows]
    assert [f.timestep for f in frames] == [3]
    assert frames[0].rows == (("east", 1), ("west", 1))  # JFK east, SFO west in 2000


def test_chained_result_is_admitted_and_forwarded_at_its_arrival():
    """A result that arrives mid-trace is admitted at its own deliver_ms, and
    the follow-up request it triggers leaves then, not at the next trace entry."""
    session = chained_session()
    session.run_replay([
        TraceEntry(0, "slideItx", {"flight_year": 2000}),
        TraceEntry(100, "slideItx", {"flight_year": 1998}),
    ])
    events = [(r.timestep, r.relation, r.timestamp, r.request_timestep)
              for r in session.runtime.event_log()]
    assert events == [
        (1, "slideItx", 0, None),
        (2, "perOrigin", 6, 1),
        (3, "perRegion", 10, 2),
        (4, "slideItx", 100, None),
        (5, "perOrigin", 106, 4),
        (6, "perRegion", 110, 5),
    ]
    frames = [f.timestep for f in session.runtime.frames if f.output == "regions" and f.rows]
    assert frames == [3, 6]
    ship_r2 = [m for m in session.runtime.federation.transport.log
               if m.kind == "ShipData" and m.to_db == "r2" and m.request_timestep == 2]
    assert [m.send_ms for m in ship_r2] == [6]


CHAINED_THROUGH_VIEW = """\
CREATE EVENT TABLE slideItx(flight_year INT);
CREATE VIEW inYear AS
  SELECT origin FROM flights JOIN LATEST slideItx ON flight_year;
CREATE ASYNC VIEW perOrigin AS SELECT origin, COUNT() count FROM inYear GROUP BY origin;
CREATE ASYNC VIEW perRegion AS
  SELECT region, count FROM lookup JOIN LATEST_REQUEST perOrigin ON origin;
CREATE OUTPUT regions AS
  SELECT region, count FROM LATEST_REQUEST perRegion ORDER BY region, count;
"""


def test_views_on_a_chained_instance_read_only_what_it_holds():
    """perRegion's leader reads perOrigin as a shipped result table, so it
    must not also receive the view perOrigin reads (inYear over flights);
    nor does the coordinator, which does not hold flights either."""
    session = chained_session(CHAINED_THROUGH_VIEW)
    assert session.plan.leaders == {"perOrigin": "r1", "perRegion": "r2"}
    engines = [session.runtime.engine] + [
        instance.engine for instance in session.runtime.federation.instances.values()
    ]
    for engine in engines:
        views = [row[0] for row in engine.conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'view'")]
        for view in views:
            # a view over a relation the instance lacks fails when it is read
            engine.run_query(f'SELECT * FROM "{view}" LIMIT 0', context=view)
    assert "inYear" not in session.plan.programs["r2"]
    assert "inYear" not in session.plan.programs["main"]
    session.run_replay([TraceEntry(0, "slideItx", {"flight_year": 2000})])
    frames = [f for f in session.runtime.frames if f.rows]
    assert frames[-1].rows == (("east", 1), ("west", 1))


def test_not_empty_on_a_view_over_remote_data_is_reported_unchecked():
    """The coordinator cannot evaluate inYear, so its NOT EMPTY is never
    probed; that is said once, when the session is built."""
    session = chained_session(CHAINED_THROUGH_VIEW + "inYear NOT EMPTY;\n")
    expected = ["NOT EMPTY on inYear is not checked: the view reads data off the coordinator"]
    assert session.runtime.diagnostics == expected
    session.run_replay([TraceEntry(0, "slideItx", {"flight_year": 1800})])
    assert session.runtime.diagnostics == expected
    assert session.summary()["diagnostics"] == 1


# two event tables pick one row of t; v = 10 * k + k2
TWO_KEYS = [ColumnDef("k", "INT"), ColumnDef("k2", "INT"), ColumnDef("v", "INT")]
TWO_KEY_ROWS = [(1, 1, 11), (1, 2, 12), (2, 1, 21), (2, 2, 22)]
TWO_EVENTS = """\
CREATE EVENT TABLE aItx(x INT);
CREATE EVENT TABLE bItx(y INT);
"""
TWO_KEY_TRACE = [
    TraceEntry(i * 10, event, payload)
    for i, (event, payload) in enumerate([
        ("aItx", {"x": 1}), ("bItx", {"y": 1}), ("bItx", {"y": 2}),
        ("aItx", {"x": 2}), ("aItx", {"x": 1}),
    ])
]


def two_key_session(
    program: str, remote: bool, cache: bool = True,
    trace: list[TraceEntry] = TWO_KEY_TRACE, latency: str = "fixed(0)", seed: int = 1,
) -> Session:
    tables = {"t": (TWO_KEYS, TWO_KEY_ROWS)}
    databases = [DbConfig("main", "quick", tables={} if remote else tables)]
    if remote:
        databases.append(DbConfig("r1", "remote", latency=latency, tables=tables))
    session = Session.build(RunConfig([TWO_EVENTS + program], databases, seed=seed, cache=cache))
    session.run_replay(trace)
    return session


def test_request_cache_serves_only_views_that_read_one_latest_event_table():
    """av reads two changing event tables, so its result is not a function
    of the triggering payload: equal payloads of aItx and bItx must not share
    an entry, and the other table's row must not be ignored."""
    program = """\
CREATE ASYNC VIEW av AS SELECT t.v FROM t
  JOIN LATEST aItx ON t.k = aItx.x JOIN LATEST bItx ON t.k2 = bItx.y;
CREATE OUTPUT o AS SELECT v FROM LATEST_REQUEST av;
"""
    cached = two_key_session(program, remote=True)
    uncached = two_key_session(program, remote=True, cache=False)
    assert cached.output_log_text() == uncached.output_log_text()
    rows = {f.timestep: f.rows for f in cached.runtime.frames}
    assert rows[4] == ((11,),) and rows[8] == ((22,),)
    assert cached.summary()["cache_hits"] == 0


@pytest.mark.parametrize("view", [
    "CREATE ASYNC VIEW av AS SELECT aItx.timestep ts, t.v FROM t JOIN LATEST aItx ON t.k = aItx.x;",
    """CREATE VIEW pick AS SELECT * FROM LATEST aItx;
CREATE ASYNC VIEW av AS SELECT p.timestep ts, t.v FROM t JOIN pick p ON t.k = p.x;""",
    # the subquery's own timestep, and the outer one read from a subquery
    "CREATE ASYNC VIEW av AS SELECT (SELECT MAX(timestep) FROM LATEST aItx) ts, t.v\n"
    "  FROM t JOIN LATEST aItx ON t.k = aItx.x;",
    "CREATE ASYNC VIEW av AS SELECT (SELECT aItx.timestep) ts, t.v FROM t JOIN LATEST aItx ON t.k = aItx.x;",
], ids=["column", "star-in-view", "subquery-own-scope", "correlated-subquery"])
def test_request_cache_skips_views_that_read_the_event_timestep(view):
    """av returns the LATEST event's timestep, which the payload key does not
    hold: the repeated aItx 1 must be evaluated, not served from the cache."""
    program = view + "\nCREATE OUTPUT o AS SELECT * FROM LATEST_REQUEST av;\n"
    cached = two_key_session(program, remote=True)
    uncached = two_key_session(program, remote=True, cache=False)
    assert cached.output_log_text() == uncached.output_log_text()
    rows = {f.timestep: f.rows for f in cached.runtime.frames}
    assert [row[:2] for row in rows[8]] == [(7, 11), (7, 12)]
    assert cached.summary()["cache_hits"] == 0


@pytest.mark.parametrize("flights_on", ["main", "r1"])
def test_request_cache_skips_views_that_call_random(flights_on):
    """A sample drawn with RANDOM() is not a function of the size it was
    drawn for: the repeated sizes must draw again, as they do uncached."""
    program = """\
CREATE EVENT TABLE sizeItx(size INT);
CREATE ASYNC VIEW sampleEvent AS
  SELECT origin, delay FROM flights ORDER BY RANDOM() LIMIT (SELECT size FROM LATEST sizeItx);
CREATE OUTPUT sample AS SELECT * FROM LATEST_REQUEST sampleEvent;
"""
    trace = [TraceEntry(10 * i, "sizeItx", {"size": n}) for i, n in enumerate([3, 4, 3, 4, 3])]
    logs = []
    for cache in (True, False):
        if flights_on == "main":
            session = local_session(
                program, {"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)}, cache=cache
            )
        else:
            session = remote_session(program, latency="fixed(5)", cache=cache)
        session.run_replay(trace)
        assert session.summary()["cache_hits"] == 0
        logs.append(session.output_log_text())
    assert logs[0] == logs[1]


def test_a_cache_hit_replays_the_first_answers_rows_object():
    session = remote_session(SLIDER_LATEST_REQUEST, latency="fixed(5)")
    years = [1998, 1999, 1998]
    session.run_replay([TraceEntry(100 * i, "slideItx", {"flight_year": y}) for i, y in enumerate(years)])
    assert session.summary()["cache_hits"] == 1
    requests = [r.timestep for r in session.runtime.event_log() if r.relation == "slideItx"]
    answers = {
        r.request_timestep: r.payload["rows"]
        for r in session.runtime.event_log() if r.relation == "distDataEvent"
    }
    assert answers[requests[2]] is answers[requests[0]] and answers[requests[0]]


def test_strict_rewrite_over_two_latest_event_tables_renders_like_local():
    program = """\
CREATE OUTPUT o AS SELECT t.v FROM t
  JOIN LATEST aItx ON t.k = aItx.x JOIN LATEST bItx ON t.k2 = bItx.y;
"""
    remote = two_key_session(program, remote=True)
    local = two_key_session(program, remote=False)
    assert remote.plan.rewritten_outputs == {"o": "oEvent"}
    assert local.runtime.frames[-1].rows == ((12,),)
    assert remote.runtime.frames[-1].rows == local.runtime.frames[-1].rows


# a state program records each aItx x in the history table picks, and o,
# over t on r1, reads picks beside LATEST aItx: the plan ships both to r1
PICKS = """\
CREATE TABLE picks(x INT);
CREATE PROGRAM AFTER (aItx) BEGIN INSERT INTO picks SELECT x FROM LATEST aItx; END;
CREATE OUTPUT o AS SELECT t.v FROM t JOIN picks ON t.k = picks.x JOIN LATEST aItx ON t.k2 = aItx.x;
"""
PICKS_TRACE = [TraceEntry(10 * i, "aItx", {"x": x}) for i, x in enumerate([1, 2, 1])]


def sent_to(session: Session, db_id: str) -> list[tuple]:
    """(kind, relation or view, request_timestep, rows) of each message sent to db_id."""
    return [
        (m.kind, m.relation or m.view, m.request_timestep, m.rows)
        for m in session.runtime.federation.transport.log
        if m.to_db == db_id
    ]


@pytest.mark.parametrize("latency", ["fixed(0)", "uniform(0,40)"])
def test_history_table_reaches_a_remote_leader(latency):
    """Before each request r1 receives every picks row that has landed, so
    its evaluation of o sees what a local evaluation sees."""
    local = two_key_session(PICKS, remote=False, trace=PICKS_TRACE)
    remote = two_key_session(PICKS, remote=True, trace=PICKS_TRACE, latency=latency)
    assert remote.plan.rewritten_outputs == {"o": "oEvent"}
    assert [f.rows for f in local.runtime.frames] == [(), ((12,),), ((11,), (21,))]
    assert remote.runtime.frames[-1].rows == local.runtime.frames[-1].rows
    last_request = max(t for kind, _, t, _ in sent_to(remote, "r1") if kind == "EvalRequest")
    landed = remote.runtime.engine.conn.execute(
        "SELECT * FROM picks WHERE timestep < ?", (last_request,)
    ).fetchall()
    r1 = remote.runtime.federation.instances["r1"].engine
    assert r1.conn.execute("SELECT * FROM picks").fetchall() == landed
    assert [x for x, _ in landed] == [1, 2]


def test_history_row_stamped_t_ships_with_the_next_request():
    """The picks row of timestep t lands at the end of pass t, after the
    request at t has gone out, so it travels with the next request."""
    session = two_key_session(PICKS, remote=True, trace=PICKS_TRACE)
    ships = [(t, rows) for kind, rel, t, rows in sent_to(session, "r1")
             if kind == "ShipData" and rel == "picks"]
    assert ships == [(3, [(1, 1)]), (5, [(2, 3)])]


def test_an_event_table_may_not_declare_a_rowid_column():
    """The shipping cursor reads aItx's _rowid_. A declared _rowid_ column
    took its place, so a row whose value was below the cursor never reached
    r1: over this trace the local run ended on 13, and every result the
    remote run admitted showed 11."""
    program = """\
CREATE EVENT TABLE aItx(_rowid_ INT, x INT);
CREATE OUTPUT o AS SELECT t.v FROM t JOIN LATEST aItx ON t.k = aItx.x;
"""
    tables = {"t": ([ColumnDef("k", "INT"), ColumnDef("v", "INT")], [(1, 11), (2, 12), (3, 13)])}
    databases = [DbConfig("main", "quick"), DbConfig("r1", "remote", latency="fixed(0)", tables=tables)]
    with pytest.raises(ReservedColumnNameError, match="'_rowid_' shadows the rowid"):
        Session.build(RunConfig([program], databases, seed=1))


def test_one_leader_gets_a_shipment_per_relation_with_new_rows_in_plan_order():
    """r1 takes two delta relations, picks before zItx in plan order. Each
    request ships those with new rows, in that order, ahead of the
    EvalRequest; picks has none before the first request and sends nothing."""
    program = "CREATE EVENT TABLE zItx(x INT);\n" + PICKS.replace("aItx", "zItx")
    trace = [TraceEntry(e.at_ms, "zItx", e.payload) for e in PICKS_TRACE]
    session = two_key_session(program, remote=True, trace=trace)
    deltas = [s.relation for s in session.plan.shipments if s.destination == "r1" and not s.snapshot]
    assert deltas == ["picks", "zItx"]
    assert sent_to(session, "r1") == [
        ("ShipData", "zItx", 1, [(1, 1, 0)]),
        ("EvalRequest", "oEvent", 1, None),
        ("ShipData", "picks", 3, [(1, 1)]),
        ("ShipData", "zItx", 3, [(2, 3, 10)]),
        ("EvalRequest", "oEvent", 3, None),
        ("ShipData", "picks", 5, [(2, 3)]),
        ("ShipData", "zItx", 5, [(1, 5, 20)]),
        ("EvalRequest", "oEvent", 5, None),
    ]


@settings(max_examples=40, deadline=None)
@given(
    xs=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=8),
    gaps=st.lists(st.integers(0, 30), min_size=8, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_history_shipping_is_placement_transparent(xs, gaps, seed):
    """C04 over generated aItx traces and latency seeds: with t on r1, o's
    final frame equals the all-local run's. Traces with a bItx event are
    left out: a history change alone does not dispatch the async views that
    read it, so a bItx after the last aItx re-renders o only in the local
    run ("History on another instance" in docs/dialect.md; still open as a
    FOUND in CHANGES.md)."""
    at = [sum(gaps[:i]) for i in range(len(xs))]
    trace = [TraceEntry(ms, "aItx", {"x": x}) for ms, x in zip(at, xs)]
    local = two_key_session(PICKS, remote=False, trace=trace, seed=seed)
    remote = two_key_session(PICKS, remote=True, trace=trace, latency="uniform(0,40)", seed=seed)
    assert remote.runtime.frames[-1].rows == local.runtime.frames[-1].rows


def test_shipments_follow_the_plan_in_the_corpus_and_the_benchmark(monkeypatch):
    """Every ShipData carries a (relation, instance) pair the plan lists as
    a delta shipment; on the remote benchmark programs the two sets agree."""

    def pairs(session: Session) -> tuple[set, set]:
        log = session.runtime.federation.transport.log if session.runtime.federation else []
        shipped = {(m.relation, m.to_db) for m in log if m.kind == "ShipData"}
        planned = {(s.relation, s.destination) for s in session.plan.shipments if not s.snapshot}
        return shipped, planned

    for name, example in load_examples().items():
        shipped, planned = pairs(run_example(example))
        assert shipped <= planned, name
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    for name, make in workloads.WORKLOADS.items():
        workload = make(1, scale=0.2)
        databases = [
            DbConfig(inst.name, inst.kind, latency=inst.latency, tables=dict(inst.tables))
            for inst in workload.instances
        ]
        session = Session.build(RunConfig([workload.program], databases, seed=1))
        session.run_replay(workload.trace)
        shipped, planned = pairs(session)
        assert shipped <= planned, name
        if name.startswith("remote_"):
            assert shipped == planned != set(), name


PTS_COLUMNS = [ColumnDef("id", "INT"), ColumnDef("lat", "REAL"), ColumnDef("lon", "REAL")]
PTS_ROWS = [(1, 1.0, 1.0), (2, 5.0, 5.0), (3, 9.0, 2.0), (4, 2.0, 8.0)]
BRUSH = "CREATE EVENT TABLE brushItx(latMin REAL, lonMin REAL, latMax REAL, lonMax REAL);\n"
DIRECT = """\
CREATE OUTPUT direct AS
  SELECT p.id FROM pts p JOIN LATEST brushItx b ON point_in_box(p.lat, p.lon, b.*);
"""
BOX_VIEW = """\
CREATE VIEW box AS SELECT latMin, lonMin, latMax, lonMax FROM LATEST brushItx;
CREATE OUTPUT viaBox AS
  SELECT p.id FROM pts p JOIN box b ON point_in_box(p.lat, p.lon, b.*);
"""
BOX_ASYNC = """\
CREATE ASYNC VIEW box AS SELECT latMin, lonMin, latMax, lonMax FROM LATEST brushItx;
CREATE OUTPUT viaBox AS
  SELECT p.id FROM pts p JOIN LATEST_REQUEST box b ON point_in_box(p.lat, p.lon, b.*);
"""
# with pts remote, a reader of an async view is itself written as one
BOX_ASYNC_CHAINED = """\
CREATE ASYNC VIEW box AS SELECT latMin, lonMin, latMax, lonMax FROM LATEST brushItx;
CREATE ASYNC VIEW inBox AS
  SELECT p.id FROM pts p JOIN LATEST_REQUEST box b ON point_in_box(p.lat, p.lon, b.*);
CREATE OUTPUT viaBox AS SELECT id FROM LATEST_REQUEST inBox;
"""


@pytest.mark.parametrize(
    "program, pts_remote",
    [(BOX_VIEW, False), (BOX_VIEW, True), (BOX_ASYNC, False), (BOX_ASYNC_CHAINED, True)],
    ids=["view-local", "view-remote", "async-local", "async-remote"],
)
def test_star_argument_expands_the_columns_of_a_view(program, pts_remote):
    """`f(b.*)` over a view or an async view passes that relation's columns,
    exactly as it does over the event table the view reads."""
    pts = {"pts": (PTS_COLUMNS, PTS_ROWS)}
    databases = [DbConfig("main", "quick", tables={} if pts_remote else pts)]
    if pts_remote:
        databases.append(DbConfig("r1", "remote", latency="fixed(2)", tables=pts))
    session = Session.build(RunConfig([BRUSH + program + DIRECT], databases, seed=3))
    rendered = []
    for i, box in enumerate([(0, 0, 6, 6), (4, 1, 10, 10), (8, 0, 10, 3), (0, 0, 10, 10)]):
        payload = dict(zip(("latMin", "lonMin", "latMax", "lonMax"), map(float, box)))
        session.inject(TraceEntry(100 * i, "brushItx", payload))
        session.run_quiescent()
        via_box = session.runtime.current_output("viaBox").rows
        assert via_box == session.runtime.current_output("direct").rows
        rendered.append(sorted(via_box))
    assert rendered == [[(1,), (2,)], [(2,), (3,)], [(3,)], [(1,), (2,), (3,), (4,)]]


def test_latest_over_a_view_that_selects_timestep():
    """LATEST needs a timestep column, and a view's inferred columns count."""
    session = local_session(
        "CREATE EVENT TABLE slideItx(flight_year INT);"
        "CREATE VIEW slides AS SELECT * FROM slideItx;"
        "CREATE OUTPUT year AS SELECT flight_year FROM LATEST slides;"
    )
    session.run_replay(TRACE3)
    assert [f.rows for f in session.runtime.frames] == [((1998,),), ((1999,),), ((2000,),)]


def test_output_over_result_table_fires_only_on_result_events():
    session = remote_session(ALL_LISTINGS["slider_latest_request"])
    session.run_replay(TRACE3)
    # dependencies stop at the async view's result relation, so interaction
    # events alone do not re-render this output
    assert [f.timestep for f in session.runtime.frames] == [2, 4, 6]


def test_two_async_views_share_one_shipment_per_event():
    text = """\
CREATE EVENT TABLE slideItx(flight_year INT);
CREATE ASYNC VIEW countsEvent AS
  SELECT origin, COUNT() FROM flights JOIN LATEST slideItx ON flight_year GROUP BY origin;
CREATE ASYNC VIEW delaysEvent AS
  SELECT MAX(delay) FROM flights JOIN LATEST slideItx ON flight_year;
CREATE OUTPUT counts AS SELECT * FROM LATEST_REQUEST countsEvent;
CREATE OUTPUT delays AS SELECT * FROM LATEST_REQUEST delaysEvent;
"""
    session = remote_session(text)
    session.run_replay([TraceEntry(0, "slideItx", {"flight_year": 2000})])
    counts = session.runtime.federation.transport.sent_counts
    assert counts["ShipData"] == 1  # one delta shipment serves both views
    assert counts["EvalRequest"] == 2
    assert counts["ResultRows"] == 2
    assert session.runtime.clock == 3  # event + two result events
    assert {f.output for f in session.runtime.frames if f.rows} == {"counts", "delays"}


def test_program_with_values_insert_and_udf_command():
    session = local_session(
        "CREATE EVENT TABLE tick();"
        "CREATE TABLE marks(v INT);"
        "CREATE PROGRAM AFTER (tick) BEGIN"
        "  INSERT INTO marks VALUES (41 + 1);"
        "  SELECT length('side-effect');"
        " END;"
        "CREATE OUTPUT markLog AS SELECT v, timestep FROM marks;"
    )
    session.runtime.new_event("tick", {}, at_ms=0)
    session.runtime.new_event("tick", {}, at_ms=5)
    # inserts land with the triggering timestep, visible from the next one
    assert session.runtime.frames[-1].rows == ((42, 1),)
    _, rows = session.runtime.engine.run_query("SELECT v, timestep FROM marks")
    assert rows == [(42, 1), (42, 2)]


def test_a_program_insert_fills_the_columns_it_leaves_out_with_null():
    session = local_session(
        "CREATE EVENT TABLE tick(x INT);"
        "CREATE TABLE marks(a INT, b TEXT, c INT);"
        "CREATE PROGRAM AFTER (tick) BEGIN"
        "  INSERT INTO marks (c, a) SELECT x, x + 1 FROM LATEST tick;"
        "  INSERT INTO marks (b) VALUES ('one'), ('two');"
        " END;"
        "CREATE OUTPUT o AS SELECT a, b, c FROM marks;"
    )
    session.runtime.new_event("tick", {"x": 7}, at_ms=0)
    _, rows = session.runtime.engine.run_query("SELECT a, b, c, timestep FROM marks ORDER BY rowid")
    assert rows == [(8, None, 7, 1), (None, "one", None, 1), (None, "two", None, 1)]


def test_event_outside_closure_produces_no_frame():
    session = local_session(
        "CREATE EVENT TABLE a(x INT); CREATE EVENT TABLE b(y INT);"
        "CREATE OUTPUT onlyA AS SELECT x FROM LATEST a;"
    )
    session.runtime.new_event("b", {"y": 1}, at_ms=0)
    assert session.runtime.frames == []
    session.runtime.new_event("a", {"x": 2}, at_ms=1)
    assert [f.output for f in session.runtime.frames] == ["onlyA"]


def test_not_empty_constraint_diagnostic_names_view():
    session = local_session(MULTI_SELECT + "multiSelect NOT EMPTY;")
    session.runtime.new_event("resetItx", {}, at_ms=0)
    assert any("multiSelect" in d and "NOT EMPTY" in d for d in session.runtime.diagnostics)


def test_reaction_time_policy_window():
    session = local_session(
        REACTION_TIME + "CREATE OUTPUT intended AS SELECT item FROM skipUnintendedClick;"
    )
    session.runtime.new_event("menuDataItx", {"item": "a"}, at_ms=1000)
    session.runtime.new_event("clickItx", {"item": "a"}, at_ms=1150)
    frames = {f.timestep: f for f in session.runtime.frames if f.output == "intended"}
    assert frames[2].rows == ()  # within the 200 ms reaction window
    session.runtime.new_event("clickItx", {"item": "b"}, at_ms=1250)
    frames = {f.timestep: f for f in session.runtime.frames if f.output == "intended"}
    assert frames[3].rows == (("b",),)


def test_event_tables_are_append_only():
    session = local_session(UNDO)
    counts = []
    for i in range(4):
        session.runtime.new_event("clickItx", {"id": i}, at_ms=i)
        counts.append(len(session.runtime.engine.run_query('SELECT * FROM "clickItx"')[1]))
    assert counts == sorted(counts) == [1, 2, 3, 4]


MULTI_SELECT_OUT = MULTI_SELECT + "CREATE OUTPUT selectedTweets AS SELECT tweetId FROM multiSelect;"


def test_reentrant_callback_is_queued_as_next_event():
    session = local_session(MULTI_SELECT_OUT)

    def chain(frame):
        if frame.timestep == 1:
            session.runtime.new_event("clickItx", {"tweetId": "chained"}, at_ms=99)

    session.runtime.bind_output("selectedTweets", chain)
    session.runtime.new_event("clickItx", {"tweetId": "first"}, at_ms=0)
    log = session.runtime.event_log()
    assert [r.timestep for r in log] == [1, 2]
    assert log[1].payload == {"tweetId": "chained"}


PICKS_COUNT = PICKS + "CREATE OUTPUT n AS SELECT COUNT(*) FROM picks;\n"


def picks_count_session(deliver_in_callback: bool) -> Session:
    tables = {"t": (TWO_KEYS, TWO_KEY_ROWS)}
    databases = [
        DbConfig("main", "quick"),
        DbConfig("r1", "remote", latency="fixed(0)", tables=tables),
    ]
    session = Session.build(RunConfig([TWO_EVENTS + PICKS_COUNT], databases, seed=1))
    if deliver_in_callback:
        transport = session.runtime.federation.transport
        session.runtime.bind_output("o", lambda frame: session.deliver_due(transport.now))
    session.run_replay(PICKS_TRACE)
    return session


def test_result_delivered_from_a_callback_waits_for_the_pass_to_end():
    """A callback that delivers due messages admits o's result while pass 1
    runs. The result is queued, so pass 1's staged picks row lands first and
    the run is the same as without the callback."""
    quiet = picks_count_session(deliver_in_callback=False)
    busy = picks_count_session(deliver_in_callback=True)
    assert busy.output_log_text() == quiet.output_log_text()
    assert busy.runtime.event_log() == quiet.runtime.event_log()
    assert [f.timestep for f in busy.runtime.frames if f.output == "n"] == [2, 4, 6]
    steps = [f.timestep for f in busy.runtime.frames]
    assert steps == sorted(steps)


def test_new_event_alone_renders_a_coordinator_led_async_view():
    """Embedding with new_event and bind_output only: the local result of
    distDataEvent is taken before new_event returns."""
    tables = {"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)}
    session = local_session(SLIDER_LATEST_REQUEST, tables=tables)
    assert session.plan.leaders["distDataEvent"] == "main"
    rendered = []
    session.runtime.bind_output("distData", rendered.append)
    assert session.runtime.new_event("slideItx", {"flight_year": 1998}, at_ms=0) == 1
    assert session.runtime.clock == 2
    (frame,) = [f for f in rendered if f.timestep == 2]
    assert sorted(row[:2] for row in frame.rows) == [("LAX", 1), ("SFO", 1)]
    session.runtime.drain_inbox()
    assert session.runtime.clock == 2  # nothing was left queued


SEEN = """\
CREATE EVENT TABLE pick(v INT);
CREATE TABLE seen(v INT);
CREATE PROGRAM AFTER (pick) BEGIN INSERT INTO seen SELECT v FROM LATEST pick; END;
CREATE OUTPUT lastPick AS SELECT v FROM LATEST pick;
CREATE OUTPUT allSeen AS SELECT v FROM seen;
"""


def test_a_raising_callback_keeps_its_pass_frames_and_staged_inserts():
    """A lastPick callback raises at timestep 2. The error reaches the caller,
    but every frame of pass 2 is logged and pick 2's staged row lands, so
    seen holds every pick and allSeen renders it."""
    session = local_session(SEEN)

    def fail_at_two(frame):
        if frame.timestep == 2:
            raise RuntimeError("callback failed")

    session.runtime.bind_output("lastPick", fail_at_two)
    for i, v in enumerate((1, 2, 3)):
        if v == 2:
            with pytest.raises(RuntimeError, match="callback failed"):
                session.runtime.new_event("pick", {"v": v}, at_ms=10 * i)
        else:
            session.runtime.new_event("pick", {"v": v}, at_ms=10 * i)
    assert session.runtime.engine.run_query('SELECT * FROM "seen"')[1] == [(1, 1), (2, 2), (3, 3)]
    frames = [(f.output, f.timestep, f.rows) for f in session.runtime.frames]
    assert frames == [
        ("lastPick", 1, ((1,),)),
        ("lastPick", 2, ((2,),)), ("allSeen", 2, ((1,),)),
        ("lastPick", 3, ((3,),)), ("allSeen", 3, ((1,), (2,))),
    ]


def test_steps_left_queued_by_an_error_are_taken_before_the_next_call():
    """A callback queues a bad event and then a good one. The bad one raises
    out of the outer call; the good one is taken before the next event."""
    session = local_session(MULTI_SELECT_OUT)

    def chain(frame):
        if frame.timestep == 1:
            session.runtime.new_event("nope", {}, at_ms=5)
            session.runtime.new_event("clickItx", {"tweetId": "chained"}, at_ms=6)

    session.runtime.bind_output("selectedTweets", chain)
    with pytest.raises(UnknownEventError):
        session.runtime.new_event("clickItx", {"tweetId": "first"}, at_ms=0)
    assert session.runtime.new_event("resetItx", {}, at_ms=10) == 3
    log = session.runtime.event_log()
    assert [(r.relation, r.timestamp) for r in log] == [
        ("clickItx", 0), ("clickItx", 6), ("resetItx", 10),
    ]


def test_interleaved_events_and_results_form_contiguous_timesteps():
    session = remote_session(SLIDER, latency="fixed(0)/fixed(150)")
    session.inject(TraceEntry(0, "slideItx", {"flight_year": 1998}))
    session.inject(TraceEntry(100, "slideItx", {"flight_year": 1999}))
    session.inject(TraceEntry(400, "slideItx", {"flight_year": 2000}))
    session.run_quiescent()
    log = session.runtime.event_log()
    assert [r.timestep for r in log] == list(range(1, len(log) + 1))
    kinds = ["result" if r.request_timestep is not None else "user" for r in log]
    assert kinds.count("user") == 3 and kinds.count("result") == 3
    assert "result" in kinds[:4]  # a response really did interleave


def test_rewrite_soundness_one_timestep_delay_on_zero_latency():
    # same trace, local vs zero-latency in-order remote: the remote run's
    # frames are the local frames delayed by exactly one timestep each
    local = local_session(SLIDER, tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})
    for entry in TRACE3:
        local.inject(entry)
    remote = remote_session(SLIDER)
    remote.run_replay(TRACE3)
    local_frames = [sorted(f.rows) for f in local.runtime.frames]
    remote_rendered = [sorted(f.rows) for f in remote.runtime.frames if f.rows]
    assert remote_rendered == local_frames
    rendered_steps = [f.timestep for f in remote.runtime.frames if f.rows]
    request_steps = [1, 3, 5]  # user events in the remote run
    assert [r - q for r, q in zip(rendered_steps, request_steps)] == [1, 1, 1]


def test_event_log_replay_reproduces_frames():
    session = remote_session(SLIDER)
    session.run_replay(TRACE3)
    user_events = [
        TraceEntry(r.timestamp, r.relation, r.payload)
        for r in session.runtime.event_log()
        if r.request_timestep is None
    ]
    again = remote_session(SLIDER)
    again.run_replay(user_events)
    assert again.output_log_text() == session.output_log_text()


def _exact_key(value) -> tuple:
    """The canonical order of a value, computed exactly in Python: NULL,
    numbers by value (integer before real on a tie), text by code point."""
    if value is None:
        return (0,)
    if isinstance(value, (int, float)):
        return (1, value, isinstance(value, float))
    return (2, value)


def _row_key(row: tuple) -> tuple:
    return tuple(_exact_key(v) for v in row)


def untyped_session(rows, width=2):
    columns = [ColumnDef(f"c{i}", None) for i in range(width)]
    select = ", ".join(c.name for c in columns)
    return local_session(f"CREATE OUTPUT o AS SELECT {select} FROM t;", {"t": (columns, rows)})


_EDGE_INTS = [0, 1, -1, 2**53 - 1, 2**53, 2**53 + 1, 10**16, 9999999999999999, -(2**63), 2**63 - 1]
_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, 1.0, 9007199254740992.0, 1e16, 9.223372036854776e18]
_VALUES = st.one_of(
    st.none(),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from(_EDGE_INTS),
    st.floats(allow_nan=False),
    st.sampled_from(_EDGE_FLOATS),
    st.text(max_size=4),
    st.sampled_from(["\x00", "a\x00", "é", "日本", "A", "a", ""]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_VALUES, _VALUES), max_size=12))
def test_unordered_output_rows_are_in_canonical_order(rows):
    frame = untyped_session(rows).runtime.current_output("o")
    assert [_row_key(r) for r in frame.rows] == sorted(_row_key(r) for r in rows)
    assert Counter(map(repr, frame.rows)) == Counter(map(repr, rows))


def test_canonical_order_is_exact_beyond_2_53_and_for_negative_zero():
    rows = [(10**16,), (9999999999999999,), (-0.0,), (0,)]
    frame = untyped_session(rows, width=1).runtime.current_output("o")
    assert [repr(r) for r in frame.rows] == [
        "(0,)", "(-0.0,)", "(9999999999999999,)", "(10000000000000000,)"
    ]


def test_canonical_order_with_duplicate_column_names():
    session = local_session(
        "CREATE OUTPUT pairs AS SELECT a.x, b.x FROM t a, t b;",
        {"t": ([ColumnDef("x", "INT")], [(2,), (1,)])},
    )
    frame = session.runtime.current_output("pairs")
    assert frame.columns == ("x", "x_2")
    assert frame.rows == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_an_output_sqlite_rejects_fails_with_a_typed_error():
    """Every planned read is compiled when the session is built, so a query
    SQLite cannot run fails there, naming its relation, before any event."""
    with pytest.raises(EngineError, match="^output o on instance main: misuse of aggregate"):
        local_session(
            "CREATE EVENT TABLE e(x INT);"
            "CREATE OUTPUT o AS SELECT x FROM e WHERE COUNT(x) > 1;"
        )


@pytest.mark.parametrize("text, relation", [
    ("CREATE TABLE h(x INT);"
     "CREATE PROGRAM AFTER (e) BEGIN INSERT INTO h SELECT x FROM e WHERE COUNT(x) > 1; END;",
     "program program_1"),
    ("CREATE VIEW v AS SELECT x FROM e WHERE COUNT(x) > 1; v NOT EMPTY;", "constraint v"),
    ("CREATE ASYNC VIEW a AS SELECT x FROM e WHERE COUNT(x) > 1;", "async view a"),
], ids=["program", "constraint", "async-view"])
def test_any_read_sqlite_rejects_fails_the_build(text, relation):
    with pytest.raises(EngineError, match=f"^{relation} on instance main: misuse of aggregate"):
        local_session("CREATE EVENT TABLE e(x INT);" + text)


def test_an_async_view_its_leader_rejects_fails_the_build():
    with pytest.raises(EngineError, match="^async view a on instance r1: misuse of aggregate"):
        remote_session(
            "CREATE EVENT TABLE e(x INT);"
            "CREATE ASYNC VIEW a AS SELECT origin FROM flights JOIN LATEST e ON flight_year = e.x "
            "WHERE COUNT(delay) > 1;"
        )


def test_output_with_order_by_keeps_engine_order():
    session = local_session(
        "CREATE EVENT TABLE pick(v INT);"
        "CREATE OUTPUT ordered AS SELECT v FROM pick ORDER BY v DESC;"
    )
    for v in (1, 3, 2):
        session.runtime.new_event("pick", {"v": v}, at_ms=0)
    assert session.runtime.frames[-1].rows == ((3,), (2,), (1,))


def test_frames_of_an_output_share_one_columns_tuple():
    """The columns are the compiler's, taken once, with or without the output's
    own ORDER BY, and are the names a query over the view reports."""
    session = local_session(
        "CREATE EVENT TABLE pick(v INT);"
        "CREATE OUTPUT ordered AS SELECT v, v * 2 FROM pick ORDER BY v DESC;"
        "CREATE OUTPUT pairs AS SELECT a.v, b.v FROM pick a, pick b;"
    )
    for v in (1, 3, 2):
        session.runtime.new_event("pick", {"v": v}, at_ms=0)
    for output in ("ordered", "pairs"):
        frames = [f for f in session.runtime.frames if f.output == output]
        frames.append(session.runtime.current_output(output))
        reported = session.runtime.engine.run_query(f"SELECT * FROM {output}")[0]
        assert frames[0].columns == tuple(reported)
        assert all(f.columns is frames[0].columns for f in frames)
    assert frames[0].columns == ("v", "v_2")


def test_a_result_event_keeps_the_admitted_rows():
    session = local_session(
        "CREATE EVENT TABLE pick(v INT);"
        "CREATE ASYNC VIEW av AS SELECT v FROM LATEST pick;"
        "CREATE OUTPUT o AS SELECT v FROM LATEST_REQUEST av;"
    )
    session.runtime.new_event("pick", {"v": 4}, at_ms=0)
    assert session.runtime.event_log()[-1].payload == {"rows": [(4,)]}
    rows = [(5,)]
    session.runtime.on_async_result("av", rows, request_timestep=1, at_ms=0)
    assert session.runtime.event_log()[-1].payload["rows"] is rows


def test_latest_in_a_subquery_of_a_program_values_row():
    """A VALUES row is lowered like every other query, so LATEST inside one
    reads the newest event instead of a table named LATEST."""
    session = local_session(
        "CREATE EVENT TABLE e(v INT); CREATE TABLE h(v INT);"
        "CREATE PROGRAM AFTER (e) BEGIN INSERT INTO h VALUES ((SELECT v FROM LATEST e)); END;"
        "CREATE OUTPUT o AS SELECT v FROM h;"
    )
    for v in (3, 4, 5):
        session.runtime.new_event("e", {"v": v}, at_ms=0)
    assert session.runtime.frames[-1].rows == ((3,), (4,))
