from __future__ import annotations

import pytest

from diel.errors import (
    SchemaMismatchError,
    SetupError,
    TypeMismatchError,
    UnknownAsyncViewError,
    UnknownEventError,
    UnknownOutputError,
)
from diel.runtime import canonical_rows
from diel.session import DbConfig, RunConfig, Session, TraceEntry

from conftest import FLIGHT_COLUMNS
from listing_texts import ALL_LISTINGS, MULTI_SELECT, REACTION_TIME, SLIDER, UNDO

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
    seen = []
    config = RunConfig(
        diel_sources=[SLIDER],
        databases=[DbConfig("main", "quick", tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})],
        seed=1,
    )
    session = Session.build(config, ready_cb=seen.append)
    assert seen == [session.runtime]
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
        setup(session.plan, {}, session.mat_plan, links={"r1": None})
    assert "r1" in str(exc_info.value)


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


def chained_session() -> Session:
    """perOrigin leads on r1 (fixed(3)), perRegion on r2 (fixed(2))."""
    from diel.ast_nodes import ColumnDef

    lookup_cols = [ColumnDef("origin", "TEXT"), ColumnDef("region", "TEXT")]
    lookup_rows = [("LAX", "west"), ("SFO", "west"), ("JFK", "east")]
    config = RunConfig(
        diel_sources=[CHAINED_VIEWS],
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


def test_atomicity_double_evaluation_is_stable():
    session = local_session(
        SLIDER, tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)}, check_atomicity=True
    )
    for year in (1998, 1999, 2000):
        session.runtime.new_event("slideItx", {"flight_year": year}, at_ms=0)
    assert len(session.runtime.frames) == 3


def test_event_tables_are_append_only():
    session = local_session(UNDO)
    counts = []
    for i in range(4):
        session.runtime.new_event("clickItx", {"id": i}, at_ms=i)
        counts.append(session.runtime.engine.count("clickItx"))
    assert counts == sorted(counts) == [1, 2, 3, 4]


MULTI_SELECT_OUT = MULTI_SELECT + "CREATE OUTPUT selectedTweets AS SELECT tweetId FROM multiSelect;"


def test_dedupe_frames_suppresses_identical_rows():
    base = local_session(MULTI_SELECT_OUT)
    deduped = local_session(MULTI_SELECT_OUT, dedupe_frames=True)
    trace = [
        TraceEntry(0, "resetItx", {}),
        TraceEntry(1, "clickItx", {"tweetId": "a"}),
        TraceEntry(2, "resetItx", {}),
        TraceEntry(3, "resetItx", {}),  # output stays empty: identical frame
    ]
    for entry in trace:
        base.inject(entry)
        deduped.inject(entry)
    assert len(base.runtime.frames) == 4
    assert len(deduped.runtime.frames) == 3


def test_reentrant_callback_is_queued_as_next_event():
    session = local_session(MULTI_SELECT_OUT)

    def chain(frame):
        if frame.timestep == 1:
            session.runtime.new_event("clickItx", {"tweetId": "chained"}, at_ms=99)

    session.runtime.bind_output("selectedTweets", chain)
    session.runtime.new_event("clickItx", {"tweetId": "first"}, at_ms=0)
    session.runtime.drain_inbox()
    log = session.runtime.event_log()
    assert [r.timestep for r in log] == [1, 2]
    assert log[1].payload == {"tweetId": "chained"}


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


def test_canonical_row_ordering_handles_mixed_types():
    rows = [("b", 2), ("a", None), ("a", 1.5), ("a", 1)]
    assert canonical_rows(rows) == [("a", None), ("a", 1), ("a", 1.5), ("b", 2)]


def test_output_with_order_by_keeps_engine_order():
    session = local_session(
        "CREATE EVENT TABLE pick(v INT);"
        "CREATE OUTPUT ordered AS SELECT v FROM pick ORDER BY v DESC;"
    )
    for v in (1, 3, 2):
        session.runtime.new_event("pick", {"v": v}, at_ms=0)
    assert session.runtime.frames[-1].rows == ((3,), (2,), (1,))
