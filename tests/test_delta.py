"""Empty-delta checks: which outputs take the delta path, and that taking it
never changes a frame."""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diel.ast_nodes import ColumnDef
from diel.corpus import load_examples, run_example
from diel.session import DbConfig, RunConfig, Session, TraceEntry

EXAMPLES = load_examples()

EVENTS = """\
CREATE EVENT TABLE brushItx(latMin REAL, lonMin REAL, latMax REAL, lonMax REAL);
CREATE EVENT TABLE tweets(tId TEXT, lat REAL, lon REAL);
CREATE EVENT TABLE clickItx(tId TEXT);
CREATE TABLE places(name TEXT);
"""
IN_BRUSH = "is_within_box(t.lat, t.lon, b.*)"


def delta_pairs(session: Session) -> set[tuple[str, str]]:
    return {(output, event) for output, (event, _sql) in session.plan.delta_sql.items()}


def local(program: str, materialize: bool = True) -> Session:
    databases = [DbConfig("main", "quick")]
    return Session.build(RunConfig([EVENTS + program], databases, seed=1, materialize=materialize))


def test_delta_outputs_of_the_corpus():
    pairs = {
        (name, output, event)
        for name, example in EXAMPLES.items()
        for output, event in delta_pairs(Session.build(example.config()))
    }
    assert pairs == {
        ("multi_select", "selectedTweets", "clickItx"),
        ("realtime_tweets", "tweetsInBrush", "tweets"),
    }


def test_delta_outputs_of_the_benchmark_programs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    expected = {
        "local_dashboard": {("tweetsInBrush", "tweets")},
        "remote_brush": set(),
        "remote_reorder_cached": set(),
    }
    for name, pairs in expected.items():
        workload = workloads.WORKLOADS[name](1, scale=0.2)
        databases = [
            DbConfig(inst.name, inst.kind, latency=inst.latency, tables=dict(inst.tables))
            for inst in workload.instances
        ]
        session = Session.build(RunConfig([workload.program], databases, seed=1))
        assert delta_pairs(session) == pairs, name


def test_select_project_join_over_one_event_table_qualifies():
    session = local(f"""\
CREATE VIEW hits AS SELECT t.tId, t.lat FROM tweets t JOIN LATEST brushItx b ON {IN_BRUSH};
CREATE VIEW north AS SELECT tId FROM hits WHERE lat > 0;
CREATE OUTPUT o AS SELECT n.tId, p.name FROM north n JOIN places p ON 1;
""")
    event, sql = session.plan.delta_sql["o"]
    assert event == "tweets"
    assert sql.startswith(
        "WITH tweets AS (SELECT * FROM main.tweets WHERE timestep = ? "
        "AND _rowid_ = (SELECT MAX(_rowid_) FROM main.tweets)), hits(tId, lat) AS ("
    )
    assert "), north(tId) AS (SELECT tId FROM hits WHERE (lat > 0)) SELECT 1 FROM (" in sql
    assert sql.endswith(") LIMIT 1")


NOT_MONOTONE = {
    "aggregate": "CREATE OUTPUT o AS SELECT COUNT() n FROM tweets;",
    "group-by": "CREATE OUTPUT o AS SELECT lat FROM tweets GROUP BY lat;",
    "having": "CREATE OUTPUT o AS SELECT lat FROM tweets GROUP BY lat HAVING lat > 0;",
    "left-join": f"CREATE OUTPUT o AS SELECT t.tId FROM tweets t LEFT JOIN LATEST brushItx b ON {IN_BRUSH};",
    "limit": "CREATE OUTPUT o AS SELECT tId FROM tweets LIMIT 3;",
    "order-by": "CREATE OUTPUT o AS SELECT tId, lat FROM tweets ORDER BY lat;",
    "random": "CREATE OUTPUT o AS SELECT tId, RANDOM() r FROM tweets;",
    "read-twice": "CREATE OUTPUT o AS SELECT a.tId FROM tweets a JOIN tweets b ON a.lat = b.lat;",
    "view-read-twice": """\
CREATE VIEW v AS SELECT tId, lat FROM tweets;
CREATE OUTPUT o AS SELECT a.tId FROM v a JOIN v b ON a.lat = b.lat;""",
    "latest": "CREATE OUTPUT o AS SELECT tId FROM LATEST tweets;",
    "scalar-subquery": "CREATE OUTPUT o AS SELECT t.tId FROM tweets t WHERE t.lat > (SELECT MIN(lat) FROM tweets);",
    "only-in-scalar-subquery": "CREATE OUTPUT o AS SELECT name FROM places WHERE (SELECT COUNT() FROM tweets) > 2;",
    "rowid": "CREATE OUTPUT o AS SELECT rowid r, tId FROM tweets;",
    "qualified-rowid": "CREATE OUTPUT o AS SELECT t.rowid AS r, t.tId FROM tweets t JOIN places p ON 1;",
    "rowid-under-a-select-alias": """\
CREATE VIEW v AS SELECT rowid AS id, tId FROM tweets;
CREATE OUTPUT o AS SELECT id FROM v;""",
    "rowid-read-from-a-subquery": (
        "CREATE OUTPUT o AS SELECT t.tId FROM tweets t "
        "WHERE (SELECT COUNT() FROM places p WHERE p.rowid = t.rowid) > 0;"
    ),
    "output-read-beside-event-table": """\
CREATE OUTPUT east AS SELECT lat FROM tweets WHERE lon > 0;
CREATE OUTPUT o AS SELECT a.tId FROM tweets a JOIN east e ON a.lat = e.lat WHERE a.lon < 0;""",
    "output-in-scalar-subquery": """\
CREATE OUTPUT east AS SELECT lat FROM tweets WHERE lon > 0;
CREATE OUTPUT o AS SELECT t.tId FROM tweets t WHERE t.lat > (SELECT MIN(lat) FROM east);""",
    "two-event-tables": "CREATE OUTPUT o AS SELECT t.tId FROM tweets t JOIN clickItx c ON t.tId = c.tId;",
    "history-table": """\
CREATE TABLE picks(tId TEXT);
CREATE PROGRAM AFTER (clickItx) BEGIN INSERT INTO picks SELECT tId FROM LATEST clickItx; END;
CREATE OUTPUT o AS SELECT tId FROM picks;""",
}


@pytest.mark.parametrize("program", NOT_MONOTONE.values(), ids=NOT_MONOTONE.keys())
def test_output_not_monotone_in_one_event_table_takes_no_delta_path(program):
    assert "o" not in local(program).plan.delta_sql


def test_output_on_the_path_is_shadowed_like_a_view():
    session = local("""\
CREATE OUTPUT north AS SELECT tId, lat FROM tweets WHERE lat > 0;
CREATE OUTPUT o AS SELECT tId FROM north WHERE lat < 3;
""")
    assert delta_pairs(session) == {("north", "tweets"), ("o", "tweets")}
    assert session.plan.delta_sql["o"][1] == (
        "WITH tweets AS (SELECT * FROM main.tweets WHERE timestep = ? "
        "AND _rowid_ = (SELECT MAX(_rowid_) FROM main.tweets)), "
        "north(tId, lat) AS (SELECT tId, lat FROM tweets WHERE (lat > 0)) "
        "SELECT 1 FROM (SELECT tId FROM north WHERE (lat < 3)) LIMIT 1"
    )


def test_a_view_on_the_path_keeps_its_column_names():
    """The delta statement shadows a view under the compiler's column names,
    so an output that reads a renamed duplicate column (`tId_2`) still runs."""
    session = local("""\
CREATE VIEW named AS SELECT t.tId, p.name AS tId FROM tweets t JOIN places p ON 1;
CREATE OUTPUT o AS SELECT tId_2 FROM named WHERE tId = 'b';
""")
    assert "named(tId, tId_2) AS (" in session.plan.delta_sql["o"][1]
    session.runtime.engine.insert_rows("places", [("p",)])
    for t, tid in enumerate("aba"):
        session.runtime.new_event("tweets", {"tId": tid, "lat": 0.0, "lon": 0.0}, at_ms=t)
    assert [f.rows for f in session.runtime.frames] == [(), (("p",),), (("p",),)]


def test_materialized_view_on_the_path_takes_no_delta_path():
    program = """\
CREATE VIEW v AS SELECT tId, lat FROM tweets;
CREATE OUTPUT o AS SELECT tId FROM v;
CREATE OUTPUT o2 AS SELECT lat FROM v;
"""
    assert list(local(program).plan.materialized) == ["v"]
    assert local(program).plan.delta_sql == {}
    assert delta_pairs(local(program, materialize=False)) == {("o", "tweets"), ("o2", "tweets")}


# --- transparency ------------------------------------------------------------------------


def watch_deltas(session: Session) -> Counter:
    """Count the delta statements the session runs, by outcome, and check at
    every frame of a delta output that its rows are the output's current rows."""
    outcomes: Counter = Counter()
    runtime = session.runtime
    statements = {sql for _event, sql in session.plan.delta_sql.values()}
    run_query = runtime.engine.run_query

    def counted(sql, params=(), context="query"):
        result = run_query(sql, params, context=context)
        if sql in statements:
            outcomes["non-empty" if result[1] else "empty"] += 1
        return result

    def check(frame):
        assert frame.rows == runtime.current_output(frame.output).rows

    runtime.engine.run_query = counted
    for output in session.plan.delta_sql:
        runtime.bind_output(output, check)
    return outcomes


def without_deltas(session: Session) -> Session:
    session.runtime.plan.delta_sql.clear()
    return session


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_delta_path_never_changes_a_corpus_log(name):
    example = EXAMPLES[name]
    full = without_deltas(Session.build(example.config()))
    full.run_replay(example.trace())
    assert run_example(example).output_log_text() == full.output_log_text()


def test_a_rowid_of_another_table_leaves_the_delta_path_open():
    """Only E's own rowid, which E's delta lacks, closes the path."""
    program = """\
CREATE EVENT TABLE tweets(k INT, v INT);
CREATE OUTPUT o AS SELECT t.v FROM tweets t JOIN readings r ON r.rowid = t.k;
"""
    readings = ([ColumnDef("k", "INT"), ColumnDef("timestep", "INT"), ColumnDef("v", "INT")],
                [(1, 5, 10), (2, 7, 8), (3, 9, 20)])
    trace = [TraceEntry(10 * i, "tweets", {"k": k, "v": 100 + i}) for i, k in enumerate((1, 5, 2, 7, 8, 3))]

    config = RunConfig([program], [DbConfig("main", "quick", tables={"readings": readings})], seed=1)
    session = Session.build(config)
    assert session.plan.delta_sql["o"][0] == "tweets"
    outcomes = watch_deltas(session)
    session.run_replay(trace)
    full = without_deltas(Session.build(config))
    full.run_replay(trace)
    assert outcomes == {"empty": 3, "non-empty": 2}
    assert session.output_log_text() == full.output_log_text()


def test_output_is_evaluated_in_full_when_more_than_its_event_table_changed():
    """The pick of t1 lands in the history table picks at the timestep of the
    next tweet, so that tweet's empty delta does not show the new join row."""
    session = local("""\
CREATE TABLE picks(tId TEXT);
CREATE PROGRAM AFTER (clickItx) BEGIN INSERT INTO picks SELECT tId FROM LATEST clickItx; END;
CREATE OUTPUT o AS SELECT t.tId FROM tweets t JOIN picks p ON t.tId = p.tId;
""")
    assert delta_pairs(session) == {("o", "tweets")}
    session.run_replay([
        TraceEntry(0, "tweets", {"tId": "t1", "lat": 0.0, "lon": 0.0}),
        TraceEntry(10, "clickItx", {"tId": "t1"}),
        TraceEntry(20, "tweets", {"tId": "t2", "lat": 0.0, "lon": 0.0}),
        TraceEntry(30, "tweets", {"tId": "t3", "lat": 0.0, "lon": 0.0}),
    ])
    assert [(f.timestep, f.rows) for f in session.runtime.frames] == [
        (1, ()), (3, (("t1",),)), (4, (("t1",),))
    ]


def test_output_joining_its_event_table_with_another_output_over_it_renders_in_full():
    """y adds no row of its own to o (y.lon > 0), but it adds a row to east
    that joins a1, so o changes at y."""
    program = NOT_MONOTONE["output-read-beside-event-table"]
    trace = [
        TraceEntry(0, "tweets", {"tId": "a1", "lat": 1.0, "lon": -1.0}),
        TraceEntry(10, "tweets", {"tId": "y", "lat": 1.0, "lon": 1.0}),
    ]
    session = local(program)
    assert delta_pairs(session) == {("east", "tweets")}
    session.run_replay(trace)
    full = without_deltas(local(program))
    full.run_replay(trace)
    assert session.output_log_text() == full.output_log_text()
    assert [f.rows for f in session.runtime.frames if f.output == "o"] == [(), (("a1",),)]


def test_delta_compares_with_the_event_table_column_affinity():
    """lat is REAL, so '4' compares as the number 4, in the delta as in the
    full query; rows rebound without the table's affinity would compare 5.0
    below the text '4' and keep the empty frame."""
    session = local("CREATE OUTPUT o AS SELECT tId FROM tweets WHERE lat > '4';")
    assert delta_pairs(session) == {("o", "tweets")}
    session.run_replay([
        TraceEntry(0, "tweets", {"tId": "t1", "lat": 1.0, "lon": 0.0}),
        TraceEntry(10, "tweets", {"tId": "t2", "lat": 5.0, "lon": 0.0}),
    ])
    assert [f.rows for f in session.runtime.frames] == [(), (("t2",),)]


def test_realtime_tweets_skips_every_tweet_after_the_first_render():
    example = EXAMPLES["realtime_tweets"]
    session = Session.build(example.config())
    outcomes = watch_deltas(session)
    session.run_replay(example.trace())
    assert outcomes["empty"] > 0 and outcomes["non-empty"] == 0
    assert session.output_log_text() == example.golden_text()


# tweetsInBrush (realtime_tweets) only shows tweets older than the brush, so a
# tweet never changes it; liveTweets shows every tweet inside the brush
LIVE_TWEETS = (
    "\n".join(EXAMPLES["realtime_tweets"].diel_sources())
    + f"\nCREATE OUTPUT liveTweets AS SELECT t.tId FROM tweets t JOIN LATEST brushItx b ON {IN_BRUSH};\n"
)

coordinate = st.integers(-4, 4).map(float)
tweet = st.builds(
    lambda lat, lon: ("tweets", {"content": "", "lat": lat, "lon": lon}), coordinate, coordinate
)
brush = st.builds(
    lambda lat, lon, h, w: (
        "brushItx", {"latMin": lat - h, "lonMin": lon - w, "latMax": lat + h, "lonMax": lon + w}
    ),
    coordinate, coordinate, st.integers(0, 3), st.integers(0, 3),
)


def test_delta_path_is_invisible_on_generated_tweet_and_brush_traces():
    seen: Counter = Counter()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(tweet, tweet, brush), min_size=1, max_size=30))
    # a tweet inside the newest brush: liveTweets' delta is non-empty
    @example([
        ("brushItx", {"latMin": -1.0, "lonMin": -1.0, "latMax": 1.0, "lonMax": 1.0}),
        ("tweets", {"content": "", "lat": 0.0, "lon": 0.0}),
    ])
    def replay_both_ways(events):
        trace = [
            TraceEntry(10 * i, name, {**payload, "tId": f"t{i}"} if name == "tweets" else payload)
            for i, (name, payload) in enumerate(events)
        ]
        config = RunConfig([LIVE_TWEETS], [DbConfig("main", "quick")], seed=1)
        session = Session.build(config)
        assert delta_pairs(session) == {("tweetsInBrush", "tweets"), ("liveTweets", "tweets")}
        outcomes = watch_deltas(session)
        session.run_replay(trace)
        seen.update(outcomes)
        full = without_deltas(Session.build(config))
        full.run_replay(trace)
        assert session.output_log_text() == full.output_log_text()

    replay_both_ways()
    assert seen["empty"] > 0 and seen["non-empty"] > 0
