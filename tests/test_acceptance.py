"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything here runs at desk scale (tables <= 10^4 rows, traces
<= 10^3 events) and uses independent oracles: handwritten SQL on raw sqlite3
connections, brute-force enumeration, or A/B reruns of the same trace.
"""

from __future__ import annotations

import random
import sqlite3
from pathlib import Path

from diel.compiler import compile_program
from diel.corpus import load_examples, run_example
from diel.engine import SqlEngine, read_csv_table
from diel.federation import RESULT_ROWS, Federation, FixedLatency, Link, ScriptedLatency, run_until_quiescent
from diel.parser import parse_diel, parse_query
from diel.printer import program_sql, query_sql
from diel.session import DbConfig, RunConfig, Session, TraceEntry

from latest_oracle import desugar_latest

GOLDEN_AST_DIR = Path(__file__).parent / "golden_ast"
CORPUS_DATA = Path(__file__).parent.parent / "src" / "diel" / "corpus" / "data"

EXAMPLES = load_examples()

SLIDER_TRACE = [
    TraceEntry(0, "slideItx", {"flight_year": 1998}),
    TraceEntry(300, "slideItx", {"flight_year": 1999}),
    TraceEntry(600, "slideItx", {"flight_year": 2000}),
]


def flights_fixture():
    columns, rows = read_csv_table(CORPUS_DATA / "flights.csv")
    assert len(rows) == 50
    return columns, rows


def slider_session(remote=False, latency="fixed(0)", program=None, seed=7, cache=True):
    program = program or EXAMPLES["slider"].diel_sources()[0]
    columns, rows = flights_fixture()
    if remote:
        databases = [
            DbConfig("main", "quick"),
            DbConfig("r1", "remote", latency=latency, tables={"flights": (columns, rows)}),
        ]
    else:
        databases = [DbConfig("main", "quick", tables={"flights": (columns, rows)})]
    config = RunConfig(diel_sources=[program], databases=databases, seed=seed, cache=cache)
    return Session.build(config)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# --- criterion 1: dialect corpus -----------------------------------------------------


def test_c01_dialect_corpus_parses_compiles_and_snapshots_stable():
    assert len(EXAMPLES) >= 12
    for name, example in EXAMPLES.items():
        source = "\n".join(example.diel_sources())
        statements = parse_diel(source)
        printed = program_sql(statements) + "\n"
        snapshot = (GOLDEN_AST_DIR / f"{name}.sql").read_text(encoding="utf-8")
        assert printed == snapshot, f"AST snapshot changed for {name}"
        assert parse_diel(printed) == statements  # round trip on the snapshot
        session = run_example(example)  # compiles, plans, and replays
        assert session.runtime.frames
    report("C1", f"{len(EXAMPLES)} corpus programs, stable snapshots")


# --- criterion 2: LATEST equivalence ---------------------------------------------------


def test_c02_latest_desugaring_equals_max_subquery_oracle():
    catalog = compile_program(
        parse_diel(
            "CREATE EVENT TABLE e1(a INT);"
            "CREATE EVENT TABLE e2(a INT);"
            "CREATE ASYNC VIEW r AS SELECT a FROM e1;"
        )
    )
    cases = [
        (
            "SELECT a FROM LATEST e1",
            "SELECT a FROM e1 WHERE timestep = (SELECT MAX(timestep) FROM e1)",
        ),
        (
            "SELECT a FROM LATEST_REQUEST r",
            "SELECT a FROM r WHERE request_timestep = "
            "(SELECT MAX(request_timestep) FROM r)",
        ),
        (
            "SELECT x.a, y.a FROM LATEST e1 AS x JOIN LATEST e2 AS y ON x.a = y.a",
            "SELECT x.a, y.a FROM e1 AS x JOIN e2 AS y ON x.a = y.a "
            "WHERE x.timestep = (SELECT MAX(timestep) FROM e1) "
            "AND y.timestep = (SELECT MAX(timestep) FROM e2)",
        ),
    ]
    rng = random.Random(2024)
    total = 0
    for sugared, oracle_sql in cases:
        desugared_sql = query_sql(desugar_latest(parse_query(sugared), catalog))
        for _ in range(350):
            engine = SqlEngine("case")
            engine.execute_script(
                "CREATE TABLE e1(a INTEGER, timestep INTEGER, timestamp INTEGER);"
                "CREATE TABLE e2(a INTEGER, timestep INTEGER, timestamp INTEGER);"
                "CREATE TABLE r(a INTEGER, timestep INTEGER, timestamp INTEGER,"
                " request_timestep INTEGER);"
            )
            for table in ("e1", "e2"):
                engine.insert_rows(table, [
                    (rng.randint(0, 6), rng.randint(1, 50), 0)
                    for _ in range(rng.randint(0, 100))
                ])
            engine.insert_rows("r", [
                (rng.randint(0, 6), rng.randint(1, 50), 0, rng.randint(1, 50))
                for _ in range(rng.randint(0, 100))
            ])
            got = sorted(engine.run_query(desugared_sql)[1])
            expected = sorted(engine.run_query(oracle_sql)[1])
            assert got == expected
            total += 1
    assert total >= 1000
    report("C2", f"{total} randomized cases, exact row-set equality")


# --- criterion 3: slider end-to-end (local) ----------------------------------------------


def slider_oracle_frames(trace):
    """Independent oracle: drive handwritten SQL on a raw sqlite connection."""
    columns, rows = flights_fixture()
    conn = sqlite3.connect(":memory:")
    conn.execute(
        "CREATE TABLE flights(origin TEXT, destination TEXT, flight_year INTEGER,"
        " delay INTEGER, distance INTEGER)"
    )
    conn.executemany("INSERT INTO flights VALUES (?,?,?,?,?)", rows)
    conn.execute("CREATE TABLE slideItx(flight_year INTEGER, timestep INTEGER, timestamp INTEGER)")
    frames = []
    for t, entry in enumerate(trace, start=1):
        conn.execute(
            "INSERT INTO slideItx VALUES (?,?,?)",
            (entry.payload["flight_year"], t, entry.at_ms),
        )
        rows_now = conn.execute(
            "SELECT origin, COUNT(*) FROM flights"
            " JOIN slideItx ON flights.flight_year = slideItx.flight_year"
            " WHERE slideItx.timestep = (SELECT MAX(timestep) FROM slideItx)"
            " GROUP BY origin"
        ).fetchall()
        frames.append(sorted(tuple(r) for r in rows_now))
    return frames


def test_c03_slider_local_matches_sql_oracle():
    session = slider_session(remote=False)
    session.run_replay(SLIDER_TRACE)
    got = [sorted(f.rows) for f in session.runtime.frames]
    expected = slider_oracle_frames(SLIDER_TRACE)
    assert got == expected
    assert len(got) == 3 and all(frame for frame in got)
    report("C3", "3 per-timestep frames equal the handwritten SQL oracle")


# --- criterion 4: location transparency ---------------------------------------------------


def test_c04_location_transparency_and_policies():
    local = slider_session(remote=False)
    local.run_replay(SLIDER_TRACE)
    local_final = local.runtime.frames[-1]

    # in-order remote: the final frame matches the local run exactly, rows in
    # order and columns by name
    remote = slider_session(remote=True, latency="fixed(0)")
    remote.run_replay(SLIDER_TRACE)
    remote_final = remote.runtime.frames[-1]
    assert (remote_final.columns, remote_final.rows) == (local_final.columns, local_final.rows)

    # scripted reordering: responses arrive as 1999, 1998, 2000
    reordered = slider_session(remote=True, latency="fixed(0)/scripted(1300,600,800)")
    reordered.run_replay(SLIDER_TRACE)
    results = [e for e in reordered.runtime.event_log() if e.request_timestep is not None]
    assert [e.request_timestep for e in results] == [2, 1, 3]  # 1999, 1998, 2000
    non_empty = [f for f in reordered.runtime.frames if f.rows]
    assert len(non_empty) == 1
    assert non_empty[0].timestep == 6  # only 2000's response renders
    assert (non_empty[0].columns, non_empty[0].rows) == (local_final.columns, local_final.rows)

    # LATEST_REQUEST: rendered request timesteps are monotone; 1998 never
    # shows after 1999
    relaxed = slider_session(
        remote=True,
        latency="fixed(0)/scripted(1300,600,800)",
        program=EXAMPLES["latest_request"].diel_sources()[0],
    )
    relaxed.run_replay(SLIDER_TRACE)
    rendered_requests = []
    for frame in relaxed.runtime.frames:
        for row in frame.rows:
            rendered_requests.append(row[-1])  # request_timestep column
    assert rendered_requests == sorted(rendered_requests)
    assert 1 not in rendered_requests  # request 1 (1998) was superseded on arrival
    report("C4", "final frames equal local; strict renders only 2000; "
                 "LATEST_REQUEST is monotone")


# --- criterion 5: per-instance queue -------------------------------------------------------


def test_c05_adversarial_queue_schedules():
    rng = random.Random(1234)
    schedules = 0
    for _ in range(500):
        engine = SqlEngine("r1")
        engine.execute_script("CREATE TABLE ev(x INTEGER, timestep INTEGER, timestamp INTEGER);")
        from diel.federation import SimInstance

        v_sql = "SELECT x FROM ev WHERE timestep = (SELECT MAX(timestep) FROM ev)"
        instance = SimInstance("r1", engine, {"v": v_sql})
        up = ScriptedLatency([rng.randint(0, 60) for _ in range(64)])
        federation = Federation(
            "main", {"r1": instance}, {"r1": Link(up=up, down=FixedLatency(0))}
        )
        timesteps = sorted(rng.sample(range(1, 32), rng.randint(1, 12)))
        for t in timesteps:
            federation.transport.advance_to(t * 5)
            federation.ship("r1", "ev", [(t, t, 0)], t)
            federation.request_eval("r1", "v", t)
        results = []
        run_until_quiescent(federation, results.append, deadline_ms=100_000)
        evaluated = [m.request_timestep for m in federation.transport.log if m.kind == RESULT_ROWS]
        assert evaluated == timesteps  # strictly increasing
        assert sorted(m.request_timestep for m in results) == timesteps  # one each
        assert all(m.rows == [(m.request_timestep,)] for m in results)
        schedules += 1
    assert schedules == 500
    report("C5", "500 random schedules: ascending evaluation, one result per request")


# --- criterion 6: cache transparency ---------------------------------------------------------


def test_c06_cache_transparency():
    trace = [TraceEntry(i * 100, "slideItx", {"flight_year": 2000}) for i in range(10)]
    with_cache = slider_session(remote=True, latency="fixed(5)", cache=True)
    with_cache.run_replay(trace)
    without_cache = slider_session(remote=True, latency="fixed(5)", cache=False)
    without_cache.run_replay(trace)
    assert with_cache.summary()["eval_requests"] == 1
    assert without_cache.summary()["eval_requests"] == 10
    rows_with = {f.rows for f in with_cache.runtime.frames}
    rows_without = {f.rows for f in without_cache.runtime.frames}
    assert rows_with == rows_without
    assert with_cache.summary()["cache_hits"] == 9
    report("C6", "1 vs 10 remote eval requests; identical frame row sets")


# --- criterion 7: optimizer transparency ------------------------------------------------------


def test_c07_optimizer_transparency_across_corpus():
    for name, example in EXAMPLES.items():
        optimized = run_example(example)
        plain = run_example(example, cache=False, materialize=False)
        assert optimized.output_log_text() == plain.output_log_text(), name
    report("C7", f"{len(EXAMPLES)} examples identical with optimizations off")


# --- criterion 8: undo oracle ------------------------------------------------------------------


def undo_oracle_frames(actions):
    """Execute the undo program's SQL verbatim on a raw sqlite connection.

    Per timestep: insert the event, evaluate the selection query against the
    pre-insert history, emit the frame, then record it into allSels.
    """
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE clickItx(id INTEGER, timestep INTEGER, timestamp INTEGER)")
    conn.execute("CREATE TABLE undoItx(timestep INTEGER, timestamp INTEGER)")
    conn.execute("CREATE TABLE allSels(id INTEGER, timestep INTEGER)")
    curr_sel = """
        SELECT COALESCE(s.id, e.id) AS id
        FROM clickItx e
        LEFT OUTER JOIN (
            SELECT id FROM allSels s WHERE rowid = ((
                SELECT MAX(rowid) FROM allSels
            ) - (
                SELECT COUNT(*) * 2 - 1
                FROM undoItx u JOIN clickItx c
                  ON u.timestep > c.timestep
                 AND c.timestep = (SELECT MAX(timestep) FROM clickItx)
            ))
        ) s ON 1
        WHERE e.timestep = (SELECT MAX(timestep) FROM clickItx)
    """
    frames = []
    for t, (event, value) in enumerate(actions, start=1):
        if event == "click":
            conn.execute("INSERT INTO clickItx VALUES (?,?,?)", (value, t, t * 10))
        else:
            conn.execute("INSERT INTO undoItx VALUES (?,?)", (t, t * 10))
        rows = [tuple(r) for r in conn.execute(curr_sel).fetchall()]
        frames.append(rows)
        conn.executemany(
            "INSERT INTO allSels(id, timestep) VALUES (?, ?)",
            [(r[0], t) for r in rows],
        )
    return frames


def test_c08_undo_matches_verbatim_sql_oracle():
    actions = [("click", 1), ("click", 2), ("click", 3), ("undo", None), ("undo", None)]
    expected = undo_oracle_frames(actions)
    session = run_example(EXAMPLES["undo"])
    got = [list(f.rows) for f in session.runtime.frames if f.output == "currSel"]
    assert got == expected
    assert [r for frame in got for (r,) in frame] == [1, 2, 3, 2, 1]
    readme = (EXAMPLES["undo"].directory / "README.md").read_text(encoding="utf-8")
    assert "(A, B, C, B, A)" in readme and "(A, B, C, B, C)" in readme
    report("C8", "currSel frames equal the verbatim SQL oracle; discrepancy documented")


# --- criterion 9: reaction-time policy -----------------------------------------------------------


def test_c09_reaction_time_policy():
    program = EXAMPLES["reaction_time"].diel_sources()[0]
    config = RunConfig(
        diel_sources=[program], databases=[DbConfig("main", "quick")], seed=7
    )
    session = Session.build(config)
    session.run_replay(
        [
            TraceEntry(1000, "menuDataItx", {"item": "alpha"}),
            TraceEntry(1150, "clickItx", {"item": "alpha"}),  # +150 ms: skipped
            TraceEntry(2000, "menuDataItx", {"item": "beta"}),
            TraceEntry(2250, "clickItx", {"item": "beta"}),  # +250 ms: intended
        ]
    )
    frames = {f.timestep: f.rows for f in session.runtime.frames if f.output == "intendedClick"}
    assert frames[2] == ()
    assert frames[4] == (("beta",),)
    report("C9", "+150 ms click skipped, +250 ms click rendered (200 ms window)")


# --- criterion 10: determinism --------------------------------------------------------------------


def test_c10_determinism_and_seed_stability():
    for name, example in EXAMPLES.items():
        first = run_example(example)
        second = run_example(example)
        assert first.output_log_text() == second.output_log_text(), name

    # changing the seed may retime frames but never violates the policies,
    # and quiescent final state is location-transparent under any latency
    local = slider_session(remote=False)
    local.run_replay(SLIDER_TRACE)
    local_final = sorted(local.runtime.frames[-1].rows)
    for seed in (1, 2, 3):
        session = slider_session(remote=True, latency="uniform(0,400)", seed=seed)
        session.run_replay(SLIDER_TRACE)
        assert sorted(session.runtime.frames[-1].rows) == local_final
        latest_interaction = 0
        results_seen = {}
        for record in session.runtime.event_log():
            if record.request_timestep is None:
                latest_interaction = record.timestep
            else:
                results_seen[record.timestep] = record.request_timestep
        for frame in session.runtime.frames:
            if frame.timestep in results_seen and frame.rows:
                # strict policy: rendering implies the result matches the
                # latest interaction at that moment
                produced_by = results_seen[frame.timestep]
                interactions_before = [
                    r.timestep
                    for r in session.runtime.event_log()
                    if r.request_timestep is None and r.timestep < frame.timestep
                ]
                assert produced_by == max(interactions_before)
        log = session.runtime.federation.transport.log
        evaluated = [m.request_timestep for m in log if m.kind == RESULT_ROWS and m.from_db == "r1"]
        assert evaluated and evaluated == sorted(evaluated)
    report("C10", "corpus byte-identical across reruns; policies hold across seeds")
