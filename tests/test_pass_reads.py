"""One read per pass: between the refresh and the staged inserts of a pass no
coordinator table changes, so the engine runs each read of a pass once (it
serves a repeat, `SqlEngine.read`), a state program that selects a whole
output runs that output's read, and a NOT EMPTY probe re-runs only when its
view's inputs changed."""

from __future__ import annotations

from collections import Counter

import pytest

from diel.corpus import load_examples
from diel.errors import EngineError
from diel.optimizer import calls_random
from diel.printer import quote_ident
from diel.session import DbConfig, RunConfig, Session
from diel.udfs import UdfDef

from replays import bench_runs


def local_session(text: str) -> Session:
    return Session.build(RunConfig([text], [DbConfig("main", "quick")], seed=1))


def record_selects(session: Session) -> Counter:
    """(timestep, read) -> how often it ran on the coordinator. An output's read
    counts as the whole-relation read `SELECT * FROM o` it orders, so a
    program reading o whole and o's own evaluation are one read."""
    runtime, plan = session.runtime, session.plan
    whole = {sql: f"SELECT * FROM {quote_ident(o)}" for o, sql in plan.output_sql.items()}
    runs: Counter = Counter()

    def trace(sql: str) -> None:
        if sql.lstrip().upper().startswith("SELECT"):
            runs[(runtime.clock, whole.get(sql, sql))] += 1

    runtime.engine.conn.set_trace_callback(trace)
    return runs


def random_reads(session: Session) -> set[str]:
    """The reads of outputs and NOT EMPTY views whose closure calls RANDOM():
    those must run as often as they are asked for."""
    catalog = session.plan.catalog
    names = set(session.plan.output_sql) | {c.view for c in catalog.constraints}
    return {
        sql
        for name in names
        if name in catalog.relations and calls_random(name, catalog)
        for sql in (f"SELECT * FROM {quote_ident(name)}", f"SELECT 1 FROM {quote_ident(name)} LIMIT 1")
    }


def all_runs():
    for name, example in sorted(load_examples().items()):
        yield name, example.config(), example.trace()
    for name, seed, config, trace in bench_runs():
        yield f"{name}-{seed}", config, trace


def test_no_read_runs_twice_in_one_pass():
    """Over the corpus and the benchmark programs, no SELECT runs twice at one
    clock, nor a relation read whole twice, unless it calls RANDOM()."""
    checked = 0
    for name, config, trace in all_runs():
        session = Session.build(config)
        runs = record_selects(session)
        session.run_replay(trace)
        exempt = random_reads(session)
        twice = sorted((t, sql) for (t, sql), n in runs.items() if n > 1 and sql not in exempt)
        assert not twice, f"{name}: {twice[:3]}"
        checked += 1
    assert checked == 20 + 9


def test_a_program_reading_an_output_whole_shares_its_read():
    session = load_examples()["undo"]
    session = Session.build(session.config())
    plan = session.plan
    assert plan.program_sql["program_1"] == [[plan.output_sql["currSel"]]]
    runs = record_selects(session)
    session.runtime.new_event("clickItx", {"id": 4}, at_ms=0)
    assert runs[(1, "SELECT * FROM currSel")] == 1
    assert [f.rows for f in session.runtime.frames if f.output == "currSel"] == [((4,),)]


@pytest.mark.parametrize("query", [
    "SELECT v FROM pick WHERE RANDOM() % 2 = 0",
    # its own ORDER BY makes its read `SELECT * FROM lucky`, the program's text
    "SELECT v FROM pick ORDER BY RANDOM() LIMIT 2",
])
def test_a_program_reading_a_random_output_evaluates_it_separately(query):
    session = local_session(
        "CREATE EVENT TABLE pick(v INT);"
        "CREATE TABLE kept(v INT);"
        f"CREATE OUTPUT lucky AS {query};"
        "CREATE PROGRAM AFTER (pick) BEGIN INSERT INTO kept SELECT * FROM lucky; END;"
    )
    assert session.plan.program_sql["program_1"] == [["SELECT * FROM lucky"]]
    runs = record_selects(session)
    for t in range(1, 6):
        session.runtime.new_event("pick", {"v": t}, at_ms=t)
    assert [runs[(t, "SELECT * FROM lucky")] for t in range(1, 6)] == [2] * 5


# --- NOT EMPTY ---------------------------------------------------------------------

PICKS = """\
CREATE EVENT TABLE pick(v INT);
CREATE EVENT TABLE other(w INT);
CREATE TABLE seen(v INT);
CREATE PROGRAM AFTER (pick) BEGIN INSERT INTO seen SELECT v FROM LATEST pick; END;
CREATE VIEW positive AS SELECT v FROM LATEST pick WHERE v > 0;
CREATE VIEW manySeen AS SELECT COUNT(*) AS n FROM seen HAVING COUNT(*) > 2;
CREATE OUTPUT lastOther AS SELECT w FROM LATEST other;
positive NOT EMPTY;
manySeen NOT EMPTY;
"""

PICK_TRACE = [
    ("other", {"w": 1}),  # nothing picked yet: both empty from the first pass on
    ("pick", {"v": 1}),
    ("pick", {"v": 0}),  # positive empties
    ("other", {"w": 2}),  # unrelated events: still empty, still reported
    ("other", {"w": 3}),
    ("pick", {"v": 5}),  # fills again; the third row of seen lands after this pass
    ("other", {"w": 4}),  # manySeen fills from the history insert of the last pass
    ("pick", {"v": -1}),
    ("other", {"w": 5}),
]


def replay_picks(text: str, every_timestep: bool) -> tuple[list[str], Counter]:
    session = local_session(text)
    runtime = session.runtime
    if every_timestep:  # the reference: a probe at every timestep
        runtime._probes = [(view, sql, None) for view, sql, _ in runtime._probes]
    runs = record_selects(session)
    for at_ms, (event, payload) in enumerate(PICK_TRACE):
        runtime.new_event(event, payload, at_ms=at_ms)
    return runtime.diagnostics, runs


def probes_per_view(runs: Counter) -> dict[str, int]:
    counts: Counter = Counter()
    for (_, sql), n in runs.items():
        if sql.startswith("SELECT 1 FROM"):
            counts[sql.split()[3]] += n
    return dict(counts)


def test_not_empty_probes_only_on_change_and_reports_every_empty_timestep():
    diagnostics, runs = replay_picks(PICKS, every_timestep=False)
    reference, reference_runs = replay_picks(PICKS, every_timestep=True)
    assert diagnostics == reference
    empty = {(d.split()[3], int(d.split()[-1])) for d in diagnostics}
    assert {t for view, t in empty if view == "positive"} == {1, 3, 4, 5, 8, 9}
    assert {t for view, t in empty if view == "manySeen"} == {1, 2, 3, 4, 5, 6}
    assert probes_per_view(reference_runs) == {"positive": 9, "manySeen": 9}
    # the first pass, then positive on each pick; manySeen in the pass after
    # each of the four history inserts (t = 3, 4, 7 and 9)
    assert probes_per_view(runs) == {"positive": 5, "manySeen": 5}


def test_a_random_not_empty_view_is_probed_at_every_timestep():
    text = PICKS.replace("WHERE v > 0", "WHERE RANDOM() % 2 = 0")
    diagnostics, runs = replay_picks(text, every_timestep=False)
    reference, _ = replay_picks(text, every_timestep=True)
    assert diagnostics == reference
    assert probes_per_view(runs)["positive"] == len(PICK_TRACE)


def test_a_pass_cut_short_leaves_no_stale_probe_answer():
    """A pass that fails before its probes leaves an input change no probe
    saw, so the next pass probes again, as a probe at every timestep would."""

    def checked(v):
        if v == 0:
            raise ValueError("no zero")
        return v

    config = RunConfig(
        [PICKS + "CREATE OUTPUT lastPick AS SELECT checked(v) AS v FROM LATEST pick;"],
        [DbConfig("main", "quick")],
        seed=1,
        udfs={"checked": UdfDef("checked", 1, checked)},
    )
    session = Session.build(config)
    runtime = session.runtime
    runtime.new_event("pick", {"v": 1}, at_ms=0)
    with pytest.raises(EngineError, match="output lastPick"):
        runtime.new_event("pick", {"v": 0}, at_ms=1)  # positive empties, unprobed
    runtime.new_event("other", {"w": 1}, at_ms=2)
    assert "NOT EMPTY violated: positive is empty at timestep 3" in runtime.diagnostics
