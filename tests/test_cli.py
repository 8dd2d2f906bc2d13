from __future__ import annotations

import builtins
import json
import sqlite3
from pathlib import Path

from diel.cli import main
from diel.render import format_bars, format_table, is_bar_shaped, render_frame_text

CORPUS = Path(__file__).parent.parent / "src" / "diel" / "corpus"


def slider_args(tmp_path, *extra):
    return [
        "run",
        "--diel", str(CORPUS / "examples" / "slider" / "program.diel"),
        "--db", f"main=quick:{CORPUS / 'data' / 'flights.csv'}",
        "--trace", str(CORPUS / "examples" / "slider" / "trace.jsonl"),
        "--seed", "7",
        "--out", str(tmp_path / "out"),
        *extra,
    ]


def test_run_replay_writes_log_and_summary(tmp_path, capsys):
    assert main(slider_args(tmp_path)) == 0
    log = (tmp_path / "out" / "output_log.jsonl").read_text()
    assert log.count("\n") == 3
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["events"] == 3 and summary["frames"] == 3


def test_empty_trace_yields_zero_frames_and_exit_zero(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    args = slider_args(tmp_path)
    args[args.index("--trace") + 1] = str(empty)
    assert main(args) == 0
    assert (tmp_path / "out" / "output_log.jsonl").read_text() == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["events"] == 0 and summary["frames"] == 0


def test_run_twice_is_byte_identical(tmp_path):
    assert main(slider_args(tmp_path / "a")) == 0
    assert main(slider_args(tmp_path / "b")) == 0
    first = (tmp_path / "a" / "out" / "output_log.jsonl").read_bytes()
    second = (tmp_path / "b" / "out" / "output_log.jsonl").read_bytes()
    assert first == second


def test_dump_flags_print_ir_and_plan(tmp_path, capsys):
    code = main(slider_args(tmp_path, "--dump-ir", "--dump-plan"))
    assert code == 0
    out = capsys.readouterr().out
    assert "slideItx [EventTable]" in out
    assert "== placement ==" in out


def test_dump_ir_lists_programs_staged_writes_constraints_and_diagnostics(tmp_path, capsys):
    undo = CORPUS / "examples" / "undo" / "program.diel"
    assert main(["run", "--diel", str(undo), "--db", "main=quick:mem", "--dump-ir"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("== programs =="):] == [
        "== programs ==",
        "program_1 AFTER (clickItx, undoItx)",
        "== dependencies ==",
        "curUndoSel <- allSels, clickItx, undoItx",
        "currSel <- clickItx, curUndoSel",
        "clickItx ~> allSels (staged)",
        "undoItx ~> allSels (staged)",
    ]
    program = tmp_path / "app.diel"
    program.write_text(
        "CREATE EVENT TABLE pick(k INT);\n"
        "CREATE VIEW big AS SELECT k FROM t WHERE k > 1;\n"
        "CREATE OUTPUT all_t AS SELECT k FROM t;\n"
        "CREATE OUTPUT picked AS SELECT k FROM LATEST pick;\n"
        "big NOT EMPTY;\n"
    )
    (tmp_path / "t.csv").write_text("k:INT\n1\n2\n")
    assert main(["run", "--diel", str(program), "--db", f"main=quick:{tmp_path / 't.csv'}", "--dump-ir"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("== constraints =="):] == [
        "== constraints ==",
        "big NOT EMPTY",
        "== dependencies ==",
        "all_t <- t",
        "big <- t",
        "picked <- pick",
        "== diagnostics ==",
        "output 'all_t' depends on no event table; it will never re-render",
    ]


def test_dump_plan_lists_how_each_file_backed_table_loads(tmp_path, capsys):
    """r1's imported flights are taken by page copy; r2's airports.db has an
    index, so r2 copies its rows, and r1, the leader, snapshots them."""
    flights_db = tmp_path / "flights.db"
    assert main(["import", str(CORPUS / "data" / "flights.csv"), "--table", "flights",
                 "--db", str(flights_db)]) == 0
    airports_db = tmp_path / "airports.db"
    conn = sqlite3.connect(airports_db)
    conn.execute("CREATE TABLE airports (code TEXT, city TEXT)")
    conn.execute("CREATE INDEX airports_code ON airports (code)")
    conn.executemany("INSERT INTO airports VALUES (?, ?)", [("LAX", "Los Angeles"), ("SFO", "San Francisco")])
    conn.commit()
    conn.close()
    program = tmp_path / "app.diel"
    program.write_text(
        "CREATE EVENT TABLE pick (origin TEXT);\n"
        "CREATE OUTPUT o AS SELECT f.delay, a.city FROM flights f JOIN airports a ON f.origin = a.code\n"
        "  JOIN LATEST pick p ON f.origin = p.origin;\n"
    )
    capsys.readouterr()
    assert main(["run", "--diel", str(program), "--db", "main=quick:mem",
                 "--db", f"r1=remote:{flights_db}", "--db", f"r2=remote:{airports_db}",
                 "--dump-plan"]) == 0
    out = capsys.readouterr().out.splitlines()
    at = out.index("== base loads ==")
    assert out[at + 1 : at + 4] == [
        "airports @ r2: row copy (index airports_code)",
        "flights @ r1: page copy",
        "airports -> r1: row copy (snapshot)",
    ]


def test_trace_without_seed_is_a_config_error(tmp_path, capsys):
    args = slider_args(tmp_path)
    seed_at = args.index("--seed")
    del args[seed_at : seed_at + 2]
    assert main(args) == 2
    assert "seed" in capsys.readouterr().err


def test_bad_db_flag_is_a_config_error(tmp_path, capsys):
    args = slider_args(tmp_path)
    db_at = args.index("--db")
    args[db_at + 1] = "main=warp:mem"
    assert main(args) == 2


def test_strict_mode_fails_on_diagnostics(tmp_path):
    args = [
        "run",
        "--diel", str(CORPUS / "examples" / "reconfigure_sample" / "program.diel"),
        "--db", f"main=quick:{CORPUS / 'data' / 'flights.csv'}",
        "--trace", str(CORPUS / "examples" / "reconfigure_sample" / "trace.jsonl"),
        "--seed", "7",
        "--out", str(tmp_path / "out"),
        "--strict",
    ]
    assert main(args) == 1  # the trace contains a CHECK-violating event


def test_strict_mode_fails_on_an_unchecked_not_empty(tmp_path, capsys):
    """inYear reads flights, which only r1 holds, so the coordinator cannot
    probe its NOT EMPTY; the diagnostic saying so fails a strict run."""
    program = tmp_path / "app.diel"
    program.write_text(
        "CREATE EVENT TABLE slideItx(flight_year INT);\n"
        "CREATE VIEW inYear AS SELECT origin FROM flights JOIN LATEST slideItx ON flight_year;\n"
        "CREATE ASYNC VIEW perOrigin AS SELECT origin, COUNT() n FROM inYear GROUP BY origin;\n"
        "CREATE OUTPUT origins AS SELECT origin, n FROM LATEST_REQUEST perOrigin;\n"
        "inYear NOT EMPTY;\n"
    )
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"at_ms": 0, "event": "slideItx", "payload": {"flight_year": 2000}}\n')
    args = [
        "run",
        "--diel", str(program),
        "--db", "main=quick:mem",
        "--db", f"r1=remote:{CORPUS / 'data' / 'flights.csv'}",
        "--trace", str(trace),
        "--seed", "7",
        "--out", str(tmp_path / "out"),
    ]
    assert main(args) == 0
    assert main(args + ["--strict"]) == 1
    assert "NOT EMPTY on inYear is not checked" in capsys.readouterr().err


def test_import_subcommand(tmp_path, capsys):
    csv_file = tmp_path / "mini.csv"
    csv_file.write_text("a:INT,b:TEXT\n1,x\n2,y\n")
    db_file = tmp_path / "mini.db"
    assert main(["import", str(csv_file), "--table", "mini", "--db", str(db_file)]) == 0
    assert "imported 2 rows" in capsys.readouterr().out
    assert db_file.exists()


def test_examples_list_and_run(tmp_path, capsys):
    assert main(["examples", "--list"]) == 0
    assert "slider" in capsys.readouterr().out
    assert main(["examples", "--run", "undo", "--out", str(tmp_path / "out")]) == 0
    log = (tmp_path / "out" / "output_log.jsonl").read_text()
    golden = (CORPUS / "examples" / "undo" / "golden.jsonl").read_text()
    assert log == golden


def test_examples_unknown_name(capsys):
    assert main(["examples", "--run", "no_such_example"]) == 2
    assert "no_such_example" in capsys.readouterr().err


def test_repl_session_survives_bad_input(tmp_path, capsys, monkeypatch):
    lines = iter([
        "event slideItx {\"flight_year\": 1998}",
        "event slideItx {bad json",
        "event mystery {}",
        "show distData",
        "show unknownOut",
        "nonsense",
        "log",
        "quit",
    ])
    monkeypatch.setattr(builtins, "input", lambda prompt="": next(lines))
    args = [
        "run",
        "--diel", str(CORPUS / "examples" / "slider" / "program.diel"),
        "--db", f"main=quick:{CORPUS / 'data' / 'flights.csv'}",
        "--interactive", "--seed", "1",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "distData @ timestep 1" in out
    assert "bad payload JSON" in out
    assert "error:" in out  # unknown event and unknown output
    assert "known outputs: distData" in out
    assert "t=1" in out  # log line
    assert "unknown command" in out


def test_run_without_work_exits_2(tmp_path, capsys):
    args = [
        "run",
        "--diel", str(CORPUS / "examples" / "slider" / "program.diel"),
        "--db", f"main=quick:{CORPUS / 'data' / 'flights.csv'}",
    ]
    assert main(args) == 2


# --- text rendering ------------------------------------------------------------------


def test_format_table_aligns_columns():
    text = format_table(("origin", "count"), (("LAX", 10), ("SEATTLE", 2)))
    lines = text.splitlines()
    assert lines[0].startswith("origin")
    assert lines[2].index("10") == lines[3].index("2")


def test_bar_rendering_for_label_count_pairs():
    rows = (("LAX", 10), ("SFO", 5))
    assert is_bar_shaped(("origin", "count"), rows)
    bars = format_bars(("origin", "count"), rows)
    lax, sfo = bars.splitlines()
    assert lax.count("#") == 2 * sfo.count("#")


def test_render_falls_back_to_table():
    rows = (("LAX", "JFK"),)
    assert not is_bar_shaped(("a", "b"), rows)
    assert "LAX" in render_frame_text(("a", "b"), rows)


def test_empty_table_renders_placeholder():
    assert "(empty)" in format_table(("a",), ())
