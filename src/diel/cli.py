"""Command-line harness: replay traces, poke at programs interactively,
import CSV data, and run the bundled examples.

    diel run --diel app.diel --db main=quick:mem --db r1=remote:flights.db:fixed(20) \\
             --trace session.jsonl --seed 7 --out out/
    diel run --diel app.diel --db main=quick:flights.db --interactive --seed 1
    diel import flights.csv --table flights --db flights.db
    diel examples --list
    diel examples --run slider --out out/
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import corpus
from .compiler import dump_ir
from .engine import import_csv
from .errors import ConfigError, DielError, TraceParseError
from .planner import dump_plan
from .render import render_frame_text
from .session import DbConfig, RunConfig, Session, load_trace, parse_db_flag


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="compile a program and replay a trace or start a REPL")
    run_p.add_argument("--diel", action="append", required=True, metavar="FILE",
                       help="program file; repeatable")
    run_p.add_argument("--db", action="append", default=[], metavar="NAME=KIND:PATH[:LATENCY]",
                       help="database instance; KIND is quick|background|remote, PATH is a "
                            ".db/.csv file or 'mem', LATENCY like fixed(20), uniform(5,50), "
                            "scripted(500,100), or UP/DOWN")
    run_p.add_argument("--trace", metavar="FILE", help="JSONL trace to replay")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", metavar="DIR", help="directory for output_log.jsonl and summary.json")
    run_p.add_argument("--no-cache", action="store_true")
    run_p.add_argument("--no-materialize", action="store_true")
    run_p.add_argument("--dump-ir", action="store_true")
    run_p.add_argument("--dump-plan", action="store_true")
    run_p.add_argument("--interactive", action="store_true")
    run_p.add_argument("--strict", action="store_true",
                       help="exit nonzero when any diagnostic was emitted")

    import_p = sub.add_parser("import", help="load a CSV file into a SQLite database file")
    import_p.add_argument("csv", metavar="CSV")
    import_p.add_argument("--table", help="table name (default: CSV file stem)")
    import_p.add_argument("--db", required=True, metavar="FILE")

    examples_p = sub.add_parser("examples", help="list or replay the bundled example corpus")
    examples_p.add_argument("--list", action="store_true")
    examples_p.add_argument("--run", metavar="NAME")
    examples_p.add_argument("--out", metavar="DIR")
    examples_p.add_argument("--regen", action="store_true",
                            help="re-freeze every example's golden output log")
    return parser


def _config_from_args(args) -> RunConfig:
    sources = []
    for path in args.diel:
        file = Path(path)
        if not file.exists():
            raise ConfigError(f"program file {path} does not exist")
        sources.append(file.read_text(encoding="utf-8"))
    databases = [parse_db_flag(text) for text in args.db]
    if not databases:
        databases = [DbConfig(name="main", kind="quick")]
    if args.trace and args.seed is None:
        raise ConfigError("replay mode requires --seed")
    return RunConfig(
        diel_sources=sources,
        databases=databases,
        seed=args.seed if args.seed is not None else 0,
        cache=not args.no_cache,
        materialize=not args.no_materialize,
    )


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    session = Session.build(config)
    if args.dump_ir:
        print(dump_ir(session.plan.catalog))
    if args.dump_plan:
        print(dump_plan(session.plan))
    for diag in session.catalog.diagnostics:
        print(f"diagnostic: {diag}", file=sys.stderr)

    if args.trace:
        trace = load_trace(args.trace)
        session.run_replay(trace)
        if args.out:
            log_path, summary_path = session.write_outputs(args.out)
            print(f"wrote {log_path} and {summary_path}")
        else:
            sys.stdout.write(session.output_log_text())
        summary = session.summary()
        print("summary: " + json.dumps(summary, sort_keys=True), file=sys.stderr)
        for diag in session.runtime.diagnostics:
            print(f"diagnostic: {diag}", file=sys.stderr)
        if args.strict and (session.runtime.diagnostics or session.catalog.diagnostics):
            return 1
        return 0

    if args.interactive:
        return _repl(session)

    if not (args.dump_ir or args.dump_plan):
        print("nothing to do: pass --trace, --interactive, --dump-ir, or --dump-plan",
              file=sys.stderr)
        return 2
    return 0


def _repl(session: Session) -> int:
    runtime = session.runtime
    start = time.time()

    def now_ms() -> int:
        return int((time.time() - start) * 1000)

    def on_frame(frame):
        print(f"-- {frame.output} @ timestep {frame.timestep}")
        print(render_frame_text(frame.columns, frame.rows))

    for output in runtime._outputs:
        runtime.bind_output(output, on_frame)

    print("commands: event <name> {json} | show <output> | log | quit")
    while True:
        session.deliver_due(now_ms())
        try:
            line = input("diel> ").strip()
        except EOFError:
            return 0
        if not line:
            continue
        try:
            if line in ("quit", "exit"):
                return 0
            if line == "log":
                for record in runtime.event_log():
                    suffix = (
                        f" request_timestep={record.request_timestep}"
                        if record.request_timestep is not None
                        else ""
                    )
                    print(f"t={record.timestep} ms={record.timestamp} "
                          f"{record.relation} {json.dumps(record.payload, default=str)}{suffix}")
                continue
            if line.startswith("show "):
                frame = runtime.current_output(line[5:].strip())
                print(render_frame_text(frame.columns, frame.rows))
                continue
            if line.startswith("event "):
                rest = line[6:].strip()
                name, _, payload_text = rest.partition(" ")
                payload = json.loads(payload_text) if payload_text.strip() else {}
                timestep = runtime.new_event(name, payload, at_ms=now_ms())
                session.deliver_due(now_ms())
                if timestep is None:
                    print("event ignored (CHECK constraint)")
                continue
            print(f"unknown command: {line!r}")
        except DielError as exc:
            print(f"error: {exc}")
        except json.JSONDecodeError as exc:
            print(f"bad payload JSON: {exc}")


def _cmd_import(args) -> int:
    table = args.table or Path(args.csv).stem
    count = import_csv(args.csv, table, args.db)
    print(f"imported {count} rows into {args.db}:{table}")
    return 0


def _cmd_examples(args) -> int:
    examples = corpus.load_examples()
    if args.regen:
        for name in corpus.regenerate_goldens():
            print(f"regenerated {name}")
        return 0
    if args.run:
        if args.run not in examples:
            raise ConfigError(
                f"unknown example {args.run!r}; known: {', '.join(sorted(examples))}"
            )
        session = corpus.run_example(examples[args.run])
        if args.out:
            log_path, summary_path = session.write_outputs(args.out)
            print(f"wrote {log_path} and {summary_path}")
        else:
            sys.stdout.write(session.output_log_text())
        print("summary: " + json.dumps(session.summary(), sort_keys=True), file=sys.stderr)
        return 0
    for name, example in examples.items():
        title = example.manifest.get("title", "")
        print(f"{name:22} {title}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "import":
            return _cmd_import(args)
        return _cmd_examples(args)
    except (ConfigError, TraceParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DielError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
