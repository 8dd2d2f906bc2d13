"""Wire a run configuration into a live system and drive replay traces.

A trace is JSON Lines, one `{"at_ms": ..., "event": ..., "payload": {...}}`
object per line with non-decreasing at_ms. Replay injects each entry at its
virtual time, delivering due federation messages first, and then drains the
federation to quiescence. Output is one JSON line per OutputFrame plus a
summary; given the same seed the bytes are identical run to run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .ast_nodes import ColumnDef
from .compiler import Catalog, compile_program
from .engine import introspect_sqlite, read_csv_table
from .errors import ConfigError, TraceParseError
from .federation import Link, LatencySpec, parse_latency_spec, run_until_quiescent
from .optimizer import MaterializationPlan, materialize_shared_views
from .parser import parse_diel
from .planner import (
    DbDescriptor,
    FederationPlan,
    base_closure,
    base_schemas_of,
    emit_per_db_sql,
    plan_federation,
)
from .runtime import OutputFrame, RunOptions, Runtime, setup

DEFAULT_LATENCY = {"background": "fixed(1)", "remote": "fixed(0)"}


@dataclass
class DbConfig:
    name: str
    kind: str  # quick | background | remote
    path: str | None = None  # .db/.sqlite or .csv file
    latency: str | None = None
    tables: dict[str, tuple[list[ColumnDef], list[tuple]]] = field(default_factory=dict)
    # schema and row count of each table in the SQLite file at `path`, set by
    # load(); setup copies their rows from the file itself
    file_tables: dict[str, tuple[list[ColumnDef], int]] = field(default_factory=dict)

    def load(self) -> None:
        if self.path is None or self.path in ("", "mem"):
            return
        path = Path(self.path)
        if not path.exists():
            raise ConfigError(f"database source {self.path} does not exist")
        if path.suffix == ".csv":
            columns, rows = read_csv_table(path)
            self.tables[path.stem] = (columns, rows)
        else:
            self.file_tables = introspect_sqlite(path)

    def schemas(self) -> dict[str, tuple[list[ColumnDef], int]]:
        """Columns and row count of every table this instance provides."""
        given = {t: (cols, len(rows)) for t, (cols, rows) in self.tables.items()}
        return {**given, **self.file_tables}


def parse_db_flag(text: str) -> DbConfig:
    """`name=kind:path[:latency]`; path may be empty or `mem` for no base data."""
    if "=" not in text:
        raise ConfigError(f"bad --db value {text!r}, expected name=kind:path[:latency]")
    name, rest = text.split("=", 1)
    parts = rest.split(":")
    kind = parts[0]
    if kind not in ("quick", "background", "remote"):
        raise ConfigError(f"unknown database kind {kind!r}")
    path = parts[1] if len(parts) > 1 else None
    latency = parts[2] if len(parts) > 2 else None
    return DbConfig(name=name, kind=kind, path=path or None, latency=latency)


@dataclass
class RunConfig:
    diel_sources: list[str]
    databases: list[DbConfig]
    seed: int | None = 0
    cache: bool = True
    materialize: bool = True
    dedupe_frames: bool = False
    check_atomicity: bool = False
    udfs: dict | None = None  # name -> UdfDef, registered on every instance


@dataclass(frozen=True)
class TraceEntry:
    at_ms: int
    event: str
    payload: dict


def parse_trace(text: str) -> list[TraceEntry]:
    entries: list[TraceEntry] = []
    last_ms = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
            entry = TraceEntry(int(obj["at_ms"]), str(obj["event"]), dict(obj["payload"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TraceParseError(f"trace line {lineno}: {exc}") from exc
        if last_ms is not None and entry.at_ms < last_ms:
            raise TraceParseError(f"trace line {lineno}: at_ms decreases")
        last_ms = entry.at_ms
        entries.append(entry)
    return entries


def load_trace(path: str | Path) -> list[TraceEntry]:
    return parse_trace(Path(path).read_text(encoding="utf-8"))


class Session:
    def __init__(
        self,
        config: RunConfig,
        catalog: Catalog,
        plan: FederationPlan,
        mat_plan: MaterializationPlan,
        runtime: Runtime,
    ):
        self.config = config
        self.catalog = catalog
        self.plan = plan
        self.mat_plan = mat_plan
        self.runtime = runtime

    @classmethod
    def build(cls, config: RunConfig, bindings: dict | None = None, ready_cb=None) -> "Session":
        names = [db.name for db in config.databases]
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate database names in config: {names}")
        for db in config.databases:
            db.load()
        descriptors = []
        for db in config.databases:
            schemas = db.schemas()
            descriptors.append(
                DbDescriptor(
                    db_id=db.name,
                    kind=db.kind,
                    tables={t: cols for t, (cols, _count) in schemas.items()},
                    row_estimates={t: count for t, (_cols, count) in schemas.items()},
                )
            )
        source = "\n".join(config.diel_sources)
        catalog = compile_program(parse_diel(source), base_schemas_of(descriptors), config.udfs)
        plan = plan_federation(catalog, descriptors)

        mat_plan = MaterializationPlan()
        if config.materialize:
            local = {
                rel.name
                for rel in plan.catalog.relations.values()
                if rel.query is not None
                and all(
                    plan.placement.get(leaf, plan.coordinator) == plan.coordinator
                    or not plan.catalog.relations[leaf].is_base
                    for leaf in base_closure(rel.name, plan.catalog)
                )
            }
            mat_plan = materialize_shared_views(plan.catalog, plan.catalog.graph, local)
        emit_per_db_sql(plan, mat_plan.tables)

        base_rows = {}
        base_files = {}
        for db in config.databases:
            for table, (_cols, rows) in db.tables.items():
                if table not in db.file_tables:
                    base_rows[table] = rows
            for table in db.file_tables:
                base_files[table] = Path(db.path)

        links = {}
        for db in config.databases:
            if db.kind == "quick":
                continue
            spec_text = db.latency or DEFAULT_LATENCY[db.kind]
            spec: LatencySpec = parse_latency_spec(spec_text)
            links[db.name] = Link(
                up=spec.build("up", config.seed, db.name),
                down=spec.build("down", config.seed, db.name),
            )

        options = RunOptions(
            seed=config.seed,
            cache_enabled=config.cache,
            dedupe_frames=config.dedupe_frames,
            check_atomicity=config.check_atomicity,
        )
        runtime = setup(
            plan,
            base_rows,
            mat_plan,
            links=links,
            bindings=bindings,
            options=options,
            ready_cb=ready_cb,
            udfs=config.udfs,
            base_files=base_files,
        )
        return cls(config, catalog, plan, mat_plan, runtime)

    # -- drivers -----------------------------------------------------------------

    def deliver_due(self, until_ms: int) -> None:
        if self.runtime.federation is None:
            return
        # looked up on each call, so a caller may wrap `runtime.admit`
        self.runtime.federation.deliver(self.runtime.admit, until_ms)

    def inject(self, entry: TraceEntry) -> int | None:
        self.deliver_due(entry.at_ms)
        timestep = self.runtime.new_event(entry.event, entry.payload, entry.at_ms)
        self.runtime.drain_inbox()
        return timestep

    def run_quiescent(self, deadline_ms: int = 10**9) -> int:
        self.runtime.drain_inbox()
        if self.runtime.federation is None:
            return self.runtime._now_ms()
        return run_until_quiescent(self.runtime.federation, self.runtime.admit, deadline_ms)

    def run_replay(self, trace: list[TraceEntry], deadline_ms: int = 10**9) -> list[OutputFrame]:
        if self.config.seed is None:
            raise ConfigError("replay requires a seed")
        for entry in trace:
            self.inject(entry)
        self.run_quiescent(deadline_ms)
        return self.runtime.frames

    # -- artifacts -----------------------------------------------------------------

    def output_log_text(self) -> str:
        return "".join(frame.to_json_line() + "\n" for frame in self.runtime.frames)

    def summary(self) -> dict:
        return self.runtime.summary()

    def write_outputs(self, out_dir: str | Path) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        log_path = out / "output_log.jsonl"
        log_path.write_text(self.output_log_text(), encoding="utf-8")
        summary_path = out / "summary.json"
        summary_path.write_text(
            json.dumps(self.summary(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        return log_path, summary_path
