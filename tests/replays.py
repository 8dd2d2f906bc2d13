"""Replays shared by the tests that check a property over every program: the
20 corpus examples and the three benchmark programs, at seeds 1-3."""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

from diel.ast_nodes import ColumnDef
from diel.corpus import load_examples
from diel.session import DbConfig, RunConfig, TraceEntry

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (1, 2, 3)


def _relinked(databases: list[DbConfig], latency: str | None) -> list[DbConfig]:
    """Every remote instance behind `latency`, when one is given."""
    if latency is None:
        return databases
    return [dataclasses.replace(db, latency=latency) if db.kind == "remote" else db for db in databases]


def corpus_runs(seeds=SEEDS, latency: str | None = None, remote_only: bool = False):
    """(name, seed, config, trace) of each corpus example at each seed."""
    for name, example in sorted(load_examples().items()):
        config = example.config()
        if remote_only and all(db.kind != "remote" for db in config.databases):
            continue
        for seed in seeds:
            databases = _relinked(config.databases, latency)
            yield name, seed, dataclasses.replace(config, seed=seed, databases=databases), example.trace()


# ORDER BY RANDOM() draws from a generator of the instance that evaluates it
# (seeded `{seed}/engine/{db_id}`), so its frames depend on the placement
DRAWS_PER_INSTANCE = {"reconfigure_sample"}


def placements(tables: list[str]) -> dict[str, dict[str, str]]:
    """The placements of the sweep, by name: table -> the remote instance it
    moves to (the others stay on the coordinator). Each table moves to r1
    alone; with several tables, all move to r1, and they also split over r1
    and r2 in turn."""
    moved = {f"{table}@r1": {table: "r1"} for table in tables}
    if len(tables) > 1:
        moved["all@r1"] = dict.fromkeys(tables, "r1")
        moved["split"] = {table: ("r1", "r2")[i % 2] for i, table in enumerate(tables)}
    return moved


def placement_runs(latency: str = "fixed(0)"):
    """(name, placement, config, trace) of each corpus example with base
    tables, but those in DRAWS_PER_INSTANCE: first with every table on the
    coordinator (placement "local"), then in each of its `placements`, each
    remote instance behind `latency`."""
    for name, example in sorted(load_examples().items()):
        config = example.config()
        tables = {t: data for db in config.databases for t, data in db.tables.items()}
        if not tables or name in DRAWS_PER_INSTANCE:
            continue
        coordinator = next(db.name for db in config.databases if db.kind == "quick")
        for placement, moved in {"local": {}, **placements(sorted(tables))}.items():
            databases = [DbConfig(coordinator, "quick", tables={
                t: data for t, data in tables.items() if t not in moved
            })]
            databases += [
                DbConfig(db_id, "remote", latency=latency, tables={
                    t: data for t, data in tables.items() if moved.get(t) == db_id
                })
                for db_id in sorted(set(moved.values()))
            ]
            yield name, placement, dataclasses.replace(config, databases=databases), example.trace()


BENCH_WORKLOADS = ("local_dashboard", "remote_brush", "remote_reorder_cached")


def _workload(name: str, seed: int):
    """A benchmark workload on tables and a trace a fifth of its size."""
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    return workloads.WORKLOADS[name](seed, scale=0.2)


def bench_runs(seeds=SEEDS, latency: str | None = None):
    """(name, seed, config, trace) of each benchmark program at each seed, on
    tables and a trace a fifth of the benchmark's size."""
    for name in BENCH_WORKLOADS:
        for seed in seeds:
            workload = _workload(name, seed)
            databases = [
                DbConfig(inst.name, inst.kind, latency=inst.latency, tables=dict(inst.tables))
                for inst in workload.instances
            ]
            trace: list[TraceEntry] = workload.trace
            yield name, seed, RunConfig([workload.program], _relinked(databases, latency), seed=seed), trace


def bench_file_runs(directory: Path, seed: int = 1):
    """(name, seed, config, trace) of each benchmark program as the benchmark
    builds it, its tables in SQLite files written under `directory`, on
    tables and a trace a fifth of the benchmark's size."""
    for name in BENCH_WORKLOADS:
        workload = _workload(name, seed)
        yield name, seed, workload.config(workload.write_sources(directory)), workload.trace


# a view over a fixed table alone, read by an output on the coordinator and by
# an async view that r1 leads (its `labels` outweigh `t` and one pick), so it
# is a table on both instances, filled once at setup
FIXED_SHARED_VIEW = """\
CREATE EVENT TABLE pick(k INT);
CREATE VIEW sums AS SELECT k, SUM(v) AS total FROM t GROUP BY k;
CREATE OUTPUT shown AS SELECT s.total FROM sums s JOIN LATEST pick p ON s.k <= p.k;
CREATE ASYNC VIEW labelled AS SELECT s.k, s.total, l.label FROM sums s
  JOIN labels l ON l.k = s.k JOIN LATEST pick p ON s.k <= p.k;
CREATE OUTPUT named AS SELECT k, total, label FROM LATEST_REQUEST labelled;
"""


def fixed_shared_view_run(seed: int = 1, latency: str | None = "fixed(5)"):
    """(name, seed, config, trace) of FIXED_SHARED_VIEW with `labels` on r1
    behind `latency`, or with every table on the coordinator when it is None."""
    t = ([ColumnDef("k", "INT"), ColumnDef("v", "INT")], [(k, 10 * k + i) for k in (1, 2, 3) for i in (0, 1)])
    labels = ([ColumnDef("k", "INT"), ColumnDef("label", "TEXT")], [(k, f"k{k}") for k in range(20)])
    if latency is None:
        databases = [DbConfig("main", "quick", tables={"t": t, "labels": labels})]
    else:
        databases = [DbConfig("main", "quick", tables={"t": t}),
                     DbConfig("r1", "remote", latency=latency, tables={"labels": labels})]
    trace = [TraceEntry(30 * i, "pick", {"k": k}) for i, k in enumerate((1, 3, 2))]
    return "fixed_shared_view", seed, RunConfig([FIXED_SHARED_VIEW], databases, seed=seed), trace
