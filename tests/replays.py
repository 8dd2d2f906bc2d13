"""Replays shared by the tests that check a property over every program: the
20 corpus examples and the three benchmark programs, at seeds 1-3."""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

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


def bench_runs(seeds=SEEDS, latency: str | None = None):
    """(name, seed, config, trace) of each benchmark program at each seed, on
    tables and a trace a fifth of the benchmark's size."""
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    for name in ("local_dashboard", "remote_brush", "remote_reorder_cached"):
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed, scale=0.2)
            databases = [
                DbConfig(inst.name, inst.kind, latency=inst.latency, tables=dict(inst.tables))
                for inst in workload.instances
            ]
            trace: list[TraceEntry] = workload.trace
            yield name, seed, RunConfig([workload.program], _relinked(databases, latency), seed=seed), trace
