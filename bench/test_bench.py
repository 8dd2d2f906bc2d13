"""Tests of the benchmark itself: python3 -m pytest bench

They run every workload at a small scale, traced, and require every output
check to pass and every stage meant to be exercised to be busy, so a renamed
`context=` string or a mechanism that stops firing fails here.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.ensure_diel()

import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = 0.2


def test_workloads_are_generated_from_the_seed():
    for make in workloads.WORKLOADS.values():
        first, again, other = make(5, SMALL), make(5, SMALL), make(6, SMALL)
        assert first.trace == again.trace and first.instances == again.instances
        assert first.trace != other.trace


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_passes_every_check(name):
    report = run.run(name, seed=11, seconds=0, trace=1, scale=SMALL)
    assert report["golden_failures"] == []
    assert {k: v for k, v in report["checks"].items() if v} == {}
    assert report["result"]["correct"] and report["result"]["failed"] == 0
    assert set(report["metrics"]) == {layer[0] for layer in tracing.LAYERS}


def test_untraced_run_prints_the_result_line(capsys, monkeypatch):
    monkeypatch.setattr(run, "run", functools.partial(run.run, scale=SMALL))
    assert run.main(["--workload", "remote_reorder_cached", "--seed", "2", "--seconds", "0",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_silent_stage_is_reported(monkeypatch):
    # as if the runtime renamed its output context: no bucket claims that time
    stages = {("render " if v == "output" else k): v for k, v in tracing.COORD_STAGES.items()}
    monkeypatch.setattr(tracing, "COORD_STAGES", stages)
    report = run.run("local_dashboard", seed=11, seconds=0, trace=1, scale=SMALL)
    assert "engine.coord.output.calls is 0 on local_dashboard" in report["checks"]["expectations"]
    assert report["checks"]["attribution"]
    assert not report["result"]["correct"]


def test_benchmark_json_matches_the_code():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest["command"][1:] == ["bench/run.py"] and manifest["paths"] == ["bench"]
    assert {w["name"] for w in manifest["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        layer[:3] for layer in tracing.LAYERS
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "remote_brush", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
