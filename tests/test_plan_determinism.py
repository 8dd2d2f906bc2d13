"""A plan does not depend on Python's string hashing: every per-instance
program and the `--dump-plan` text are byte-identical under two hash seeds,
over the corpus and benchmark programs. It guards every loop that builds a
plan against set iteration order."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

PLANS = """
import json, sys
from diel.planner import dump_plan
from diel.session import Session
from replays import bench_runs, corpus_runs

plans = []
for name, _seed, config, _trace in [*corpus_runs(seeds=(1,)), *bench_runs(seeds=(1,))]:
    plan = Session.build(config).plan
    plans.append([name, list(plan.programs.items()), dump_plan(plan)])
json.dump(plans, sys.stdout)
"""


def plans_under(hash_seed: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", PLANS], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_plans_are_byte_identical_under_two_hash_seeds():
    first = plans_under("0")
    assert len(json.loads(first)) == 23  # the 20 corpus and 3 benchmark programs
    assert plans_under("1") == first
