"""Trace-replay benchmark for diel.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports diel from `src/`. It
generates the workload's data and trace from the seed, then replays the trace
through the public Session/Runtime API again and again for S seconds, each
replay on a freshly built session. The load is a closed loop with one client
in one thread: each trace entry is injected as soon as the previous call
returns, and the virtual `at_ms` clock drives the federation, so virtual
latencies are deterministic and the measured time is only the program's.

The gated times are CPU time of the benchmark's thread (user plus kernel, as
`time.thread_time_ns` reads it), scaled to a reference machine speed. The
program runs in that one thread and never sleeps or waits, so its CPU time is
its wall time minus the time the host took the CPU away. What remains still
moves with the host's load (on a shared 2-vCPU virtual machine the same code
ran up to 1.7x slower from one replay to the next), so a fixed pure-Python
loop runs between replays, and each replay's times are multiplied by
REFERENCE_STEP_PROBE_MS over the mean of the loop's CPU ms just before and
just after it. The loop does not touch diel, so no change to the program can
move it. Raw wall-clock figures are printed beside the gated ones.

With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
alternates untraced and traced replays (see tracing.py) and reports the
per-layer metrics, including the tracing overhead. After the measured replays
every run replays the 20 corpus examples against their golden logs and checks
its own outputs: the log digest and exact counts repeat across replays, remote
workloads end with the same frames as the all-local run of the trace, and the
local workload's log equals the run with cache and materialization off. Any
failure makes `correct` false and the exit code 1.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Everything, including the environment and
the counts, is also written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sqlite3
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, thread_time, thread_time_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SYSTEM_COLUMNS = ("timestep", "timestamp", "request_timestep")
MIN_REPLAYS = 2  # so digests and counts can be compared within one run
MIN_BUILDS = 9  # set-up time is the median of at least this many builds
PROBE_LOOPS = 5_000_000  # the environment probe printed with every run
STEP_PROBE_LOOPS = 1_000_000  # the probe between replays that sets each replay's scale
# scaled times read as on a machine that runs the step probe in this many CPU ms
REFERENCE_STEP_PROBE_MS = 40.0

# end-to-end metrics gated by BENCHMARK.json; times are thread CPU time at the
# reference speed. The wall-clock figures, result_us (absent on
# local_dashboard) and failed_ops (0 when all is well) are printed beside them.
END_TO_END = {
    "setup_s": "s",
    "events_per_cpu_s": "1/s",
    "interaction_cpu_us.p50": "us",
    "interaction_cpu_us.p99": "us",
    "peak_rss_mb": "MB",
}


def ensure_diel() -> None:
    """Put the checkout's `src/` first on the import path, or exit."""
    if not (SRC / "diel" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'diel'} not found; run from the root of a diel checkout")
    sys.path.insert(0, str(SRC))


# --- one replay ----------------------------------------------------------------------------


@dataclass
class Replay:
    setup_s: float  # CPU seconds of Session.build
    setup_wall_s: float
    scale: float = 1.0  # turns this replay's CPU times into reference-speed times
    cpu_s: float = 0.0
    wall_s: float = 0.0
    events: int = 0  # coordinator timesteps: accepted interactions plus admitted results
    # each interaction and each admitted result as (CPU ns, wall ns)
    interaction_ns: list[tuple[int, int]] = field(default_factory=list)
    result_ns: list[tuple[int, int]] = field(default_factory=list)
    requests: int = 0  # async requests issued: remote evaluations, local ones and cache hits
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    counts: dict = field(default_factory=dict)
    finals: dict = field(default_factory=dict)
    layers: dict | None = None
    stage_ms: float = 0.0


def replay(workload, config, tracer=None) -> Replay:
    from diel import RelationKind, Session
    from diel.errors import DependencyTimeoutError

    gc.collect()
    if tracer is not None:
        tracer.start_run()
    start, start_wall = thread_time(), perf_counter()
    session = Session.build(config)
    result = Replay(setup_s=thread_time() - start, setup_wall_s=perf_counter() - start_wall)
    runtime = session.runtime
    if tracer is not None:
        tracer.attach(runtime)

    rendered = []

    def on_frame(frame) -> None:
        rendered.append(frame.output)

    callback = tracer.traced("callback", on_frame) if tracer is not None else on_frame
    for rel in session.plan.catalog.by_kind(RelationKind.OUTPUT):
        runtime.bind_output(rel.name, callback)

    admit = runtime.admit

    def timed_admit(msg) -> None:
        began, began_wall = thread_time_ns(), perf_counter_ns()
        admit(msg)
        result.result_ns.append((thread_time_ns() - began, perf_counter_ns() - began_wall))

    runtime.admit = timed_admit  # Session.deliver_due and run_quiescent call it by name

    start, start_wall = thread_time(), perf_counter()
    try:
        for entry in workload.trace:
            session.deliver_due(entry.at_ms)
            span = tracer.begin("interaction") if tracer is not None else None
            began, began_wall = thread_time_ns(), perf_counter_ns()
            try:
                runtime.new_event(entry.event, entry.payload, entry.at_ms)
                runtime.drain_inbox()
            finally:
                result.interaction_ns.append((thread_time_ns() - began, perf_counter_ns() - began_wall))
                if span is not None:
                    tracer.end(span)
        session.run_quiescent()
    except DependencyTimeoutError as exc:
        stalled = sum(inst.queue_depth() for inst in runtime.federation.instances.values())
        result.failed += stalled
        result.errors.append(f"{len(workload.trace)} interactions, {stalled} requests stalled: {exc}")
    except Exception:  # the run goes on and reports the failure with its traceback
        result.failed += len(workload.trace) - len(result.interaction_ns) + 1
        result.errors.append(traceback.format_exc(limit=4))
    result.cpu_s, result.wall_s = thread_time() - start, perf_counter() - start_wall
    result.events = runtime.clock

    summary = runtime.summary()
    result.requests = summary["eval_requests"] + summary["cache_hits"] + summary["local_evals"]
    result.digest = hashlib.sha256(session.output_log_text().encode()).hexdigest()
    result.counts = {**summary, "callbacks": len(rendered), "digest": result.digest}
    if len(rendered) != len(runtime.frames):
        result.failed += 1
        result.errors.append(f"{len(rendered)} callbacks fired for {len(runtime.frames)} frames")
    last = {frame.output: frame for frame in runtime.frames}
    result.finals = {name: _payload_rows(frame) for name, frame in last.items()}
    if tracer is not None:
        result.layers, result.stage_ms = tracer.collect(runtime)
        result.layers["federation.results_out_of_order"] = _out_of_order(runtime)
    _close(runtime)
    return result


def _payload_rows(frame) -> list:
    """A frame's rows without system columns, sorted: timesteps differ between
    placements because async results take timesteps of their own."""
    keep = [i for i, c in enumerate(frame.columns) if c not in SYSTEM_COLUMNS]
    return sorted((tuple(row[i] for i in keep) for row in frame.rows), key=repr)


def _out_of_order(runtime) -> int:
    """Async results admitted after a result for a later request."""
    latest, count = 0, 0
    for record in runtime.events:
        if record.request_timestep is not None:
            if record.request_timestep < latest:
                count += 1
            latest = max(latest, record.request_timestep)
    return count


def _close(runtime) -> None:
    runtime.engine.close()
    if runtime.federation is not None:
        for instance in runtime.federation.instances.values():
            instance.engine.close()


def measure(workload, sources, seconds: float, tracers=(None,)) -> list[list[Replay]]:
    """Replay until `seconds` of wall time have passed, taking turns with each
    of `tracers` (None replays untraced); returns the replays of each tracer."""
    runs: list[list[Replay]] = [[] for _ in tracers]
    deadline = perf_counter() + seconds
    before = speed_probe_ms(STEP_PROBE_LOOPS)[0]
    while len(runs[-1]) < MIN_REPLAYS or perf_counter() < deadline:
        for tracer, replays in zip(tracers, runs):
            with tracer if tracer is not None else nullcontext():
                r = replay(workload, workload.config(sources), tracer)
            after = speed_probe_ms(STEP_PROBE_LOOPS)[0]
            r.scale = reference_scale(before, after)
            before = after
            replays.append(r)
    return runs


def build_times(workload, sources, n: int) -> list[float]:
    """Reference-speed CPU seconds of `n` more builds of the workload's session."""
    from diel import Session

    times = []
    for _ in range(n):
        before = speed_probe_ms(STEP_PROBE_LOOPS)[0]
        gc.collect()
        start = thread_time()
        session = Session.build(workload.config(sources))
        elapsed = thread_time() - start
        _close(session.runtime)
        times.append(elapsed * reference_scale(before, speed_probe_ms(STEP_PROBE_LOOPS)[0]))
    return times


def reference_scale(before_ms: float, after_ms: float) -> float:
    """What turns CPU time measured between two step probes into reference-speed time."""
    return 2 * REFERENCE_STEP_PROBE_MS / (before_ms + after_ms)


# --- checks -------------------------------------------------------------------------------------


def preflight() -> tuple[int, list[str]]:
    """Replay every corpus example; returns how many there are and the names
    whose log is not byte-identical to its golden."""
    from diel.corpus import load_examples, run_example

    examples = load_examples()
    failures = [
        name
        for name, example in examples.items()
        if run_example(example).output_log_text() != example.golden_text()
    ]
    return len(examples), failures


def check_repeats(replays: list[Replay]) -> list[str]:
    """Every replay of one seed gives the same log digest and the same counts."""
    first = replays[0]
    problems = []
    for i, other in enumerate(replays[1:], start=1):
        if other.counts != first.counts:
            diff = sorted(k for k in first.counts if first.counts[k] != other.counts.get(k))
            problems.append(f"replay {i} differs from replay 0 in {diff}")
        if other.layers is not None:
            diff = sorted(
                k for k in exact_layer_counts(first.layers) if first.layers[k] != other.layers[k]
            )
            if diff:
                problems.append(f"replay {i} differs from replay 0 in exact counts {diff}")
    return problems


def exact_layer_counts(layers: dict) -> dict:
    from tracing import EXACT_UNITS, LAYERS

    return {name: layers[name] for name, unit, *_ in LAYERS if unit in EXACT_UNITS and name in layers}


def check_reference(workload, sources, measured: Replay) -> list[str]:
    """Replay the reference configuration outside the timed section and compare."""
    if workload.reference == "placement":
        reference = replay(workload, workload.local_config())
        problems = [
            f"final frame of {name} differs from the all-local run"
            for name in sorted(set(reference.finals) | set(measured.finals))
            if reference.finals.get(name) != measured.finals.get(name)
        ]
    else:
        reference = replay(workload, workload.config(sources, cache=False, materialize=False))
        problems = [] if reference.digest == measured.digest else [
            "log differs from the run with cache and materialization off"
        ]
    return problems + [f"reference run: {e}" for e in reference.errors]


def remember_counts(workload, mode: str, counts: dict) -> list[str]:
    """Compare with the counts an earlier run of this seed and these sources left
    in `.bench_out/`, or leave them there for the next run."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *SRC.rglob("*.diel"), *BENCH.glob("*.py")]):
        digest.update(path.read_bytes())
    key = f"{workload.name}-{workload.seed}-{len(workload.trace)}-{mode}-{digest.hexdigest()[:16]}"
    path = OUT / "counts" / f"{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        diff = sorted(k for k in earlier if earlier[k] != counts.get(k))
        return [f"counts differ from an earlier run of this seed: {diff}"] if diff else []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return []


# share of replay-phase engine time that may go unclaimed by every stage bucket
OTHER_SHARE_LIMIT = 0.05

# per-layer metrics that must be non-zero (or zero) on each workload: a renamed
# `context=` string or a bypassed mechanism shows up here as a silent stage
EXPECTATIONS = {
    "local_dashboard": {
        "nonzero": [
            *(f"engine.coord.{s}.calls" for s in (
                "event_insert", "output", "program", "refresh", "constraint", "history_insert")),
            "printer.calls",
        ],
        "zero": ["federation.log_retained", "optimizer.cache_hits", "engine.instance.statements"],
    },
    "remote_brush": {
        "nonzero": [
            *(f"engine.coord.{s}.calls" for s in ("event_insert", "result_insert", "output", "backlog")),
            "engine.instance.ship_apply.calls",
            "engine.instance.eval.calls",
            "federation.messages.ShipData",
            "federation.messages.EvalRequest",
            "federation.messages.ResultRows",
            "federation.rows_shipped",
        ],
        "zero": ["optimizer.cache_hit_share"],
    },
    "remote_reorder_cached": {
        "nonzero": [
            *(f"engine.coord.{s}.calls" for s in ("event_insert", "result_insert", "output", "backlog")),
            "engine.instance.eval.calls",
            "optimizer.cache_hit_share",
            "federation.max_instance_queue",
            "federation.results_out_of_order",
        ],
        "zero": [],
    },
}


def check_attribution(r: Replay) -> list[str]:
    total = r.layers["engine.total.ms"]
    other = r.layers["engine.other.ms"]
    problems = []
    if abs(r.stage_ms + other - total) > 1e-6 * max(1.0, total):
        problems.append(f"stage buckets {r.stage_ms:.3f} ms + other {other:.3f} ms != engine {total:.3f} ms")
    if other > OTHER_SHARE_LIMIT * total:
        problems.append(f"engine time no stage claimed: {other:.3f} of {total:.3f} ms")
    return problems


def check_expectations(name: str, layers: dict) -> list[str]:
    expected = EXPECTATIONS[name]
    return [f"{key} is 0 on {name}" for key in expected["nonzero"] if not layers[key]] + [
        f"{key} is {layers[key]} on {name}, expected 0" for key in expected["zero"] if layers[key]
    ]


# --- environment and statistics ------------------------------------------------------------------


def speed_probe_ms(loops: int = PROBE_LOOPS) -> tuple[float, float]:
    """A fixed pure-Python loop; its CPU and wall ms show how fast the machine ran."""
    start, start_wall = thread_time(), perf_counter()
    total = 0
    for i in range(loops):
        total += i & 7
    return (thread_time() - start) * 1000, (perf_counter() - start_wall) * 1000


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "probe_loops": PROBE_LOOPS,
    }


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def growth(replay_: Replay) -> float:
    """Median interaction CPU time over the last tenth of the trace over the first tenth."""
    cpu = [ns for ns, _ in replay_.interaction_ns]  # one replay: its scale cancels
    tenth = max(1, len(cpu) // 10)
    return statistics.median(cpu[-tenth:]) / statistics.median(cpu[:tenth])


def events_per_cpu_s(replays: list[Replay]) -> float:
    return sum(r.events for r in replays) / sum(r.cpu_s * r.scale for r in replays)


def end_to_end(replays: list[Replay], setup_samples: list[float], peak_rss_mb: float):
    """The gated metrics, and the ones printed beside them as name -> (value, unit)."""
    interactions = [ns * r.scale / 1000 for r in replays for ns, _ in r.interaction_ns]
    interactions_wall = [ns / 1000 for r in replays for _, ns in r.interaction_ns]
    results_wall = [ns / 1000 for r in replays for _, ns in r.result_ns]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "events_per_cpu_s": events_per_cpu_s(replays),
        "interaction_cpu_us.p50": statistics.median(interactions),
        "interaction_cpu_us.p99": p99(interactions),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "setup_wall_s": (statistics.median(r.setup_wall_s for r in replays), "s"),
        "events_per_s": (sum(r.events for r in replays) / sum(r.wall_s for r in replays), "1/s"),
        "interaction_us.p50": (statistics.median(interactions_wall), "us"),
        "interaction_us.p99": (p99(interactions_wall), "us"),
        "interactions": (len(interactions), "count"),
        "results": (len(results_wall), "count"),
    }
    if len(results_wall) > 1:
        extra["result_us.p50"] = (statistics.median(results_wall), "us")
        extra["result_us.p99"] = (p99(results_wall), "us")
    return metrics, extra


# --- main ----------------------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ensure_diel()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    report = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


def run(name: str, seed: int, seconds: float, trace: int, scale: float = 1.0) -> dict:
    """One benchmark run; prints a readable report and returns what it measured."""
    from workloads import WORKLOADS

    env = environment()
    env["probe_ms_before"] = speed_probe_ms()
    workload = WORKLOADS[name](seed, scale)
    sources = workload.write_sources(OUT / "data")
    if trace:
        report = run_traced(workload, sources, seconds)
    else:
        report = run_untraced(workload, sources, seconds)
    env["probe_ms_after"] = speed_probe_ms()
    # after the measurement, so that peak_rss_mb is the workload's own
    started = perf_counter()
    goldens, golden_failures = preflight()
    preflight_s = perf_counter() - started

    replays, checks = report["replays"], report["checks"]
    interactions = sum(len(r.interaction_ns) for r in replays)
    requests = sum(r.requests for r in replays)
    failed_checks = len(golden_failures) + sum(1 for problems in checks.values() if problems)
    failed = sum(r.failed for r in replays) + failed_checks
    attempted = interactions + requests + goldens + len(checks)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": report["units"][k]} for k, v in report["metrics"].items()},
    }

    lines = [
        f"env: python {env['python']}, sqlite {env['sqlite']}, nproc {env['nproc']}, "
        "probe of {} loops {:.1f} CPU ms ({:.1f} wall) before, {:.1f} CPU ms ({:.1f} wall) after".format(
            env["probe_loops"], *env["probe_ms_before"], *env["probe_ms_after"]),
        f"preflight: {goldens - len(golden_failures)}/{goldens} "
        f"corpus goldens byte-identical ({preflight_s:.2f} s)",
        f"workload {name} seed {seed}{'' if scale == 1 else f' scale {scale}'}: "
        f"{len(replays)} replays of {len(workload.trace)} interactions, "
        f"{'traced' if trace else 'untraced'}",
    ]
    for key, value in report["metrics"].items():
        lines.append(f"  {key:<40} {value:>14.6g} {report['units'][key]}")
    for key, (value, unit) in report["extra"].items():
        lines.append(f"  {key:<40} {value:>14.6g} {unit}")
    lines.append(f"  {'failed_ops':<40} {failed / attempted:>14.6g} share ({failed}/{attempted})")
    lines.extend(f"golden {n} is not byte-identical" for n in golden_failures)
    for check, problems in checks.items():
        lines.extend(f"check {check} failed: {p}" for p in problems)
    for r in replays:
        lines.extend(f"replay failed: {e}" for e in r.errors)
    print("\n".join(lines))

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": trace, "env": env, "result": result,
              "extra": report["extra"], "checks": checks, "golden_failures": golden_failures,
              "counts": replays[0].counts, "errors": [e for r in replays for e in r.errors]}
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str), encoding="utf-8"
    )
    return {"result": result, "replays": replays, "checks": checks, "extra": report["extra"],
            "metrics": report["metrics"], "golden_failures": golden_failures}


def run_untraced(workload, sources, seconds: float) -> dict:
    (replays,) = measure(workload, sources, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_samples = [r.setup_s * r.scale for r in replays]
    setup_samples += build_times(workload, sources, MIN_BUILDS - len(setup_samples))
    metrics, extra = end_to_end(replays, setup_samples, peak_rss_mb)
    checks = {
        "repeats": check_repeats(replays),
        "reference": check_reference(workload, sources, replays[0]),
        "earlier_runs": remember_counts(workload, "untraced", replays[0].counts),
    }
    return {"replays": replays, "metrics": metrics, "extra": extra, "checks": checks,
            "units": dict(END_TO_END)}


def run_traced(workload, sources, seconds: float) -> dict:
    from tracing import LAYERS, Tracer
    from workloads import COORDINATOR

    # alternating keeps a drifting machine from skewing the overhead
    tracer = Tracer(COORDINATOR)
    untraced, traced = measure(workload, sources, seconds, (None, tracer))
    tracer.write(OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl")

    untraced_eps, traced_eps = events_per_cpu_s(untraced), events_per_cpu_s(traced)
    units = {name: unit for name, unit, *_ in LAYERS}
    # counts repeat exactly (checked below); times are medians over the traced
    # replays, at reference speed
    layers = {
        key: statistics.median(r.layers[key] * (r.scale if units[key] == "ms" else 1) for r in traced)
        for key in traced[0].layers
    }
    layers.update(exact_layer_counts(traced[0].layers))
    layers["runtime.cost_growth"] = statistics.median(growth(r) for r in untraced)
    layers["trace.overhead"] = untraced_eps / traced_eps
    layers["env.probe_ms"] = speed_probe_ms()[0]

    checks = {
        "repeats": check_repeats(untraced) + check_repeats(traced),
        "tracing_transparent": [] if traced[0].digest == untraced[0].digest else [
            "tracing changed the output log"
        ],
        "reference": check_reference(workload, sources, untraced[0]),
        "earlier_runs": remember_counts(
            workload, "traced", {**exact_layer_counts(traced[0].layers), "digest": traced[0].digest}
        ),
        "attribution": [p for r in traced for p in check_attribution(r)],
        "expectations": check_expectations(workload.name, layers),
    }
    metrics = {name: layers[name] for name in units}
    extra = {"untraced events_per_cpu_s": (untraced_eps, "1/s"),
             "traced events_per_cpu_s": (traced_eps, "1/s")}
    return {"replays": untraced + traced, "metrics": metrics, "extra": extra, "checks": checks,
            "units": units}


if __name__ == "__main__":
    sys.exit(main())
