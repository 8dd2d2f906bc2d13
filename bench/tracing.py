"""Spans and counters for the benchmark's traced run.

The tracer wraps the public functions of each diel module from outside, so
the program under test is unchanged. Each call becomes a span (name, start,
end, parent, run id); an interaction or admit span contains the engine spans
it caused, and a deliver_due span contains the instances' receive spans.
SQLite statements and VM steps are counted on each connection with
`set_trace_callback` and `set_progress_handler`, which also sees the CHECK
probes that the runtime runs on the connection directly.

`diel.session` and `diel.runtime` bind the parser, compiler, planner,
optimizer, setup and printer functions at import time, so those names are
wrapped in the caller's namespace.

Span times are CPU time of the benchmark's thread, the clock run.py measures
with, so that a layer's share of the run does not move with the host's load.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import thread_time_ns

import diel.runtime
import diel.session
from diel import DbConfig, RequestCache, Runtime, Session, SimInstance, SqlEngine, encode_message
from diel.federation import SHIP_DATA, Transport

# the progress handler fires once per this many VM instructions; vm_steps is
# the number of firings times this, so statements shorter than it count 0
PROGRESS_OPS = 100

# engine spans are bucketed by the runtime's `context=` argument
COORD_STAGES = {
    "event ": "event_insert",
    "result ": "result_insert",
    "output ": "output",
    "program ": "program",
    "refresh ": "refresh",
    "constraint ": "constraint",
    "history insert ": "history_insert",
    "backlog of ": "backlog",
    "async view ": "local_async",
}
INSTANCE_STAGES = {"shipment ": "ship_apply", "async view ": "eval"}
MESSAGE_KINDS = ("ShipData", "EvalRequest", "ResultRows")

# set-up layers: metric -> the span whose durations it sums
SETUP_LAYERS = {
    "session.load_ms": "session.load",
    "parser.parse_ms": "parser.parse",
    "compiler.compile_ms": "compiler.compile",
    "planner.plan_ms": "planner.plan",
    "optimizer.materialize_ms": "optimizer.materialize",
    "runtime.setup_ms": "runtime.setup",
}


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into Tracer.spans, -1 for a root
    run: int
    rows: int = 0


class Tracer:
    """Collects spans in memory while installed; `write` saves them as JSON Lines."""

    def __init__(self, coordinator: str):
        self.coordinator = coordinator
        self.spans: list[Span] = []
        self.run = -1
        self._run_start = 0  # index of the current run's first span
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.statements: Counter = Counter()
        self.vm_ticks: Counter = Counter()
        self.max_in_flight = 0
        self.max_instance_queue = 0

    # -- spans -------------------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, thread_time_ns(), 0, parent, self.run))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, rows: int = 0) -> None:
        span = self.spans[index]
        span.end = thread_time_ns()
        span.rows = rows
        self._stack.pop()

    def traced(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_span(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.traced(name, getattr(owner, attr)))

    def _patch_engine(self, attr: str) -> None:
        original = getattr(SqlEngine, attr)

        def wrapper(engine, *args, **kwargs):
            index = self.begin(self.engine_span_name(engine.db_id, kwargs.get("context", "")))
            before = engine.conn.total_changes
            rows = 0
            try:
                result = original(engine, *args, **kwargs)
                rows = len(result[1]) if attr == "run_query" else engine.conn.total_changes - before
                return result
            finally:
                self.end(index, rows)

        self._patch(SqlEngine, attr, wrapper)

    def engine_span_name(self, db_id: str, context: str) -> str:
        side, stages = ("coord", COORD_STAGES) if db_id == self.coordinator else ("instance", INSTANCE_STAGES)
        for prefix, stage in stages.items():
            if context.startswith(prefix):
                return f"engine.{side}.{stage}"
        return f"engine.{side}.other"

    # -- installation ---------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._patch_span(Session, "build", "session.build")
        self._patch_span(DbConfig, "load", "session.load")
        self._patch_span(diel.session, "parse_diel", "parser.parse")
        self._patch_span(diel.session, "compile_program", "compiler.compile")
        self._patch_span(diel.session, "plan_federation", "planner.plan")
        self._patch_span(diel.session, "emit_per_db_sql", "planner.plan")
        self._patch_span(diel.session, "materialize_shared_views", "optimizer.materialize")
        self._patch_span(diel.session, "setup", "runtime.setup")
        self._patch_span(Session, "deliver_due", "session.deliver_due")
        self._patch_span(Session, "run_quiescent", "session.quiesce")
        self._patch_span(Runtime, "admit", "runtime.admit")
        self._patch_span(Runtime, "new_event", "runtime.new_event")
        self._patch_span(Runtime, "on_async_result", "runtime.on_async_result")
        self._patch_span(diel.runtime, "query_sql", "printer")
        self._patch_span(diel.runtime, "expr_sql", "printer")
        self._patch_span(RequestCache, "lookup", "optimizer.cache")
        self._patch_span(RequestCache, "store", "optimizer.cache")
        for attr in ("run_query", "execute", "insert_rows", "execute_script"):
            self._patch_engine(attr)

        receive = SimInstance.receive

        def traced_receive(instance, msg, now_ms):
            index = self.begin("federation.receive")
            try:
                return receive(instance, msg, now_ms)
            finally:
                self.end(index)
                self.max_instance_queue = max(self.max_instance_queue, instance.queue_depth())

        self._patch(SimInstance, "receive", traced_receive)

        send = Transport.send

        def counted_send(transport, msg, model):
            sent = send(transport, msg, model)
            self.max_in_flight = max(self.max_in_flight, transport.pending())
            return sent

        self._patch(Transport, "send", counted_send)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- runs ---------------------------------------------------------------------------------

    def start_run(self) -> None:
        """Start a new run id and reset the per-run counters."""
        self.run += 1
        self._run_start = len(self.spans)
        self.statements = Counter()
        self.vm_ticks = Counter()
        self.max_in_flight = 0
        self.max_instance_queue = 0

    def attach(self, runtime: Runtime) -> None:
        """Count statements and VM steps on every connection of a built session."""
        for side, engine in _engines(runtime):
            engine.conn.set_trace_callback(lambda _sql, side=side: self.statements.update((side,)))
            engine.conn.set_progress_handler(lambda side=side: self.vm_ticks.update((side,)), PROGRESS_OPS)

    def collect(self, runtime: Runtime) -> tuple[dict[str, float], float]:
        """Per-layer metrics of the current run, and the engine time (ms) that
        the stage buckets claimed."""
        for _, engine in _engines(runtime):
            engine.conn.set_trace_callback(None)
            engine.conn.set_progress_handler(None, 0)
        spans = [(i, self.spans[i]) for i in range(self._run_start, len(self.spans))]
        root: dict[int, int] = {}
        child_ns: Counter = Counter()
        for i, span in spans:
            root[i] = i if span.parent < 0 else root[span.parent]
            if span.parent >= 0:
                child_ns[span.parent] += span.end - span.start

        ms: Counter = Counter()  # inclusive ms by span name
        calls: Counter = Counter()
        rows: Counter = Counter()
        runtime_self_ns = 0
        engine_ns = 0
        for i, span in spans:
            duration = span.end - span.start
            name = span.name
            if name.startswith("engine."):
                if self.spans[root[i]].name == "session.build":
                    continue  # set-up statements belong to the set-up layers
                engine_ns += duration
            if name in ("runtime.new_event", "runtime.on_async_result"):
                runtime_self_ns += duration - child_ns[i]
            ms[name] += duration / 1e6
            calls[name] += 1
            rows[name] += span.rows

        metrics: dict[str, float] = {}
        for metric, name in SETUP_LAYERS.items():
            metrics[metric] = ms[name]
        stage_ms = 0.0
        for stage in COORD_STAGES.values():
            name = f"engine.coord.{stage}"
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.ms"] = ms[name]
            metrics[f"{name}.rows"] = rows[name]
            stage_ms += ms[name]
        for stage in INSTANCE_STAGES.values():
            name = f"engine.instance.{stage}"
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.ms"] = ms[name]
            stage_ms += ms[name]
        metrics["engine.other.ms"] = ms["engine.coord.other"] + ms["engine.instance.other"]
        metrics["engine.total.ms"] = engine_ns / 1e6
        for side in ("coord", "instance"):
            metrics[f"engine.{side}.statements"] = self.statements[side]
            metrics[f"engine.{side}.vm_steps"] = self.vm_ticks[side] * PROGRESS_OPS
            metrics[f"engine.{side}.db_bytes"] = sum(_db_bytes(e) for s, e in _engines(runtime) if s == side)
        metrics["runtime.self_ms"] = runtime_self_ns / 1e6
        metrics["printer.calls"] = calls["printer"]
        metrics["printer.ms"] = ms["printer"]
        stats = runtime.cache.stats()
        lookups = stats["cache_hits"] + stats["cache_misses"]
        metrics["optimizer.cache_hits"] = stats["cache_hits"]
        metrics["optimizer.cache_hit_share"] = stats["cache_hits"] / lookups if lookups else 0.0
        metrics["optimizer.cache_ms"] = ms["optimizer.cache"]
        transport = runtime.federation.transport if runtime.federation else None
        log = transport.log if transport else []
        for kind in MESSAGE_KINDS:
            metrics[f"federation.messages.{kind}"] = transport.sent_counts.get(kind, 0) if transport else 0
        metrics["federation.rows_shipped"] = sum(len(m.rows or ()) for m in log if m.kind == SHIP_DATA)
        metrics["federation.bytes"] = sum(len(encode_message(m)) for m in log)
        metrics["federation.instance_ms"] = ms["federation.receive"]
        metrics["federation.max_in_flight"] = self.max_in_flight
        metrics["federation.max_instance_queue"] = self.max_instance_queue
        metrics["federation.log_retained"] = len(log)
        metrics["session.deliver_due_ms"] = ms["session.deliver_due"]
        metrics["session.quiesce_ms"] = ms["session.quiesce"]
        metrics["runtime.events_retained"] = len(runtime.events)
        metrics["runtime.frames"] = len(runtime.frames)

        return metrics, stage_ms

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                         "parent": s.parent, "run": s.run, "rows": s.rows},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _engines(runtime: Runtime) -> list[tuple[str, SqlEngine]]:
    engines = [("coord", runtime.engine)]
    if runtime.federation is not None:
        engines += [("instance", inst.engine) for _, inst in sorted(runtime.federation.instances.items())]
    return engines


def _db_bytes(engine: SqlEngine) -> int:
    page_count = engine.conn.execute("PRAGMA page_count").fetchone()[0]
    page_size = engine.conn.execute("PRAGMA page_size").fetchone()[0]
    return page_count * page_size


# Every per-layer metric: (name, unit, better, the end-to-end metric it should
# move, the workloads where it should move it). Metrics in count or B repeat
# exactly across runs of one seed.
_E2E = "interaction_cpu_us, events_per_cpu_s"
_P50 = "interaction_cpu_us.p50"
_CACHE = "events_per_cpu_s, interaction_cpu_us.p50"
_FED = "events_per_cpu_s, result_us"
_STAGE_WHERE = {
    "event_insert": "all",
    "result_insert": "remote pair",
    "output": "all",
    "program": "local_dashboard",
    "refresh": "local_dashboard",
    "constraint": "local_dashboard",
    "history_insert": "local_dashboard",
    "backlog": "remote pair",
    "local_async": "none of the three (coordinator-led async views only)",
}
LAYERS: list[tuple[str, str, str, str, str]] = [
    ("session.load_ms", "ms", "lower", "setup_s", "all; largest on local_dashboard"),
    ("parser.parse_ms", "ms", "lower", "setup_s", "all"),
    ("compiler.compile_ms", "ms", "lower", "setup_s", "all"),
    ("planner.plan_ms", "ms", "lower", "setup_s", "all"),
    ("optimizer.materialize_ms", "ms", "lower", "setup_s", "all"),
    ("runtime.setup_ms", "ms", "lower", "setup_s", "all"),
    *(
        (f"engine.coord.{stage}.{kind}", unit, "lower", _E2E, where)
        for stage, where in _STAGE_WHERE.items()
        for kind, unit in (("calls", "count"), ("ms", "ms"), ("rows", "count"))
    ),
    *(
        (f"engine.instance.{stage}.{kind}", unit, "lower", _FED, "remote_brush")
        for stage in INSTANCE_STAGES.values()
        for kind, unit in (("calls", "count"), ("ms", "ms"))
    ),
    ("engine.coord.statements", "count", "lower", _E2E, "all"),
    ("engine.instance.statements", "count", "lower", _E2E, "remote pair"),
    ("engine.coord.vm_steps", "count", "lower", _E2E, "all"),
    ("engine.instance.vm_steps", "count", "lower", _E2E, "remote pair"),
    ("engine.other.ms", "ms", "lower", "none (guards attribution)", "all"),
    ("engine.total.ms", "ms", "lower", _E2E, "all"),
    ("runtime.self_ms", "ms", "lower", _P50, "local_dashboard"),
    ("printer.calls", "count", "lower", _P50, "local_dashboard"),
    ("printer.ms", "ms", "lower", _P50, "local_dashboard"),
    ("runtime.cost_growth", "ratio", "lower", "interaction_cpu_us.p99, events_per_cpu_s",
     "all; steepest on remote_brush"),
    ("runtime.frames", "count", "lower", _E2E, "all"),
    ("optimizer.cache_hits", "count", "higher", _CACHE, "remote_reorder_cached"),
    ("optimizer.cache_hit_share", "ratio", "higher", _CACHE,
     "remote_reorder_cached; 0 on remote_brush"),
    ("optimizer.cache_ms", "ms", "lower", _CACHE, "remote_reorder_cached"),
    *(
        (f"federation.messages.{kind}", "count", "lower", _FED, "remote pair; 0 on local_dashboard")
        for kind in MESSAGE_KINDS
    ),
    ("federation.rows_shipped", "count", "lower", _FED, "remote pair"),
    ("federation.bytes", "B", "lower", _FED, "remote pair"),
    ("federation.instance_ms", "ms", "lower", _FED, "remote pair"),
    ("federation.max_in_flight", "count", "lower", _FED, "remote pair"),
    ("federation.max_instance_queue", "count", "lower", _FED, "remote_reorder_cached"),
    ("federation.results_out_of_order", "count", "lower", "result_us", "remote_reorder_cached"),
    ("session.deliver_due_ms", "ms", "lower", "events_per_cpu_s", "remote pair"),
    ("session.quiesce_ms", "ms", "lower", "events_per_cpu_s", "remote pair"),
    ("runtime.events_retained", "count", "lower", "peak_rss_mb", "all; largest on remote_brush"),
    ("federation.log_retained", "count", "lower", "peak_rss_mb", "remote pair"),
    ("engine.coord.db_bytes", "B", "lower", "peak_rss_mb", "all; largest on remote_brush"),
    ("engine.instance.db_bytes", "B", "lower", "peak_rss_mb", "remote pair"),
    ("trace.overhead", "ratio", "lower", "none (untraced / traced events_per_cpu_s)", "all"),
    ("env.probe_ms", "ms", "lower", "none (CPU ms of a fixed loop, to show drift)", "all"),
]
EXACT_UNITS = ("count", "B")
