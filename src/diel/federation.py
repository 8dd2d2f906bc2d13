"""Simulated federation: embedded-engine instances, virtual-clock transport.

Messages between the coordinator and instances are scheduled on a discrete
virtual clock (1 ms granularity). Each link has independent uplink/downlink
latency models, so deliveries reorder across messages; each instance applies
shipments and evaluates requests in ascending request_timestep regardless of
arrival order.

Wire format (socket mode and trace logging): a 4-byte big-endian length
prefix, then a JSON object with fields {kind, view?, relation?, rows?,
request_timestep, send_ms, deliver_ms}.
"""

from __future__ import annotations

import heapq
import json
import random
import re
import struct
from dataclasses import dataclass

from .engine import SqlEngine
from .errors import (
    ConfigError,
    DeadlineExceededError,
    DependencyTimeoutError,
    EngineError,
    ScriptExhaustedError,
)
from .printer import quote_ident

SHIP_DATA = "ShipData"
EVAL_REQUEST = "EvalRequest"
RESULT_ROWS = "ResultRows"


@dataclass
class Message:
    kind: str
    from_db: str
    to_db: str
    send_ms: int
    deliver_ms: int = 0
    view: str | None = None
    relation: str | None = None
    rows: list[tuple] | None = None
    request_timestep: int | None = None
    seq: int = 0  # global send order; breaks simultaneous-delivery ties
    link_seq: int = 0  # per-link channel position; 0 bypasses channel ordering


def encode_message(msg: Message) -> bytes:
    payload: dict = {"kind": msg.kind}
    if msg.view is not None:
        payload["view"] = msg.view
    if msg.relation is not None:
        payload["relation"] = msg.relation
    if msg.rows is not None:
        payload["rows"] = [list(r) for r in msg.rows]
    payload["request_timestep"] = msg.request_timestep
    payload["send_ms"] = msg.send_ms
    payload["deliver_ms"] = msg.deliver_ms
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def decode_messages(buffer: bytes) -> tuple[list[Message], bytes]:
    """Decode complete length-prefixed messages; returns (messages, remainder)."""
    messages: list[Message] = []
    offset = 0
    while offset + 4 <= len(buffer):
        (length,) = struct.unpack_from(">I", buffer, offset)
        if offset + 4 + length > len(buffer):
            break
        payload = json.loads(buffer[offset + 4 : offset + 4 + length])
        rows = payload.get("rows")
        messages.append(
            Message(
                kind=payload["kind"],
                from_db="",
                to_db="",
                send_ms=payload["send_ms"],
                deliver_ms=payload["deliver_ms"],
                view=payload.get("view"),
                relation=payload.get("relation"),
                rows=None if rows is None else [tuple(r) for r in rows],
                request_timestep=payload.get("request_timestep"),
            )
        )
        offset += 4 + length
    return messages, buffer[offset:]


# --- latency models ---------------------------------------------------------------


class LatencyModel:
    def delay(self) -> int:
        raise NotImplementedError


class FixedLatency(LatencyModel):
    def __init__(self, ms: int):
        self.ms = ms

    def delay(self) -> int:
        return self.ms


class UniformLatency(LatencyModel):
    def __init__(self, lo: int, hi: int, rng: random.Random):
        if hi < lo:
            raise ConfigError(f"uniform latency range [{lo},{hi}] is inverted")
        self.lo = lo
        self.hi = hi
        self.rng = rng

    def delay(self) -> int:
        return self.rng.randint(self.lo, self.hi)


class ScriptedLatency(LatencyModel):
    def __init__(self, delays: list[int]):
        self.delays = list(delays)
        self._next = 0

    def delay(self) -> int:
        if self._next >= len(self.delays):
            raise ScriptExhaustedError(
                f"scripted latency exhausted after {len(self.delays)} messages"
            )
        value = self.delays[self._next]
        self._next += 1
        return value


_SPEC_RE = re.compile(r"^(fixed|uniform|scripted)\(([^()]*)\)$")


@dataclass(frozen=True)
class LatencySpec:
    """Parsed `fixed(n)` / `uniform(lo,hi)` / `scripted(d1,d2,...)` text,
    optionally split into uplink/downlink halves with `up/down`."""

    up: str
    down: str

    def build(self, direction: str, seed, link: str) -> LatencyModel:
        text = self.up if direction == "up" else self.down
        match = _SPEC_RE.match(text)
        if not match:
            raise ConfigError(f"bad latency spec {text!r}")
        name, args_text = match.groups()
        args = [a.strip() for a in args_text.split(",")] if args_text.strip() else []
        try:
            values = [int(a) for a in args]
        except ValueError:
            raise ConfigError(f"latency spec {text!r} has non-integer arguments") from None
        if name == "fixed":
            if len(values) != 1:
                raise ConfigError("fixed() takes one argument")
            return FixedLatency(values[0])
        if name == "uniform":
            if len(values) != 2:
                raise ConfigError("uniform() takes two arguments")
            rng = random.Random(f"{seed}/latency/{link}/{direction}")
            return UniformLatency(values[0], values[1], rng)
        if not values:
            raise ConfigError("scripted() needs at least one delay")
        return ScriptedLatency(values)


def parse_latency_spec(text: str) -> LatencySpec:
    parts = text.split("/")
    if len(parts) == 1:
        spec = LatencySpec(up=text, down=text)
    elif len(parts) == 2:
        spec = LatencySpec(up=parts[0], down=parts[1])
    else:
        raise ConfigError(f"bad latency spec {text!r}")
    for side in ("up", "down"):
        spec.build(side, 0, "probe")  # validate both halves eagerly
    return spec


# --- transport ----------------------------------------------------------------------


class Transport:
    """Virtual-clock message scheduler; simultaneous deliveries are ordered by
    (deliver_ms, send order)."""

    def __init__(self) -> None:
        self.now = 0
        self._heap: list[tuple[int, int, Message]] = []
        self._seq = 0
        self.sent_counts: dict[str, int] = {SHIP_DATA: 0, EVAL_REQUEST: 0, RESULT_ROWS: 0}
        self.log: list[Message] = []

    def send(self, msg: Message, model: LatencyModel) -> Message:
        msg.send_ms = self.now
        msg.deliver_ms = self.now + max(0, model.delay())
        self._seq += 1
        msg.seq = self._seq
        self.sent_counts[msg.kind] = self.sent_counts.get(msg.kind, 0) + 1
        self.log.append(msg)
        heapq.heappush(self._heap, (msg.deliver_ms, msg.seq, msg))
        return msg

    def pending(self) -> int:
        return len(self._heap)

    def next_deliver_ms(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def pop_next(self) -> Message:
        deliver_ms, _, msg = heapq.heappop(self._heap)
        self.now = max(self.now, deliver_ms)
        return msg

    def advance_to(self, ms: int) -> None:
        self.now = max(self.now, ms)


# --- database instances ----------------------------------------------------------------


class SimInstance:
    """A Worker/Remote instance: an embedded engine plus the timestep queue.

    Work for request timestep t is gated on t's shipment: the runtime pairs
    every EvalRequest(t) with a ShipData(t) on the same link, so applying
    shipments lazily keeps LATEST evaluating against exactly the state as of
    t even when deliveries reorder. Setup snapshots are written by `setup`
    before any message is sent.
    """

    def __init__(self, db_id: str, engine: SqlEngine):
        self.db_id = db_id
        self.engine = engine
        self.pending_ships: dict[int, list[Message]] = {}
        self.pending_evals: dict[int, list[Message]] = {}
        self.applied_ship_ts: set[int] = set()
        self.evaluated: list[int] = []
        self.results_sent = 0
        # the coordinator->instance link is an ordered channel; deliveries may
        # arrive out of order, so out-of-sequence messages wait here
        self._channel_buffer: dict[int, Message] = {}
        self._next_link_seq = 1
        self._view_sql: dict[str, str] = {}  # view -> its evaluation query

    def receive(self, msg: Message, now_ms: int) -> list[Message]:
        released: list[Message] = []
        if msg.link_seq == 0:
            released.append(msg)
        elif msg.link_seq < self._next_link_seq or msg.link_seq in self._channel_buffer:
            return []  # a duplicate of a message already released or waiting
        else:
            self._channel_buffer[msg.link_seq] = msg
            while self._next_link_seq in self._channel_buffer:
                released.append(self._channel_buffer.pop(self._next_link_seq))
                self._next_link_seq += 1
        for item in released:
            if item.kind == SHIP_DATA:
                self.pending_ships.setdefault(item.request_timestep, []).append(item)
            elif item.kind == EVAL_REQUEST:
                self.pending_evals.setdefault(item.request_timestep, []).append(item)
            else:
                raise EngineError(f"instance {self.db_id}", f"unexpected message {item.kind}")
        return self.step(now_ms)

    def step(self, now_ms: int) -> list[Message]:
        out: list[Message] = []
        progress = True
        while progress:
            progress = False
            pending = sorted(set(self.pending_ships) | set(self.pending_evals))
            if not pending:
                break
            t = pending[0]
            if t in self.pending_ships and t in self.pending_evals:
                for msg in self.pending_ships.pop(t):
                    self.engine.insert_rows(
                        msg.relation, msg.rows or [], context=f"shipment t={t}"
                    )
                self.applied_ship_ts.add(t)
                progress = True
            if t in self.pending_evals and (t in self.applied_ship_ts):
                for msg in self.pending_evals.pop(t):
                    sql = self._view_sql.get(msg.view)
                    if sql is None:
                        sql = self._view_sql[msg.view] = f"SELECT * FROM {quote_ident(msg.view)}"
                    _, rows = self.engine.run_query(sql, context=f"async view {msg.view}")
                    out.append(
                        Message(
                            kind=RESULT_ROWS,
                            from_db=self.db_id,
                            to_db=msg.from_db,
                            send_ms=now_ms,
                            view=msg.view,
                            rows=rows,
                            request_timestep=msg.request_timestep,
                        )
                    )
                    self.results_sent += 1
                self.evaluated.append(t)
                progress = True
        return out

    def queue_depth(self) -> int:
        return len(self.pending_ships) + len(self.pending_evals) + len(self._channel_buffer)


# --- federation --------------------------------------------------------------------------


@dataclass
class Link:
    up: LatencyModel
    down: LatencyModel


class Federation:
    """Coordinator-side handle: routes messages between the runtime and the
    simulated instances on the shared virtual clock."""

    def __init__(self, coordinator_id: str, instances: dict[str, SimInstance], links: dict[str, Link]):
        self.coordinator_id = coordinator_id
        self.instances = instances
        self.links = links
        self.transport = Transport()
        self._link_seq: dict[str, int] = {}

    def _next_link_seq(self, db_id: str) -> int:
        self._link_seq[db_id] = self._link_seq.get(db_id, 0) + 1
        return self._link_seq[db_id]

    def ship(self, db_id: str, relation: str, rows: list[tuple], request_timestep: int) -> None:
        self.transport.send(
            Message(
                kind=SHIP_DATA,
                from_db=self.coordinator_id,
                to_db=db_id,
                send_ms=self.transport.now,
                relation=relation,
                rows=rows,
                request_timestep=request_timestep,
                link_seq=self._next_link_seq(db_id),
            ),
            self.links[db_id].up,
        )

    def request_eval(self, db_id: str, view: str, request_timestep: int) -> None:
        self.transport.send(
            Message(
                kind=EVAL_REQUEST,
                from_db=self.coordinator_id,
                to_db=db_id,
                send_ms=self.transport.now,
                view=view,
                request_timestep=request_timestep,
                link_seq=self._next_link_seq(db_id),
            ),
            self.links[db_id].up,
        )

    def _route(self, msg: Message) -> list[Message]:
        """Deliver one message; returns messages now due at the coordinator."""
        if msg.to_db == self.coordinator_id:
            return [msg]
        instance = self.instances[msg.to_db]
        for result in instance.receive(msg, msg.deliver_ms):
            self.transport.send(result, self.links[msg.to_db].down)
        return []

    def deliver_due(self, until_ms: int) -> list[Message]:
        """Deliver everything scheduled at or before until_ms, in
        (deliver_ms, send order); coordinator-bound messages are returned."""
        arrived: list[Message] = []
        while True:
            next_ms = self.transport.next_deliver_ms()
            if next_ms is None or next_ms > until_ms:
                break
            arrived.extend(self._route(self.transport.pop_next()))
        self.transport.advance_to(until_ms)
        return arrived


def run_until_quiescent(federation: Federation, on_message, deadline_ms: int = 10**9) -> int:
    """Advance the virtual clock until no messages are in flight and every
    instance queue is drained; coordinator-bound messages go to `on_message`
    (which may send more). Returns the final virtual time in ms.
    """
    while True:
        next_ms = federation.transport.next_deliver_ms()
        if next_ms is None:
            break
        if next_ms > deadline_ms:
            raise DeadlineExceededError(
                f"message due at {next_ms} ms exceeds deadline {deadline_ms} ms"
            )
        for msg in federation._route(federation.transport.pop_next()):
            on_message(msg)
    for instance in federation.instances.values():
        if instance.queue_depth():
            raise DependencyTimeoutError(
                f"instance {instance.db_id} stalled with "
                f"{instance.queue_depth()} queued timesteps"
            )
    return federation.transport.now
