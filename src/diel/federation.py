"""Simulated federation: embedded-engine instances, virtual-clock transport.

Messages between the coordinator and instances are scheduled on a discrete
virtual clock (1 ms granularity). Each link has independent uplink/downlink
latency models, so deliveries reorder across messages; each coordinator->
instance link is an ordered channel, so each instance still applies shipments
and evaluates requests in ascending request_timestep.

Wire format (what a message would cost on a wire; the benchmark's
`federation.bytes` counts it): a 4-byte big-endian length prefix, then a JSON
object with fields {kind, from_db, to_db, view?, relation?, rows?,
request_timestep, send_ms, deliver_ms, link_seq}, every field routing needs.
Nothing decodes it: no socket transport exists.
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
    link_seq: int = 0  # position on its coordinator->instance channel, from 1


def encode_message(msg: Message) -> bytes:
    payload: dict = {"kind": msg.kind, "from_db": msg.from_db, "to_db": msg.to_db}
    if msg.view is not None:
        payload["view"] = msg.view
    if msg.relation is not None:
        payload["relation"] = msg.relation
    if msg.rows is not None:
        payload["rows"] = [list(r) for r in msg.rows]
    payload["request_timestep"] = msg.request_timestep
    payload["send_ms"] = msg.send_ms
    payload["deliver_ms"] = msg.deliver_ms
    payload["link_seq"] = msg.link_seq
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(body)) + body


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
    """A Worker/Remote instance: an embedded engine behind an ordered channel.

    The coordinator->instance link is an ordered channel: every message
    carries its link position, deliveries that arrive early wait in a buffer,
    and each message is applied as the channel releases it. The runtime sends
    on each link in ascending request timestep, with ShipData(t) ahead of the
    EvalRequests of t, so release order alone evaluates requests in ascending
    timestep against exactly the state as of t, however deliveries reorder.
    Setup snapshots are written by `setup` before any message is sent.

    A request runs its view's lowered query (`relation_sql`) on the engine,
    which serves a repeat while no ShipData has changed a row since.
    """

    def __init__(self, db_id: str, engine: SqlEngine, relation_sql: dict[str, str]):
        self.db_id = db_id
        self.engine = engine
        self.relation_sql = relation_sql
        self._channel_buffer: dict[int, Message] = {}  # link_seq -> early arrival
        self._next_link_seq = 1

    def receive(self, msg: Message, now_ms: int) -> list[Message]:
        """Buffer one delivery, apply every message it releases, and return
        the results of the EvalRequests among them."""
        if msg.link_seq < 1:
            raise EngineError(
                f"instance {self.db_id}",
                f"{msg.kind} has no channel position (link_seq {msg.link_seq})",
            )
        if msg.link_seq < self._next_link_seq or msg.link_seq in self._channel_buffer:
            return []  # a duplicate of a message already released or waiting
        self._channel_buffer[msg.link_seq] = msg
        out: list[Message] = []
        while self._next_link_seq in self._channel_buffer:
            item = self._channel_buffer.pop(self._next_link_seq)
            self._next_link_seq += 1
            t = item.request_timestep
            if item.kind == SHIP_DATA:
                self.engine.insert_rows(item.relation, item.rows or [], context=f"shipment t={t}")
            elif item.kind == EVAL_REQUEST:
                rows = self.engine.read(self.relation_sql[item.view], context=f"async view {item.view}")
                out.append(
                    Message(
                        kind=RESULT_ROWS,
                        from_db=self.db_id,
                        to_db=item.from_db,
                        send_ms=now_ms,
                        view=item.view,
                        rows=rows,
                        request_timestep=t,
                    )
                )
            else:
                raise EngineError(f"instance {self.db_id}", f"unexpected message {item.kind}")
        return out

    def queue_depth(self) -> int:
        """Messages that arrived ahead of an earlier one on the channel."""
        return len(self._channel_buffer)


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
        self._send_up(db_id, SHIP_DATA, request_timestep, relation=relation, rows=rows)

    def request_eval(self, db_id: str, view: str, request_timestep: int) -> None:
        self._send_up(db_id, EVAL_REQUEST, request_timestep, view=view)

    def _send_up(
        self, db_id: str, kind: str, request_timestep: int,
        view: str | None = None, relation: str | None = None, rows: list[tuple] | None = None,
    ) -> None:
        """Send one message on db_id's coordinator->instance channel, at its next position."""
        self.transport.send(
            Message(
                kind=kind,
                from_db=self.coordinator_id,
                to_db=db_id,
                send_ms=self.transport.now,
                view=view,
                relation=relation,
                rows=rows,
                request_timestep=request_timestep,
                link_seq=self._next_link_seq(db_id),
            ),
            self.links[db_id].up,
        )

    def deliver(self, on_message, until_ms: int) -> None:
        """Deliver every message due at or before until_ms, in (deliver_ms,
        send order). Instance-bound messages are routed and their results
        sent back; each coordinator-bound message goes to `on_message` as it
        is popped, so results are admitted in virtual-time order and whatever
        admitting one sends is delivered in the same pass."""
        transport = self.transport
        while True:
            next_ms = transport.next_deliver_ms()
            if next_ms is None or next_ms > until_ms:
                return
            msg = transport.pop_next()
            if msg.to_db == self.coordinator_id:
                on_message(msg)
                continue
            for result in self.instances[msg.to_db].receive(msg, msg.deliver_ms):
                transport.send(result, self.links[msg.to_db].down)


def run_until_quiescent(federation: Federation, on_message, deadline_ms: int = 10**9) -> int:
    """Deliver until no message is in flight; coordinator-bound messages go to
    `on_message` (which may send more). Returns the final virtual time in ms.
    """
    federation.deliver(on_message, deadline_ms)
    next_ms = federation.transport.next_deliver_ms()
    if next_ms is not None:
        raise DeadlineExceededError(
            f"message due at {next_ms} ms exceeds deadline {deadline_ms} ms"
        )
    for instance in federation.instances.values():
        if instance.queue_depth():
            raise DependencyTimeoutError(
                f"instance {instance.db_id} stalled with {instance.queue_depth()} "
                f"messages waiting for an earlier one on its channel"
            )
    return federation.transport.now
