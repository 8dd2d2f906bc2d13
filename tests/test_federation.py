from __future__ import annotations

import random

import pytest

from diel.engine import SqlEngine
from diel.errors import ConfigError, DependencyTimeoutError, EngineError, ScriptExhaustedError
from diel.federation import (
    EVAL_REQUEST,
    RESULT_ROWS,
    SHIP_DATA,
    Federation,
    FixedLatency,
    Link,
    Message,
    ScriptedLatency,
    SimInstance,
    Transport,
    UniformLatency,
    encode_message,
    parse_latency_spec,
    run_until_quiescent,
)


V_SQL = "SELECT x FROM ev WHERE timestep = (SELECT MAX(timestep) FROM ev)"


def evaluation_order(federation):
    """The request timestep of each evaluation, in the order the results were sent."""
    return [m.request_timestep for m in federation.transport.log if m.kind == RESULT_ROWS]


def make_instance(db_id="r1"):
    engine = SqlEngine(db_id)
    engine.execute_script("CREATE TABLE ev(x INTEGER, timestep INTEGER, timestamp INTEGER);")
    return SimInstance(db_id, engine, {"v": V_SQL})


def ship(t, rows, link_seq, relation="ev"):
    return Message(kind=SHIP_DATA, from_db="main", to_db="r1", send_ms=0,
                   relation=relation, rows=rows, request_timestep=t, link_seq=link_seq)


def evalreq(t, link_seq, view="v"):
    return Message(kind=EVAL_REQUEST, from_db="main", to_db="r1", send_ms=0,
                   view=view, request_timestep=t, link_seq=link_seq)


# --- transport scheduling ----------------------------------------------------------


def test_fixed_zero_is_fifo_per_link():
    transport = Transport()
    m1 = transport.send(ship(1, [(10, 1, 0)], 1), FixedLatency(0))
    m2 = transport.send(evalreq(1, 2), FixedLatency(0))
    assert transport.pop_next() is m1
    assert transport.pop_next() is m2


def test_scripted_delays_reorder_delivery():
    # two sends at 0 and 10 with delays [500, 100]: the second arrives first
    transport = Transport()
    model = ScriptedLatency([500, 100])
    first = transport.send(ship(1, [], 1), model)
    transport.advance_to(10)
    second = transport.send(ship(2, [], 2), model)
    assert (first.deliver_ms, second.deliver_ms) == (500, 110)
    assert transport.pop_next() is second
    assert transport.pop_next() is first


def test_slow_backend_scenario_overlaps_requests():
    # requests every 300 ms, responses 500 ms each: each response lands after
    # the next request was already sent
    transport = Transport()
    model = FixedLatency(500)
    deliveries = []
    for i in range(3):
        transport.advance_to(i * 300)
        deliveries.append(transport.send(ship(i + 1, [], i + 1), model).deliver_ms)
    assert deliveries == [500, 800, 1100]
    assert deliveries[0] > 300 and deliveries[1] > 600


def test_script_exhausted():
    transport = Transport()
    model = ScriptedLatency([5])
    transport.send(ship(1, [], 1), model)
    with pytest.raises(ScriptExhaustedError):
        transport.send(ship(2, [], 2), model)


def test_uniform_latency_is_seeded():
    a = UniformLatency(0, 100, random.Random("s")).delay()
    b = UniformLatency(0, 100, random.Random("s")).delay()
    assert a == b


def test_parse_latency_spec_forms():
    spec = parse_latency_spec("fixed(3)")
    assert spec.build("up", 0, "r1").delay() == 3
    spec = parse_latency_spec("fixed(0)/scripted(7,9)")
    assert spec.build("up", 0, "r1").delay() == 0
    down = spec.build("down", 0, "r1")
    assert (down.delay(), down.delay()) == (7, 9)
    with pytest.raises(ConfigError):
        parse_latency_spec("warp(9)")


# --- instance channel -----------------------------------------------------------------


def test_ship_then_eval_produces_one_result():
    instance = make_instance()
    assert instance.receive(ship(3, [(30, 3, 0)], 1), 0) == []
    out = instance.receive(evalreq(3, 2), 0)
    assert len(out) == 1
    assert out[0].kind == RESULT_ROWS
    assert out[0].request_timestep == 3
    assert out[0].rows == [(30,)]


def test_eval_waits_for_its_shipment():
    instance = make_instance()
    assert instance.receive(evalreq(4, 2), 0) == []
    assert instance.queue_depth() == 1
    out = instance.receive(ship(4, [(40, 4, 0)], 1), 5)
    assert [m.request_timestep for m in out] == [4]


def test_reordered_shipments_evaluate_in_ascending_order():
    instance = make_instance()
    instance.receive(evalreq(2, 2), 0)
    instance.receive(evalreq(3, 4), 0)
    out = instance.receive(ship(3, [(30, 3, 0)], 3), 0)
    assert out == []  # request 2 still blocks request 3
    out = instance.receive(ship(2, [(20, 2, 0)], 1), 0)
    assert [m.request_timestep for m in out] == [2, 3]
    # request 2 evaluated against state as of 2, request 3 as of 3
    assert out[0].rows == [(20,)]
    assert out[1].rows == [(30,)]


def test_released_shipment_is_applied_at_once():
    """A shipment the channel releases is applied before any later message
    arrives, and the eval behind it sees it."""
    instance = make_instance()
    assert instance.receive(ship(0, [(5, 0, 0)], 1), 0) == []
    assert instance.queue_depth() == 0
    assert instance.engine.run_query('SELECT * FROM "ev"')[1] == [(5, 0, 0)]
    out = instance.receive(evalreq(0, 2), 0)
    assert [(m.request_timestep, m.rows) for m in out] == [(0, [(5,)])]
    assert instance.queue_depth() == 0


@pytest.mark.parametrize("link_seq", [0, -1])
def test_message_without_channel_position_is_rejected(link_seq):
    instance = make_instance()
    with pytest.raises(EngineError, match="no channel position"):
        instance.receive(ship(1, [(10, 1, 0)], link_seq), 0)
    assert instance.engine.run_query('SELECT * FROM "ev"')[1] == []


@pytest.mark.parametrize("duplicate", ["ship", "eval"])
def test_duplicate_channel_message_is_dropped(duplicate):
    """A message delivered twice on the ordered channel is applied once and
    leaves nothing queued, whether the copy arrives after its original was
    released or while it still waits for an earlier message."""
    for order in ([1, 2, "dup"], [2, "dup", 1]):
        instance = make_instance()
        messages = {1: ship(1, [(10, 1, 0)], link_seq=1), 2: evalreq(1, link_seq=2)}
        messages["dup"] = messages[1] if duplicate == "ship" else messages[2]
        results = [r for key in order for r in instance.receive(messages[key], 0)]
        assert instance.queue_depth() == 0, order
        assert [(m.request_timestep, m.rows) for m in results] == [(1, [(10,)])]
        assert instance.engine.run_query('SELECT * FROM "ev"')[1] == [(10, 1, 0)]


def test_queue_reordering_within_known_timesteps():
    """Direct injection: whatever already arrived is processed ascending."""
    instance = make_instance()
    arrivals = [evalreq(3, 4), evalreq(1, 2), ship(3, [(30, 3, 0)], 3), ship(1, [(10, 1, 0)], 1)]
    results = []
    for msg in arrivals:
        results.extend(instance.receive(msg, 0))
    assert [(m.request_timestep, m.rows) for m in results] == [(1, [(10,)]), (3, [(30,)])]


def test_adversarial_schedules_property():
    """Random per-message delays through the transport: evaluations strictly
    ascend per instance and each request answers exactly once."""
    rng = random.Random(99)
    for _ in range(100):
        instance = make_instance()
        up = ScriptedLatency([rng.randint(0, 50) for _ in range(80)])
        federation = Federation(
            "main", {"r1": instance}, {"r1": Link(up=up, down=FixedLatency(0))}
        )
        timesteps = sorted(rng.sample(range(1, 40), rng.randint(1, 10)))
        for t in timesteps:
            federation.transport.advance_to(t * 10)
            federation.ship("r1", "ev", [(t * 10, t, 0)], t)
            federation.request_eval("r1", "v", t)
        results = []
        run_until_quiescent(federation, results.append, deadline_ms=10_000)
        assert evaluation_order(federation) == timesteps  # strictly increasing, no gaps
        assert sorted(m.request_timestep for m in results) == timesteps
        # conservation: exactly one result per request, with that request's row
        for msg in results:
            assert msg.rows == [(msg.request_timestep * 10,)]
        assert instance.queue_depth() == 0


# --- federation + quiescence -----------------------------------------------------------


def make_federation(up=0, down=0):
    instance = make_instance()
    links = {"r1": Link(up=FixedLatency(up), down=FixedLatency(down))}
    return Federation("main", {"r1": instance}, links), instance


def test_run_until_quiescent_collects_results():
    federation, _ = make_federation()
    federation.ship("r1", "ev", [(10, 1, 0)], 1)
    federation.request_eval("r1", "v", 1)
    seen = []
    final = run_until_quiescent(federation, seen.append, deadline_ms=1000)
    assert [m.kind for m in seen] == [RESULT_ROWS]
    assert final == 0
    assert federation.transport.sent_counts[RESULT_ROWS] == 1


def test_run_until_quiescent_deadline():
    federation, _ = make_federation(up=10_000)
    federation.ship("r1", "ev", [], 1)
    from diel.errors import DeadlineExceededError

    with pytest.raises(DeadlineExceededError):
        run_until_quiescent(federation, lambda m: None, deadline_ms=100)


def test_stalled_queue_raises_dependency_timeout():
    federation, instance = make_federation()
    federation._next_link_seq("r1")  # the message at link seq 1 is lost
    federation.request_eval("r1", "v", 2)  # so the eval at seq 2 never releases
    with pytest.raises(DependencyTimeoutError):
        run_until_quiescent(federation, lambda m: None, deadline_ms=1000)
    assert instance.queue_depth() == 1 and evaluation_order(federation) == []


# --- wire format ------------------------------------------------------------------------


def test_codec_round_trip_and_field_names():
    import json
    import struct

    msg = Message(kind=SHIP_DATA, from_db="main", to_db="r1", send_ms=10,
                  deliver_ms=25, relation="ev", rows=[(1, "x")], request_timestep=3,
                  link_seq=2)
    blob = encode_message(msg)
    (length,) = struct.unpack_from(">I", blob, 0)
    assert len(blob) == 4 + length
    payload = json.loads(blob[4:])
    assert set(payload) == {
        "kind", "from_db", "to_db", "relation", "rows", "request_timestep",
        "send_ms", "deliver_ms", "link_seq",
    }
    assert (payload["from_db"], payload["to_db"], payload["link_seq"]) == ("main", "r1", 2)
    assert payload["rows"] == [[1, "x"]]
    assert payload["request_timestep"] == 3
