"""Unit tests for the RPC layer (timeouts, retries, dedup semantics)."""

import random

import pytest

from repro.core.runtime import (
    BACKOFF_FACTOR, BACKOFF_JITTER, BOUNDED_ATTEMPTS, RETRIES, RPC_TIMEOUT,
)
from repro.network.faults import FaultConfig, FaultPlane
from repro.network.message import MessageClass
from repro.network.rpc import DedupCache, RpcLayer
from repro.network.transport import Network
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology


def build(config=None, seed=3):
    sim = Simulator()
    network = Network(sim, RoutingDatabase(line_topology(4)))
    plane = None
    if config is not None:
        plane = FaultPlane(config, random.Random(seed))
        network.faults = plane
    return network, RpcLayer(network, plane)


def test_no_plane_is_pure_accounting():
    """Without a fault plane a call is exactly the two legacy datagrams."""
    reference, _ = build()
    reference.account(0, 2, 100, MessageClass.CONTROL)
    reference.account(2, 0, 100, MessageClass.CONTROL)

    network, rpc = build()
    outcome = rpc.call(0, 2, "CreateObj", request_bytes=100, response_bytes=100)
    assert outcome.executed and outcome.acked
    assert outcome.attempts == 1
    assert outcome.latency == 0.0
    assert network.total_byte_hops() == reference.total_byte_hops()
    assert rpc.calls == 0  # counters untouched on the reliable path
    assert rpc.notify(0, 2, 50, "LoadReport") is True
    assert rpc.notify(0, 2, 50, "ReplicaCreated") is True
    assert rpc.bulk(0, 2, 5000, "ObjectCopy") is True


def test_reliable_plane_single_attempt():
    _, rpc = build(FaultConfig(enabled=True, drop_prob=0.0))
    outcome = rpc.call(0, 2, "RequestDrop", request_bytes=100, response_bytes=100)
    assert outcome.executed and outcome.acked
    assert outcome.attempts == 1
    assert rpc.calls == 1
    assert rpc.retries == 0


def test_lossy_call_retries_until_delivered():
    _, rpc = build(FaultConfig(enabled=True, drop_prob=0.6), seed=5)
    outcomes = [
        rpc.call(0, 2, "RequestDrop", request_bytes=100, response_bytes=100)
        for _ in range(50)
    ]
    assert any(o.attempts > 1 for o in outcomes)
    assert rpc.retries > 0
    # Retried calls accumulate timeout + backoff latency.
    retried = next(o for o in outcomes if o.attempts > 1)
    assert retried.latency >= RPC_TIMEOUT


def test_dead_target_times_out():
    config = FaultConfig(enabled=True, drop_prob=0.0)
    _, rpc = build(config, seed=3)
    outcome = rpc.call(
        0, 2, "Liveness", request_bytes=10, response_bytes=10, target_alive=False
    )
    assert not outcome.executed
    assert not outcome.acked
    assert outcome.attempts == BOUNDED_ATTEMPTS
    assert rpc.timeouts == 1
    # Each attempt waits out RPC_TIMEOUT; the wait before a retry starts
    # at RPC_TIMEOUT and grows by BACKOFF_FACTOR, spread by its jitter
    # draw (the plane's only draws on a loss-free network).
    draws = FaultPlane(config, random.Random(3))
    expected = 0.0
    for retry in range(BOUNDED_ATTEMPTS):
        if retry:
            wait = RPC_TIMEOUT * BACKOFF_FACTOR ** (retry - 1)
            expected += wait * (1.0 + BACKOFF_JITTER * draws.backoff_jitter())
        expected += RPC_TIMEOUT
    assert outcome.latency == pytest.approx(expected)


def test_lost_ack_reports_executed_not_acked():
    # With heavy loss, some calls deliver the request (the target
    # executes) but never get a response back within the budget — the
    # dangerous executed-but-not-acked gap the counters must expose.
    _, rpc = build(FaultConfig(enabled=True, drop_prob=0.5), seed=1)
    outcomes = [
        rpc.call(0, 2, "RequestDrop", request_bytes=10, response_bytes=10)
        for _ in range(200)
    ]
    lost_acks = [o for o in outcomes if o.executed and not o.acked]
    assert lost_acks
    assert rpc.lost_acks == len(lost_acks)
    assert rpc.timeouts == sum(1 for o in outcomes if not o.executed)


def test_persistent_call_gives_up_under_total_loss():
    """A bounded conversation spends its budget and gives up: no channel
    delivers by fiat, whatever the conversation."""
    _, rpc = build(FaultConfig(enabled=True, drop_prob=1.0))
    outcome = rpc.call(0, 2, "RequestDrop", request_bytes=10, response_bytes=10)
    assert not outcome.executed and not outcome.acked
    assert outcome.attempts == BOUNDED_ATTEMPTS
    assert rpc.timeouts == 1
    assert rpc.retries == BOUNDED_ATTEMPTS - 1


def test_persistent_call_against_dead_target_fails_cleanly():
    _, rpc = build(FaultConfig(enabled=True, drop_prob=1.0))
    outcome = rpc.call(
        0, 2, "RequestDrop", request_bytes=10, response_bytes=10, target_alive=False
    )
    assert not outcome.executed


@pytest.mark.parametrize("conversation", sorted(RETRIES))
def test_every_channel_spends_its_rows_budget_under_total_loss(conversation):
    """Each channel reads its conversation's row: one attempt, or the
    bounded budget, :data:`BOUNDED_ATTEMPTS`."""
    budget = RETRIES[conversation].attempts
    assert budget in (1, BOUNDED_ATTEMPTS)
    network, rpc = build(FaultConfig(enabled=True, drop_prob=1.0))
    assert rpc.call(
        0, 2, conversation, request_bytes=10, response_bytes=10
    ).attempts == budget
    before = network.total_byte_hops()
    assert rpc.notify(0, 2, 10, conversation) is False
    assert rpc.bulk(0, 2, 100, conversation) is False
    assert network.total_byte_hops() - before == budget * (10 + 100) * 2
    assert rpc.notify_retransmits == rpc.bulk_retransmits == budget - 1


def test_notify_and_bulk_retransmit_and_charge_every_round():
    config = FaultConfig(enabled=True, drop_prob=0.7)
    network, rpc = build(config, seed=9)
    baseline = network.total_byte_hops()
    assert rpc.notify(0, 2, 100, "ReplicaCreated") is True
    attempts = rpc.notify_retransmits + 1
    charged = network.total_byte_hops() - baseline
    # Every round's bytes cross the backbone (2 hops on the line).
    assert charged == attempts * 100 * 2

    before = network.total_byte_hops()
    rpc.bulk(0, 2, 1000, "RepairCopy")
    rounds = rpc.bulk_retransmits + 1
    assert network.total_byte_hops() - before == rounds * 1000 * 2
    assert rpc.notify_retransmits + rpc.bulk_retransmits > 0


def test_oneway_loss_counted():
    _, rpc = build(FaultConfig(enabled=True, drop_prob=1.0))
    assert rpc.notify(0, 2, 10, "Heartbeat") is False
    assert rpc.oneway_dropped == 1
    assert rpc.notify_retransmits == 0


def test_update_push_without_plane_is_single_update_datagram():
    """Fault-free update_push is exactly the legacy UPDATE charge."""
    reference, _ = build()
    reference.account(0, 2, 500, MessageClass.UPDATE)

    network, rpc = build()
    assert rpc.update_push(0, 2, 500, ack_bytes=100) is True
    assert network.total_byte_hops() == reference.total_byte_hops()
    assert rpc.update_pushes == 0  # counters untouched on the reliable path
    assert len(rpc.dedup) == 0


def test_update_push_reliable_plane_applies_once():
    _, rpc = build(FaultConfig(enabled=True, drop_prob=0.0))
    assert rpc.update_push(0, 2, 500, ack_bytes=100) is True
    assert rpc.update_pushes == 1
    assert rpc.update_retransmits == 0
    assert rpc.update_push_duplicates == 0


def test_update_push_retransmissions_dedup_at_receiver():
    """A push whose ack is lost retries; the receiver re-acks without
    re-applying, so duplicates equal the dedup ledger's hits."""
    _, rpc = build(FaultConfig(enabled=True, drop_prob=0.4), seed=11)
    applied = sum(
        rpc.update_push(0, 2, 500, ack_bytes=100) for _ in range(100)
    )
    assert applied > 0
    assert rpc.update_retransmits > 0
    assert rpc.update_push_duplicates > 0
    assert rpc.update_push_duplicates == rpc.dedup.hits


def test_update_push_dead_target_fails_within_budget():
    _, rpc = build(FaultConfig(enabled=True, drop_prob=0.0))
    assert rpc.update_push(0, 2, 500, ack_bytes=100, target_alive=False) is False
    assert rpc.update_push_failures == 1
    # Every attempt after the first, and no more.
    assert rpc.update_retransmits == BOUNDED_ATTEMPTS - 1


def test_update_push_total_loss_reports_failure():
    _, rpc = build(FaultConfig(enabled=True, drop_prob=1.0))
    assert rpc.update_push(0, 2, 500, ack_bytes=100) is False
    assert rpc.update_push_failures == 1
    assert rpc.update_push_duplicates == 0


def test_dedup_cache_rejects_degenerate_capacity():
    with pytest.raises(ValueError):
        DedupCache(capacity=0)


def test_dedup_cache_lru_eviction_replays_surviving_replies():
    """Overflow evicts the least-recently-used entry; survivors still
    replay their cached replies."""
    cache = DedupCache(capacity=3)
    for i in range(3):
        cache.put(f"m{i}", f"reply-{i}")
    # Touch m0 so m1 becomes the oldest entry.
    assert cache.get("m0") == "reply-0"
    cache.put("m3", "reply-3")
    assert cache.evictions == 1
    assert len(cache) == 3
    assert "m1" not in cache
    assert cache.get("m1") is None  # evicted: a late duplicate re-executes
    assert cache.get("m0") == "reply-0"
    assert cache.get("m3") == "reply-3"
    assert cache.hits == 3


def test_summary_exports_all_counters():
    _, rpc = build(FaultConfig(enabled=True, drop_prob=0.5), seed=2)
    for _ in range(10):
        rpc.call(0, 2, "CreateObj", request_bytes=10, response_bytes=10)
    summary = rpc.summary()
    assert set(summary) == {
        "rpc_calls",
        "rpc_retries",
        "rpc_timeouts",
        "rpc_lost_acks",
        "oneway_dropped",
        "notify_retransmits",
        "bulk_retransmits",
        "update_pushes",
        "update_retransmits",
        "update_push_failures",
        "update_push_duplicates",
        "dedup_entries",
        "dedup_hits",
        "dedup_evictions",
    }
    assert summary["rpc_calls"] == 10.0
