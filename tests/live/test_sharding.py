"""Tests for the sharded redirector tier: ring routing, registry sync.

Every test runs a real 2-shard deployment (gateway + shards + hosts) on
ephemeral loopback ports and drives it over actual sockets — ownership
forwarding, cross-shard registry sync, dedup and the load-report
broadcast are wire-level behaviours, not unit seams.
"""

import asyncio
import json

import pytest

from repro.live import LiveConfig, LoadgenOptions, LocalDeployment, run_loadgen
from repro.live.config import live_protocol_config
from repro.live.metrics import summarize_deployment
from repro.live.pool import HttpPool
from repro.routing.hashring import HashRing


def sharded_config(**changes) -> LiveConfig:
    protocol = live_protocol_config().replace(
        measurement_interval=0.5, placement_interval=1.0
    )
    return LiveConfig(base_port=0, num_shards=2, protocol=protocol, **changes)


def test_gateway_forwards_each_object_to_its_owning_shard():
    config = sharded_config()
    ring = HashRing(config.num_shards, vnodes=config.ring_vnodes)

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            front = deployment.directory.redirector()
            for obj in range(config.num_objects):
                status, _h, body = await pool.request(
                    front, "GET", f"/route?obj={obj}&gateway=0"
                )
                assert status == 200
                route = json.loads(body)
                assert route["server"] == obj % config.num_hosts
            owned0 = len(ring.owned_by(0, range(config.num_objects)))
            # Each shard answered exactly its own partition: the gateway
            # forwarded by ownership, so no shard-to-shard relay fired.
            assert deployment.shards[0].routed_total == owned0
            assert (
                deployment.shards[1].routed_total
                == config.num_objects - owned0
            )
            assert deployment.gateway.route_forwards == config.num_objects
            assert all(s.forwarded_total == 0 for s in deployment.shards)
            # Both shards own a non-trivial slice (the test would be
            # vacuous if the ring degenerated to one owner).
            assert 0 < owned0 < config.num_objects
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


def test_notice_posted_to_wrong_shard_reaches_the_owner():
    config = sharded_config()
    ring = HashRing(config.num_shards, vnodes=config.ring_vnodes)

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            obj = next(
                o for o in range(config.num_objects) if ring.owner(o) == 0
            )
            owner, wrong = deployment.shards[0], deployment.shards[1]
            new_host = (obj % config.num_hosts + 1) % config.num_hosts
            status, _h, _b = await pool.request(
                wrong.server.address,
                "POST",
                "/control/replica_created",
                payload={
                    "obj": obj, "host": new_host, "affinity": 1,
                    "msg_id": "wrong-shard-1",
                },
            )
            assert status == 200
            assert wrong.forwarded_total == 1
            # The owner's registry gained the replica; the wrong shard
            # never applied anything locally.
            assert new_host in owner.service.replica_hosts(obj)
            assert obj not in wrong.owned_objects
            # request_drop forwards the same way and arbitration still
            # protects the last copy at the owner.
            initial = obj % config.num_hosts
            status, _h, body = await pool.request(
                wrong.server.address,
                "POST",
                "/control/request_drop",
                payload={"obj": obj, "host": new_host, "msg_id": "wrong-shard-2"},
            )
            assert status == 200
            assert json.loads(body)["approved"] is True
            status, _h, body = await pool.request(
                wrong.server.address,
                "POST",
                "/control/request_drop",
                payload={"obj": obj, "host": initial, "msg_id": "wrong-shard-3"},
            )
            assert status == 200
            assert json.loads(body)["approved"] is False  # last copy
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


@pytest.mark.parametrize("relayer", ["gateway", "shard"])
def test_relayed_429_keeps_the_owners_retry_after(relayer):
    """Both callers of the shared relay pass the owner's backpressure
    hint through untouched, so a client sleeps what the *owner* asked."""
    config = sharded_config(control_rate_limit=1.0, control_burst=2.0)
    ring = HashRing(config.num_shards, vnodes=config.ring_vnodes)

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            owner, other = deployment.shards
            obj = next(o for o in range(config.num_objects) if ring.owner(o) == 0)
            # Empty the owner's bucket directly (``forwarded`` stops the
            # report from spending the peer's tokens on a re-broadcast).
            for _ in range(4):
                await pool.request(
                    owner.server.address, "POST", "/control/load_report",
                    payload={"node": 0, "load": 1.0, "forwarded": True},
                )
            assert owner.control_gate.rejected_total >= 1
            via = deployment.gateway if relayer == "gateway" else other
            status, headers, _b = await pool.request(
                via.server.address, "POST", "/control/replica_created",
                payload={"obj": obj, "host": 1, "affinity": 1, "msg_id": "relay-429"},
            )
            assert status == 429
            assert float(headers["retry-after"]) > 0.0
            # The relayer admitted the call; the refusal is the owner's.
            assert via.control_gate.rejected_total == 0
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


def test_duplicate_msg_id_applied_once_with_cached_reply():
    config = sharded_config()
    ring = HashRing(config.num_shards, vnodes=config.ring_vnodes)

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            obj = next(
                o for o in range(config.num_objects) if ring.owner(o) == 0
            )
            owner = deployment.shards[0]
            new_host = (obj % config.num_hosts + 1) % config.num_hosts
            payload = {
                "obj": obj, "host": new_host, "affinity": 1,
                "msg_id": "retry-1",
            }
            status, _h, first = await pool.request(
                owner.server.address, "POST", "/control/replica_created",
                payload=payload,
            )
            assert status == 200
            # The retry carries different content under the same msg_id
            # (a real retry never does; this proves the owner answered
            # from the dedup cache instead of re-applying).
            status, _h, second = await pool.request(
                owner.server.address, "POST", "/control/replica_created",
                payload={**payload, "affinity": 7},
            )
            assert status == 200
            assert second == first
            assert owner.service.affinity(obj, new_host) == 1
            assert owner.deduplicated_total == 1
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


def test_load_report_broadcast_reaches_every_shard():
    config = sharded_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            # Report straight to shard 1; the broadcast must make the
            # entry visible from shard 0 and through the gateway.
            status, _h, _b = await pool.request(
                deployment.shards[1].server.address,
                "POST",
                "/control/load_report",
                payload={"node": 2, "load": 3.5},
            )
            assert status == 200
            for address in (
                deployment.shards[0].server.address,
                deployment.directory.redirector(),
            ):
                status, _h, body = await pool.request(
                    address, "GET", "/control/offload_candidates?exclude=99"
                )
                assert status == 200
                nodes = [
                    c["node"] for c in json.loads(body)["candidates"]
                ]
                assert 2 in nodes
            # The gateway's own broadcast path: report via the front
            # door, check both shards' boards directly.
            status, _h, body = await pool.request(
                deployment.directory.redirector(),
                "POST",
                "/control/load_report",
                payload={"node": 1, "load": 9.0},
            )
            assert status == 200
            assert json.loads(body)["delivered"] == 2
            for shard in deployment.shards:
                assert any(
                    node == 1
                    for node, _load in shard.board.candidates(
                        exclude=None, now=deployment.clock.now
                    )
                )
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


def test_endpoints_and_aggregated_metrics_via_gateway():
    config = sharded_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            front = deployment.directory.redirector()
            status, _h, body = await pool.request(
                front, "GET", "/admin/endpoints"
            )
            assert status == 200
            endpoints = json.loads(body)
            assert len(endpoints["shards"]) == config.num_shards
            assert len(endpoints["hosts"]) == config.num_hosts
            status, _h, body = await pool.request(front, "GET", "/metrics")
            assert status == 200
            metrics = json.loads(body)
            assert metrics["role"] == "gateway"
            assert set(metrics["shards"]) == {"0", "1"}
            owned = sum(
                metrics["shards"][s]["owned_objects"] for s in ("0", "1")
            )
            assert owned == config.num_objects
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


def test_sharded_deployment_replicates_under_load():
    """End to end: hosts talk only to the gateway, yet replication
    registrations land on the right shards and every request completes."""
    config = sharded_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start()
        try:
            options = LoadgenOptions(
                workload="zipf", rate=250.0, requests=900, seed=1
            )
            stats = await run_loadgen(
                deployment.directory.redirector(), config, options
            )
            await asyncio.sleep(1.5)
            snapshot = deployment.snapshot()
        finally:
            await deployment.stop()
        return stats, snapshot

    stats, snapshot = asyncio.run(main())
    assert stats.completed == 900
    assert stats.failed == 0
    summary = summarize_deployment(snapshot)
    assert summary["requests_serviced"] == 900
    assert summary["requests_unroutable"] == 0
    assert summary["num_shards"] == 2
    assert summary["replications"] + summary["migrations"] >= 1
    # The merged registry covers the whole namespace with >= 1 replica,
    # and the registry-subset invariant holds across shards: every
    # registered replica exists in its host's store.
    placement = {
        int(obj): replicas
        for obj, replicas in snapshot["redirector"]["registry"].items()
    }
    assert len(placement) == config.num_objects
    for obj, replicas in placement.items():
        assert len(replicas) >= 1
        for host_id in replicas:
            assert str(obj) in snapshot["hosts"][int(host_id)]["objects"]
