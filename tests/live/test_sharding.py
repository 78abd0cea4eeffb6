"""Tests for the sharded redirector tier: ring routing, registry sync.

Every test runs a real 2-shard deployment (shard 0 the front door, shard
1 beside it, hosts) on ephemeral loopback ports and drives it over
actual sockets — ownership relay, cross-shard registry sync, dedup,
input checks and the load-report broadcast are wire-level behaviours,
not unit seams.
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


def test_front_shard_relays_each_object_to_its_owning_shard():
    config = sharded_config()
    ring = HashRing(config.num_shards, vnodes=config.ring_vnodes)

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            front = deployment.directory.redirector()
            assert front == deployment.shards[0].server.address
            for obj in range(config.num_objects):
                status, _h, body = await pool.request(
                    front, "GET", f"/route?obj={obj}&gateway=0"
                )
                assert status == 200
                assert json.loads(body)["server"] == obj % config.num_hosts
            owned0 = len(ring.owned_by(0, range(config.num_objects)))
            # Each shard routed exactly its own partition: the front door
            # answered its own objects and relayed the rest, once each.
            front_shard, other = deployment.shards
            assert front_shard.routed_total == owned0
            assert other.routed_total == config.num_objects - owned0
            assert front_shard.forwarded_total == config.num_objects - owned0
            assert other.forwarded_total == 0
            # Both shards own a non-trivial slice (the test would be
            # vacuous if the ring degenerated to one owner).
            assert 0 < owned0 < config.num_objects
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


def test_route_rejects_a_bad_gateway_before_counting_it():
    """``?gateway=`` indexes a distance row: -1 read the last node's row
    (and a sole replica was routed and counted before its host refused
    the request), an id past the end was a 500.  Every shard now answers
    400 before relaying, counting or looking anything up."""
    config = sharded_config()
    ring = HashRing(config.num_shards, vnodes=config.ring_vnodes)

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            objects = [
                next(o for o in range(config.num_objects) if ring.owner(o) == shard)
                for shard in (0, 1)
            ]
            for shard in deployment.shards:
                for obj in objects:
                    for bad in ("-1", str(config.num_hosts), "99", "abc", ""):
                        status, _h, body = await pool.request(
                            shard.server.address, "GET", f"/route?obj={obj}&gateway={bad}"
                        )
                        assert status == 400, (obj, bad, body)
                        assert b"gateway" in body
            for shard in deployment.shards:
                counters = (shard.routed_total, shard.forwarded_total, shard.unroutable_total)
                assert counters == (0, 0, 0)
                assert shard.service.chose_closest == shard.service.chose_least_requested == 0
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


def _owned(shard: int, count: int = 1) -> list[int]:
    """The first ``count`` objects ``shard`` owns in the 2-shard tier."""
    config = sharded_config()
    owners = HashRing(config.num_shards, vnodes=config.ring_vnodes).owners(
        config.num_objects
    )
    return [obj for obj, owner in enumerate(owners) if owner == shard][:count]


#: ``(path, body, word the 400 must name)``: each spoils one field with a
#: value ``int()`` used to choke on (``null``, a list, an object) or one
#: out of range; a drop request's ``objs`` must be distinct ids, at least
#: one, that one shard owns.
BAD_CONTROL = [
    ("/control/replica_created", {"obj": None, "host": 1, "affinity": 1}, "obj"),
    ("/control/replica_created", {"obj": [0], "host": 1, "affinity": 1}, "obj"),
    ("/control/replica_created", {"obj": 0, "host": {}, "affinity": 1}, "host"),
    ("/control/replica_created", {"obj": 0, "host": 1, "affinity": None}, "affinity"),
    ("/control/replica_created", {"obj": 0, "host": 0, "affinity": 0}, "affinity"),
    ("/control/replica_created", {"obj": 0, "host": 0, "affinity": -3}, "affinity"),
    ("/control/affinity_reduced", {"obj": 0, "host": 0, "affinity": 0}, "affinity"),
    ("/control/affinity_reduced", {"obj": 0, "host": 0, "affinity": -3}, "affinity"),
    ("/control/affinity_reduced", {"obj": 1, "host": [1], "affinity": 1}, "host"),
    ("/control/request_drop", {"objs": [1], "host": None}, "host"),
    ("/control/request_drop", {"objs": None, "host": 0}, "objs"),
    ("/control/request_drop", {"obj": 1, "host": 0}, "objs"),
    ("/control/request_drop", {"objs": [], "host": 0}, "objs"),
    ("/control/request_drop", {"objs": [1, 1], "host": 0}, "objs"),
    ("/control/request_drop", {"objs": [1, 10**6], "host": 0}, "objs"),
    ("/control/request_drop", {"objs": [1, "2"], "host": 0}, "objs"),
    ("/control/request_drop", {"objs": [{}], "host": 0}, "objs"),
    ("/control/request_drop", {"objs": _owned(0) + _owned(1), "host": 0}, "objs"),
    ("/control/load_report", {"node": None, "load": 1.0}, "node"),
    ("/control/load_report", {"node": 0, "load": [1.0]}, "load"),
    ("/control/load_report", {"node": 0, "load": float("inf")}, "load"),
    ("/admin/register_host", {"node": {}, "host": "127.0.0.1", "port": 1}, "node"),
    ("/admin/register_host", {"node": 0, "host": ["x"], "port": 1}, "host and port"),
    ("/admin/register_shard", {"shard": None, "host": "127.0.0.1", "port": 1}, "shard"),
    ("/admin/register_shard", {"shard": 5, "host": "127.0.0.1", "port": 1}, "shard"),
    ("/admin/register_shard", {"shard": 1, "host": "127.0.0.1", "port": None}, "host and port"),
    ("/control/peers", {"hosts": {"0": ["127.0.0.1", 1], "1": None}}, "hosts.1"),
    ("/control/peers", {"shards": {"x": ["127.0.0.1", 1]}}, "shards"),
    ("/control/peers", {"hosts": [["127.0.0.1", 1]]}, "hosts"),
]


def test_malformed_control_bodies_are_400_and_change_nothing():
    """Every bad body is a 400 naming the field at either shard, with
    nothing relayed, counted or applied — a peers announcement with one
    bad entry leaves the whole address book as it was."""
    config = sharded_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            book = deployment.directory.peers_payload()
            placement = deployment.replica_placement()
            for shard in deployment.shards:
                for path, body, word in BAD_CONTROL:
                    status, _h, reply = await pool.request(
                        shard.server.address, "POST", path, payload=body
                    )
                    assert status == 400, (path, body, reply)
                    assert word.encode() in reply, (path, body, reply)
            assert deployment.directory.peers_payload() == book
            assert deployment.replica_placement() == placement
            for shard in deployment.shards:
                assert shard.board.candidates(exclude=None) == []
                assert (shard.forwarded_total, shard.deduplicated_total) == (0, 0)
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
            # A drop request is relayed whole, and arbitration still
            # protects the last copy at the owner: the new replica goes,
            # then the original — now the last — stays.
            initial = obj % config.num_hosts
            status, _h, body = await pool.request(
                wrong.server.address,
                "POST",
                "/control/request_drop",
                payload={"objs": [obj], "host": new_host, "msg_id": "wrong-shard-2"},
            )
            assert status == 200
            assert json.loads(body)["approved"] == [True]
            other = next(
                o for o in range(config.num_objects)
                if ring.owner(o) == 0 and o != obj
                and o % config.num_hosts == initial
            )
            status, _h, body = await pool.request(
                wrong.server.address,
                "POST",
                "/control/request_drop",
                payload={
                    "objs": [obj, other], "host": initial,
                    "msg_id": "wrong-shard-3",
                },
            )
            assert status == 200
            assert json.loads(body)["approved"] == [False, False]  # last copies
            assert wrong.forwarded_control_total == 3
            assert wrong.mutations_total == wrong.drops_arbitrated_total == 0
            # One registration and two drop conversations judging three objects.
            assert (
                owner.mutations_total,
                owner.drop_conversations_total,
                owner.drops_arbitrated_total,
            ) == (3, 2, 3)
            # Both gates were released once the relayed answers were in.
            assert wrong.control_gate.inflight == owner.control_gate.inflight == 0
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


@pytest.mark.parametrize("relayer", ["front", "shard"])
def test_relayed_429_keeps_the_owners_retry_after(relayer):
    """The front door relaying for shard 1, and shard 1 relaying for
    shard 0, pass the owner's backpressure hint through untouched, so a
    client sleeps what the *owner* asked."""
    config = sharded_config(control_rate_limit=1.0, control_burst=2.0)
    ring = HashRing(config.num_shards, vnodes=config.ring_vnodes)

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            owner_id = 1 if relayer == "front" else 0
            owner, via = deployment.shards[owner_id], deployment.shards[1 - owner_id]
            obj = next(o for o in range(config.num_objects) if ring.owner(o) == owner_id)
            # Empty the owner's bucket directly (``forwarded`` stops the
            # report from spending the peer's tokens on a re-broadcast).
            for _ in range(4):
                await pool.request(
                    owner.server.address, "POST", "/control/load_report",
                    payload={"node": 0, "load": 1.0, "forwarded": True},
                )
            assert owner.control_gate.rejected_total >= 1
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


def test_drop_batch_is_judged_whole_or_not_at_all():
    """The owner checks that the host holds every object of a drop
    request before it judges any: one non-holder is a 409 and leaves the
    registry as it was.  A held batch is judged in order, and its replay
    gets the first answer's status and list."""
    config = sharded_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            owner = deployment.shards[1]
            held, sole, foreign = (
                [o for o in _owned(1, 40) if o % config.num_hosts == 0][:2]
                + [next(o for o in _owned(1, 40) if o % config.num_hosts == 1)]
            )
            # ``held`` gains a second copy, so its drop at host 0 would
            # be approved; ``sole`` is host 0's last copy.
            owner.service.replica_created(held, 2, 1)
            placement = deployment.replica_placement()
            status, _h, body = await pool.request(
                owner.server.address, "POST", "/control/request_drop",
                payload={"objs": [held, foreign], "host": 0, "msg_id": "b-1"},
            )
            assert status == 409, body
            assert f"holds no replica of {foreign}".encode() in body
            assert deployment.replica_placement() == placement
            assert owner.drops_arbitrated_total == 0
            answers = []
            for _ in range(2):
                status, _h, body = await pool.request(
                    owner.server.address, "POST", "/control/request_drop",
                    payload={"objs": [held, sole], "host": 0, "msg_id": "b-2"},
                )
                answers.append((status, json.loads(body)))
            assert answers[0] == (200, {"approved": [True, False]})
            assert answers[1] == answers[0]
            assert owner.deduplicated_total == 1
            # The 409 was a conversation, but judged nothing.
            assert (
                owner.mutations_total,
                owner.drop_conversations_total,
                owner.drops_arbitrated_total,
            ) == (2, 1, 2)
            assert owner.service.replica_hosts(held) == [2]
            assert owner.service.replica_hosts(sole) == [0]
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


@pytest.mark.parametrize("via", ["owner", "front"])
def test_replayed_msg_id_keeps_its_refusal(via):
    """A duplicate is answered with the first answer's status as well as
    its body: a refused ``replica_created`` (a new copy cannot start at
    affinity 3) stays refused on retry.  The cache used to keep only the
    body and replay it as a 200, so a persistent retry "succeeded" and
    the host kept a copy the registry had rejected."""
    config = sharded_config()
    ring = HashRing(config.num_shards, vnodes=config.ring_vnodes)

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            obj = next(o for o in range(config.num_objects) if ring.owner(o) == 1)
            owner = deployment.shards[1]
            address = (
                owner.server.address
                if via == "owner"
                else deployment.directory.redirector()
            )
            new_host = (obj % config.num_hosts + 1) % config.num_hosts
            payload = {"obj": obj, "host": new_host, "affinity": 3, "msg_id": "m-1"}
            answers = []
            for _ in range(2):
                status, _h, body = await pool.request(
                    address, "POST", "/control/replica_created", payload=payload
                )
                answers.append((status, body))
            assert answers[0][0] == 409, answers
            assert answers[1] == answers[0]
            assert owner.deduplicated_total == 1
            assert new_host not in owner.service.replica_hosts(obj)
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
            # Report straight to shard 1; its broadcast must make the
            # entry visible at shard 0, the front door.
            status, _h, _b = await pool.request(
                deployment.shards[1].server.address,
                "POST",
                "/control/load_report",
                payload={"node": 2, "load": 3.5},
            )
            assert status == 200
            status, _h, body = await pool.request(
                deployment.directory.redirector(),
                "GET",
                "/control/offload_candidates?exclude=99",
            )
            assert status == 200
            assert 2 in [c["node"] for c in json.loads(body)["candidates"]]
            # The front door's own broadcast: report there, check both
            # shards' boards directly.
            status, _h, _b = await pool.request(
                deployment.directory.redirector(),
                "POST",
                "/control/load_report",
                payload={"node": 1, "load": 9.0},
            )
            assert status == 200
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


def test_endpoints_via_the_front_door():
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
            assert endpoints["redirector"] == list(front)
            assert endpoints["num_shards"] == config.num_shards
            status, _h, body = await pool.request(front, "GET", "/healthz")
            assert status == 200 and json.loads(body)["shard"] == 0
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


def test_sharded_deployment_replicates_under_load():
    """End to end: hosts send each registration straight to the shard
    owning its object, the front door relays none of them, and every
    request completes."""
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
    assert [shard["forwarded_control_total"] for shard in snapshot["shards"]] == [0, 0]
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
