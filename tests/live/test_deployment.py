"""End-to-end tests: the live deployment over real loopback sockets."""

import asyncio
import json
import os
import signal

from repro.live import (
    LiveConfig,
    LoadgenOptions,
    LocalDeployment,
    run_loadgen,
)
from repro.live.config import live_protocol_config
from repro.live.deploy import serve_all, serve_role
from repro.live.host import object_payload
from repro.live.httpd import RECV_BUFFER
from repro.live.loadgen import _http_get
from repro.live.pool import HttpPool
from repro.live.metrics import summarize_deployment
from repro.obs.export import revision
from repro.routing.hashring import HashRing


def demo_config(**protocol_changes) -> LiveConfig:
    """Ephemeral-port deployment with fast timers for tests."""
    protocol = live_protocol_config().replace(
        measurement_interval=0.5, placement_interval=1.0, **protocol_changes
    )
    return LiveConfig(base_port=0, protocol=protocol)


def test_an_object_three_receive_buffers_long_is_fetched_whole():
    """``--object-size`` past the connections' receive buffer: the pool
    frames a reply that takes several reads, twice on one socket."""
    config = demo_config().replace(object_size=3 * RECV_BUFFER)

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            home = deployment.directory.host(config.initial_host(4))
            for _ in range(2):
                body = await pool.fetch(home, "GET", "/obj/4?gateway=2")
                assert body == object_payload(4, config.object_size)
            assert (pool.dials, pool.reuses) == (1, 1)
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(asyncio.wait_for(main(), 20.0))


def test_request_path_and_control_endpoints():
    config = demo_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        try:
            host, port = deployment.directory.redirector()
            # Route an object through ChooseReplica to its initial host.
            status, _h, body = await _http_get(
                host, port, "/route?obj=4&gateway=2", 5.0
            )
            assert status == 200
            route = json.loads(body)
            assert route["server"] == 4 % config.num_hosts
            # Fetch the object from the routed URL.
            from urllib.parse import urlsplit

            split = urlsplit(route["url"])
            status, headers, body = await _http_get(
                split.hostname, split.port, f"{split.path}?{split.query}", 5.0
            )
            assert status == 200
            assert body == object_payload(4, config.object_size)
            assert headers["x-served-by"] == str(route["server"])
            # The serving host recorded the request.
            assert deployment.hosts[route["server"]].host.serviced_total == 1
            # Unknown object is 404 at the redirector.
            status, _h, _b = await _http_get(
                host, port, f"/route?obj={config.num_objects}&gateway=0", 5.0
            )
            assert status == 404
            # A host without a replica answers 409 (stale-routing signal).
            other = (route["server"] + 1) % config.num_hosts
            ohost, oport = deployment.directory.host(other)
            status, _h, _b = await _http_get(ohost, oport, "/obj/4", 5.0)
            assert status == 409
            # Health and load probes answer on every role.
            status, _h, body = await _http_get(host, port, "/healthz", 5.0)
            assert status == 200 and json.loads(body)["role"] == "redirector"
            hhost, hport = deployment.directory.host(0)
            status, _h, body = await _http_get(hhost, hport, "/control/load", 5.0)
            assert status == 200
            probe = json.loads(body)
            assert probe["node"] == 0 and probe["available"] is True
        finally:
            await deployment.stop()

    asyncio.run(main())


#: A well-formed CreateObj offer for object 3 from host 1; each bad case
#: below spoils one field.
GOOD_OFFER = {
    "source": 1, "obj": 3, "action": "replicate", "reason": "geo", "unit_load": 0.5,
}

#: ``(method, path, create_obj body, word the 400 must name)``.
BAD_REQUESTS = [
    ("GET", "/obj/abc", None, "object id"),
    ("GET", "/obj/-1", None, "object id"),
    ("GET", "/data/x1", None, "object id"),
    *(
        ("POST", "/control/create_obj", {**GOOD_OFFER, field: value}, field)
        for field, value in (
            ("source", "zero"),
            ("source", 99),
            ("obj", 10**6),
            ("obj", True),
            ("unit_load", "heavy"),
            ("unit_load", -1.0),
            ("action", "teleport"),
            ("action", "drop"),
            ("reason", "whim"),
            ("action", ["x"]),
            ("unit_load", float("nan")),
            ("source_addr", ["127.0.0.1", 70000]),
            ("source_addr", ["127.0.0.1", -1]),
            ("source_addr", ["127.0.0.1", 2**70]),
        )
    ),
    ("POST", "/control/create_obj", {"source": 1}, "obj"),
]


def test_host_rejects_a_bad_gateway_before_counting_it():
    """``?gateway=`` is client input that is only walked into a preference
    path at the next placement round: a bad one must be a 400 at the
    door, with nothing recorded.  So must a bad object id in a data-plane
    path and every bad field of a CreateObj offer (``BAD_REQUESTS``)."""
    config = demo_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        try:
            node = 3 % config.num_hosts  # object 3's initial host
            live_host = deployment.hosts[node].host
            host, port = deployment.directory.host(node)
            for bad in ("abc", str(config.num_hosts), "-1"):
                status, _h, body = await _http_get(
                    host, port, f"/obj/3?gateway={bad}", 5.0
                )
                assert status == 400, bad
                assert b"gateway" in body and bad.encode() in body
            pool = HttpPool()
            try:
                for method, path, offer, word in BAD_REQUESTS:
                    status, _h, body = await pool.request(
                        (host, port), method, path, payload=offer
                    )
                    assert status == 400, (path, offer, body)
                    assert word.encode() in body, (path, offer, body)
            finally:
                await pool.close()
            assert live_host.serviced_total == 0
            assert live_host.pending_access == {}
            assert live_host.object_access_counts(3) == {}
            assert live_host.store.affinity(3) == 1
            assert deployment.hosts[node].system.placement_events == []
            # A good gateway (and the default, the host itself) still serve.
            for query in ("?gateway=0", ""):
                status, _h, _b = await _http_get(host, port, f"/obj/3{query}", 5.0)
                assert status == 200
            assert live_host.serviced_total == 2
            assert live_host.total_access_count(3) == 2
        finally:
            await deployment.stop()

    asyncio.run(main())


def test_live_deployment_replicates_and_drops_under_load(tmp_path):
    """The acceptance scenario: real sockets, dynamic replication AND
    drops, every request serviced, metrics exported."""
    config = demo_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start()
        try:
            options = LoadgenOptions(
                workload="zipf", rate=250.0, requests=1500, seed=1, phases=2
            )
            stats = await run_loadgen(
                deployment.directory.redirector(), config, options
            )
            # A few placement rounds after the load stops, so phase-1
            # replicas that fell below u get dropped.
            await asyncio.sleep(3.0)
            snapshot = deployment.snapshot()
        finally:
            await deployment.stop()
        return stats, snapshot

    stats, snapshot = asyncio.run(main())
    assert stats.completed == 1500
    assert stats.failed == 0
    summary = summarize_deployment(snapshot)
    assert summary["requests_serviced"] == 1500
    assert summary["requests_unroutable"] == 0
    assert summary["replications"] + summary["migrations"] >= 1
    assert summary["replica_drops"] >= 1
    # The registry never drops below one replica per object.
    placement = {
        int(obj): replicas
        for obj, replicas in snapshot["redirector"]["registry"].items()
    }
    assert len(placement) == config.num_objects
    assert all(len(replicas) >= 1 for replicas in placement.values())
    # Registry-subset invariant across processes: every registered
    # replica is present in its host's store.
    for obj, replicas in placement.items():
        for host_id in replicas:
            host_objects = snapshot["hosts"][int(host_id)]["objects"]
            assert str(obj) in host_objects

    from repro.live.metrics import write_metrics

    path = tmp_path / "live.json"
    payload = write_metrics(path, snapshot)
    on_disk = json.loads(path.read_text())
    assert on_disk["summary"] == payload["summary"]
    assert on_disk["summary"]["requests_serviced"] == 1500


def test_serve_all_runs_for_duration_and_exports(tmp_path):
    config = demo_config()
    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.jsonl"
    snapshot = asyncio.run(
        serve_all(
            config,
            metrics_path=str(metrics_path),
            trace_path=str(trace_path),
            duration=0.3,
        )
    )
    assert snapshot["kind"] == "live-deployment"
    metrics = json.loads(metrics_path.read_text())
    assert metrics["summary"]["replicas_total"] == config.num_objects
    assert metrics["revision"] == revision()
    # The tracer is attached (possibly zero records) and the trace opens
    # with the revision: a live deployment has no spec hash or seed.
    lines = trace_path.read_text().splitlines()
    assert json.loads(lines[0]) == {"kind": "provenance", "revision": revision()}


def test_serve_all_shuts_down_cleanly_on_sigint(tmp_path):
    config = demo_config()
    metrics_path = tmp_path / "metrics.json"

    async def main():
        task = asyncio.create_task(
            serve_all(config, metrics_path=str(metrics_path))
        )
        # Let the deployment bind and install its signal handlers.
        await asyncio.sleep(1.0)
        os.kill(os.getpid(), signal.SIGINT)
        return await asyncio.wait_for(task, 10.0)

    snapshot = asyncio.run(main())
    assert snapshot["kind"] == "live-deployment"
    assert metrics_path.exists()


async def _read_port(path):
    for _ in range(200):
        if path.exists():
            return int(path.read_text())
        await asyncio.sleep(0.02)
    raise AssertionError(f"{path} never appeared")


def _role(config, tmp_path, name, seconds, **where):
    """One ``serve_role`` task, its port and metrics files under ``tmp_path``."""
    label = f"{name}{where.get('index', '')}"
    return asyncio.create_task(
        serve_role(
            config, name, duration=seconds,
            port_file=str(tmp_path / f"{label}.port"),
            metrics_path=str(tmp_path / f"{label}.json"),
            **where,
        )
    )


def test_serve_role_processes_find_each_other_through_the_front_door(tmp_path):
    """The multi-process shape on one loop: shard 0 (the front door) and
    two hosts, each its own ``serve_role``, ephemeral ports published
    through port files, the hosts registering at the front door they were
    pointed at, every role leaving after its ``duration``."""
    config = demo_config().replace(num_hosts=2, topology="line")

    async def main():
        # The hosts leave first, so no tick talks to a closed shard.
        tasks = [_role(config, tmp_path, "shard", 2.0, index=0)]
        front = (config.bind_host, await _read_port(tmp_path / "shard0.port"))
        tasks += [
            _role(config, tmp_path, "host", 1.2, index=node, gateway=front)
            for node in (0, 1)
        ]
        ports = [await _read_port(tmp_path / f"host{node}.port") for node in (0, 1)]
        for _ in range(100):
            status, _h, body = await _http_get(*front, "/admin/endpoints", 5.0)
            book = json.loads(body)["hosts"]
            if len(book) == 2:
                break
            await asyncio.sleep(0.02)
        assert book == {
            str(node): [config.bind_host, port] for node, port in enumerate(ports)
        }
        # A request through the registered addresses: route, then fetch.
        status, _h, body = await _http_get(*front, "/route?obj=1&gateway=0", 5.0)
        assert status == 200
        assert json.loads(body)["url"].startswith(f"http://127.0.0.1:{ports[1]}/obj/1")
        status, _h, body = await _http_get(config.bind_host, ports[1], "/obj/1", 5.0)
        assert status == 200 and body == object_payload(1, config.object_size)
        return await asyncio.gather(*tasks)

    shard0, host0, host1 = asyncio.run(asyncio.wait_for(main(), 30.0))
    assert [s["kind"] for s in (shard0, host0, host1)] == [
        "live-shard", "live-host", "live-host",
    ]
    assert shard0["redirector"]["routed_total"] == 1
    assert host1["hosts"][0]["serviced_total"] == 1
    for label in ("shard0", "host0", "host1"):
        assert json.loads((tmp_path / f"{label}.json").read_text())["kind"]


def test_serve_role_shards_learn_the_hosts_from_the_front_door(tmp_path):
    """The same with two shards, every role with its own address book:
    shard 0, then shard 1 and two hosts, each registering at shard 0.
    Shard 1 hears of the hosts only through shard 0's re-announced
    address book, and then routes one of its own objects to a registered
    host's URL."""
    config = demo_config().replace(num_hosts=2, topology="line", num_shards=2)
    ring = HashRing(config.num_shards, vnodes=config.ring_vnodes)
    obj = next(o for o in range(config.num_objects) if ring.owner(o) == 1)

    async def main():
        tasks = [_role(config, tmp_path, "shard", 2.0, index=0)]
        front = (config.bind_host, await _read_port(tmp_path / "shard0.port"))
        tasks.append(_role(config, tmp_path, "shard", 1.6, index=1, gateway=front))
        shard1 = (config.bind_host, await _read_port(tmp_path / "shard1.port"))
        tasks += [
            _role(config, tmp_path, "host", 1.2, index=node, gateway=front)
            for node in (0, 1)
        ]
        ports = [await _read_port(tmp_path / f"host{node}.port") for node in (0, 1)]
        for _ in range(100):
            status, _h, body = await _http_get(*shard1, "/admin/endpoints", 5.0)
            if len(json.loads(body)["hosts"]) == 2:
                break
            await asyncio.sleep(0.02)
        status, _h, body = await _http_get(*shard1, f"/route?obj={obj}&gateway=0", 5.0)
        assert status == 200, body
        home = ports[obj % config.num_hosts]
        assert json.loads(body)["url"].startswith(f"http://127.0.0.1:{home}/obj/{obj}")
        return await asyncio.gather(*tasks)

    shard0, shard1, *hosts = asyncio.run(asyncio.wait_for(main(), 30.0))
    assert [s["kind"] for s in (shard0, shard1, *hosts)] == [
        "live-shard", "live-shard", "live-host", "live-host",
    ]
    assert shard1["redirector"]["routed_total"] == 1
    assert shard0["redirector"]["routed_total"] == 0
