"""The live-serve workload: one closed-loop client against a local deployment.

``LocalDeployment`` (4 hosts on a ring, 200 objects, a gateway plus 2
redirector shards, ephemeral ports) is started with ``timers=False`` on a
``ManualClock``.  One ``HttpPool`` client replays a seeded request list
as ``GET /route`` (gateway -> owning shard -> ChooseReplica) followed by
``GET`` on the returned host URL, one request in flight at a time.  After
every 25-request batch the clock moves 0.25 s and the protocol timers due
by then are fired host by host at their own instants (the
``tests/live/test_parity.py`` discipline), so placement is a function of
the request sequence alone and every count repeats exactly.

Inputs: the seed shuffles a *fixed* zipf demand matrix (request counts
per object by largest-remainder apportionment of ``1/rank``, gateways
round-robin).  Drawing each request independently instead doubles the
seed-to-seed spread of ``overhead_share`` at this request count.

Dependency surface: ``LiveConfig``, ``LocalDeployment`` (``start``,
``stop``, ``directory``, ``hosts[i].system.measurement_tick`` /
``placement_tick`` / ``placement_events``, ``hosts[i].host``, ``routes``,
``replica_placement``, ``snapshot``), ``ManualClock``, ``HttpPool``,
``HashRing``, ``RoutingDatabase.distance``.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
from time import perf_counter
from urllib.parse import urlsplit

from repro.live import LiveConfig, LocalDeployment, ManualClock
from repro.live.pool import HttpPool
from repro.routing.hashring import HashRing

from calibrate import EchoKernel, Rep, SliceRecorder

#: The issue's 8000 requests shrunk by the same factor as the simulated
#: horizons (``simplane.HORIZON_SHRINK``).
REQUESTS = 4000
BATCH = 25
BATCH_SECONDS = 0.25


def demand(seed: int, requests: int, hosts: int, objects: int) -> list[tuple[int, int]]:
    """``(gateway, obj)`` pairs: a seeded shuffle of a fixed zipf matrix."""
    weights = [1.0 / (rank + 1) for rank in range(objects)]
    total = sum(weights)
    quotas = [requests * weight / total for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(
        range(objects), key=lambda obj: quotas[obj] - counts[obj], reverse=True
    )
    for obj in by_remainder[: requests - sum(counts)]:
        counts[obj] += 1
    pairs = []
    for obj, count in enumerate(counts):
        for _ in range(count):
            pairs.append((len(pairs) % hosts, obj))
    random.Random(seed).shuffle(pairs)
    return pairs


def tick_schedule(config: LiveConfig, horizon: float) -> list[tuple[float, int, int]]:
    """``(time, kind, node)``, kind 0 = measurement, 1 = placement.

    Times accumulate with the float additions ``PeriodicProcess`` (and
    ``LiveHostNode.start_timers``) perform; placement is phase-staggered
    across hosts exactly as both runtimes stagger it.
    """
    protocol = config.protocol
    ticks = []
    for node in range(config.num_hosts):
        time = protocol.measurement_interval
        while time <= horizon:
            ticks.append((time, 0, node))
            time = time + protocol.measurement_interval
        offset = (node + 1) / config.num_hosts * protocol.placement_interval
        time = offset + protocol.placement_interval
        while time <= horizon:
            ticks.append((time, 1, node))
            time = time + protocol.placement_interval
    return sorted(ticks)


def _p99(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=100)[98]


class LiveWorkload:
    """The live-serve workload at one seed."""

    nominal_us = EchoKernel.NOMINAL_US

    def __init__(self, seed: int, *, requests: int | None = None):
        self.seed = seed
        #: A smaller request count is the selftest's smoke: too short for
        #: a replica drop, so the activity checks are off.
        self.smoke = requests is not None
        self.config = LiveConfig(
            num_hosts=4, topology="ring", num_objects=200, num_shards=2, base_port=0
        )
        self.pairs = demand(
            seed, requests or REQUESTS, self.config.num_hosts, self.config.num_objects
        )
        self._loop = asyncio.new_event_loop()
        self._kernel: EchoKernel | None = None

    # -- lifecycle ------------------------------------------------------

    def open(self) -> None:
        """Start the calibration kernel (after the warm-up's RSS read)."""
        self._kernel = EchoKernel()
        self._loop.run_until_complete(self._kernel.start())

    def close(self) -> None:
        loop = self._loop
        if self._kernel is not None:
            loop.run_until_complete(self._kernel.stop())
            self._kernel = None
        # Server-side connection handlers finish once they see the pool's
        # EOF; give them the loop turns they need before closing it.
        if pending := asyncio.all_tasks(loop):
            loop.run_until_complete(asyncio.wait(pending, timeout=5.0))
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()

    def rep(self, *, instrumented: bool, check: bool = False) -> Rep:
        return self._loop.run_until_complete(self._rep(instrumented, check))

    def setup_only(self) -> float:
        return self._loop.run_until_complete(self._setup_only())

    def layer_probes(self) -> dict[str, float]:
        """Floors of single live layers, timed by direct calls."""
        return self._loop.run_until_complete(self._layer_probes())

    # -- one rep --------------------------------------------------------

    async def _start(self):
        """Everything before the first request; returns its wall too."""
        start = perf_counter()
        clock = ManualClock()
        deployment = LocalDeployment(self.config, clock=clock)
        await deployment.start(timers=False)
        pool = HttpPool()
        front = deployment.directory.redirector()
        try:
            status, _, _ = await pool.request(front, "GET", "/healthz")  # first dial
            if status != 200:
                raise RuntimeError(f"front door /healthz answered {status}")
        except BaseException:
            await pool.close()
            await deployment.stop()
            raise
        return deployment, clock, pool, front, perf_counter() - start

    async def _setup_only(self) -> float:
        """Set-up wall over the mean of three kernel walls on either side."""
        kernel = self._kernel
        kernel_walls = [await kernel.run() for _ in range(3)]
        deployment, _, pool, _, setup_s = await self._start()
        kernel_walls += [await kernel.run() for _ in range(3)]
        await pool.close()
        await deployment.stop()
        return setup_s / statistics.fmean(kernel_walls)

    async def _rep(self, instrumented: bool, check: bool) -> Rep:
        kernel = self._kernel if instrumented else None
        recorder = SliceRecorder() if instrumented else None
        pairs = self.pairs
        config = self.config
        ticks = tick_schedule(config, len(pairs) / BATCH * BATCH_SECONDS)
        next_tick = 0
        route_s: list[float] = []
        fetch_s: list[float] = []
        tick_s: tuple[list[float], list[float]] = ([], [])
        served_by: list[int] = []
        served_bytes = 0
        failed = 0
        problems: list[str] = []

        async def boundary(kind: str) -> None:
            """End a slice, time the kernel, start the next slice."""
            if recorder is not None:
                recorder.close(kind)
                recorder.open(await kernel.run())

        deployment, clock, pool, front, setup_s = await self._start()
        try:
            request = pool.request
            if recorder is not None:
                recorder.open(await kernel.run())
            drain_start = perf_counter()
            for first in range(0, len(pairs), BATCH):
                batch = pairs[first : first + BATCH]
                for gateway, obj in batch:
                    sent = perf_counter()
                    status, _, body = await request(
                        front, "GET", f"/route?obj={obj}&gateway={gateway}"
                    )
                    routed = perf_counter()
                    if status != 200:
                        failed += 1
                        served_by.append(-1)
                        continue
                    url = urlsplit(json.loads(body)["url"])
                    status, headers, body = await request(
                        (url.hostname, url.port), "GET", f"{url.path}?{url.query}"
                    )
                    fetched = perf_counter()
                    if status != 200 or "x-served-by" not in headers:
                        failed += 1
                        served_by.append(-1)
                        continue
                    route_s.append(routed - sent)
                    fetch_s.append(fetched - routed)
                    served_by.append(int(headers["x-served-by"]))
                    served_bytes += len(body)
                if check:
                    # No tick ran since these replies: the registry the
                    # redirectors chose from is still the current one.
                    # (Only the un-instrumented warm-up is checked, so
                    # this never sits inside a slice.)
                    registry = deployment.replica_placement()
                    for (_, obj), node in zip(batch, served_by[first:]):
                        if node not in registry.get(obj, ()):
                            problems.append(
                                f"object {obj} served by {node}, not in its registry entry"
                            )
                await boundary("request")
                batch_end = (first // BATCH + 1) * BATCH_SECONDS
                fired = False
                while next_tick < len(ticks) and ticks[next_tick][0] <= batch_end:
                    time, kind, node = ticks[next_tick]
                    next_tick += 1
                    clock.set(time)
                    system = deployment.hosts[node].system
                    tick = system.placement_tick if kind else system.measurement_tick
                    began = perf_counter()
                    await asyncio.to_thread(tick)
                    tick_s[kind].append(perf_counter() - began)
                    fired = True
                clock.set(batch_end)
                if fired:
                    await boundary("tick")
            drained = perf_counter()

            exact = self._read(deployment, pool, served_by, served_bytes)
        finally:
            teardown = perf_counter()
            await pool.close()
            await deployment.stop()
        stopped = perf_counter()

        if failed:
            problems.append(f"{failed} of {len(pairs)} requests were not answered 200")
        if not self.smoke:
            if exact["live.placement_events"] < 1:
                problems.append("no placement event: the protocol never acted")
        request_s = [route + fetch for route, fetch in zip(route_s, fetch_s)]
        timings = {
            "live.route_us_p50": statistics.median(route_s) * 1e6,
            "live.route_us_p99": _p99(route_s) * 1e6,
            "live.fetch_us_p50": statistics.median(fetch_s) * 1e6,
            "live.fetch_us_p99": _p99(fetch_s) * 1e6,
            "live.request_us_p50": statistics.median(request_s) * 1e6,
            "live.request_us_p99": _p99(request_s) * 1e6,
            "live.request_samples": float(len(request_s)),
            "live.measurement_tick_ms": statistics.fmean(tick_s[0]) * 1e3,
            "live.placement_tick_ms": statistics.fmean(tick_s[1]) * 1e3,
        }
        return Rep(
            setup_s=setup_s,
            drain_s=recorder.wall if instrumented else drained - drain_start,
            finalize_s=stopped - teardown,
            fold_ms=(teardown - drained) * 1e3,
            requests=len(pairs),
            failed=failed,
            exact=exact,
            problems=problems,
            recorder=recorder,
            timings=timings,
            info={"engine": "live", "simulated_s": clock.now},
        )

    def _read(self, deployment, pool, served_by, served_bytes) -> dict[str, float]:
        """Exact statistics of a finished replay (a function of the inputs)."""
        pairs = self.pairs
        distance = deployment.routes.distance
        answered = [
            (gateway, node) for (gateway, _), node in zip(pairs, served_by) if node >= 0
        ]
        events = [
            event for host in deployment.hosts for event in host.system.placement_events
        ]
        copied = sum(event.copied_bytes for event in events)
        drops = sum(1 for event in events if event.action.value == "drop")
        redirector = deployment.snapshot()["redirector"]
        chosen = redirector["chose_closest"] + redirector["chose_least_requested"]
        return {
            "requests": float(len(pairs)),
            "served_share": len(answered) / len(pairs),
            "response_hops": sum(distance(g, n) for g, n in answered) / len(answered),
            "overhead_share": copied / served_bytes,
            "model.max_load": max(host.host.measured_load for host in deployment.hosts),
            "model.replicas_per_object": redirector["total_replicas"]
            / self.config.num_objects,
            "model.relocations_per_kreq": len(events) / len(pairs) * 1e3,
            "model.replica_drops_per_kreq": drops / len(pairs) * 1e3,
            "live.placement_events": float(len(events)),
            "live.pool_reuse_ratio": pool.reuses / (pool.reuses + pool.dials),
            "live.forwarded_share": redirector["forwarded_total"]
            / redirector["routed_total"],
            "live.chose_closest_share": redirector["chose_closest"] / chosen,
        }

    # -- single-layer floors --------------------------------------------

    async def _layer_probes(self) -> dict[str, float]:
        deployment, _, pool, _, _ = await self._start()
        try:
            host = deployment.directory.host(0)
            walls = []
            for _ in range(300):
                began = perf_counter()
                await pool.request(host, "GET", "/healthz")
                walls.append(perf_counter() - began)
        finally:
            await pool.close()
            await deployment.stop()
        ring = HashRing(self.config.num_shards, vnodes=self.config.ring_vnodes)
        lookups = 20_000
        began = perf_counter()
        for key in range(lookups):
            ring.owner(key)
        ring_s = perf_counter() - began
        return {
            "live.healthz_us": statistics.median(walls) * 1e6,
            "live.ring_lookup_ns": ring_s / lookups * 1e9,
        }
