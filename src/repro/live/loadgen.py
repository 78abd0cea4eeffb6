"""The load generator: replay workload models against a live deployment.

Drives real HTTP requests through the redirector tier at a target
open-loop rate, reusing the simulator's workload samplers (uniform,
zipf, hot_sites, regional) so a live run exercises the same popularity
structure as the corresponding simulated scenario.  Each request is two
exchanges, exactly the paper's request flow: ``GET /route`` at the
redirector (ChooseReplica) and then ``GET /obj/...`` at the chosen host.
A host answering 409 (its replica moved after routing) triggers one
retry through the redirector, mirroring the simulator's stale-view
retry path.  ``route_only`` mode skips the object fetch — that is how
the saturation benchmark measures the redirector tier's own capacity
without the hosts' service time in the way.

Connections are pooled (keep-alive): at tens of thousands of requests
per second a fresh TCP connection per exchange spends more time in
connect/teardown than in the request and exhausts ephemeral ports.

**Open-loop honesty.**  The scheduler targets absolute arrival times
(``start + i/rate``).  When the loop cannot keep up it does NOT silently
compress the schedule into a slower closed loop — it counts every
arrival issued more than :data:`LATE_ARRIVAL_SLACK` behind schedule as
*late*, tracks the worst lag, and (with ``max_sched_lag`` set) *drops*
arrivals that are hopelessly behind instead of issuing them.  A
saturation curve read from a loadgen that hides its own lag reports the
generator's capacity, not the server's.

Backpressure: a ``429`` reply carries the shard's ``Retry-After`` hint;
the loadgen sleeps that long and retries (bounded), counting the event,
so the offered load bends instead of snowballing into failures.

The run can be split into *phases*: each later phase applies a fresh
seeded permutation to the sampled object ids, shifting which objects are
popular.  Replicas created for phase-1 favourites then fall below the
deletion threshold ``u`` during phase 2 — this is what makes a short
demo show dynamic drops as well as replications.

For rates beyond a single event loop, :func:`run_loadgen_multiprocess`
forks worker processes that each drive a slice of the schedule and
merge their latency histograms (:mod:`repro.metrics.histogram`) at the end.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from repro.errors import ConfigurationError, WorkloadError
from repro.metrics.histogram import LatencyHistogram
from repro.schema import flag
from repro.sim.rng import derive_seed
from repro.topology.graph import Topology
from repro.types import NodeId, ObjectId
from repro.workloads.base import UniformWorkload, Workload
from repro.workloads.hot_sites import HotSitesWorkload
from repro.workloads.regional import RegionalWorkload
from repro.workloads.zipf import ZipfWorkload

from repro.live.config import LiveConfig
from repro.live.pool import HttpPool, TransportError, retry_after_hint

WORKLOADS = ("uniform", "zipf", "hot_sites", "regional")

#: An arrival issued more than this many seconds behind its scheduled
#: time counts as late (the loop is falling behind the offered rate).
LATE_ARRIVAL_SLACK = 0.010

#: Bounded retries after a 429 before the request counts as failed.
MAX_THROTTLE_RETRIES = 2


class GatewayPreferredWorkload(Workload):
    """Regional locality for region-less live topologies.

    The paper's regional workload needs region labels the small live
    topologies do not carry, so each gateway acts as its own region:
    with probability ``preferred_prob`` it requests from its own
    contiguous slice of the namespace, else uniformly.
    """

    def __init__(
        self, num_objects: int, num_nodes: int, *, preferred_prob: float = 0.9
    ) -> None:
        super().__init__(num_objects)
        if num_objects < num_nodes:
            raise WorkloadError(
                "gateway-preferred workload needs at least one object per node"
            )
        self.preferred_prob = preferred_prob
        slice_size = num_objects // num_nodes
        self._slices = {
            node: range(node * slice_size, (node + 1) * slice_size)
            for node in range(num_nodes)
        }

    def sample(self, gateway: NodeId, rng: random.Random) -> ObjectId:
        preferred = self._slices.get(gateway)
        if preferred is not None and rng.random() < self.preferred_prob:
            return preferred[rng.randrange(len(preferred))]
        return rng.randrange(self.num_objects)

    @property
    def name(self) -> str:
        return "gateway-preferred"


def build_live_workload(
    name: str, config: LiveConfig, topology: Topology, rng: random.Random
) -> Workload:
    if name == "uniform":
        return UniformWorkload(config.num_objects)
    if name == "zipf":
        return ZipfWorkload(config.num_objects)
    if name == "hot_sites":
        return HotSitesWorkload(
            config.num_objects, config.num_hosts, split_rng=rng
        )
    if name == "regional":
        if topology.has_regions:
            return RegionalWorkload(config.num_objects, topology)
        return GatewayPreferredWorkload(config.num_objects, config.num_hosts)
    raise ConfigurationError(
        f"unknown live workload {name!r}; choose from {WORKLOADS}"
    )


@dataclass(slots=True)
class LoadgenOptions:
    """Knobs for one load-generation run."""

    workload: str = field(
        default="zipf",
        metadata=flag("--workload", help="request pattern to replay", choices=WORKLOADS),
    )
    rate: float = field(
        default=120.0,
        metadata=flag(
            "--rate",
            help="open-loop arrival rate, requests/sec across all gateways",
        ),
    )
    requests: int = field(
        default=1000, metadata=flag("--requests", help="total requests to issue")
    )
    seed: int = field(default=1, metadata=flag("--seed", help="sampler seed"))
    phases: int = field(
        default=1,
        metadata=flag(
            "--phases",
            help="popularity phases (ids are re-permuted at each phase boundary)",
        ),
    )
    concurrency: int = field(
        default=64, metadata=flag("--concurrency", help="max in-flight requests")
    )
    timeout: float = 10.0
    route_only: bool = field(
        default=False,
        metadata=flag(
            "--route-only",
            help="measure the redirector tier alone: GET /route without the "
            "follow-up object fetch (the saturation benchmark's mode)",
        ),
    )
    max_sched_lag: float | None = field(
        default=None,
        metadata=flag(
            "--max-lag",
            "S",
            "drop arrivals more than S seconds behind schedule instead of "
            "issuing them late (omitted: never drop, count late arrivals)",
        ),
    )
    #: Partition-aware routing: ``{shard: (host, port)}``.  When set the
    #: loadgen consults the same consistent-hash ring as the tier and
    #: sends each ``/route`` straight to the owning shard, skipping the
    #: front door's relay (how the saturation benchmark exposes shard scaling).
    shard_endpoints: dict[int, tuple[str, int]] | None = None
    #: Phase permutations use this seed when set (multiprocess workers
    #: share it so every worker sees the same popularity shift while
    #: sampling with distinct per-worker seeds).
    perm_seed: int | None = None

    def validate(self) -> None:
        if self.workload not in WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; choose from {WORKLOADS}"
            )
        if self.rate <= 0:
            raise ConfigurationError("rate must be positive")
        if self.requests < 1:
            raise ConfigurationError("need at least one request")
        if self.phases < 1:
            raise ConfigurationError("need at least one phase")
        if self.concurrency < 1:
            raise ConfigurationError("concurrency must be at least 1")
        if self.max_sched_lag is not None and self.max_sched_lag <= 0:
            raise ConfigurationError("max_sched_lag must be positive")


@dataclass(slots=True)
class LoadgenStats:
    """Client-observed outcome of a load-generation run.

    Latencies live in a mergeable log-bucketed histogram rather than a
    sample list, so multiprocess workers can ship their distribution
    back to the parent in a few hundred bytes.
    """

    completed: int = 0
    failed: int = 0
    retries: int = 0
    #: 429 replies absorbed (each slept out the server's Retry-After).
    throttled: int = 0
    bytes_received: int = 0
    elapsed: float = 0.0
    #: Arrivals issued more than LATE_ARRIVAL_SLACK behind schedule.
    arrivals_late: int = 0
    #: Arrivals the scheduler dropped as hopelessly behind (only with
    #: ``max_sched_lag`` set).
    arrivals_dropped: int = 0
    #: Worst observed schedule lag, seconds.
    sched_max_lag: float = 0.0
    pool_dials: int = 0
    pool_reuses: int = 0
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)
    per_server: dict[int, int] = field(default_factory=dict)

    def record_latency(self, seconds: float) -> None:
        self.histogram.record(seconds)

    def merge(self, other: "LoadgenStats") -> None:
        """Fold a worker's stats into this aggregate."""
        self.completed += other.completed
        self.failed += other.failed
        self.retries += other.retries
        self.throttled += other.throttled
        self.bytes_received += other.bytes_received
        self.elapsed = max(self.elapsed, other.elapsed)
        self.arrivals_late += other.arrivals_late
        self.arrivals_dropped += other.arrivals_dropped
        self.sched_max_lag = max(self.sched_max_lag, other.sched_max_lag)
        self.pool_dials += other.pool_dials
        self.pool_reuses += other.pool_reuses
        self.histogram.merge(other.histogram)
        for server, count in other.per_server.items():
            self.per_server[server] = self.per_server.get(server, 0) + count

    def to_dict(self) -> dict:
        payload = {
            slot: getattr(self, slot)
            for slot in self.__dataclass_fields__
            if slot not in ("histogram", "per_server")
        }
        payload["histogram"] = self.histogram.to_dict()
        payload["per_server"] = {
            str(server): count for server, count in self.per_server.items()
        }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "LoadgenStats":
        data = dict(payload)
        histogram = LatencyHistogram.from_dict(data.pop("histogram"))
        per_server = {
            int(server): int(count)
            for server, count in data.pop("per_server", {}).items()
        }
        return cls(histogram=histogram, per_server=per_server, **data)

    def summary(self) -> dict:
        issued = self.completed + self.failed
        offered = issued + self.arrivals_dropped
        summary = {
            "requests_offered": offered,
            "requests_issued": issued,
            "requests_completed": self.completed,
            "requests_failed": self.failed,
            "request_retries": self.retries,
            "requests_throttled": self.throttled,
            "arrivals_late": self.arrivals_late,
            "arrivals_dropped": self.arrivals_dropped,
            "sched_max_lag_ms": self.sched_max_lag * 1000.0,
            "bytes_received": self.bytes_received,
            "elapsed_seconds": self.elapsed,
            "achieved_rps": self.completed / self.elapsed if self.elapsed else 0.0,
            "offered_rps": offered / self.elapsed if self.elapsed else 0.0,
            "error_rate": self.failed / issued if issued else 0.0,
            "pool_dials": self.pool_dials,
            "pool_reuses": self.pool_reuses,
            "servers_seen": len(self.per_server),
        }
        # With zero completed requests there is no latency distribution:
        # omit the keys rather than reporting a fabricated 0ms (report
        # tooling renders absent keys as "-").
        if self.histogram.count:
            summary["latency_mean_ms"] = self.histogram.mean() * 1000.0
            summary["latency_p50_ms"] = self.histogram.percentile(0.50) * 1000.0
            summary["latency_p95_ms"] = self.histogram.percentile(0.95) * 1000.0
            summary["latency_p99_ms"] = self.histogram.percentile(0.99) * 1000.0
        return summary


async def _http_get(
    host: str, port: int, path: str, timeout: float
) -> tuple[int, dict[str, str], bytes]:
    """A one-shot GET on a throwaway pool — for tests and simple probes."""
    pool = HttpPool(timeout=timeout)
    try:
        return await pool.request((host, port), "GET", path)
    finally:
        await pool.close()


def _phase_permutations(
    num_objects: int, phases: int, seed: int
) -> list[list[int]]:
    """Identity for phase 0, a fresh seeded shuffle per later phase."""
    permutations = [list(range(num_objects))]
    for phase in range(1, phases):
        perm = list(range(num_objects))
        random.Random(seed * 1000003 + phase).shuffle(perm)
        permutations.append(perm)
    return permutations


async def run_loadgen(
    redirector: tuple[str, int],
    config: LiveConfig,
    options: LoadgenOptions,
    *,
    on_progress=None,
) -> LoadgenStats:
    """Drive ``options.requests`` real requests through the deployment."""
    options.validate()
    topology = config.build_topology()
    rng = random.Random(options.seed)
    workload = build_live_workload(options.workload, config, topology, rng)
    permutations = _phase_permutations(
        config.num_objects,
        options.phases,
        options.perm_seed if options.perm_seed is not None else options.seed,
    )
    gateways = list(topology.nodes)
    stats = LoadgenStats()
    semaphore = asyncio.Semaphore(options.concurrency)
    pool = HttpPool(timeout=options.timeout, max_idle_per_peer=options.concurrency)
    owners = config.ring().owners(config.num_objects) if options.shard_endpoints else ()

    def route_address(obj: ObjectId) -> tuple[str, int]:
        if owners:
            endpoint = options.shard_endpoints.get(owners[obj])
            if endpoint is not None:
                return endpoint
        return redirector

    async def get_throttled(
        address: tuple[str, int], path: str
    ) -> tuple[int, dict[str, str], bytes]:
        """One GET, sleeping out bounded 429 backpressure hints."""
        for attempt in range(1 + MAX_THROTTLE_RETRIES):
            status, headers, body = await pool.request(address, "GET", path)
            if status != 429 or attempt == MAX_THROTTLE_RETRIES:
                return status, headers, body
            stats.throttled += 1
            retry_after = retry_after_hint(headers, 1.0)
            await asyncio.sleep(0.01 if retry_after is None else retry_after)
        raise AssertionError("unreachable")  # pragma: no cover

    async def one_request(obj: ObjectId, gateway: NodeId) -> None:
        async with semaphore:
            started = time.monotonic()
            try:
                exclude: int | None = None
                for attempt in range(2):
                    route_path = f"/route?obj={obj}&gateway={gateway}"
                    if exclude is not None:
                        route_path += f"&exclude={exclude}"
                    status, _headers, body = await get_throttled(
                        route_address(obj), route_path
                    )
                    if status != 200:
                        raise ConnectionError(f"route -> {status}")
                    route = json.loads(body)
                    server = int(route["server"])
                    if options.route_only:
                        stats.completed += 1
                        stats.record_latency(time.monotonic() - started)
                        stats.per_server[server] = (
                            stats.per_server.get(server, 0) + 1
                        )
                        return
                    split = urlsplit(route["url"])
                    status, _headers, body = await get_throttled(
                        (split.hostname, split.port),
                        f"{split.path}?{split.query}",
                    )
                    if status == 200:
                        stats.completed += 1
                        stats.bytes_received += len(body)
                        stats.record_latency(time.monotonic() - started)
                        stats.per_server[server] = (
                            stats.per_server.get(server, 0) + 1
                        )
                        return
                    if status == 409 and attempt == 0:
                        # Stale routing: the replica moved after the
                        # redirector answered.  One retry via /route.
                        stats.retries += 1
                        exclude = server
                        continue
                    raise ConnectionError(f"object fetch -> {status}")
                stats.failed += 1
            except (
                TransportError,
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                ValueError,
                KeyError,
            ):
                stats.failed += 1

    run_started = time.monotonic()
    interval = 1.0 / options.rate
    tasks: set[asyncio.Task] = set()
    for index in range(options.requests):
        phase = min(
            options.phases - 1, index * options.phases // options.requests
        )
        gateway = rng.choice(gateways)
        obj = permutations[phase][workload.sample(gateway, rng)]
        target = run_started + index * interval
        delay = target - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        else:
            # Behind schedule: account for the lag instead of silently
            # compressing the arrival process.
            lag = -delay
            if lag > stats.sched_max_lag:
                stats.sched_max_lag = lag
            if options.max_sched_lag is not None and lag > options.max_sched_lag:
                stats.arrivals_dropped += 1
                continue
            if lag > LATE_ARRIVAL_SLACK:
                stats.arrivals_late += 1
        task = asyncio.create_task(one_request(obj, gateway))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
        if on_progress is not None and (index + 1) % 250 == 0:
            on_progress(index + 1, options.requests)
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)
    stats.elapsed = time.monotonic() - run_started
    stats.pool_dials = pool.dials
    stats.pool_reuses = pool.reuses
    await pool.close()
    return stats


# ----------------------------------------------------------------------
# Multi-process driving (one event loop saturates around 3-5k rps)
# ----------------------------------------------------------------------


def _mp_worker(args: tuple) -> dict:
    """One worker process: run a slice of the schedule, return stats."""
    redirector, config, options = args
    stats = asyncio.run(run_loadgen(redirector, config, options))
    return stats.to_dict()


def run_loadgen_multiprocess(
    redirector: tuple[str, int],
    config: LiveConfig,
    options: LoadgenOptions,
    *,
    processes: int,
) -> LoadgenStats:
    """Split the offered load across worker processes and merge stats.

    Each worker drives ``rate / processes`` with its own derived seed
    (distinct arrival sampling) but the parent's ``perm_seed`` (shared
    popularity phases), then ships its histogram back for merging.
    """
    if processes < 1:
        raise ConfigurationError("need at least one loadgen process")
    if processes == 1:
        return asyncio.run(run_loadgen(redirector, config, options))
    options.validate()
    base, remainder = divmod(options.requests, processes)
    jobs = []
    for worker in range(processes):
        requests = base + (1 if worker < remainder else 0)
        if requests == 0:
            continue
        worker_options = dataclasses.replace(
            options,
            requests=requests,
            rate=options.rate / processes,
            seed=derive_seed(options.seed, worker),
            perm_seed=(
                options.perm_seed
                if options.perm_seed is not None
                else options.seed
            ),
        )
        jobs.append((redirector, config, worker_options))
    merged = LoadgenStats()
    with multiprocessing.Pool(processes=len(jobs)) as pool:
        for payload in pool.map(_mp_worker, jobs):
            merged.merge(LoadgenStats.from_dict(payload))
    return merged
