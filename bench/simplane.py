"""The three simulator workloads: scenarios, one rep, exact statistics.

A rep is one ``run_scenario`` call.  The benchmark never edits or
configures the engine: it brackets the public ``Simulator.run`` (build /
drain / finalize phases) and, on instrumented reps, schedules one
benchmark-owned periodic event through the public
``Simulator.schedule_after`` that cuts the drain into slices.  (The
per-host measurement observers all fire at the same simulated instants,
so they cannot cut even slices; a private ticker can, and like them it
does not stand the fast lane down.)  The ticker touches no model state;
``run.py`` checks that instrumented reps reproduce the un-instrumented
warm-up's statistics exactly.

Dependency surface (public names only): ``paper_scenario``,
``large_topology_scenario``, ``run_scenario``, ``scenario_metrics``,
``Simulator.run`` / ``Simulator.schedule_after``, ``FaultConfig``,
``ConsistencyConfig`` and the fields of ``ScenarioResult``.  No engine
knob is set: ``fast_lane``, ``batched_arrivals`` and
``queue_bucket_width`` stay at the preset defaults, and the engine mode
is only read back with ``getattr(system, "fast_lane", None)``.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

from repro.consistency.config import ConsistencyConfig
from repro.errors import ProtocolError
from repro.network.faults import FaultConfig
from repro.scenarios.presets import large_topology_scenario, paper_scenario
from repro.scenarios.runner import run_scenario, scenario_metrics
from repro.sim.engine import Simulator

from calibrate import MemoryKernel, Rep, SliceRecorder

#: Simulated horizons are the issue's shapes shrunk by this one factor,
#: so that warm-up + reps + set-up samples fit the per-run time cap.
HORIZON_SHRINK = 0.5

#: Host outages of sim-faulted as an explicit ``(node, at, duration)``
#: schedule shaped like ``mtbf=1500, mttr=60`` over the 150 s horizon
#: (53 hosts -> ~5 outages of ~1 min).  Drawing them from the seed
#: instead makes relocation overhead swing 2x from seed to seed, which
#: no bound could gate; the seed still drives arrivals, object choice,
#: writes, message loss, duplication and jitter.  The nodes avoid the
#: partitioned group 0-3 and the board/redirector node.
FAULTED_OUTAGES = (
    (48, 15.0, 30.0),
    (7, 20.0, 45.0),
    (22, 45.0, 60.0),
    (31, 70.0, 40.0),
    (40, 95.0, 50.0),
)


class _StopAtFirstRequest(Exception):
    """Raised at ``Simulator.run`` entry by set-up-only samples."""


@contextmanager
def _bracketed_run(on_enter, on_exit):
    """Bracket the public ``Simulator.run`` for the duration of one rep."""
    original = Simulator.run

    def run(self, until=None):
        on_enter(self)
        try:
            return original(self, until)
        finally:
            on_exit()

    Simulator.run = run
    try:
        yield
    finally:
        Simulator.run = original


class SimWorkload:
    """One simulator workload at one seed."""

    nominal_us = MemoryKernel.NOMINAL_US

    def __init__(self, name: str, seed: int, *, duration: float | None = None):
        self.name = name
        self.seed = seed
        #: Overrides the horizon (the selftest's 30 s smoke); such runs
        #: are too short for placement, so the activity checks are off.
        self.duration = duration
        self._kernel: MemoryKernel | None = None

    # -- inputs ---------------------------------------------------------

    def scenario(self):
        """``(config, topology, slice_seconds)`` for this workload.

        ``slice_seconds`` is the simulated period of the slicing ticker,
        sized so one slice is ~4 ms of host time.
        """
        seed = self.seed
        if self.name == "sim-paper":
            config = paper_scenario(
                "zipf", scale=0.3, duration=600 * HORIZON_SHRINK, seed=seed
            )
            topology, slice_seconds = None, 0.5
        elif self.name == "sim-faulted":
            shrink = HORIZON_SHRINK
            config = paper_scenario(
                "zipf", scale=0.3, duration=300 * shrink, seed=seed
            ).replace(
                faults=FaultConfig(
                    enabled=True,
                    drop_prob=0.02,
                    duplicate_prob=0.01,
                    delay_jitter=0.005,
                    outages=FAULTED_OUTAGES,
                    partitions=(((0, 1, 2, 3), 120.0 * shrink, 60.0 * shrink),),
                ),
                consistency=ConsistencyConfig(
                    write_rate=5,
                    category_mix=(0.6, 0.3, 0.1),
                    anti_entropy_interval=20,
                    epidemic_interval=10,
                ),
            )
            topology, slice_seconds = None, 0.2
        elif self.name == "sim-large":
            # The first placement round needs > 100 simulated seconds, so
            # this horizon cannot shrink; the load axis shrinks instead
            # (0.3 -> 0.1: a third of the requests, same hosts, objects,
            # build cost and heap).
            config, topology = large_topology_scenario(
                duration=120, scale=0.1, seed=seed
            )
            slice_seconds = 0.1
        else:
            raise ValueError(f"unknown simulator workload {self.name!r}")
        if self.duration is not None:
            config = config.replace(duration=self.duration)
        return config, topology, slice_seconds

    # -- lifecycle ------------------------------------------------------

    def open(self) -> None:
        """Allocate the calibration kernel (after the warm-up's RSS read)."""
        self._kernel = MemoryKernel()

    def close(self) -> None:
        self._kernel = None

    def layer_probes(self) -> dict[str, float]:
        """Single-layer floors timed by direct calls: the simulator has none."""
        return {}

    # -- one rep --------------------------------------------------------

    def rep(self, *, instrumented: bool, check: bool = False) -> Rep:
        kernel = self._kernel if instrumented else None
        recorder = SliceRecorder() if instrumented else None
        marks: dict[str, float] = {}
        slice_seconds = 0.0

        def on_enter(sim: Simulator) -> None:
            marks["enter"] = perf_counter()
            if recorder is not None:

                def tick() -> None:
                    recorder.close()
                    sim.schedule_after(slice_seconds, tick)
                    recorder.open(kernel.run())

                sim.schedule_after(slice_seconds, tick)
                recorder.open(kernel.run())

        def on_exit() -> None:
            marks["exit"] = perf_counter()
            if recorder is not None:
                recorder.close()
                recorder.open(kernel.run())

        start = perf_counter()
        config, topology, slice_seconds = self.scenario()
        with _bracketed_run(on_enter, on_exit):
            result = run_scenario(config, topology=topology)
        returned = perf_counter()
        metrics = scenario_metrics(result)
        folded = perf_counter()

        exact, problems = self._read(result, metrics, config, check)
        return Rep(
            setup_s=marks["enter"] - start,
            drain_s=recorder.wall if instrumented else marks["exit"] - marks["enter"],
            finalize_s=returned - marks["exit"],
            fold_ms=(folded - returned) * 1e3,
            requests=int(exact["requests"]),
            failed=0,
            exact=exact,
            problems=problems,
            recorder=recorder,
            info={
                "engine": "fast-lane"
                if getattr(result.system, "fast_lane", None) is not None
                else "reference",
                "simulated_s": config.duration,
            },
        )

    def setup_only(self) -> float:
        """Score everything before the first request, then abandon the run.

        The score is the set-up wall over the mean of three kernel walls
        on either side of it (the same yardstick the drain slices use).
        """

        def stop(sim: Simulator) -> None:
            marks.append(perf_counter())
            raise _StopAtFirstRequest

        marks: list[float] = []
        kernel = self._kernel
        kernel_walls = [kernel.run() for _ in range(3)]
        start = perf_counter()
        config, topology, _ = self.scenario()
        with _bracketed_run(stop, lambda: None):
            try:
                run_scenario(config, topology=topology)
            except _StopAtFirstRequest:
                pass
        kernel_walls += [kernel.run() for _ in range(3)]
        return (marks[0] - start) / statistics.fmean(kernel_walls)

    # -- outputs --------------------------------------------------------

    def _read(
        self, result, metrics, config, check: bool
    ) -> tuple[dict[str, float], list[str]]:
        """Exact model statistics of a finished run, and its failed checks."""
        latency = result.latency
        system = result.system
        requests = latency.completed + latency.dropped + latency.failed + latency.lost
        relocations = metrics["relocations"]
        replica_drops = metrics["replica_drops"]
        exact = {
            "requests": float(requests),
            "served_share": latency.completed / requests,
            "response_hops": latency.mean_response_hops(),
            "overhead_share": metrics["overhead_fraction"],
            "model.response_ms": latency.mean_latency() * 1e3,
            "model.max_load": metrics["max_load"],
            "model.replicas_per_object": metrics["replicas_per_object"],
            "model.relocations_per_kreq": relocations / requests * 1e3,
            "model.replica_drops_per_kreq": replica_drops / requests * 1e3,
            "model.bandwidth_reduction": metrics.get("bandwidth_reduction", 0.0),
        }
        if "rpc_calls" in metrics:
            calls = metrics["rpc_calls"] or 1.0  # none yet on a 30 s smoke
            exact.update(
                {
                    "rpc.retries_per_call": metrics["rpc_retries"] / calls,
                    "rpc.timeout_share": metrics["rpc_timeouts"] / calls,
                    "net.dropped_share": metrics["messages_dropped"] / requests,
                    "consistency.stale_read_fraction": metrics["stale_read_fraction"],
                    "consistency.anti_entropy_overhead_fraction": metrics[
                        "anti_entropy_overhead_fraction"
                    ],
                    "failures.unavailability_s": metrics["unavailability_seconds"],
                    "failures.repairs": metrics["repairs"],
                }
            )

        problems = []
        # Request accounting.  The runner does not expose the generators,
        # so "issued" is bounded from the offered load instead: nothing is
        # invented, and only what was still in flight at the horizon may
        # be unaccounted (at most 5 simulated seconds of offered load: the
        # queues of sim-large's saturated hosts hold ~3.5 s).  The
        # protocol's own counters must agree with the metrics layer's.
        nodes = system.routes.topology.num_nodes
        rate = nodes * config.node_request_rate
        offered = rate * config.duration
        if not offered - 5.0 * rate - nodes <= requests <= offered + nodes:
            problems.append(f"accounted {requests} requests of {offered:.0f} offered")
        ledger = (system.dropped_requests, system.failed_requests, system.lost_requests)
        if ledger != (latency.dropped, latency.failed, latency.lost):
            problems.append(f"protocol counters {ledger} disagree with the collector")
        serviced = sum(host.serviced_total for host in system.hosts.values())
        if serviced < latency.completed:
            problems.append(f"hosts serviced {serviced} < completed {latency.completed}")
        if self.duration is None:
            if relocations < 1:
                problems.append("no placement event: the protocol never acted")
            if replica_drops < 1:
                problems.append("no replica drop")
        if check:
            try:
                system.check_invariants()
            except ProtocolError as exc:
                problems.append(f"check_invariants: {exc}")
        return exact, problems
