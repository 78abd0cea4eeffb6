"""Substrate microbenchmarks: simulator and platform throughput.

Not a paper figure — these quantify the simulation substrate itself
(event-loop throughput, pending-queue drain rate, end-to-end request
cost, routing precomputation, and a 500-host / 100k-object scenario) so
regressions in the harness are caught before they silently stretch every
reproduction run.  ``benchmarks/engine_trajectory.py`` runs the same
shapes standalone and emits the ``BENCH_engine.json`` trajectory
artifact CI gates on.

Hermeticity: the request-pipeline benchmarks build a **fresh**
simulator/hosting system for every measured round via
``benchmark.pedantic(setup=...)``.  The previous revision shared one
system across warmup and measurement rounds, so its clock, request
counters and round-robin cursor drifted — later rounds measured a
different (larger, busier) system than earlier ones.  Only the immutable
routing database is shared across rounds.
"""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.core.protocol import HostingSystem
from repro.network.transport import Network
from repro.obs.tracer import DecisionTracer
from repro.routing.routes_db import RoutingDatabase
from repro.scenarios.presets import large_topology_scenario
from repro.scenarios.runner import run_scenario
from repro.sim.engine import Simulator
from repro.topology.uunet import uunet_backbone

#: Requests per hermetic pipeline round — enough to amortise the
#: per-round system build without reintroducing cross-round state.
PIPELINE_BATCH = 2_000

#: Pre-scheduled events for the drain benchmark: the
#: large-pending-queue shape where heap comparison cost dominates.
DRAIN_EVENTS = 200_000


def test_event_loop_throughput(benchmark):
    """Schedule-and-fire cost of one bare self-scheduling event."""

    def run_events():
        sim = Simulator()
        count = 10_000

        def tick():
            nonlocal count
            count -= 1
            if count:
                sim.schedule_after(0.001, tick)

        sim.schedule_after(0.001, tick)
        sim.run()
        return count

    assert benchmark(run_events) == 0


def test_event_queue_drain_throughput(benchmark):
    """Drain rate with a deep pending queue (the scale-scenario shape).

    200k handle-free events are pre-scheduled, then ``run()`` drains
    them; with this many entries pending, per-pop comparison cost is the
    whole story — exactly what the bucketed queue exists to cut.
    """

    def setup():
        sim = Simulator()
        sink = []
        for i in range(DRAIN_EVENTS):
            sim.post_at(i * 1e-4, sink.append, i)
        return (sim, sink), {}

    def drain(sim, sink):
        sim.run()
        return len(sink)

    result = benchmark.pedantic(drain, setup=setup, rounds=5)
    assert result == DRAIN_EVENTS


def test_batched_scheduling_throughput(benchmark):
    """post_batch + drain for one pre-drawn arrival vector."""

    def setup():
        sim = Simulator()
        sink = []
        times = [i * 1e-4 for i in range(DRAIN_EVENTS)]
        args = [(i,) for i in range(DRAIN_EVENTS)]
        return (sim, sink, times, args), {}

    def schedule_and_drain(sim, sink, times, args):
        sim.post_batch(times, sink.append, args)
        sim.run()
        return len(sink)

    result = benchmark.pedantic(schedule_and_drain, setup=setup, rounds=5)
    assert result == DRAIN_EVENTS


_ROUTES = None


def _uunet_routes() -> RoutingDatabase:
    # The routing database is immutable; sharing it across rounds leaks
    # no state, and rebuilding it per round would swamp the measurement.
    global _ROUTES
    if _ROUTES is None:
        _ROUTES = RoutingDatabase(uunet_backbone())
    return _ROUTES


def _fresh_system(traced: bool = False):
    sim = Simulator()
    network = Network(sim, _uunet_routes(), track_links=False)
    system = HostingSystem(
        sim, network, ProtocolConfig(), num_objects=100, enable_placement=False
    )
    if traced:
        system.attach_tracer(DecisionTracer())
    system.initialize_round_robin()
    return sim, system


def _pipeline_round(sim, system):
    # Completion is observed through the served-observer hook;
    # with placement and faults off every submitted request completes.
    completed = 0

    def _count(obj, gateway, server, issued_at, response_hops):
        nonlocal completed
        completed += 1

    system.served_observers.append(_count)
    for i in range(PIPELINE_BATCH):
        system.submit_request(i % 53, i % 100)
        sim.run()
    return completed


def test_request_pipeline_throughput(benchmark):
    """Full request flow: distributor -> redirector -> host -> response."""

    def setup():
        return _fresh_system(), {}

    result = benchmark.pedantic(_pipeline_round, setup=setup, rounds=5)
    assert result == PIPELINE_BATCH


def test_request_pipeline_throughput_traced(benchmark):
    """The same hermetic request flow with the decision tracer attached.

    Quantifies the tracing overhead on the hottest instrumented path
    (one ChooseReplica record per request) against the benchmark above.
    """

    def setup():
        return _fresh_system(traced=True), {}

    result = benchmark.pedantic(_pipeline_round, setup=setup, rounds=5)
    assert result == PIPELINE_BATCH


def test_routing_precomputation(benchmark):
    """All-pairs deterministic shortest paths over the 53-node backbone."""
    topology = uunet_backbone()
    benchmark(lambda: RoutingDatabase(topology))


def test_large_topology_scenario(benchmark):
    """The protocol at 500 hosts / 100k objects (short horizon).

    One full ``run_scenario`` over the geometric 500-node backbone with
    batched arrivals — the ROADMAP scale target, kept to a 20-second
    simulated horizon so the benchmark suite stays runnable; the
    trajectory script runs the full-length variant.
    """
    config, topology = large_topology_scenario(duration=20.0)

    def run():
        return run_scenario(config, topology=topology).latency.completed

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result > 50_000
