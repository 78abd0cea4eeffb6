"""Tests for the scenario runner on short, small-scale runs."""

import gc

import pytest

from repro.baselines.round_robin import RoundRobinRedirector
from repro.consistency.config import ConsistencyConfig
from repro.network.faults import FaultConfig
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.presets import paper_scenario
from repro.scenarios.runner import (
    build_system,
    make_workload,
    run_scenario,
    scenario_metrics,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.topology.generators import two_cluster_topology
from repro.topology.uunet import uunet_backbone


def tiny_config(**overrides):
    base = paper_scenario("uniform", scale=0.05, duration=120.0, seed=3)
    # Every runner test doubles as an invariant check (opt-in flag).
    return base.replace(bucket=30.0, check_invariants=True, **overrides)


def test_run_scenario_produces_consistent_results():
    result = run_scenario(tiny_config())
    assert result.latency.completed > 1000
    assert result.bandwidth.total_byte_hops() > 0
    assert result.replicas.current_total >= result.config.num_objects
    result.system.check_invariants()


def test_run_scenario_is_deterministic():
    a = run_scenario(tiny_config())
    b = run_scenario(tiny_config())
    assert a.latency.completed == b.latency.completed
    assert a.bandwidth.total_byte_hops() == b.bandwidth.total_byte_hops()
    assert a.replicas.current_total == b.replicas.current_total


def test_different_seeds_differ():
    a = run_scenario(tiny_config())
    b = run_scenario(tiny_config(seed=4))
    assert a.bandwidth.total_byte_hops() != b.bandwidth.total_byte_hops()


def test_static_scenario_never_moves_objects():
    result = run_scenario(tiny_config(dynamic=False))
    assert result.system.placement_events == []
    assert result.replicas.current_total == result.config.num_objects


def test_distribution_policy_selection():
    _, system, _ = build_system(tiny_config(distribution="round-robin"))
    assert isinstance(system.redirectors.services[0], RoundRobinRedirector)


def test_custom_topology_respected():
    topology = two_cluster_topology(cluster_size=4, bridge_length=2)
    config = tiny_config()
    sim, system, _ = build_system(config, topology=topology)
    assert system.routes.num_nodes == topology.num_nodes


def test_make_workload_names():
    topology = uunet_backbone()
    factory = RngFactory(1)
    for name in ("zipf", "hot-sites", "hot-pages", "regional", "uniform"):
        config = ScenarioConfig(workload=name, num_objects=1000)
        workload = make_workload(config, topology, factory)
        assert workload.num_objects == 1000


def test_result_statistics_available():
    result = run_scenario(tiny_config())
    assert result.bandwidth_start() > 0
    assert 0 <= result.overhead_fraction() < 0.5
    assert result.overhead_fraction_fullscale() <= result.overhead_fraction()
    assert result.max_load() >= result.max_load_settled() * 0.0
    assert result.latency_equilibrium() > 0


def test_fault_free_metrics_have_no_fault_keys():
    result = run_scenario(tiny_config())
    assert result.system.fault_plane is None
    assert result.injector is None
    metrics = scenario_metrics(result)
    assert not any(k.startswith("rpc_") for k in metrics)
    assert "unavailability_seconds" not in metrics
    assert "host_failures" not in metrics


def faulted_config(**overrides):
    faults = FaultConfig(
        enabled=True,
        drop_prob=0.05,
        delay_jitter=0.2,
        heartbeat_miss_threshold=2,
        repair_interval=10.0,
        outages=((3, 30.0, 60.0),),
        **overrides,
    )
    return tiny_config(faults=faults)


def test_faulted_scenario_end_to_end():
    result = run_scenario(faulted_config())
    assert result.system.fault_plane is not None
    assert result.injector is not None
    metrics = scenario_metrics(result)
    # The outage was detected, repaired, and accounted for.
    assert metrics["host_failures"] == 1.0
    assert metrics["failure_detections"] >= 1.0
    assert metrics["failure_recoveries"] >= 1.0
    assert metrics["repairs"] > 0.0
    assert metrics["unavailability_seconds"] > 0.0
    # Message loss drove retries, and the system kept serving.
    assert metrics["rpc_retries"] > 0.0
    assert metrics["messages_dropped"] > 0.0
    assert result.latency.completed > 1000
    result.system.check_invariants()


def test_faulted_scenario_is_deterministic():
    a = scenario_metrics(run_scenario(faulted_config()))
    b = scenario_metrics(run_scenario(faulted_config()))
    assert a == b


def test_random_outages_driven_by_config():
    config = tiny_config(
        faults=FaultConfig(enabled=True, mtbf=60.0, mttr=15.0)
    )
    result = run_scenario(config)
    assert result.injector is not None
    metrics = scenario_metrics(result)
    assert metrics["host_failures"] >= 1.0


# -- the collector pause ---------------------------------------------------


def _wrap_run(monkeypatch, before=None, after=None):
    """Bracket ``Simulator.run`` with ``before()`` / ``after()`` calls."""
    original = Simulator.run

    def run(self, until=None):
        if before is not None:
            before()
        try:
            return original(self, until)
        finally:
            if after is not None:
                after()

    monkeypatch.setattr(Simulator, "run", run)


NO_CYCLE_RUNS = {
    "fault-free": lambda: tiny_config(),
    "faults, consistency and outages": lambda: faulted_config().replace(
        consistency=ConsistencyConfig(
            write_rate=2.0,
            category_mix=(0.6, 0.3, 0.1),
            epidemic_interval=10.0,
            anti_entropy_interval=15.0,
        )
    ),
    "traced": lambda: tiny_config(traced=True),
}


@pytest.mark.parametrize("name", NO_CYCLE_RUNS)
def test_the_drain_leaves_no_cyclic_garbage(monkeypatch, name):
    """The premise of pausing the collector over ``Simulator.run``: a
    full collection right after it finds nothing unreachable."""
    found = []
    _wrap_run(monkeypatch, before=gc.collect, after=lambda: found.append(gc.collect()))
    run_scenario(NO_CYCLE_RUNS[name]())
    assert found == [0]


@pytest.mark.parametrize("enabled", [True, False])
def test_run_scenario_pauses_the_collector_and_restores_the_callers_state(
    monkeypatch, enabled
):
    during = []
    _wrap_run(monkeypatch, before=lambda: during.append(gc.isenabled()))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run_scenario(tiny_config(duration=30.0))
        assert during == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


class _StopAtEntry(Exception):
    pass


def test_run_scenario_restores_the_collector_when_the_run_raises(monkeypatch):
    """The benchmark's set-up-only samples raise at ``Simulator.run`` entry."""

    def stop():
        assert not gc.isenabled()
        raise _StopAtEntry

    _wrap_run(monkeypatch, before=stop)
    assert gc.isenabled()
    with pytest.raises(_StopAtEntry):
        run_scenario(tiny_config(duration=30.0))
    assert gc.isenabled()
