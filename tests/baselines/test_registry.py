"""Tests for the strategy registry and the offline-informed baselines."""

import pytest

from repro.baselines import STRATEGIES, Strategy, resolve_strategy
from repro.baselines.availability_aware import (
    AvailabilityAwarePlacer,
    replicas_for_availability,
)
from repro.errors import ConfigurationError
from repro.network.faults import FaultConfig
from repro.optimal.gap import uunet_slice
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import run_scenario
from repro.sweep import SweepSpec


def _config(strategy: str = "paper", **overrides) -> ScenarioConfig:
    base = ScenarioConfig(
        name="registry-test",
        workload="zipf",
        seed=5,
        duration=120.0,
        num_objects=40,
        node_request_rate=2.0,
        capacity=10.0,
        check_invariants=True,
        strategy=strategy,
    )
    # The default 100s placement interval would tick once in a 120s run;
    # speed the daemons up so dynamic behaviour shows inside the test.
    base = base.replace(
        protocol=base.protocol.replace(
            placement_interval=20.0, measurement_interval=5.0
        )
    )
    return base.replace(**overrides) if overrides else base


@pytest.fixture(scope="module")
def small_topology():
    return uunet_slice(9, seed=42)


# ----------------------------------------------------------------------
# Registry resolution
# ----------------------------------------------------------------------


def test_registry_names():
    assert set(STRATEGIES) == {
        "paper",
        "static",
        "round-robin",
        "closest",
        "full-replication",
        "availability-aware",
    }
    for name, strategy in STRATEGIES.items():
        assert isinstance(strategy, Strategy)
        assert strategy.name == name
        assert strategy.description


def test_resolve_strategy():
    assert resolve_strategy("paper") is STRATEGIES["paper"]
    with pytest.raises(ConfigurationError, match="unknown strategy"):
        resolve_strategy("nope")


def test_config_validates_strategy_names():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(strategy="nope")
    assert ScenarioConfig(strategy="static").strategy == "static"


def test_paper_strategy_is_a_no_op():
    paper = STRATEGIES["paper"]
    assert paper.overrides == ()
    assert paper.initial_placement is None
    assert paper.attach is None


def test_spec_hash_ignores_default_strategy_only():
    base = ScenarioConfig()
    default_hash = SweepSpec(base=base).spec_hash()
    assert SweepSpec(base=base.replace(strategy="paper")).spec_hash() == default_hash
    assert SweepSpec(base=base.replace(strategy="static")).spec_hash() != default_hash


# ----------------------------------------------------------------------
# Availability math
# ----------------------------------------------------------------------


def test_replicas_for_availability():
    # a = 0.9, target three nines: 0.1^r <= 0.001 -> r = 3.
    assert replicas_for_availability(0.9, 0.999) == 3
    assert replicas_for_availability(0.99, 0.999) == 2
    assert replicas_for_availability(0.9999, 0.999) == 1
    assert replicas_for_availability(1.0, 0.999) == 1
    assert replicas_for_availability(0.0, 0.999) == 4
    # Clamped to max_replicas even for hopeless hosts.
    assert replicas_for_availability(0.1, 0.999999, max_replicas=5) == 5
    with pytest.raises(ConfigurationError):
        replicas_for_availability(0.9, 1.5)


def test_placer_validates_arguments(small_topology):
    result = run_scenario(_config("static"), topology=small_topology)
    with pytest.raises(ConfigurationError):
        AvailabilityAwarePlacer(result.system, interval=0.0)
    with pytest.raises(ConfigurationError):
        AvailabilityAwarePlacer(result.system, top_objects=0)


# ----------------------------------------------------------------------
# Strategies end to end (short runs on a small backbone slice)
# ----------------------------------------------------------------------


def test_full_replication_places_everything_everywhere(small_topology):
    result = run_scenario(_config("full-replication"), topology=small_topology)
    assert result.replicas_per_object() == small_topology.num_nodes
    assert len(result.system.placement_events) == 0
    assert result.placer is None


def test_availability_aware_tracks_fault_rates(small_topology):
    faults = FaultConfig(enabled=True, mtbf=400.0, mttr=40.0)
    result = run_scenario(
        _config("availability-aware", faults=faults), topology=small_topology
    )
    placer = result.placer
    assert isinstance(placer, AvailabilityAwarePlacer)
    # a = 400/440 ~ 0.909; three nines needs 3 replicas.
    assert placer.host_availability == pytest.approx(400.0 / 440.0)
    assert placer.target_replicas == 3
    assert placer.replications > 0


def test_availability_aware_single_replica_when_reliable(small_topology):
    result = run_scenario(_config("availability-aware"), topology=small_topology)
    placer = result.placer
    assert placer.host_availability == 1.0
    assert placer.target_replicas == 1
    # Migration pattern: every move is an add before a remove, so the
    # placer can never have dropped more replicas than it created.
    assert placer.replications >= placer.drops
    assert result.latency.completed > 0


def test_paper_and_static_both_run_under_the_registry(small_topology):
    paper = run_scenario(_config("paper"), topology=small_topology)
    static = run_scenario(_config("static"), topology=small_topology)
    assert paper.latency.completed > 0
    assert static.latency.completed > 0
    # The static run really did not move anything; the paper run did.
    assert len(static.system.placement_events) == 0
    assert static.placer is None
    assert len(paper.system.placement_events) > 0
