"""Tests for the optimality-gap harness.

The load-bearing invariant: the oracle's cost lower-bounds *every*
strategy's realised cost on its own trace (``gap_ratio >= 1``), because
the oracle's transportation problem admits the run's own assignment as a
feasible solution.  That is checked both on synthetic traces where the
optimum is known in closed form and on real (short) simulator runs for
each registry strategy.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.optimal.gap import (
    DemandTrace,
    GapSettings,
    OracleBound,
    make_gap_topology,
    oracle_lower_bound,
    quick_settings,
    run_gap_point,
    uunet_slice,
)
from repro.routing.routes_db import RoutingDatabase
from repro.scenarios.config import ScenarioConfig
from repro.topology.generators import line_topology


def record(obj, gateway, server):
    """A delivered response, as the served observers are called with it."""
    return obj, gateway, server, 0.0, abs(server - gateway)


@pytest.fixture(scope="module")
def line_routes():
    return RoutingDatabase(line_topology(6))


def test_demand_trace_aggregates_serviced_requests(line_routes):
    trace = DemandTrace(line_routes)
    trace(*record(1, 0, 2))
    trace(*record(1, 0, 2))
    trace(*record(1, 5, 4))
    assert trace.serviced == 3
    assert trace.demand == {1: {0: 2, 5: 1}}
    assert trace.servers == {1: {2, 4}}
    assert trace.served_by == {2: 2, 4: 1}
    assert trace.cost == pytest.approx(2 * 2 + 1 * 1)


def test_oracle_single_server_objects_are_forced(line_routes):
    """With one server per object the oracle must match the run exactly."""
    trace = DemandTrace(line_routes)
    for _ in range(4):
        trace(*record(1, 0, 3))
    trace(*record(2, 5, 3))
    bound = oracle_lower_bound(trace, line_routes, capacity=100.0, duration=1.0)
    assert bound.contested_objects == 0
    assert bound.cost == pytest.approx(trace.cost)
    assert bound.gap_ratio == pytest.approx(1.0)


def test_oracle_improves_on_a_bad_assignment(line_routes):
    """Requests sent to the far replica when the near one had room."""
    trace = DemandTrace(line_routes)
    # Object 1 has replicas at 0 and 5.  The run serves gateway 0 from
    # node 5 (cost 5 each) even though node 0 also served it once.
    trace(*record(1, 0, 0))
    for _ in range(3):
        trace(*record(1, 0, 5))
    bound = oracle_lower_bound(trace, line_routes, capacity=100.0, duration=1.0)
    assert bound.contested_objects == 1
    # The oracle assigns all four requests to node 0 at cost 0.
    assert bound.cost == pytest.approx(0.0)
    assert bound.protocol_cost == pytest.approx(15.0)
    assert bound.gap_ratio == math.inf


def test_oracle_respects_host_budgets(line_routes):
    trace = DemandTrace(line_routes)
    # 10 requests from gateway 0; the run split them 5/5 between the
    # adjacent node 1 and the distant node 5.
    for _ in range(5):
        trace(*record(1, 0, 1))
    for _ in range(5):
        trace(*record(1, 0, 5))
    # Nominal budget of 3 is raised to the realised load (5) per host, so
    # the oracle cannot pile all 10 onto node 1.
    bound = oracle_lower_bound(trace, line_routes, capacity=3.0, duration=1.0)
    assert bound.cost == pytest.approx(5 * 1 + 5 * 5)
    assert bound.gap_ratio == pytest.approx(1.0)


def test_gap_ratio_edge_cases():
    assert OracleBound(0.0, 0.0, 0, 0).gap_ratio == 1.0
    assert OracleBound(0.0, 3.0, 3, 0).gap_ratio == math.inf
    assert OracleBound(2.0, 3.0, 3, 1).gap_ratio == pytest.approx(1.5)


def test_uunet_slice_is_connected_and_relabelled():
    topology = uunet_slice(13, seed=42)
    assert topology.num_nodes == 13
    assert sorted(topology.nodes) == list(range(13))
    assert topology.has_regions
    # Deterministic per (size, seed).
    again = uunet_slice(13, seed=42)
    assert set(topology.graph.edges) == set(again.graph.edges)
    with pytest.raises(ConfigurationError):
        uunet_slice(0, seed=42)


def test_make_gap_topology_specs():
    assert make_gap_topology("uunet", 42) is None
    tree = make_gap_topology("ktree-2-2", 42)
    assert tree.num_nodes == 7
    sliced = make_gap_topology("uunet-slice-9", 42)
    assert sliced.num_nodes == 9
    assert make_gap_topology("uunet-slice", 42).num_nodes == 13
    for bad in ("ktree-2", "uunet-slice-x", "mesh"):
        with pytest.raises(ConfigurationError):
            make_gap_topology(bad, 42)


def _point_config(strategy: str) -> ScenarioConfig:
    return ScenarioConfig(
        name="gap-test",
        workload="zipf",
        seed=3,
        duration=120.0,
        num_objects=60,
        node_request_rate=2.0,
        capacity=10.0,
        strategy=strategy,
    )


@pytest.mark.parametrize(
    "strategy",
    ["paper", "static", "round-robin", "closest", "offline-greedy",
     "availability-aware"],
)
def test_oracle_lower_bounds_every_strategy(strategy):
    """The structural invariant, on real runs of every registry strategy."""
    point = run_gap_point(
        _point_config(strategy),
        topology=make_gap_topology("uunet-slice-9", 42),
    )
    assert point["requests_serviced"] > 0
    assert point["oracle_cost"] >= 0
    assert point["gap_ratio"] >= 1.0 - 1e-9
    assert math.isfinite(point["gap_ratio"])


def test_run_gap_point_reports_tree_gap_on_trees():
    point = run_gap_point(
        _point_config("paper"), topology=make_gap_topology("ktree-2-2", 42)
    )
    tree_gap = point["tree_gap"]
    assert tree_gap["objects"] > 0
    assert tree_gap["oracle_replicas"] >= tree_gap["objects"]
    assert point["gap_ratio"] >= 1.0 - 1e-9


def test_settings_shapes():
    assert len(GapSettings().load_scales) >= 3
    assert len(GapSettings().fault_mtbfs) >= 2
    quick = quick_settings()
    assert len(quick.load_scales) >= 3
    assert len(quick.fault_mtbfs) >= 2
    assert quick.duration <= GapSettings().duration
