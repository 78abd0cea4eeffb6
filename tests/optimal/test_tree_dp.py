"""Golden tests: the tree DP vs exhaustive enumeration.

The DP is certified on every random tree of 2..8 nodes over several
seeds and random annotations (including tight capacities and QoS bounds
that force infeasibility), plus the balanced trees the gap benchmark
uses.  Exhaustive search evaluates all 2^n replica sets with the same
Closest-policy evaluator, so agreement here is agreement on the whole
instance space that size admits.
"""

import random

import pytest

from repro.optimal.instance import TreeInstance, evaluate_tree_placement
from repro.optimal.tree_dp import solve_tree_placement
from repro.errors import ConfigurationError
from repro.topology.generators import (
    balanced_tree_topology,
    random_tree_topology,
)
from tests.optimal.brute_force import (
    MAX_BRUTE_FORCE_NODES,
    brute_force_tree_placement,
)


def random_instance(n: int, seed: int) -> TreeInstance:
    """A random annotated instance on a random tree (may be infeasible)."""
    rnd = random.Random(seed * 1000 + n)
    topology = random_tree_topology(n, seed=seed)
    demand = {v: rnd.randint(0, 6) for v in range(n)}
    # Tight capacities and occasional qos 0/1 make infeasible and
    # capacity-bound instances common, not just the easy ones.
    capacity = {v: rnd.choice([0, 1, 2, 4, 8, 25]) for v in range(n)}
    qos = {v: rnd.choice([0, 1, 2, 3, 8]) for v in range(n)}
    cost = {v: rnd.choice([1.0, 1.0, 2.5, 0.5]) for v in range(n)}
    return TreeInstance.from_topology(
        topology, demand, capacity=capacity, qos=qos, placement_cost=cost
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", range(2, 9))
def test_dp_matches_brute_force_on_random_trees(n, seed):
    instance = random_instance(n, seed)
    dp = solve_tree_placement(instance)
    golden = brute_force_tree_placement(instance)
    if golden is None:
        assert dp is None
        return
    assert dp is not None
    # Equal cost; both replica sets must be feasible at that cost (the
    # optimal set itself need not be unique).
    assert dp.cost == pytest.approx(golden.cost)
    assert evaluate_tree_placement(instance, dp.replicas).feasible


@pytest.mark.parametrize("branching,height", [(2, 2), (3, 1), (2, 3)])
def test_dp_matches_brute_force_on_balanced_trees(branching, height):
    topology = balanced_tree_topology(branching, height, capacity=6.0, qos=1)
    rnd = random.Random(branching * 10 + height)
    demand = {v: rnd.randint(0, 4) for v in range(topology.num_nodes)}
    instance = TreeInstance.from_topology(topology, demand)
    dp = solve_tree_placement(instance)
    golden = brute_force_tree_placement(instance)
    assert (dp is None) == (golden is None)
    if dp is not None:
        assert dp.cost == pytest.approx(golden.cost)


def test_single_node_tree():
    topology = balanced_tree_topology(2, 0, capacity=5.0)
    instance = TreeInstance.from_topology(topology, {0: 3})
    placement = solve_tree_placement(instance)
    assert placement is not None
    assert placement.replicas == (0,)
    assert placement.loads == {0: 3}


def test_infeasible_when_demand_exceeds_total_capacity():
    topology = balanced_tree_topology(2, 1, capacity=1.0)
    instance = TreeInstance.from_topology(topology, {0: 2, 1: 2, 2: 2})
    assert solve_tree_placement(instance) is None
    assert brute_force_tree_placement(instance) is None


def test_qos_zero_forces_local_replicas():
    """qos 0 means every demanding node must itself hold a replica."""
    topology = balanced_tree_topology(2, 1, capacity=10.0, qos=0)
    instance = TreeInstance.from_topology(topology, {1: 2, 2: 3})
    placement = solve_tree_placement(instance)
    assert placement is not None
    assert set(placement.replicas) >= {1, 2}


def test_quantisation_rounds_demand_up_and_capacity_down():
    topology = balanced_tree_topology(2, 1, capacity=10.0)
    instance = TreeInstance.from_topology(
        topology, {0: 2.5, 1: 0.1}, demand_unit=2.0
    )
    assert instance.demand == (2, 1, 0)
    assert instance.capacity == (5, 5, 5)


def test_reconstruction_is_self_checked():
    """The DP re-evaluates its own reconstruction: loads match demand."""
    instance = random_instance(8, 5)
    placement = solve_tree_placement(instance)
    if placement is None:
        pytest.skip("instance happens to be infeasible")
    assert sum(placement.loads.values()) == instance.total_demand


def test_brute_force_refuses_large_trees():
    topology = random_tree_topology(MAX_BRUTE_FORCE_NODES + 1)
    instance = TreeInstance.from_topology(topology, {0: 1})
    with pytest.raises(ConfigurationError):
        brute_force_tree_placement(instance)


def test_from_topology_rejects_non_trees():
    from repro.topology.generators import ring_topology

    with pytest.raises(ConfigurationError):
        TreeInstance.from_topology(ring_topology(4), {0: 1})
