"""Unit tests for the auxiliary topology generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.routing.routes_db import RoutingDatabase
from repro.topology.generators import (
    DEFAULT_TREE_CAPACITY,
    balanced_tree_topology,
    grid_topology,
    line_topology,
    node_capacities,
    node_qos,
    random_geometric_topology,
    random_tree_topology,
    ring_topology,
    star_topology,
    two_cluster_topology,
)
from repro.topology.regions import Region


def test_line_distances():
    routes = RoutingDatabase(line_topology(5))
    assert routes.distance(0, 4) == 4
    assert routes.distance(2, 2) == 0


def test_ring_wraps():
    routes = RoutingDatabase(ring_topology(6))
    assert routes.distance(0, 3) == 3
    assert routes.distance(0, 5) == 1


def test_star_has_diameter_two():
    topology = star_topology(8)
    assert topology.diameter() == 2
    assert topology.degree(0) == 7


def test_grid_shape():
    topology = grid_topology(3, 4)
    assert topology.num_nodes == 12
    assert topology.num_links == 3 * 3 + 2 * 4  # row links + column links
    routes = RoutingDatabase(topology)
    assert routes.distance(0, 11) == 2 + 3  # manhattan distance


def test_two_cluster_structure():
    topology = two_cluster_topology(cluster_size=4, bridge_length=3)
    assert topology.num_nodes == 4 + 2 + 4
    routes = RoutingDatabase(topology)
    # Intra-cluster distance 1; bridge endpoints are bridge_length apart;
    # deeper cluster-B nodes are one hop further.
    assert routes.distance(0, 1) == 1
    assert routes.distance(3, 6) == 3
    assert routes.distance(3, 8) == 4
    assert topology.region(0) is Region.WESTERN_NA
    assert topology.region(8) is Region.EUROPE
    assert topology.region(4) is Region.EASTERN_NA


def test_two_cluster_degenerate_bridge():
    topology = two_cluster_topology(cluster_size=2, bridge_length=1)
    routes = RoutingDatabase(topology)
    assert routes.distance(1, 2) == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=5, max_value=60))
def test_random_geometric_always_connected(n):
    topology = random_geometric_topology(n, seed=n)
    assert topology.num_nodes == n  # Topology validates connectivity


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=300),
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.none(), st.floats(min_value=0.02, max_value=1.5)),
)
def test_random_geometric_matches_the_retired_networkx_generator(n, seed, radius):
    """Cell binning finds the edges the k-d tree found, in the same order."""
    pytest.importorskip("scipy")
    from tests.topology.oracle_geometric import random_geometric_topology as oracle

    ours = random_geometric_topology(n, radius=radius, seed=seed)
    theirs = oracle(n, radius=radius, seed=seed)
    assert ours.name == theirs.name
    assert list(ours.graph.edges) == list(theirs.graph.edges)
    for node in range(n):
        assert list(ours.graph.neighbors(node)) == list(theirs.graph.neighbors(node))


@pytest.mark.parametrize("radius", [0, -0.5, float("nan"), float("inf")])
def test_random_geometric_rejects_a_radius_it_cannot_bin_by(radius):
    """A negative radius used to build a graph (networkx compared squares);
    zero and nan spun 64 rounds before giving up."""
    with pytest.raises(TopologyError, match="radius must be a positive finite"):
        random_geometric_topology(50, radius=radius, seed=1)


def test_generator_input_validation():
    with pytest.raises(TopologyError):
        line_topology(0)
    with pytest.raises(TopologyError):
        ring_topology(2)
    with pytest.raises(TopologyError):
        star_topology(1)
    with pytest.raises(TopologyError):
        grid_topology(0, 3)
    with pytest.raises(TopologyError):
        random_geometric_topology(1)


# ----------------------------------------------------------------------
# Annotated tree families (the optimal-placement instances)
# ----------------------------------------------------------------------


def test_balanced_tree_structure():
    topology = balanced_tree_topology(2, 2)
    assert topology.num_nodes == 7
    assert topology.num_links == 6
    # Breadth-first numbering: node i's children are 2i+1 and 2i+2.
    for node in range(3):
        assert set(topology.neighbors(node)) >= {2 * node + 1, 2 * node + 2}
    assert topology.name == "ktree-2x2"


def test_balanced_tree_annotations():
    topology = balanced_tree_topology(3, 1, capacity=42.0, qos=1)
    assert node_capacities(topology) == {v: 42.0 for v in range(4)}
    assert node_qos(topology) == {v: 1 for v in range(4)}
    # Defaults: uniform capacity, qos = 2 * height (the diameter).
    default = balanced_tree_topology(2, 3)
    assert set(node_qos(default).values()) == {6}
    assert set(node_capacities(default).values()) == {DEFAULT_TREE_CAPACITY}


def test_balanced_tree_validation():
    with pytest.raises(TopologyError):
        balanced_tree_topology(0, 2)
    with pytest.raises(TopologyError):
        balanced_tree_topology(2, -1)
    with pytest.raises(TopologyError):
        balanced_tree_topology(2, 2, capacity=0.0)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=1000),
)
def test_random_tree_is_a_tree(n, seed):
    topology = random_tree_topology(n, seed=seed)
    # n-1 edges on a connected graph (Topology validates connectivity)
    # is exactly a tree.
    assert topology.num_nodes == n
    assert topology.num_links == n - 1
    caps = node_capacities(topology)
    assert all(
        0.5 * DEFAULT_TREE_CAPACITY <= c <= 1.5 * DEFAULT_TREE_CAPACITY
        for c in caps.values()
    )
    assert all(q >= 0 for q in node_qos(topology).values())


def test_random_tree_is_deterministic():
    one = random_tree_topology(12, seed=99)
    two = random_tree_topology(12, seed=99)
    assert set(one.graph.edges) == set(two.graph.edges)
    assert node_capacities(one) == node_capacities(two)
    assert node_qos(one) == node_qos(two)
    other = random_tree_topology(12, seed=100)
    assert set(one.graph.edges) != set(other.graph.edges) or node_capacities(
        one
    ) != node_capacities(other)


def test_random_tree_validation():
    with pytest.raises(TopologyError):
        random_tree_topology(0)
    with pytest.raises(TopologyError):
        random_tree_topology(4, capacity_range=(0.0, 1.0))
    with pytest.raises(TopologyError):
        random_tree_topology(4, qos_range=(-1, 2))


def test_node_qos_default_is_the_diameter():
    topology = line_topology(5)  # no annotations
    assert node_qos(topology) == {v: 4 for v in range(5)}
    assert node_qos(topology, default=2) == {v: 2 for v in range(5)}
