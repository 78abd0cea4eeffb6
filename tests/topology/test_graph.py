"""Unit tests for the Topology, with networkx as the oracle for its answers."""

import hashlib

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.generators import (
    balanced_tree_topology,
    grid_topology,
    line_topology,
    random_geometric_topology,
    random_tree_topology,
    ring_topology,
    star_topology,
    two_cluster_topology,
)
from repro.topology.graph import Topology
from repro.topology.regions import Region
from repro.topology.uunet import uunet_backbone


def test_basic_properties():
    topology = Topology(4, [(0, 1), (1, 2), (2, 3)], name="p4")
    assert topology.num_nodes == 4
    assert topology.num_links == 3
    assert list(topology.nodes) == [0, 1, 2, 3]
    assert topology.neighbors(1) == [0, 2]
    assert topology.degree(0) == 1
    assert topology.diameter() == 3


@pytest.mark.parametrize("source", [-1, -4, 4, 99])
def test_hops_from_refuses_an_unknown_source(source):
    """A negative source used to wrap (``hops_from(-1)`` was node 3's row
    on a 4-node line) and one past the end raised a bare ``IndexError``."""
    with pytest.raises(TopologyError, match=f"unknown node {source}"):
        line_topology(4).hops_from(source)


def test_links_are_normalised_pairs():
    topology = Topology(3, [(1, 0), (2, 1), (0, 1)])
    assert sorted(topology.links()) == [(0, 1), (1, 2)]


def test_rejects_disconnected():
    with pytest.raises(TopologyError, match="topology must be connected"):
        Topology(4, [(0, 1), (2, 3)])


def test_rejects_noncontiguous_ids():
    for edges in ([(0, 2)], [(-1, 0)]):
        with pytest.raises(TopologyError, match=r"contiguous integers 0\.\.n-1"):
            Topology(2, edges)


def test_rejects_self_loop():
    with pytest.raises(TopologyError, match="self-loops are not allowed"):
        Topology(3, [(0, 1), (1, 2), (1, 1)])


def test_rejects_empty():
    with pytest.raises(TopologyError, match="at least one node"):
        Topology(0, [])


def test_regions_must_cover_all_nodes():
    with pytest.raises(TopologyError, match=r"missing region assignment: \[1, 2\]"):
        Topology(3, [(0, 1), (1, 2)], regions={0: Region.EUROPE})


def test_region_lookup():
    regions = {0: Region.EUROPE, 1: Region.PACIFIC}
    topology = Topology(2, [(0, 1)], regions=regions)
    assert topology.has_regions
    assert topology.region(0) is Region.EUROPE
    assert topology.nodes_in_region(Region.PACIFIC) == [1]


def test_region_lookup_without_regions_raises():
    topology = Topology(2, [(0, 1)])
    assert not topology.has_regions
    with pytest.raises(TopologyError):
        topology.region(0)


@st.composite
def edge_lists(draw):
    """``(n, edges)``: half the time a spanning tree under extra links (so
    mostly connected), the rest loose pairs; shuffled, endpoints swapped."""
    n = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = []
    if draw(st.booleans()):
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    edges += [e for e in draw(st.lists(st.tuples(node, node), max_size=3 * n)) if e[0] != e[1]]
    edges = draw(st.permutations(edges))
    return n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_answers_equal_networkx(case):
    n, edges = case
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    if not nx.is_connected(graph):
        with pytest.raises(TopologyError, match="topology must be connected"):
            Topology(n, edges)
        return
    topology = Topology(n, edges)
    assert list(topology.links()) == [(min(u, v), max(u, v)) for u, v in graph.edges]
    assert topology.num_links == graph.number_of_edges()
    for node in range(n):
        assert topology.neighbors(node) == sorted(graph.neighbors(node))
        assert topology.degree(node) == graph.degree(node)
        assert topology.hops_from(node) == [
            nx.shortest_path_length(graph, node, other) for other in range(n)
        ]
    assert topology.diameter() == nx.diameter(graph)


#: sha256 over ``repr(list(links()))`` of each topology, recorded while
#: the topologies were still built as networkx graphs: the link order the
#: network's per-link table inherits must not move.
LINK_DIGESTS = {
    "uunet-synthetic-1999": "2cd3ae1281fa15b4",
    "line-7": "89fc64631a0bbd22",
    "ring-9": "e69033c06648077d",
    "star-6": "197dbc8c8640c21a",
    "grid-3x4": "5a1c071295466011",
    "two-cluster-4x2+3": "3feddc7ae47eccaa",
    "ktree-3x2": "380b8e5c84e13244",
    "rtree-40-s99": "4074372f11dadf7b",
    "geo-120-r0.179": "41e8c5c31c0eb920",
}

DIGESTED = (
    uunet_backbone(),
    line_topology(7),
    ring_topology(9),
    star_topology(6),
    grid_topology(3, 4),
    two_cluster_topology(4, 3),
    balanced_tree_topology(3, 2),
    random_tree_topology(40, seed=99),
    random_geometric_topology(120, seed=3),
)


@pytest.mark.parametrize("topology", DIGESTED, ids=lambda t: t.name)
def test_link_order_is_unchanged(topology):
    digest = hashlib.sha256(repr(list(topology.links())).encode()).hexdigest()[:16]
    assert digest == LINK_DIGESTS[topology.name]
