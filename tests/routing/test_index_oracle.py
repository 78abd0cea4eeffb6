"""The routing index against its retired twin, and at its edges.

``oracle_parents.ShortestPathIndex`` stores every source's parent lists
and hashes each tie candidate from scratch; the production index stores
distances only.  Same distances and same route for every ordered pair, on
every graph shape the suite builds.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing.routes_db import RoutingDatabase
from repro.routing.shortest_path import ShortestPathIndex
from repro.topology.generators import (
    grid_topology,
    line_topology,
    random_geometric_topology,
    random_tree_topology,
    ring_topology,
    star_topology,
)
from repro.topology.graph import Topology
from tests.routing import oracle_parents

sizes = st.integers(min_value=2, max_value=40)
seeds = st.integers(min_value=0, max_value=2**16)
graphs = st.one_of(
    sizes.map(line_topology),
    sizes.filter(lambda n: n >= 3).map(ring_topology),
    sizes.map(star_topology),
    st.tuples(st.integers(1, 6), st.integers(2, 6)).map(lambda rc: grid_topology(*rc)),
    st.tuples(sizes, seeds).map(lambda ns: random_tree_topology(ns[0], seed=ns[1])),
    st.tuples(sizes, seeds).map(
        lambda ns: random_geometric_topology(ns[0], seed=ns[1])
    ),
)


@settings(max_examples=60, deadline=None)
@given(graphs)
def test_distances_and_every_route_match_the_parent_list_index(topology):
    index = ShortestPathIndex(topology)
    oracle = oracle_parents.ShortestPathIndex(topology)
    assert index.dist_matrix == oracle.dist_matrix
    for source in topology.nodes:
        for target in topology.nodes:
            assert index.path(source, target) == oracle.path(source, target)


class _TwoIslands(Topology):
    """0 - 1 and 2 - 3: what ``Topology`` itself refuses to build."""

    def __init__(self) -> None:
        self._graph = nx.Graph([(0, 1), (2, 3)])
        self._regions = {}
        self.name = "two-islands"


@pytest.mark.parametrize("index_class", [ShortestPathIndex, oracle_parents.ShortestPathIndex])
def test_disconnected_topology_is_refused(index_class):
    with pytest.raises(RoutingError, match="topology disconnected from node 0"):
        index_class(_TwoIslands())


@pytest.mark.parametrize("bad", [-1, -5, 5, 99])
@pytest.mark.parametrize("method", ["distance", "route", "preference_path", "hops"])
def test_out_of_range_node_ids_raise_on_either_side(method, bad):
    """Negative ids used to wrap (``distance(-1, 0) == 1`` on a line) or,
    as a route target, get cached as ``(0, -1)``."""
    routes = RoutingDatabase(line_topology(5))
    lookup = getattr(routes, method)
    message = "unknown node in distance" if method in ("distance", "hops") else "no route"
    for pair in ((bad, 0), (0, bad)):
        with pytest.raises(RoutingError, match=message):
            lookup(*pair)
    assert not routes._index._paths
