"""Unit tests for the routing database."""

import pytest

from repro.errors import RoutingError
from repro.routing.routes_db import RoutingDatabase
from repro.topology.generators import line_topology, star_topology


@pytest.fixture
def line_routes():
    return RoutingDatabase(line_topology(5))


def test_distance_and_route(line_routes):
    assert line_routes.distance(0, 4) == 4
    assert line_routes.route(1, 3) == (1, 2, 3)
    assert line_routes.hops(1, 3) == 2


def test_preference_path_includes_both_endpoints(line_routes):
    path = line_routes.preference_path(4, 0)
    assert path[0] == 4 and path[-1] == 0
    assert path == (4, 3, 2, 1, 0)


def test_self_route(line_routes):
    assert line_routes.route(2, 2) == (2,)
    assert line_routes.distance(2, 2) == 0


def test_farthest_first_ordering(line_routes):
    assert line_routes.farthest_first(0, [1, 3, 2]) == [3, 2, 1]
    # Ties broken by ascending id.
    assert line_routes.farthest_first(2, [1, 3, 0, 4]) == [0, 4, 1, 3]


def test_min_mean_distance_node_is_center():
    routes = RoutingDatabase(line_topology(5))
    assert routes.min_mean_distance_node() == 2
    star = RoutingDatabase(star_topology(6))
    assert star.min_mean_distance_node() == 0


def test_unknown_node_raises(line_routes):
    with pytest.raises(RoutingError):
        line_routes.distance(0, 99)


def test_distance_row_matches_distance(line_routes):
    row = line_routes.distance_row(1)
    assert [row[j] for j in range(5)] == [
        line_routes.distance(1, j) for j in range(5)
    ]
