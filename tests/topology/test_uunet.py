"""Tests for the synthetic UUNET backbone."""

from repro.routing.routes_db import RoutingDatabase
from repro.topology.regions import REGION_SIZES, REGIONS, Region
from repro.topology.uunet import uunet_backbone


def test_has_53_nodes_in_four_regions():
    topology = uunet_backbone()
    assert topology.num_nodes == 53
    assert sum(REGION_SIZES.values()) == 53
    for region in REGIONS:
        assert len(topology.nodes_in_region(region)) == REGION_SIZES[region]


def test_deterministic_in_seed():
    a, b = uunet_backbone(5), uunet_backbone(5)
    assert sorted(a.links()) == sorted(b.links())
    c = uunet_backbone(6)
    assert sorted(a.links()) != sorted(c.links())


def test_backbone_is_sparse_and_wide():
    """The protocol's bandwidth results need real distance to reclaim:
    a late-1990s backbone has mean hop distance around 4+ and diameter
    well above the regional core size."""
    topology = uunet_backbone()
    routes = RoutingDatabase(topology)
    n = topology.num_nodes
    total = sum(sum(routes.distance_row(node)) for node in range(n))
    assert 3.5 <= total / (n * (n - 1)) <= 6.0
    assert 7 <= topology.diameter() <= 14
    # Sparse: well under 3 links per node on average.
    assert topology.num_links <= 3 * topology.num_nodes


def test_regions_are_contiguous_id_ranges():
    topology = uunet_backbone()
    boundaries = []
    for region in REGIONS:
        ids = topology.nodes_in_region(region)
        assert ids == list(range(min(ids), max(ids) + 1))
        boundaries.append((min(ids), max(ids)))
    flat = [b for pair in boundaries for b in pair]
    assert flat == sorted(flat)


def test_inter_region_paths_go_through_hubs():
    """Regions connect only via trunk links between hub routers."""
    topology = uunet_backbone()
    hub_ids = set()
    start = 0
    from repro.topology.uunet import _HUBS_PER_REGION

    for region in REGIONS:
        hub_ids.update(range(start, start + _HUBS_PER_REGION[region]))
        start += REGION_SIZES[region]
    for a, b in topology.links():
        if topology.region(a) is not topology.region(b):
            assert a in hub_ids and b in hub_ids


def test_no_node_is_wildly_central():
    """No single node should carry links to most of the network."""
    topology = uunet_backbone()
    assert max(topology.degree(n) for n in topology.nodes) <= 12


def test_pacific_is_far_from_europe():
    """Trans-world routes must be multi-hop (geography sanity check)."""
    topology = uunet_backbone()
    routes = RoutingDatabase(topology)
    europe = topology.nodes_in_region(Region.EUROPE)
    pacific = topology.nodes_in_region(Region.PACIFIC)
    max_dist = max(routes.distance(e, p) for e in europe for p in pacific)
    assert max_dist >= 5
