"""A deterministic synthetic stand-in for the 1999 UUNET backbone.

The paper evaluates on UUNET's backbone: "53 nodes in North America,
Europe, Pacific Rim, and Australia" (Section 6.1, citing a now-dead URL
for the map).  The protocol consumes only shortest-path hop counts and the
regional clustering of nodes, so any 53-node backbone with a realistic
structure exercises identical code paths.  We synthesise one with:

* four regions sized per :data:`repro.topology.regions.REGION_SIZES`
  (Eastern NA largest, Pacific smallest — qualitatively matching UUNET's
  1999 POP distribution);
* inside each region, 2–3 hub routers joined in a small core and metro
  POPs arranged in tiers — tier-1 POPs dual-home to hubs, deeper tiers
  dual-home to the tier above, as in real metro build-outs — plus one
  intra-region cross link for path diversity;
* sparse inter-region trunks between hubs only: two transcontinental US
  links, one transatlantic, one transpacific, and one Europe–Pacific
  link, mirroring the era's cable systems.

The construction is seeded and fully deterministic; the default seed
yields a backbone with hop-count diameter ≈ 9 and mean distance ≈ 4.5,
comparable to published measurements of late-1990s ISP backbones — and
sparse enough that proximity actually matters, which is the property the
paper's bandwidth results depend on.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.sim.rng import RngFactory
from repro.topology.graph import Topology
from repro.topology.regions import REGION_SIZES, REGIONS, Region, region_ranges

#: Number of hub (core) routers per region.
_HUBS_PER_REGION: dict[Region, int] = {
    Region.WESTERN_NA: 3,
    Region.EASTERN_NA: 3,
    Region.EUROPE: 3,
    Region.PACIFIC: 2,
}

#: Number of POP tiers below the hubs in each region.  Tier-1 POPs home
#: to hubs; tier-k POPs home to tier-(k-1) POPs, as in real metro
#: build-outs where secondary cities hang off primary ones.
_TIERS = 4

#: Intra-region POP-to-POP shortcut links (path diversity; keeps any one
#: hub off the majority of a POP's shortest paths, as dual-homed metro
#: builds do in practice).
_CROSS_LINKS_PER_REGION = 1

#: Inter-region trunks as (region pair, number of links).  Trunk ``k``
#: joins hub ``k`` of each side (mod the hub count).
_TRUNKS: dict[tuple[Region, Region], int] = {
    (Region.WESTERN_NA, Region.EASTERN_NA): 2,
    (Region.EASTERN_NA, Region.EUROPE): 1,
    (Region.WESTERN_NA, Region.PACIFIC): 1,
    (Region.EUROPE, Region.PACIFIC): 1,
}


#: The seed of the backbone every paper scenario and benchmark runs on.
UUNET_SEED = 1999


def uunet_backbone(seed: int = UUNET_SEED) -> Topology:
    """Build the canonical 53-node synthetic UUNET backbone.

    The result is deterministic in ``seed``; the default is
    :data:`UUNET_SEED`.
    """
    rng = RngFactory(seed).stream("uunet")
    ranges = region_ranges()
    edges: list[tuple[int, int]] = []

    hubs: dict[Region, list[int]] = {}
    for region in REGIONS:
        ids = list(ranges[region])
        n_hubs = _HUBS_PER_REGION[region]
        if len(ids) <= n_hubs:
            raise TopologyError(f"region {region} too small for {n_hubs} hubs")
        region_hubs = ids[:n_hubs]
        hubs[region] = region_hubs
        # Hub core: a small cycle (equals a single link for two hubs).
        for i, hub in enumerate(region_hubs):
            edges.append((hub, region_hubs[(i + 1) % n_hubs]))
        # Metro POPs in _TIERS layers: tier-1 POPs dual-home to hubs,
        # deeper tiers dual-home to the tier above.  Dual parents keep
        # any single node off the overwhelming majority of a POP's
        # shortest paths while the tiering stretches the diameter to
        # realistic late-1990s values.
        spokes = ids[n_hubs:]
        width = max(2, -(-len(spokes) // _TIERS))  # ceil division
        previous_layer = region_hubs
        for start in range(0, len(spokes), width):
            layer = spokes[start : start + width]
            for index, spoke in enumerate(layer):
                parent_a = previous_layer[index % len(previous_layer)]
                parent_b = previous_layer[(index + 1) % len(previous_layer)]
                edges.append((spoke, parent_a))
                if parent_b != parent_a:
                    edges.append((spoke, parent_b))
            previous_layer = layer
        # Intra-region POP shortcut links for path diversity.
        added = 0
        attempts = 0
        while added < _CROSS_LINKS_PER_REGION and attempts < 200 and len(spokes) >= 4:
            attempts += 1
            a, b = rng.sample(spokes, 2)
            if (a, b) not in edges and (b, a) not in edges:
                edges.append((a, b))
                added += 1

    for (region_a, region_b), count in _TRUNKS.items():
        hubs_a, hubs_b = hubs[region_a], hubs[region_b]
        for k in range(count):
            edges.append((hubs_a[k % len(hubs_a)], hubs_b[k % len(hubs_b)]))

    regions = {node: region for region in REGIONS for node in ranges[region]}
    return Topology(
        sum(REGION_SIZES.values()), edges, regions=regions, name=f"uunet-synthetic-{seed}"
    )
