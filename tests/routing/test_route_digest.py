"""Every canonical route, pinned by digest.

Routes used to be pinned only indirectly (the exact smoke means,
``faulted_golden.json``, ``completed == 102656``).  The digests below were
taken on the commit *before* the routing index lost its parent lists
(PR 22), so any edit to the tie-break, the BFS or the walk that moves one
route on one of these graphs fails here by name.

The same digests must come out under any ``PYTHONHASHSEED``: run as
``python -m tests.routing.test_route_digest NAME...`` this module prints
the named ones as JSON, which is how the hash-seed test below reads them
from a child.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.routing.routes_db import RoutingDatabase
from repro.routing.shortest_path import all_pairs_shortest_paths
from repro.scenarios.presets import large_topology_scenario
from repro.topology.generators import (
    grid_topology,
    random_geometric_topology,
    ring_topology,
)
from repro.topology.uunet import uunet_backbone

PINNED = {
    "uunet-1999": (lambda: uunet_backbone(1999), "50d0566cac1f010c"),
    "uunet-7": (lambda: uunet_backbone(7), "2cb4e2148ad53c10"),
    "grid-6x7": (lambda: grid_topology(6, 7), "c9c13827fcbc0e47"),
    "ring-12": (lambda: ring_topology(12), "e6416f0613b6a9de"),
    "geometric-200": (
        lambda: random_geometric_topology(200, seed=3),
        "629cc7f878c1c8b7",
    ),
}

#: The ``sim-large`` topology: every distance row plus a seeded sample of
#: 30,000 ordered pairs (all 250k take seconds; the full set was compared
#: by hand, see CHANGES PR 22).  Taken on the parent with the sample
#: walked in *sorted* order.
LARGE_SAMPLE = 30_000
LARGE_DIGEST = "b5b45d15f9ce97e6"


def _digest(dist, paths) -> str:
    return hashlib.sha256(repr((dist, sorted(paths.items()))).encode()).hexdigest()[:16]


def eager_digest(name: str) -> str:
    build, _ = PINNED[name]
    return _digest(*all_pairs_shortest_paths(build()))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_all_pairs_digest_is_pinned(name):
    assert eager_digest(name) == PINNED[name][1]


def test_large_topology_routes_are_pinned_whatever_the_walk_order():
    _, topology = large_topology_scenario()
    routes = RoutingDatabase(topology)
    n = topology.num_nodes
    rng = random.Random(22)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(LARGE_SAMPLE)]
    rng.shuffle(pairs)
    walked = {pair: routes.route(*pair) for pair in pairs}
    dist = [routes.distance_row(node) for node in range(n)]
    assert _digest(dist, walked) == LARGE_DIGEST


def test_routes_do_not_depend_on_the_hash_seed():
    root = Path(__file__).resolve().parents[2]
    # Without the 40k-pair geometric graph (a second per child): the grid
    # is equal-cost ties almost everywhere, which is what a seed could move.
    names = sorted(set(PINNED) - {"geometric-200"})
    outputs = []
    for hash_seed in ("0", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        done = subprocess.run(
            [sys.executable, "-m", "tests.routing.test_route_digest", *names],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.append(json.loads(done.stdout))
    expected = {name: PINNED[name][1] for name in names}
    assert outputs == [expected, expected]


if __name__ == "__main__":
    print(json.dumps({name: eager_digest(name) for name in sys.argv[1:]}))
