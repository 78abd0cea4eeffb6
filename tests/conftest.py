"""Shared fixtures: small deterministic systems the whole suite reuses."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import HostingSystem
from repro.network.transport import Network
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology, two_cluster_topology
from repro.topology.uunet import uunet_backbone
from repro.types import ReplicaInfo


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def line5():
    """A five-node path topology with its routing database."""
    topology = line_topology(5)
    return topology, RoutingDatabase(topology)


@pytest.fixture
def clusters():
    """The America/Europe two-cluster world of the Section 3 examples."""
    topology = two_cluster_topology(cluster_size=4, bridge_length=3)
    return topology, RoutingDatabase(topology)


@pytest.fixture(scope="session")
def uunet_routes():
    """The canonical backbone + routes (session-scoped; expensive)."""
    topology = uunet_backbone()
    return topology, RoutingDatabase(topology)


def make_system(
    sim: Simulator,
    topology,
    *,
    num_objects: int = 20,
    config: ProtocolConfig | None = None,
    capacity: float = 200.0,
    **kwargs,
) -> HostingSystem:
    """Build a small HostingSystem over ``topology`` for unit tests."""
    routes = RoutingDatabase(topology)
    network = Network(sim, routes)
    system = HostingSystem(
        sim,
        network,
        config or ProtocolConfig(),
        num_objects=num_objects,
        capacity=capacity,
        **kwargs,
    )
    return system


def replica_infos(service, obj) -> dict[int, ReplicaInfo]:
    """The registry's per-replica state for ``obj``, whichever form holds it.

    A sole replica at affinity 1 is registered as a bare host id and keeps
    no request count; it reads as a fresh ``ReplicaInfo`` (count 1).
    """
    entry = service._replicas[obj]
    return entry if isinstance(entry, dict) else {entry: ReplicaInfo(entry)}


class Served(NamedTuple):
    """One delivered response, as the served observers saw it."""

    obj: int
    gateway: int
    server: int
    issued_at: float
    response_hops: int
    completed_at: float

    @property
    def latency(self) -> float:
        return self.completed_at - self.issued_at


def served_log(system: HostingSystem) -> list[Served]:
    """Attach a served observer; returns the (live) list it appends to."""
    log: list[Served] = []

    def observe(obj, gateway, server, issued_at, response_hops):
        log.append(
            Served(obj, gateway, server, issued_at, response_hops, system.sim.now)
        )

    system.served_observers.append(observe)
    return log


@pytest.fixture
def small_system(sim, clusters):
    """A started two-cluster system with round-robin initial placement."""
    topology, _ = clusters
    system = make_system(sim, topology, num_objects=20)
    system.initialize_round_robin()
    return system


def run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter with ``src`` importable and
    return its stdout: this one has hypothesis (and so numpy) loaded."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()
