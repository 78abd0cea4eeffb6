"""Edge-case coverage across small API surfaces."""

import pytest

from repro.baselines.adr import AdrSystem
from repro.core.config import ProtocolConfig
from repro.network.message import MessageClass
from repro.network.transport import Network
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from tests.conftest import make_system


def test_network_send_passes_args():
    sim = Simulator()
    network = Network(sim, RoutingDatabase(line_topology(3)))
    received = []
    network.send(0, 2, 10, MessageClass.CONTROL, received.append, "payload")
    sim.run()
    assert received == ["payload"]


def test_adr_empty_stats():
    sim = Simulator()
    network = Network(sim, RoutingDatabase(line_topology(3)))
    system = AdrSystem(sim, network, num_objects=3)
    system.initialize_round_robin()
    assert system.mean_read_cost() == 0.0
    assert system.replicas_per_object() == 1.0
    system.start()
    system.stop()
    system.stop()  # second stop is a no-op


def test_system_stop_is_idempotent():
    sim = Simulator()
    system = make_system(sim, line_topology(3), num_objects=3)
    system.initialize_round_robin()
    system.start()
    system.stop()
    system.stop()
    assert sim.pending == 0


def test_cli_distribution_and_high_load(capsys):
    from repro.__main__ import main

    code = main(
        [
            "--workload", "uniform",
            "--scale", "0.05",
            "--duration", "100",
            "--high-load",
            "--distribution", "round-robin",
        ]
    )
    assert code == 0
    assert "relocations" in capsys.readouterr().out


def test_protocol_config_freeze_roundtrip():
    config = ProtocolConfig(relocation_freeze_intervals=3)
    assert config.replace(relocation_freeze_intervals=None).relocation_freeze_intervals is None


def test_replica_info_unit_request_count():
    from repro.types import ReplicaInfo

    info = ReplicaInfo(host=0, affinity=4, request_count=10)
    assert info.unit_request_count == pytest.approx(2.5)
