"""Tests for the live deployment configuration and peer directory."""

import pytest

from repro.errors import ConfigurationError
from repro.live.config import (
    LiveConfig,
    PeerDirectory,
    live_protocol_config,
)


def test_defaults_are_valid_and_demo_scaled():
    config = LiveConfig()
    assert config.num_hosts == 3
    assert config.topology == "ring"
    protocol = config.protocol
    assert protocol.measurement_interval == 1.0
    assert protocol.placement_interval == 3.0
    assert protocol.low_watermark < protocol.high_watermark
    assert protocol.deletion_threshold < protocol.replication_threshold


def test_live_protocol_config_keeps_table1_shape():
    protocol = live_protocol_config()
    # m = 6u, as in the paper's Table 1.
    assert protocol.replication_threshold == pytest.approx(
        6 * protocol.deletion_threshold
    )


@pytest.mark.parametrize(
    "changes",
    [
        {"num_hosts": 0},
        {"topology": "uunet"},
        {"num_objects": 0},
        {"object_size": 0},
        {"capacity": 0.0},
        {"base_port": 80},
        {"base_port": 65535},
    ],
)
def test_validation_rejects_bad_fields(changes):
    with pytest.raises(ConfigurationError):
        LiveConfig(**changes)


@pytest.mark.parametrize("name,links", [("line", 2), ("ring", 3), ("star", 2)])
def test_build_topology_shapes(name, links):
    topology = LiveConfig(topology=name).build_topology()
    assert topology.num_nodes == 3
    assert topology.num_links == links


def test_initial_placement_partitions_namespace():
    config = LiveConfig(num_hosts=3, num_objects=10)
    owned = [config.objects_for(node) for node in range(3)]
    assert sorted(obj for objs in owned for obj in objs) == list(range(10))
    for node, objs in enumerate(owned):
        assert all(config.initial_host(obj) == node for obj in objs)


def test_addresses_derive_from_base_port():
    config = LiveConfig(base_port=9000, num_hosts=2)
    assert config.redirector_address() == ("127.0.0.1", 9000)
    assert config.host_address(0) == ("127.0.0.1", 9001)
    assert config.host_address(1) == ("127.0.0.1", 9002)
    with pytest.raises(ConfigurationError):
        config.host_address(2)


def test_port_layout_is_one_formula():
    config = LiveConfig(base_port=9000, num_hosts=2, num_shards=3)
    assert config.redirector_address() == ("127.0.0.1", 9000)
    assert [config.shard_address(s)[1] for s in range(3)] == [9000, 9001, 9002]
    assert [config.host_address(n)[1] for n in range(2)] == [9003, 9004]


def test_ephemeral_ports_zero_out_host_addresses():
    config = LiveConfig(base_port=0)
    assert config.host_address(1) == ("127.0.0.1", 0)


def test_dict_round_trip_preserves_protocol():
    config = LiveConfig(num_hosts=4, topology="star", base_port=9100)
    clone = LiveConfig.from_dict(config.to_dict())
    assert clone == config
    assert clone.protocol == config.protocol


def test_file_round_trip(tmp_path):
    import json

    config = LiveConfig(num_objects=12)
    path = tmp_path / "live.json"
    path.write_text(json.dumps(config.to_dict()))
    assert LiveConfig.from_file(path) == config


def test_peer_directory_from_config_needs_fixed_ports():
    with pytest.raises(ConfigurationError):
        PeerDirectory.from_config(LiveConfig(base_port=0))
    directory = PeerDirectory.from_config(LiveConfig(base_port=9200, num_hosts=2))
    assert directory.redirector() == ("127.0.0.1", 9200)
    assert directory.hosts() == {
        0: ("127.0.0.1", 9201),
        1: ("127.0.0.1", 9202),
    }


def test_peer_directory_unknown_entries_raise():
    directory = PeerDirectory()
    with pytest.raises(ConfigurationError):
        directory.redirector()
    with pytest.raises(ConfigurationError):
        directory.host(0)
    directory.set_host(0, ("127.0.0.1", 1234))
    assert directory.host(0) == ("127.0.0.1", 1234)
