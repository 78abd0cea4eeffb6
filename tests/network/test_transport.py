"""Unit tests for the transport layer: delays, accounting, observers."""

import random

import pytest

from repro.errors import RoutingError, SimulationError
from repro.network.faults import FaultConfig, FaultPlane
from repro.network.message import MessageClass
from repro.network.transport import MAX_TABULATED_SIZES, Network
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology, random_tree_topology
from repro.topology.uunet import uunet_backbone


@pytest.fixture
def net():
    sim = Simulator()
    routes = RoutingDatabase(line_topology(4))
    return sim, Network(sim, routes, hop_delay=0.01, bandwidth=1000.0)


def test_delay_store_and_forward(net):
    _, network = net
    # 2 hops, 100 bytes at 1000 B/s: per hop 0.01 + 0.1.
    assert network.delay(2, 100) == pytest.approx(2 * (0.01 + 0.1))
    assert network.delay(0, 100) == 0.0


def test_delay_cut_through():
    sim = Simulator()
    routes = RoutingDatabase(line_topology(3))
    network = Network(
        sim, routes, hop_delay=0.01, bandwidth=1000.0, store_and_forward=False
    )
    assert network.delay(2, 100) == pytest.approx(2 * 0.01 + 0.1)


def test_send_schedules_callback_after_delay(net):
    sim, network = net
    arrived = []
    hops, delay = network.send(
        0, 2, 100, MessageClass.REQUEST, lambda: arrived.append(sim.now)
    )
    assert hops == 2
    sim.run()
    assert arrived == [pytest.approx(delay)]


def test_local_delivery_is_immediate(net):
    sim, network = net
    arrived = []
    hops, delay = network.send(
        1, 1, 100, MessageClass.REQUEST, lambda: arrived.append(sim.now)
    )
    assert hops == 0 and delay == 0.0
    sim.run()
    assert arrived == [0.0]


def test_byte_hop_accounting(net):
    _, network = net
    network.account(0, 3, 10, MessageClass.RESPONSE)
    network.account(1, 2, 5, MessageClass.CONTROL)
    assert network.byte_hops[MessageClass.RESPONSE] == 30
    assert network.byte_hops[MessageClass.CONTROL] == 5
    assert network.total_byte_hops() == 35


def test_per_link_attribution(net):
    _, network = net
    network.account(0, 2, 10, MessageClass.RESPONSE)
    assert network.link(0, 1).total_bytes == 10
    assert network.link(1, 2).total_bytes == 10
    assert network.link(2, 3).total_bytes == 0
    # Order of endpoints doesn't matter.
    assert network.link(1, 0).total_bytes == 10


def test_link_lookup_errors(net):
    _, network = net
    with pytest.raises(SimulationError):
        network.link(0, 2)  # not adjacent


def test_links_disabled():
    sim = Simulator()
    routes = RoutingDatabase(line_topology(3))
    network = Network(sim, routes, track_links=False)
    network.account(0, 2, 10, MessageClass.RESPONSE)
    assert network.byte_hops[MessageClass.RESPONSE] == 20
    with pytest.raises(SimulationError):
        network.links()


def test_observers_see_every_send(net):
    sim, network = net
    seen = []
    network.add_observer(lambda *args: seen.append(args))
    network.account(0, 3, 7, MessageClass.RELOCATION)
    assert seen == [(0.0, 0, 3, 3, 7, MessageClass.RELOCATION)]


def test_invalid_parameters():
    sim = Simulator()
    routes = RoutingDatabase(line_topology(2))
    with pytest.raises(SimulationError):
        Network(sim, routes, hop_delay=-1)
    with pytest.raises(SimulationError):
        Network(sim, routes, bandwidth=0)


# ----------------------------------------------------------------------
# Hop-indexed delay tables and the traffic meter
# ----------------------------------------------------------------------


def _one_pair_per_hop_count(routes):
    """``{hops: (source, target)}`` covering every hop count that occurs."""
    pairs = {}
    for source in range(routes.num_nodes):
        for target, hops in enumerate(routes.distance_row(source)):
            pairs.setdefault(hops, (source, target))
    return pairs


@pytest.mark.parametrize("store_and_forward", [True, False])
@pytest.mark.parametrize(
    "topology",
    [uunet_backbone(), random_tree_topology(40, seed=3)],
    ids=["uunet", "random-tree"],
)
def test_transmit_delays_equal_delay_bit_for_bit(topology, store_and_forward):
    """Tabulated delays are the floats ``Network.delay`` computes — for
    every hop count the topology has, the pipeline's three sizes and an
    odd one, asked in an order that grows the tables out of order."""
    routes = RoutingDatabase(topology)
    network = Network(
        Simulator(), routes, track_links=False, store_and_forward=store_and_forward
    )
    pairs = _one_pair_per_hop_count(routes)
    assert len(pairs) > 4
    for size in (12 * 1024, 350, 128, 12_345):
        for hops in sorted(pairs, key=lambda h: (h % 3, -h)):
            source, target = pairs[hops]
            for _ in range(2):  # table miss, then table hit
                got_hops, delay, delivered = network.transmit(
                    source, target, size, MessageClass.RESPONSE
                )
                assert (got_hops, delivered) == (hops, True)
                expected = network.delay(hops, size)
                assert delay == expected
                assert delay.hex() == expected.hex()  # -0.0 vs 0.0 included


def test_transmit_unknown_node_names_the_pair(net):
    _, network = net
    with pytest.raises(RoutingError, match=r"distance\(0, 99\)"):
        network.transmit(0, 99, 10, MessageClass.REQUEST)


@pytest.mark.parametrize(
    "source, target", [(-1, 2), (2, -1), (-4, -4), (4, 0), (0, 4)]
)
def test_transmit_rejects_node_ids_outside_the_topology(net, source, target):
    """A negative id would index the distance rows from the end (``-1``
    is node 3 here): every id outside ``0..n-1`` is a ``RoutingError``
    naming the pair, and nothing is charged."""
    _, network = net
    traffic = network.meter_traffic(1.0)
    with pytest.raises(RoutingError, match=rf"distance\({source}, {target}\)"):
        network.transmit(source, target, 10, MessageClass.REQUEST)
    assert network.total_byte_hops() == 0
    assert traffic == {}


def test_rare_sizes_beyond_the_table_cap_are_computed(net):
    _, network = net
    for size in range(1, MAX_TABULATED_SIZES + 50):
        _, delay, _ = network.transmit(0, 3, size, MessageClass.CONTROL)
        assert delay == network.delay(3, size)
    assert len(network._delay_tables) == MAX_TABULATED_SIZES


def test_traffic_meter_cells_per_bucket_and_class(net):
    sim, network = net
    network.transmit(0, 3, 10, MessageClass.RESPONSE)  # before metering
    traffic = network.meter_traffic(5.0)
    assert traffic == {}
    network.transmit(0, 3, 10, MessageClass.RESPONSE)
    network.transmit(1, 1, 10, MessageClass.RESPONSE)  # zero hops: not metered
    sim.schedule_at(12.0, network.account, 1, 2, 7, MessageClass.CONTROL)
    sim.schedule_at(12.5, network.account, 0, 2, 7, MessageClass.CONTROL)
    sim.run()
    assert sorted(traffic) == [0, 2]
    assert traffic[0][MessageClass.RESPONSE] == [30, 1]
    assert traffic[2][MessageClass.CONTROL] == [21, 2]
    assert traffic[2][MessageClass.RESPONSE] == [0, 0]
    assert network.byte_hops[MessageClass.RESPONSE] == 60
    assert network.meter_traffic(5.0) is traffic
    with pytest.raises(SimulationError, match="already metered"):
        network.meter_traffic(1.0)
    with pytest.raises(SimulationError):
        network.meter_traffic(0.0)


def test_absorb_traffic_equals_per_message_accounting(net):
    _, network = net
    other_sim = Simulator()
    other = Network(other_sim, network.routes)
    for n in (network, other):
        n.meter_traffic(5.0)
    network.absorb_traffic(MessageClass.REQUEST, 9, {(0, 3): 2, (0, 1): 1, (4, 2): 1})
    for _ in range(2):
        other.account(0, 3, 9, MessageClass.REQUEST)
    other.account(0, 1, 9, MessageClass.REQUEST)
    other_sim.run(until=21.0)
    other.account(0, 2, 9, MessageClass.REQUEST)
    assert network.traffic == other.traffic
    assert network.byte_hops == other.byte_hops


def test_duplicated_message_is_metered_twice_dropped_once():
    sim = Simulator()
    routes = RoutingDatabase(line_topology(4))
    for config, cell, delivered in (
        (FaultConfig(enabled=True, duplicate_prob=1.0), [60, 2], True),
        (FaultConfig(enabled=True, drop_prob=1.0), [30, 1], False),
    ):
        network = Network(sim, routes)
        network.faults = FaultPlane(config, random.Random(1))
        traffic = network.meter_traffic(60.0)
        assert network.transmit(0, 3, 10, MessageClass.UPDATE)[2] is delivered
        assert traffic[0][MessageClass.UPDATE] == cell
        assert network.byte_hops[MessageClass.UPDATE] == cell[0]
        assert network.link(1, 2).total_bytes == cell[0] // 3
