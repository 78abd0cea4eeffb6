"""Unit tests for the network fault model (FaultConfig / FaultPlane).

The per-message verdict is ``Network.transmit``'s: every verdict-level
test here sends through a network over ``ROUTES`` with the plane
attached, and reads the fate back from what ``transmit`` returns and
charges.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, RoutingError
from repro.network.faults import FaultConfig, FaultPlane
from repro.network.message import MessageClass
from repro.network.transport import Network
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from tests.network.transit_oracle import TransitOracle

#: A six-node path 0-1-2-3-4-5: every route is the obvious one.
ROUTES = RoutingDatabase(line_topology(6))

#: The size of the messages the verdict-level tests send.
SIZE = 100


def plane(config=None, seed=7):
    return FaultPlane(config or FaultConfig(enabled=True), random.Random(seed))


def verdict(p, source, target, message_class=MessageClass.CONTROL):
    """``(copies, extra_delay)`` for one ``SIZE``-byte message over
    ``ROUTES`` with the plane ``p`` attached: ``copies`` is 0 when
    dropped, else the times its bytes were charged; ``extra_delay`` is
    what the plane added to the delay."""
    network = Network(Simulator(), ROUTES, track_links=False)
    network.faults = p
    hops, delay, delivered = network.transmit(source, target, SIZE, message_class)
    charges = network.byte_hops[message_class] // (SIZE * hops)
    return (charges if delivered else 0), delay - network.delay(hops, SIZE)


def dropped(p, source, target, **kwargs):
    return verdict(p, source, target, **kwargs)[0] == 0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        FaultConfig(drop_prob=1.5)
    with pytest.raises(ConfigurationError):
        FaultConfig(drop_prob_request=-0.1)
    with pytest.raises(ConfigurationError):
        FaultConfig(delay_jitter=-1.0)
    with pytest.raises(ConfigurationError):
        FaultConfig(mtbf=100.0)  # mttr missing
    with pytest.raises(ConfigurationError):
        FaultConfig(outages=((0, -1.0, 5.0),))
    with pytest.raises(ConfigurationError):
        FaultConfig(outages=((0, 1.0, 0.0),))


def test_partition_schedule_validation():
    with pytest.raises(ConfigurationError):
        FaultConfig(partitions=(((), 10.0, 5.0),))  # empty group
    with pytest.raises(ConfigurationError):
        FaultConfig(partitions=(((0, 1), -1.0, 5.0),))
    with pytest.raises(ConfigurationError):
        FaultConfig(partitions=(((0, 1), 10.0, 0.0),))


def test_partition_schedule_normalised_and_hashable():
    config = FaultConfig(partitions=(([3, 1, 2], 10.0, 5),))
    assert config.partitions == (((1, 2, 3), 10.0, 5.0),)
    hash(config.partitions)  # spec_hash serialisation needs plain tuples


def test_drop_for_class_overrides():
    config = FaultConfig(drop_prob=0.1, drop_prob_relocation=0.5)
    assert config.drop_for(MessageClass.CONTROL) == 0.1
    assert config.drop_for(MessageClass.REQUEST) == 0.1
    assert config.drop_for(MessageClass.RELOCATION) == 0.5


def test_verdict_deterministic_per_seed():
    def history(seed):
        p = plane(FaultConfig(enabled=True, drop_prob=0.3), seed=seed)
        return [dropped(p, 0, 1) for _ in range(200)]

    assert history(11) == history(11)
    assert history(11) != history(12)


def test_verdict_counts_drops_per_class():
    p = plane(FaultConfig(enabled=True, drop_prob=1.0))
    assert verdict(p, 0, 1) == (0, 0.0)
    assert verdict(p, 0, 1, MessageClass.REQUEST) == (0, 0.0)
    assert p.dropped[MessageClass.CONTROL] == 1
    assert p.dropped[MessageClass.REQUEST] == 1
    assert p.total_dropped() == 2
    assert p.summary()["messages_dropped"] == 2.0


def test_duplication_charges_two_copies():
    p = plane(FaultConfig(enabled=True, duplicate_prob=1.0))
    assert verdict(p, 0, 1) == (2, 0.0)
    assert p.duplicated == 1


def test_jitter_bounded_by_fraction_of_delay():
    p = plane(FaultConfig(enabled=True, delay_jitter=0.5))
    base = Network(Simulator(), ROUTES).delay(1, SIZE)
    for _ in range(100):
        copies, extra_delay = verdict(p, 0, 1)
        assert copies == 1
        assert 0.0 <= extra_delay <= 0.5 * base * (1 + 1e-12)


def test_link_outage_drops_crossing_messages():
    p = plane()
    p.fail_link(1, 2)
    assert dropped(p, 0, 3)
    assert p.link_drops == 1
    # A route avoiding the failed link is unaffected.
    assert not dropped(p, 0, 1)
    p.restore_link(1, 2)
    assert not dropped(p, 0, 3)


def test_link_outage_reference_counted():
    p = plane()
    p.fail_link(1, 2)
    p.fail_link(2, 1)  # overlapping second outage, either orientation
    p.restore_link(1, 2)
    assert p.has_topology_faults
    p.restore_link(1, 2)
    assert not p.has_topology_faults
    with pytest.raises(ConfigurationError):
        p.restore_link(1, 2)


def test_partition_drops_boundary_crossings_only():
    p = plane()
    group = p.start_partition([0, 1])
    assert dropped(p, 0, 2)
    assert not dropped(p, 0, 1)
    assert not dropped(p, 2, 3)
    p.heal_partition(group)
    assert not dropped(p, 0, 2)
    with pytest.raises(ConfigurationError):
        p.heal_partition(group)


def test_scheduled_link_outage_and_partition():
    sim = Simulator()
    p = plane()
    p.schedule_link_outage(sim, 0, 1, at=10.0, duration=5.0)
    p.schedule_partition(sim, [3], at=10.0, duration=5.0)
    sim.run(until=12.0)
    assert dropped(p, 0, 1)
    assert dropped(p, 2, 3)
    sim.run(until=16.0)
    assert not dropped(p, 0, 1)
    assert not dropped(p, 2, 3)


# ----------------------------------------------------------------------
# Network.transmit against the old transit() (tests/network/transit_oracle.py)
# ----------------------------------------------------------------------

_PROB = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))
_NODE = st.integers(min_value=0, max_value=5)
#: Ids outside ``0..5``: negative ones would wrap if unchecked.
_BAD_NODE = st.sampled_from([-7, -6, -1, 6, 99])

_CONFIGS = st.builds(
    FaultConfig,
    enabled=st.just(True),
    drop_prob=_PROB,
    drop_prob_request=st.one_of(st.none(), _PROB),
    drop_prob_response=st.one_of(st.none(), _PROB),
    drop_prob_control=st.one_of(st.none(), _PROB),
    drop_prob_relocation=st.one_of(st.none(), _PROB),
    drop_prob_update=st.one_of(st.none(), _PROB),
    duplicate_prob=_PROB,
    delay_jitter=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
)

_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("message"),
            _NODE,
            _NODE,
            st.sampled_from(list(MessageClass)),
            # Size 0 over a zero hop delay is a zero base delay: no jitter draw.
            st.sampled_from([0, 1, SIZE, 12 * 1024]),
        ),
        st.tuples(st.just("zero-hop"), _NODE, st.sampled_from(list(MessageClass))),
        st.tuples(
            st.just("bad-node"),
            st.one_of(st.tuples(_BAD_NODE, _NODE), st.tuples(_NODE, _BAD_NODE)),
        ),
        st.tuples(st.just("fail-link"), st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("restore-links")),
        st.tuples(st.just("partition"), st.sets(_NODE, min_size=1, max_size=5)),
        st.tuples(st.just("heal")),
        st.tuples(st.just("tick")),
    ),
    max_size=80,
)


class _Recorder:
    """A tracer and an observer in one: every charge it is offered."""

    def __init__(self):
        self.traced = []
        self.observed = []

    def record_message(self, *args):
        self.traced.append(args)

    def __call__(self, now, *args):
        self.observed.append(args)


@settings(max_examples=300, deadline=None)
@given(
    config=_CONFIGS,
    steps=_STEPS,
    seed=st.integers(min_value=0, max_value=2**32),
    hop_delay=st.sampled_from([0.0, 0.01]),
)
def test_verdict_agrees_with_the_old_transit(config, steps, seed, hop_delay):
    """Message for message, ``Network.transmit`` with a plane attached
    agrees with the old plane's ``transit``: same delivery, delay plus
    the same extra delay, bytes charged ``max(copies, 1)`` times to the
    byte-hop totals and the metered cells; same counters, and the RNG left
    in the same state (same draws in the same order).  Zero-hop sends
    draw nothing; an out-of-range id raises and draws nothing.  A second
    network with a tracer, an observer and link tracking on (the
    instrumented branch) is held to the same answers, and offers every
    charge to each of them and to every link on the route."""
    sim = Simulator()
    old = TransitOracle(config, random.Random(seed))
    plain = Network(sim, ROUTES, hop_delay=hop_delay, track_links=False)
    instrumented = Network(sim, ROUTES, hop_delay=hop_delay, track_links=True)
    recorder = _Recorder()
    instrumented.tracer = recorder
    instrumented.add_observer(recorder)
    networks = (plain, instrumented)
    planes = []
    for network in networks:
        network.faults = FaultPlane(config, random.Random(seed))
        network.meter_traffic(1.0)
        planes.append(network.faults)
    for step in steps:
        if step[0] in ("message", "zero-hop"):
            if step[0] == "message":
                _, source, target, message_class, size = step
            else:
                _, source, message_class = step
                target, size = source, SIZE
            hops = ROUTES.distance(source, target)
            base = plain.delay(hops, size)
            if hops:
                expected = old.transit(
                    source, target, message_class, base,
                    lambda: ROUTES.route(source, target),
                )  # fmt: skip
                delivered = not expected.dropped
                copies, extra_delay = expected.copies, expected.extra_delay
            else:
                delivered, copies, extra_delay = True, 1, 0.0
            amount = size * hops * copies
            bucket = int(sim.now)
            seen = (len(recorder.traced), len(recorder.observed))
            for network in networks:
                byte_hops = network.byte_hops[message_class]
                cell = list(network.traffic.get(bucket, {}).get(message_class, [0, 0]))
                answer = network.transmit(source, target, size, message_class)
                assert answer == (hops, base + extra_delay, delivered)
                assert network.byte_hops[message_class] == byte_hops + amount
                if hops:
                    cell = [cell[0] + amount, cell[1] + copies]
                    assert network.traffic[bucket][message_class] == cell
            charge = (source, target, hops, size, message_class)
            assert recorder.traced[seen[0]:] == [charge] * copies
            assert recorder.observed[seen[1]:] == [charge] * copies
        elif step[0] == "bad-node":
            source, target = step[1]
            for network in networks:
                with pytest.raises(RoutingError, match=r"distance\("):
                    network.transmit(source, target, SIZE, MessageClass.REQUEST)
        elif step[0] == "fail-link":
            a = step[1]
            if (a, a + 1) not in old.down_links:
                for p in planes:
                    p.fail_link(a, a + 1)
                old.down_links.add((a, a + 1))
        elif step[0] == "restore-links":
            for a, b in old.down_links:
                for p in planes:
                    p.restore_link(a, b)
            old.down_links.clear()
        elif step[0] == "partition":
            group = frozenset(step[1])
            for p in planes:
                p.start_partition(group)
            old.partitions.append(group)
        elif step[0] == "tick":
            sim.run(until=sim.now + 1.0)
        elif old.partitions:
            group = old.partitions.pop()
            for p in planes:
                p.heal_partition(group)
    for p in planes:
        assert p._rng.getstate() == old._rng.getstate()
        assert p.dropped == old.dropped
        assert (p.link_drops, p.duplicated) == (old.link_drops, old.duplicated)
    assert plain.traffic == instrumented.traffic
    assert plain.byte_hops == instrumented.byte_hops
    linked = sum(link.total_bytes for link in instrumented.links())
    assert linked == sum(instrumented.byte_hops.values())
