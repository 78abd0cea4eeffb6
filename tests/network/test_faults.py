"""Unit tests for the network fault model (FaultConfig / FaultPlane)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.network.faults import FaultConfig, FaultPlane
from repro.network.message import MessageClass
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from tests.network.transit_oracle import TransitOracle

#: A six-node path 0-1-2-3-4-5: every route is the obvious one.
ROUTES = RoutingDatabase(line_topology(6))


def plane(config=None, seed=7):
    return FaultPlane(config or FaultConfig(enabled=True), random.Random(seed))


def verdict(p, source, target, message_class=MessageClass.CONTROL, delay=0.0):
    """``(copies, extra_delay)`` for one message over ``ROUTES``."""
    return p.verdict(ROUTES, source, target, message_class, delay)


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
        FaultConfig(rpc_max_attempts=0)
    with pytest.raises(ConfigurationError):
        FaultConfig(rpc_backoff=0.5)
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
        return [dropped(p, 0, 1, delay=0.01) for _ in range(200)]

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
    for _ in range(100):
        copies, extra_delay = verdict(p, 0, 1, delay=1.0)
        assert copies == 1
        assert 0.0 <= extra_delay <= 0.5


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
# verdict() against the old transit() (tests/network/transit_oracle.py)
# ----------------------------------------------------------------------

_PROB = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))
_NODE = st.integers(min_value=0, max_value=5)

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
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
        ),
        st.tuples(st.just("fail-link"), st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("restore-links")),
        st.tuples(st.just("partition"), st.sets(_NODE, min_size=1, max_size=5)),
        st.tuples(st.just("heal")),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(config=_CONFIGS, steps=_STEPS, seed=st.integers(min_value=0, max_value=2**32))
def test_verdict_agrees_with_the_old_transit(config, steps, seed):
    """Message for message: same drop/copies/extra-delay, same counters,
    and the RNG left in the same state (same draws in the same order)."""
    new = FaultPlane(config, random.Random(seed))
    old = TransitOracle(config, random.Random(seed))
    for step in steps:
        if step[0] == "message":
            _, source, target, message_class, delay = step
            copies, extra_delay = new.verdict(
                ROUTES, source, target, message_class, delay
            )
            expected = old.transit(
                source, target, message_class, delay,
                lambda: ROUTES.route(source, target),
            )  # fmt: skip
            assert (copies == 0) == expected.dropped
            assert max(copies, 1) == expected.copies
            assert extra_delay == expected.extra_delay
        elif step[0] == "fail-link":
            a = step[1]
            if (a, a + 1) not in old.down_links:
                new.fail_link(a, a + 1)
                old.down_links.add((a, a + 1))
        elif step[0] == "restore-links":
            for a, b in old.down_links:
                new.restore_link(a, b)
            old.down_links.clear()
        elif step[0] == "partition":
            group = new.start_partition(step[1])
            old.partitions.append(group)
        elif old.partitions:
            new.heal_partition(old.partitions.pop())
    assert new._rng.getstate() == old._rng.getstate()
    assert new.dropped == old.dropped
    assert (new.link_drops, new.duplicated) == (old.link_drops, old.duplicated)
