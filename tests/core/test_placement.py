"""Unit tests for DecidePlacement and ReduceAffinity (Figure 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.core.placement import AffinityOutcome, PlacementEngine
from repro.core.runtime import AffinityReduced, CreateObj, RequestDrop
from repro.obs.records import PlacementRecord
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from repro.types import PlacementAction
from tests.conftest import make_system
from tests.core.oracle_placement import PerObjectEngine

CONFIG = ProtocolConfig(
    high_watermark=20.0,
    low_watermark=10.0,
    deletion_threshold=0.03,
    replication_threshold=0.18,
    placement_interval=100.0,
)


@pytest.fixture
def system():
    sim = Simulator()
    system = make_system(
        sim, line_topology(5), num_objects=6, config=CONFIG
    )
    for obj in range(6):
        system.place_initial(obj, 0)
    return system


def feed(system, obj, path_counts, *, host=0):
    """Install access counts: path_counts maps gateway -> request count."""
    server = system.hosts[host]
    for gateway, count in path_counts.items():
        for _ in range(count):
            server.record_service(obj, gateway)


def advance_to(system, t):
    system.sim.schedule_at(t, lambda: None)
    system.sim.run(until=t)


def run_placement(system, *, host=0, at=100.0):
    advance_to(system, at)
    return system.drive(system.engine.run_host(host, at))


def test_cold_object_drops_one_affinity_unit(system):
    # Two affinity units so the drop needs no redirector arbitration.
    system.hosts[0].store.add(3)
    system.redirectors.for_object(3).replica_created(3, 0, 2)
    feed(system, 3, {0: 1})  # 0.01 req/s < u
    run_placement(system)
    assert system.hosts[0].store.affinity(3) == 1


def test_sole_cold_replica_survives(system):
    """The redirector refuses to drop the last replica of an object."""
    feed(system, 3, {0: 1})
    run_placement(system)
    assert 3 in system.hosts[0].store
    system.check_invariants()


def test_migration_to_dominant_path_node(system):
    # 70% of object 1's requests pass through node 4 (> MIGR_RATIO 0.6).
    feed(system, 1, {4: 70, 0: 30})
    run_placement(system)
    assert 1 not in system.hosts[0].store
    assert 1 in system.hosts[4].store
    event = next(e for e in system.placement_events if e.obj == 1)
    assert event.action is PlacementAction.MIGRATE
    system.check_invariants()


def test_migration_prefers_farthest_qualified_candidate(system):
    # Nodes 1..4 all lie on the path to gateway 4; all exceed MIGR_RATIO.
    feed(system, 1, {4: 100})
    run_placement(system)
    assert 1 in system.hosts[4].store  # farthest, not the adjacent node 1


def test_no_migration_below_ratio(system):
    # 50% < MIGR_RATIO: object must stay (rate too low for replication).
    feed(system, 1, {4: 6, 0: 6})  # unit rate 0.12 < m
    run_placement(system)
    assert 1 in system.hosts[0].store
    assert all(e.obj != 1 for e in system.placement_events)


def test_replication_above_threshold(system):
    # Unit rate 100/100s = 1 > m; gateway 4 on 30% of paths (> 1/6) but
    # below MIGR_RATIO, so the object replicates instead of migrating.
    feed(system, 1, {4: 30, 0: 70})
    run_placement(system)
    assert 1 in system.hosts[0].store
    assert 1 in system.hosts[4].store
    event = next(e for e in system.placement_events if e.obj == 1)
    assert event.action is PlacementAction.REPLICATE


def test_no_replication_when_rate_below_m(system):
    # 10 requests in 100s = 0.1 < m = 0.18, candidate share 40% > 1/6.
    feed(system, 1, {4: 4, 0: 6})
    run_placement(system)
    assert all(e.obj != 1 for e in system.placement_events)


def test_migrated_object_not_also_replicated(system):
    feed(system, 1, {4: 100})
    run_placement(system)
    moves = [e for e in system.placement_events if e.obj == 1]
    assert len(moves) == 1
    assert moves[0].action is PlacementAction.MIGRATE


def test_access_counts_reset_after_round(system):
    feed(system, 1, {4: 100})
    run_placement(system)
    assert system.hosts[0].access_counts == {}
    assert system.hosts[0].pending_access == {}
    assert system.hosts[0].last_placement_time == 100.0


def test_a_round_over_only_cold_objects_walks_no_path(system):
    """The drop/keep decision reads ``cnt(s, x)`` without expanding a
    path; an object that reaches a geo move has its paths walked, each
    gateway's once for the life of the host."""
    server = system.hosts[0]
    walked = []
    row = server.paths

    class Walked(dict):
        def __missing__(self, gateway):
            walked.append(gateway)
            path = self[gateway] = row[gateway]
            return path

    server.paths = Walked()
    feed(system, 2, {4: 1, 3: 1})  # 0.02 req/s < u
    run_placement(system)
    assert walked == []
    feed(system, 1, {4: 60, 3: 40})
    run_placement(system, at=200.0)
    feed(system, 3, {4: 50, 3: 50})
    run_placement(system, at=300.0)
    assert walked == [4, 3]


def test_every_host_reads_its_paths_from_the_routing_index_row(system):
    """One path cache: a host keeps no copy of the index's paths."""
    for node, server in system.hosts.items():
        assert server.paths is system.routes.preference_paths(node)
        assert server.paths is system.routes._index.rows[node]


def test_expanded_paths_are_the_routes_the_index_returns(system):
    feed(system, 1, {4: 60, 3: 40})
    run_placement(system)
    expanded = system.hosts[0].paths
    assert {3, 4} <= expanded.keys()
    for gateway, path in expanded.items():
        assert path is system.routes.route(0, gateway)


def test_candidate_refusal_falls_through_to_closer_candidate(system):
    # All of nodes 1..4 qualify; 4 and 3 are overloaded, so 2 gets it.
    feed(system, 1, {4: 100})
    system.hosts[4].estimator.on_measurement(15.0, 0.0)
    system.hosts[3].estimator.on_measurement(15.0, 0.0)
    run_placement(system)
    assert 1 in system.hosts[2].store


def test_reduce_affinity_outcomes(system):
    engine = system.engine
    system.hosts[0].store.add(2)
    system.redirectors.for_object(2).replica_created(2, 0, 2)
    assert system.drive(engine.reduce_affinity(0, 2)) is AffinityOutcome.REDUCED
    assert system.drive(engine.reduce_affinity(0, 2)) is AffinityOutcome.REFUSED
    # With a second replica elsewhere, the drop is approved.
    system.hosts[3].store.add(2)
    system.redirectors.for_object(2).replica_created(2, 3, 1)
    assert system.drive(engine.reduce_affinity(0, 2)) is AffinityOutcome.DROPPED
    assert 2 not in system.hosts[0].store
    system.check_invariants()


def test_zero_elapsed_round_is_noop(system):
    assert system.drive(system.engine.run_host(0, 0.0)) is False


def test_own_node_never_a_candidate(system):
    """cnt(s, x)/cnt(s, x) = 1 > MIGR_RATIO: the host itself must be
    excluded from candidate lists or every object would 'migrate' to
    where it already is."""
    feed(system, 1, {0: 100})  # all requests local to host 0
    run_placement(system)
    assert 1 in system.hosts[0].store
    assert all(e.obj != 1 for e in system.placement_events)


# ----------------------------------------------------------------------
# Runs: consecutive last-unit drops share one RequestDrop
# ----------------------------------------------------------------------


def recorded(step, messages):
    """Drive-transparent wrapper logging every message ``step`` yields."""
    answer = None
    try:
        while True:
            message = step.send(answer)
            messages.append(message)
            answer = yield message
    except StopIteration as done:
        return done.value


class ListTracer:
    def __init__(self):
        self.records = []

    def record(self, record):
        self.records.append(record)

    def record_message(self, *args):
        pass


def second_copy(system, obj, host=3):
    """Give ``obj`` a replica on ``host`` so its drop elsewhere is approved."""
    system.hosts[host].store.add(obj)
    system.redirectors.for_object(obj).replica_created(obj, host, 1)


def test_a_run_of_cold_objects_is_one_request():
    """Store ``[cold, cold, hot, cold]`` at affinity 1: the two leading
    cold objects are asked about together, the hot one's offer ends the
    run, and the trailing cold object is asked about before the round
    ends.  The refused object stays; the approved ones go, with events
    and trace records in store order."""
    sim = Simulator()
    system = make_system(sim, line_topology(5), num_objects=4, config=CONFIG)
    for obj in range(4):
        system.place_initial(obj, 0)
    second_copy(system, 0)  # approved
    second_copy(system, 3)  # approved; object 1 is a sole copy: refused
    feed(system, 2, {4: 30, 0: 70})  # replicates to node 4
    system.tracer = tracer = ListTracer()
    advance_to(system, 100.0)
    messages = []
    assert system.drive(recorded(system.engine.run_host(0, 100.0), messages))
    assert messages[0] == RequestDrop(0, (0, 1))
    assert messages[-1] == RequestDrop(0, (3,))
    offers = messages[1:-1]
    assert offers and all(type(m) is CreateObj and m.obj == 2 for m in offers)
    assert system.hosts[0].store.objects() == [1, 2]
    assert [(e.action, e.obj) for e in system.placement_events] == [
        (PlacementAction.DROP, 0),
        (PlacementAction.REPLICATE, 2),
        (PlacementAction.DROP, 3),
    ]
    drops = [r for r in tracer.records if type(r) is PlacementRecord and r.action == "drop"]
    assert [(r.obj, r.outcome) for r in drops] == [
        (0, "dropped"), (1, "refused"), (3, "dropped"),
    ]
    system.check_invariants()


def test_a_cold_object_with_spare_affinity_ends_the_run():
    sim = Simulator()
    system = make_system(sim, line_topology(5), num_objects=3, config=CONFIG)
    for obj in range(3):
        system.place_initial(obj, 0)
    system.hosts[0].store.add(1)
    system.redirectors.for_object(1).replica_created(1, 0, 2)
    advance_to(system, 100.0)
    messages = []
    system.drive(recorded(system.engine.run_host(0, 100.0), messages))
    assert messages == [
        RequestDrop(0, (0,)), AffinityReduced(0, 1, 1), RequestDrop(0, (2,)),
    ]


@st.composite
def rounds(draw):
    """A host-0 store with affinities and gateway counts, plus the
    redirector's scripted answers."""
    size = draw(st.integers(1, 7))
    affinities = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    counts = draw(
        st.lists(
            st.dictionaries(st.sampled_from([0, 2, 4]), st.integers(0, 60), max_size=3),
            min_size=size,
            max_size=size,
        )
    )
    script = draw(st.lists(st.booleans(), min_size=1, max_size=8))
    return affinities, counts, script


def scripted_round(engine_type, affinities, counts, script):
    """Run one host-0 round under ``engine_type``; the redirector's drop
    answers come from ``script``.  Returns what the round did."""
    sim = Simulator()
    system = make_system(
        sim, line_topology(5), num_objects=len(affinities), config=CONFIG
    )
    system.engine = engine_type(system)
    for obj, affinity in enumerate(affinities):
        system.place_initial(obj, 0)
        if affinity > 1:
            system.hosts[0].store.add(obj)
            system.redirectors.for_object(obj).replica_created(obj, 0, affinity)
        feed(system, obj, counts[obj])
    calls = []

    def request_drop(node, obj):
        calls.append((node, obj))
        return script[len(calls) % len(script)]

    system._request_drop = request_drop
    advance_to(system, 100.0)
    host = system.hosts[0]
    cold = [
        obj
        for obj in host.store.objects()
        if host.store.affinity(obj) == 1
        and host.total_access_count(obj) / 100.0 < CONFIG.deletion_threshold
    ]
    messages = []
    moved = system.drive(recorded(system.engine.run_host(0, 100.0), messages))
    events = [(e.action, e.obj, e.source, e.target) for e in system.placement_events]
    stores = {node: server.store.objects() for node, server in system.hosts.items()}
    return cold, messages, (moved, calls, events, stores)


@settings(max_examples=60, deadline=None)
@given(rounds())
def test_runs_change_the_framing_not_the_arbitration(case):
    """Over random stores, counts and answers: the runs' ``RequestDrop``
    messages list exactly the cold affinity-1 objects in store order
    (any other ``RequestDrop`` is a move's one-object drop), and the
    simulator makes the same arbitration calls in the same order, with
    the same outcome, as the per-object round it replaced."""
    affinities, counts, script = case
    cold, messages, outcome = scripted_round(PlacementEngine, affinities, counts, script)
    _, oracle_messages, oracle_outcome = scripted_round(
        PerObjectEngine, affinities, counts, script
    )
    assert outcome == oracle_outcome
    drops = [m for m in messages if type(m) is RequestDrop]
    assert [obj for m in drops for obj in m.objs if obj in cold] == cold
    assert all(
        set(m.objs) <= set(cold) or len(m.objs) == 1 for m in drops
    )
    # Only the grouping differs: the oracle sends the same messages
    # once every run is split into one-object requests.
    split = [
        RequestDrop(m.node, (obj,)) if type(m) is RequestDrop else m
        for m in messages
        for obj in (m.objs if type(m) is RequestDrop else (None,))
    ]
    assert split == oracle_messages
