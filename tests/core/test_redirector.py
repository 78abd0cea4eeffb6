"""Tests for the Figure 2 request-distribution algorithm and registry.

Includes the paper's worked examples from Section 3: the America/Europe
two-host scenarios, the 2N/(n+1) law, and the 90/10 affinity steering.
"""

import pytest

from repro.core.redirector import RedirectorGroup, RedirectorService
from repro.errors import ProtocolError
from repro.routing.routes_db import RoutingDatabase
from repro.topology.generators import line_topology, two_cluster_topology
from tests.conftest import replica_infos

AMERICA_GW = 0  # a gateway in cluster A
EUROPE_GW = 8  # a gateway in cluster B
AMERICA_HOST = 1
EUROPE_HOST = 7


@pytest.fixture
def redirector():
    topology = two_cluster_topology(cluster_size=4, bridge_length=3)
    routes = RoutingDatabase(topology)
    service = RedirectorService(0, routes)
    service.register_initial(0, AMERICA_HOST)
    service.replica_created(0, EUROPE_HOST, 1)
    return service


def drive(service, pattern, n):
    """Feed gateway ids cyclically; return choice counts per host."""
    counts: dict[int, int] = {}
    for i in range(n):
        gateway = pattern[i % len(pattern)]
        host = service.choose_replica(gateway, 0)
        counts[host] = counts.get(host, 0) + 1
    return counts


def test_balanced_demand_goes_to_closest(redirector):
    """Paper: with half the requests from each region, every request is
    directed to its closest replica (both replicas at affinity 1)."""
    counts = drive(redirector, [AMERICA_GW, EUROPE_GW], 1000)
    assert counts[AMERICA_HOST] >= 490
    assert counts[EUROPE_HOST] >= 490


def test_local_hotspot_spills_one_third(redirector):
    """Paper: if all requests come from America, the American site keeps
    only 2/3 of them; its load drops by one-third."""
    counts = drive(redirector, [AMERICA_GW], 3000)
    assert counts[AMERICA_HOST] / 3000 == pytest.approx(2 / 3, abs=0.02)
    assert counts[EUROPE_HOST] / 3000 == pytest.approx(1 / 3, abs=0.02)


def test_2n_over_nplus1_law():
    """Paper: with n replicas all closest to the same requests, the
    closest replica services only 2N/(n+1) of N requests."""
    topology = line_topology(10)
    routes = RoutingDatabase(topology)
    service = RedirectorService(0, routes)
    service.register_initial(0, 0)
    for n in (2, 4, 6):
        for host in range(1, n):
            if host not in service.replica_hosts(0):
                service.replica_created(0, host, 1)
        total = 5000
        counts = {h: 0 for h in service.replica_hosts(0)}
        for _ in range(total):
            counts[service.choose_replica(0, 0)] += 1
        assert counts[0] / total == pytest.approx(2 / (n + 1), abs=0.03)


def test_affinity_steers_90_10_split(redirector):
    """Paper: with a 90/10 demand split and the American replica's
    affinity raised to 4, roughly 1/9 of requests (including all European
    ones) go to Europe."""
    for _ in range(3):
        # Affinity 1 -> 4 on the American replica.
        redirector.replica_created(
            0, AMERICA_HOST, redirector.affinity(0, AMERICA_HOST) + 1
        )
    pattern = [AMERICA_GW] * 9 + [EUROPE_GW]
    counts = drive(redirector, pattern, 5000)
    europe_share = counts[EUROPE_HOST] / 5000
    assert europe_share == pytest.approx(1 / 9, abs=0.03)


def test_counts_reset_on_replica_set_change(redirector):
    drive(redirector, [AMERICA_GW], 100)
    redirector.replica_created(0, 2, 1)
    for info in redirector._replicas[0].values():
        assert info.request_count == 1


def test_new_replica_not_flooded_after_reset(redirector):
    """Resetting to 1 (not 0) avoids the catch-up flood: after a reset the
    closest replica resumes winning immediately rather than the newcomer
    absorbing every request until counts equalise."""
    drive(redirector, [AMERICA_GW], 500)
    redirector.replica_created(0, 2, 1)  # host 2 is also in cluster A
    counts = drive(redirector, [EUROPE_GW], 90)
    # The European replica keeps the plurality (2x each other replica)
    # instead of the fresh replica absorbing everything while catching up.
    assert counts.get(EUROPE_HOST, 0) >= 40
    assert counts[EUROPE_HOST] == max(counts.values())


def test_availability_flip_resets_counts(redirector):
    """A failure masks the host's replicas, changing the *effective*
    replica set: the paper's reset rule must fire."""
    drive(redirector, [AMERICA_GW, EUROPE_GW], 200)
    redirector.set_host_available(EUROPE_HOST, False)
    for info in redirector._replicas[0].values():
        assert info.request_count == 1


def test_recovery_resets_counts(redirector):
    redirector.set_host_available(EUROPE_HOST, False)
    drive(redirector, [AMERICA_GW, EUROPE_GW], 300)
    assert redirector._replicas[0][AMERICA_HOST].request_count > 1
    redirector.set_host_available(EUROPE_HOST, True)
    for info in redirector._replicas[0].values():
        assert info.request_count == 1


def test_availability_flip_only_resets_objects_on_host(redirector):
    """Objects with no replica on the flipped host keep their counts."""
    redirector.register_initial(5, AMERICA_HOST)
    redirector.replica_created(5, 2, 1)  # a sole replica keeps no count
    drive(redirector, [AMERICA_GW], 50)
    for _ in range(50):
        redirector.choose_replica(AMERICA_GW, 5)
    before = replica_infos(redirector, 5)[AMERICA_HOST].request_count
    assert before > 1
    redirector.set_host_available(EUROPE_HOST, False)
    assert replica_infos(redirector, 5)[AMERICA_HOST].request_count == before
    for info in redirector._replicas[0].values():
        assert info.request_count == 1


def test_set_host_available_is_idempotent(redirector):
    """Repeating the current availability must not reset anything."""
    drive(redirector, [AMERICA_GW], 100)
    counts = {
        host: info.request_count
        for host, info in redirector._replicas[0].items()
    }
    redirector.set_host_available(AMERICA_HOST, True)  # already up
    assert {
        host: info.request_count
        for host, info in redirector._replicas[0].items()
    } == counts
    redirector.set_host_available(EUROPE_HOST, False)
    drive(redirector, [AMERICA_GW], 100)
    counts = {
        host: info.request_count
        for host, info in redirector._replicas[0].items()
    }
    redirector.set_host_available(EUROPE_HOST, False)  # already down
    assert {
        host: info.request_count
        for host, info in redirector._replicas[0].items()
    } == counts


def test_replica_created_unchanged_affinity_skips_reset(redirector):
    """A re-report with the same affinity leaves the replica set (and
    hence the request counts) untouched."""
    redirector.replica_created(0, AMERICA_HOST, 2)
    drive(redirector, [AMERICA_GW], 100)
    counts = {
        host: info.request_count
        for host, info in redirector._replicas[0].items()
    }
    events = []
    redirector.add_observer(lambda *args: events.append(args))
    redirector.replica_created(0, AMERICA_HOST, 2)  # affinity unchanged
    assert {
        host: info.request_count
        for host, info in redirector._replicas[0].items()
    } == counts
    # Observers are still informed of the (no-op) report.
    assert events == [(0, AMERICA_HOST, 2, False, False)]


def test_choose_replica_across_fail_recover_cycle(redirector):
    """A recovering host must not be flooded: during the outage the
    survivor's request count grows, and without the reset-on-recovery the
    Figure 2 comparison would dump nearly every post-recovery request on
    the stale-count host until it 'caught up'."""
    drive(redirector, [AMERICA_GW, EUROPE_GW], 200)
    redirector.set_host_available(EUROPE_HOST, False)
    counts = drive(redirector, [AMERICA_GW, EUROPE_GW], 1000)
    assert counts == {AMERICA_HOST: 1000}
    redirector.set_host_available(EUROPE_HOST, True)
    # Post-recovery the system is back at the paper's worked example:
    # all-American demand splits 2/3 closest, 1/3 spill — not an
    # every-request flood of the recovered European replica.
    counts = drive(redirector, [AMERICA_GW], 3000)
    assert counts[AMERICA_HOST] / 3000 == pytest.approx(2 / 3, abs=0.02)
    assert counts[EUROPE_HOST] / 3000 == pytest.approx(1 / 3, abs=0.02)


def test_sole_replica_always_chosen(redirector):
    service = redirector
    service.register_initial(5, 3)
    for _ in range(10):
        assert service.choose_replica(EUROPE_GW, 5) == 3


def test_request_drop_refuses_last_replica(redirector):
    assert redirector.request_drop(0, EUROPE_HOST) is True
    assert redirector.request_drop(0, AMERICA_HOST) is False
    assert redirector.replica_hosts(0) == [AMERICA_HOST]


def test_drop_unknown_host_raises(redirector):
    with pytest.raises(ProtocolError):
        redirector.request_drop(0, 3)


def test_affinity_reduced_updates_and_resets(redirector):
    redirector.replica_created(0, AMERICA_HOST, 2)
    drive(redirector, [AMERICA_GW], 50)
    redirector.affinity_reduced(0, AMERICA_HOST, 1)
    assert redirector.affinity(0, AMERICA_HOST) == 1
    for info in redirector._replicas[0].values():
        assert info.request_count == 1


def test_affinity_reduced_to_zero_rejected(redirector):
    with pytest.raises(ProtocolError):
        redirector.affinity_reduced(0, AMERICA_HOST, 0)


def test_new_replica_must_have_affinity_one(redirector):
    with pytest.raises(ProtocolError):
        redirector.replica_created(0, 3, 2)


def test_register_initial_twice_rejected(redirector):
    with pytest.raises(ProtocolError):
        redirector.register_initial(0, 2)


def test_unknown_object_raises(redirector):
    with pytest.raises(ProtocolError):
        redirector.choose_replica(0, 99)


def test_observers_notified(redirector):
    events = []
    redirector.add_observer(lambda *args: events.append(args))
    redirector.replica_created(0, 2, 1)
    redirector.request_drop(0, 2)
    assert events[0] == (0, 2, 1, True, False)
    assert events[1] == (0, 2, 0, False, True)


def test_total_replicas(redirector):
    assert redirector.total_replicas() == 2
    redirector.replica_created(0, 2, 1)
    assert redirector.total_replicas() == 3


def test_group_hash_partitioning():
    topology = line_topology(4)
    routes = RoutingDatabase(topology)
    services = [RedirectorService(n, routes) for n in (0, 1, 2)]
    group = RedirectorGroup(services)
    assert group.for_object(0) is services[0]
    assert group.for_object(4) is services[1]
    # Stable: the same object always maps to the same redirector.
    assert group.for_object(7) is group.for_object(7)


def test_group_requires_services():
    with pytest.raises(ProtocolError):
        RedirectorGroup([])


def test_distribution_constant_must_exceed_one():
    routes = RoutingDatabase(line_topology(2))
    with pytest.raises(ProtocolError):
        RedirectorService(0, routes, distribution_constant=1.0)


# ----------------------------------------------------------------------
# Robustness extension: drop arbitration over live hosts, retry exclude
# ----------------------------------------------------------------------


def test_drop_arbitration_counts_only_available_survivors(redirector):
    redirector.set_host_available(EUROPE_HOST, False)
    # The only survivor besides AMERICA_HOST is masked down: the drop
    # must be refused even though another registration exists.
    assert not redirector.request_drop(0, AMERICA_HOST)
    redirector.set_host_available(EUROPE_HOST, True)
    assert redirector.request_drop(0, AMERICA_HOST)


def test_drop_arbitration_probes_survivor_liveness(redirector):
    alive = {AMERICA_HOST: True, EUROPE_HOST: True}
    probed = []

    def probe(host):
        probed.append(host)
        return alive[host]

    redirector.liveness_probe = probe
    # The survivor answers: drop approved.
    assert redirector.request_drop(0, AMERICA_HOST)
    assert probed == [EUROPE_HOST]
    # Re-register, then crash the survivor without updating the mask (a
    # stale view): the probe catches it and the drop is refused.
    redirector.replica_created(0, AMERICA_HOST, 1)
    alive[EUROPE_HOST] = False
    assert not redirector.request_drop(0, AMERICA_HOST)


def test_drop_arbitration_probe_short_circuits(redirector):
    redirector.replica_created(0, 2, 1)
    probed = []

    def probe(host):
        probed.append(host)
        return True

    redirector.liveness_probe = probe
    assert redirector.request_drop(0, AMERICA_HOST)
    # any() stops at the first live survivor: one probe round trip.
    assert len(probed) == 1


def test_choose_replica_excludes_retried_host(redirector):
    # A retry against a stale view must not re-select the dead host.
    chosen = redirector.choose_replica(AMERICA_GW, 0, exclude=AMERICA_HOST)
    assert chosen == EUROPE_HOST
    # Excluding every replica leaves nothing to choose.
    redirector.set_host_available(EUROPE_HOST, False)
    assert redirector.choose_replica(AMERICA_GW, 0, exclude=AMERICA_HOST) is None


def test_sole_replica_excluded_returns_none(redirector):
    service = RedirectorService(0, RoutingDatabase(line_topology(3)))
    service.register_initial(5, 1)
    # The sole-replica fast path must not fire when that replica is the
    # excluded (just-failed) host.
    assert service.choose_replica(0, 5, exclude=1) is None
    assert service.choose_replica(0, 5) == 1
