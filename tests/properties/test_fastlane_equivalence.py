"""Property tests pinning the request fast lane to the general path.

The fast lane (:mod:`repro.core.fastlane`) must be a pure acceleration:
on any eligible scenario it has to produce *byte-identical* results to
the general request stages, and on any run carrying something it does
not model (faults, tracing) it must stand down entirely and let the
general code run.  Hypothesis drives scenario knobs (seed, workload,
scale, object count) and replica configurations; each example runs the
same scenario twice — once as is, once with a do-nothing served observer
attached, which is a blocker and so stands the lane down — and demands
exact equality of the scalar metrics and of the underlying cost/latency
accounting.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.redirector import RedirectorService
from repro.routing.routes_db import RoutingDatabase
from repro.scenarios.presets import paper_scenario
from repro.scenarios.runner import run_scenario, scenario_metrics
from repro.topology.generators import ring_topology
from tests.conftest import replica_infos
from tests.core.figure2_oracle import choose_replica_reference


def _ignore_served(obj, gateway, server, issued_at, response_hops):
    """A served observer that observes nothing (but blocks the lane)."""


def _run_pair(config):
    fast = run_scenario(config)
    slow = run_scenario(config, served_observers=(_ignore_served,))
    return fast, slow


def _assert_identical(fast, slow):
    """Exact equality of everything the two runs measured."""
    assert scenario_metrics(fast) == scenario_metrics(slow)
    assert fast.system.network.byte_hops == slow.system.network.byte_hops
    for name in ("completed", "dropped", "failed", "lost", "max_latency"):
        assert getattr(fast.latency, name) == getattr(slow.latency, name)
    assert fast.latency.total_latency == slow.latency.total_latency
    assert fast.latency.total_response_hops == slow.latency.total_response_hops
    assert fast.system.completions == slow.system.completions
    assert fast.system.drop_counts == slow.system.drop_counts
    assert set(fast.system.hosts) == set(slow.system.hosts)
    for node, f_host in fast.system.hosts.items():
        s_host = slow.system.hosts[node]
        assert f_host.serviced_total == s_host.serviced_total
        assert f_host.dropped_total == s_host.dropped_total
    for f_svc, s_svc in zip(
        fast.system.redirectors.services, slow.system.redirectors.services
    ):
        assert f_svc.chose_closest == s_svc.chose_closest
        assert f_svc.chose_least_requested == s_svc.chose_least_requested


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=10_000),
    workload=st.sampled_from(("zipf", "hot-pages", "regional")),
    scale=st.sampled_from((0.02, 0.04)),
)
def test_fast_lane_matches_reference_path(seed, workload, scale):
    """Fault-free runs: identical metrics with the lane on and off."""
    config = paper_scenario(workload, scale=scale, duration=120.0, seed=seed)
    fast, slow = _run_pair(config)
    assert fast.system.fast_lane is not None
    assert fast.system.fast_lane.requests_fast > 0
    assert slow.system.fast_lane is None
    assert slow.engine_mode() == "stood down: served-request observers attached"
    _assert_identical(fast, slow)


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=10_000),
    blocker=st.sampled_from(("faults", "traced")),
)
def test_lane_stands_down_when_ineligible(seed, blocker):
    """Faulted or traced runs never install the lane (the blocker list
    is non-empty), and one more blocker changes nothing at all."""
    config = paper_scenario("zipf", scale=0.02, duration=120.0, seed=seed)
    if blocker == "faults":
        config = config.replace(
            faults=config.faults.replace(enabled=True, drop_prob=0.01)
        )
    else:
        config = config.replace(traced=True)
    fast, slow = _run_pair(config)
    assert fast.system.fast_lane is None
    assert slow.system.fast_lane is None
    assert fast.lane_blockers and set(fast.lane_blockers) < set(slow.lane_blockers)
    _assert_identical(fast, slow)


# -- choose_replica oracle ------------------------------------------------

N_NODES = 12


def _make_service(replicas):
    routes = RoutingDatabase(ring_topology(N_NODES))
    service = RedirectorService(0, routes)
    (first_host, first_affinity), *rest = replicas
    service.register_initial(0, first_host)
    for _ in range(first_affinity - 1):
        service.replica_created(0, first_host, service.affinity(0, first_host) + 1)
    for host, affinity in rest:
        service.replica_created(0, host, 1)
        for _ in range(affinity - 1):
            service.replica_created(0, host, service.affinity(0, host) + 1)
    return service


replica_sets = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_NODES - 1),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda pair: pair[0],
)
gateway_streams = st.lists(
    st.integers(min_value=0, max_value=N_NODES - 1), min_size=1, max_size=200
)


@settings(max_examples=60, deadline=None)
@given(replica_sets, gateway_streams)
def test_choose_replica_matches_reference_oracle(replicas, gateways):
    """The optimised ``choose_replica`` makes the exact decision sequence
    of the verbatim Figure 2 implementation, with identical counter and
    reset state afterwards."""
    optimised = _make_service(replicas)
    oracle = _make_service(replicas)
    for gateway in gateways:
        assert optimised.choose_replica(gateway, 0) == (
            choose_replica_reference(oracle, gateway, 0)
        )
    assert optimised.chose_closest == oracle.chose_closest
    assert optimised.chose_least_requested == oracle.chose_least_requested
    fast_state = {
        host: (info.request_count, info.affinity)
        for host, info in replica_infos(optimised, 0).items()
    }
    oracle_state = {
        host: (info.request_count, info.affinity)
        for host, info in replica_infos(oracle, 0).items()
    }
    assert fast_state == oracle_state
