"""End-to-end tracing: a driven system emits every decision kind."""

import pytest

from repro.core.config import ProtocolConfig
from repro.errors import ProtocolError
from repro.obs.tracer import DecisionTracer
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import build_system
from repro.sim.engine import Simulator
from repro.topology.generators import line_topology
from tests.conftest import make_system

CONFIG = ProtocolConfig(
    high_watermark=20.0,
    low_watermark=10.0,
    deletion_threshold=0.03,
    replication_threshold=0.18,
    placement_interval=100.0,
)


@pytest.fixture
def traced_system():
    sim = Simulator()
    system = make_system(sim, line_topology(5), num_objects=6, config=CONFIG)
    tracer = DecisionTracer()
    system.attach_tracer(tracer)
    for obj in range(6):
        system.place_initial(obj, 0)
    return system, tracer


def feed(system, obj, path_counts, *, host=0):
    server = system.hosts[host]
    for gateway, count in path_counts.items():
        for _ in range(count):
            server.record_service(obj, gateway)


def test_attach_wires_every_site(traced_system):
    system, tracer = traced_system
    assert system.tracer is tracer
    assert system.network.tracer is tracer
    assert all(s.tracer is tracer for s in system.redirectors.services)


def test_attach_twice_rejected(traced_system):
    system, _ = traced_system
    with pytest.raises(ProtocolError):
        system.attach_tracer(DecisionTracer())


def test_driven_round_emits_all_decision_kinds(traced_system):
    system, tracer = traced_system
    sim = system.sim

    # ChooseReplica: requests entering at two gateways.
    for _ in range(4):
        system.submit_request(4, 1)
        system.submit_request(0, 2)
    sim.run()

    # DecidePlacement: object 1 migrates (70% of paths via node 4),
    # object 3 is cold (drop attempt), and the offload gate is evaluated.
    feed(system, 1, {4: 70, 0: 30})
    feed(system, 3, {0: 1})
    sim.schedule_at(100.0, lambda: None)
    sim.run(until=100.0)
    system.drive(system.engine.run_host(0, 100.0))

    kinds = set(tracer.kinds())
    assert {"choose-replica", "placement", "create-obj", "offload"} <= kinds
    # The migration round trip crossed the backbone as control traffic.
    assert "message" in kinds

    counters = tracer.counters
    assert counters.get("create-obj", "accepted") >= 1
    assert counters.get("placement", "migrate:accepted") >= 1
    assert counters.get("offload", "not-offloading") >= 1

    migrate = next(
        r for r in tracer.records("placement") if r.action == "migrate"
    )
    assert migrate.obj == 1
    assert migrate.target == 4
    assert 4 in migrate.candidates

    # Records carry simulated time: the placement decisions happened at 100 s.
    assert migrate.time == 100.0


def test_choose_replica_records_figure2_fields(traced_system):
    system, tracer = traced_system
    redirector = system.redirectors.for_object(0)
    redirector.replica_created(0, 4, 1)

    chosen = redirector.choose_replica(0, 0)
    assert chosen == 0
    record = tracer.records("choose-replica")[-1]
    assert record.reason == "closest"
    assert record.closest == 0
    assert record.least in (0, 4)
    assert record.constant == 2.0


def test_an_only_replica_is_traced_as_sole_whatever_else_is_masked(traced_system):
    """Until ISSUE 24 the same request read ``"closest"`` with
    ``closest_ratio = rcnt`` as soon as any host anywhere was down or a
    retry passed ``exclude``; the decision counters never differed."""
    system, tracer = traced_system
    redirector = system.redirectors.for_object(0)
    redirector.replica_created(1, 4, 1)
    assert redirector.request_drop(1, 0) is True  # 1: one replica, dict form

    def last(obj, **kwargs):
        chosen = redirector.choose_replica(2, obj, **kwargs)
        record = tracer.records("choose-replica")[-1]
        assert record.chosen == chosen
        return chosen, record.reason, record.closest, record.closest_ratio

    redirector.set_host_available(3, False)  # holds nothing
    assert last(0) == (0, "sole", None, None)
    assert last(0, exclude=3) == (0, "sole", None, None)
    assert last(1) == (4, "sole", None, None)
    assert redirector.chose_closest == 3 and redirector.chose_least_requested == 0
    redirector.set_host_available(0, False)
    assert last(0) == (None, "unavailable", None, None)
    assert last(1, exclude=4) == (None, "unavailable", None, None)
    assert redirector.chose_closest == 3


def test_build_system_attaches_tracer_when_traced():
    config = ScenarioConfig(
        num_objects=50, duration=100.0, traced=True, trace_capacity=128
    )
    _, system, _ = build_system(config)
    assert isinstance(system.tracer, DecisionTracer)
    assert system.tracer.capacity == 128


def test_build_system_untraced_by_default():
    config = ScenarioConfig(num_objects=50, duration=100.0)
    _, system, _ = build_system(config)
    assert system.tracer is None
