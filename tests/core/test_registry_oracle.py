"""The flat sole-replica registry against the dict-of-dicts one it replaced.

Both registries are driven through the same operations — on one service
and on three, the way ``RedirectorGroup`` partitions objects — and must
agree on everything a caller can see: return values, error messages,
observer calls and every registry reading.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.redirector import RedirectorService
from repro.errors import ProtocolError
from repro.routing.routes_db import RoutingDatabase
from repro.topology.generators import grid_topology
from tests.conftest import replica_infos
from tests.core.oracle_registry import RedirectorService as OracleService

NUM_NODES = 9
NUM_OBJECTS = 5
ROUTES = RoutingDatabase(grid_topology(3, 3))


class Registry:
    """``count`` services of one class behind ``obj % count`` partitioning."""

    def __init__(self, cls, count: int) -> None:
        self.services = [cls(node, ROUTES) for node in range(count)]
        self.events: list[tuple] = []
        self.dead: set[int] = set()
        for index, service in enumerate(self.services):
            service.add_observer(
                lambda *event, index=index: self.events.append((index, *event))
            )

    def of(self, obj: int):
        return self.services[obj % len(self.services)]

    def apply(self, op: tuple):
        """Run one operation; its return value, or its error message."""
        name, *args = op
        try:
            if name == "available":
                for service in self.services:
                    service.set_host_available(*args)
                return None
            if name == "probe":
                # None trusts the mask; otherwise hosts in ``dead`` do not answer.
                wired, host, answers = args
                (self.dead.discard if answers else self.dead.add)(host)
                probe = (lambda h: h not in self.dead) if wired else None
                for service in self.services:
                    service.liveness_probe = probe
                return None
            if name == "choose":
                gateway, obj, exclude = args
                return self.of(obj).choose_replica(gateway, obj, exclude=exclude)
            obj = args[0]
            return getattr(self.of(obj), name)(*args)
        except ProtocolError as error:
            return f"ProtocolError: {error}"

    def reading(self) -> dict:
        """Everything the public surface says about the registry."""
        objects = {}
        for obj in range(NUM_OBJECTS):
            service = self.of(obj)
            if not service.knows(obj):
                continue
            hosts = service.replica_hosts(obj)
            objects[obj] = {
                "hosts": hosts,
                "available": service.available_replica_hosts(obj),
                "count": service.replica_count(obj),
                "affinity": [service.affinity(obj, host) for host in hosts],
            }
        return {
            "objects": objects,
            "objects_on": [
                [service.objects_on(host) for host in range(NUM_NODES)]
                for service in self.services
            ],
            "total": [service.total_replicas() for service in self.services],
            "closest": [service.chose_closest for service in self.services],
            "least": [service.chose_least_requested for service in self.services],
            "events": self.events,
        }

    def request_counts(self) -> dict:
        return {
            obj: {
                host: info.request_count
                for host, info in replica_infos(self.of(obj), obj).items()
            }
            for obj in range(NUM_OBJECTS)
            if self.of(obj).knows(obj)
        }


def run_both(ops, count: int):
    """Apply ``ops`` to both registries, comparing after every step.

    Returns what each operation returned (equal on both sides).
    """
    flat, oracle = Registry(RedirectorService, count), Registry(OracleService, count)
    returned = []
    for op in ops:
        result = flat.apply(op)
        assert result == oracle.apply(op), op
        returned.append(result)
        assert flat.reading() == oracle.reading(), op
        ours, theirs = flat.request_counts(), oracle.request_counts()
        counted = [obj for obj, counts in theirs.items() if len(counts) >= 2]
        assert {obj: ours[obj] for obj in counted} == {
            obj: theirs[obj] for obj in counted
        }, (
            f"after {op}: request counts differ on an object with two or more "
            "replicas.  (A sole replica's count is deliberately not compared: "
            "the flat form keeps none.  It cannot matter — a sole replica is "
            "chosen without reading it, and the change that gives the object "
            "a second replica resets every count to 1 before one is read.)"
        )
    return returned


hosts = st.integers(min_value=0, max_value=NUM_NODES - 1)
objs = st.integers(min_value=0, max_value=NUM_OBJECTS - 1)
operations = st.one_of(
    st.tuples(st.just("register_initial"), objs, hosts),
    st.tuples(st.just("replica_created"), objs, hosts, st.integers(1, 3)),
    st.tuples(st.just("affinity_reduced"), objs, hosts, st.integers(0, 2)),
    st.tuples(st.just("request_drop"), objs, hosts),
    st.tuples(st.just("available"), hosts, st.booleans()),
    st.tuples(st.just("probe"), st.booleans(), hosts, st.booleans()),
    st.tuples(st.just("choose"), hosts, objs, st.one_of(st.none(), hosts)),
)


@pytest.mark.parametrize("count", [1, 3])
@settings(max_examples=150, deadline=None)
@given(ops=st.lists(operations, min_size=1, max_size=60))
def test_flat_registry_matches_the_retired_dict_registry(count, ops):
    # Start registered, so most sequences exercise more than "unknown object".
    start = [("register_initial", obj, obj % NUM_NODES) for obj in range(NUM_OBJECTS - 1)]
    run_both(start + ops, count)


@pytest.mark.parametrize("count", [1, 3])
def test_every_named_case_agrees_and_happens(count):
    """The cases the property should reach, spelled out once so that each
    is known to have run: the returned values say which branch was taken."""
    ops = [
        ("register_initial", 0, 4),
        ("register_initial", 0, 4),  # already registered
        ("choose", 0, 0, None),  # flat sole replica
        ("choose", 0, 0, 4),  # ... excluded: nothing to choose
        ("replica_created", 0, 4, 1),  # unchanged re-report of a flat entry
        ("request_drop", 0, 4),  # last replica: refused
        ("request_drop", 0, 5),  # not a holder
        ("replica_created", 0, 7, 2),  # a new replica must start at 1
        ("replica_created", 0, 7, 1),  # new host
        ("choose", 8, 0, None),
        ("choose", 8, 0, None),
        ("choose", 8, 0, 7),
        ("replica_created", 0, 7, 2),  # same host, higher affinity
        ("replica_created", 0, 7, 2),  # unchanged re-report
        ("choose", 6, 0, None),
        ("affinity_reduced", 0, 7, 1),
        ("affinity_reduced", 0, 7, 0),  # the last unit goes through request_drop
        ("available", 4, False),
        ("choose", 0, 0, None),  # only 7 is selectable
        ("request_drop", 0, 7),  # the survivor is masked down: refused
        ("available", 4, True),
        ("probe", True, 4, False),
        ("request_drop", 0, 7),  # the survivor does not answer: refused
        ("probe", True, 4, True),
        ("request_drop", 0, 7),  # approved; object 0 stays in dict form
        ("choose", 0, 0, None),
        ("register_initial", 1, 2),
        ("affinity_reduced", 1, 2, 1),  # expands a flat entry
        ("available", 2, False),
        ("choose", 3, 1, None),  # sole replica masked: unavailable
        ("choose", 3, 9, None),  # unknown object
    ]
    returned = run_both(ops, count)
    assert returned == [
        None,
        "ProtocolError: object 0 already registered",
        4,
        None,
        None,
        False,
        "ProtocolError: host 5 holds no replica of 0",
        "ProtocolError: new replica of 0 on 7 must have affinity 1, got 2",
        None,
        7,
        7,
        4,
        None,
        None,
        7,
        None,
        "ProtocolError: use request_drop to remove the last affinity unit",
        None,
        7,
        False,
        None,
        None,
        False,
        None,
        True,
        4,
        None,
        None,
        None,
        None,
        "ProtocolError: redirector knows no replicas of object 9",
    ]
