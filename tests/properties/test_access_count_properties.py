"""Deferred access counts equal per-request preference-path walks.

``HostServer.record_service`` only notes ``(object, gateway)``; the
preference path is walked when the counts are read.  Hypothesis drives
random service sequences interleaved with every operation that reads or
discards the counts, on the UUNET backbone and on a random tree, and
demands the answers of the eager oracle (``tests/core/path_walk_oracle``)
at every read and for every object at the end.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.core.host import HostServer
from repro.routing.routes_db import RoutingDatabase
from repro.topology.generators import random_tree_topology
from tests.core.path_walk_oracle import PathWalkCounts

N_OBJECTS = 6

#: Resolved against the topology's node count when applied.
node_fractions = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
objects = st.integers(min_value=0, max_value=N_OBJECTS - 1)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("serve"), objects, node_fractions),
        st.tuples(st.just("serve"), objects, node_fractions),
        st.tuples(st.just("serve"), objects, node_fractions),
        st.tuples(st.just("counts"), objects),
        st.tuples(st.just("total"), objects),
        st.tuples(st.just("clear"), objects),
        st.tuples(st.just("reset")),
    ),
    max_size=120,
)


@pytest.fixture(scope="module", params=["uunet", "random-tree"])
def routes(request, uunet_routes):
    if request.param == "uunet":
        return uunet_routes[1]
    return RoutingDatabase(random_tree_topology(17, seed=11))


@settings(max_examples=60, deadline=None)
@given(host_fraction=node_fractions, ops=operations)
def test_deferred_counts_equal_per_request_path_walks(routes, host_fraction, ops):
    n = routes.num_nodes
    node = int(host_fraction * n)
    resolver = partial(routes.preference_path, node)
    host = HostServer(node, ProtocolConfig(), routes.preference_paths(node))
    oracle = PathWalkCounts(node, resolver)
    serviced = 0
    for op, *args in ops:
        if op == "serve":
            obj, gateway = args[0], int(args[1] * n)
            host.record_service(obj, gateway)
            oracle.record_service(obj, gateway)
            serviced += 1
        elif op == "counts":
            assert host.object_access_counts(*args) == (
                oracle.object_access_counts(*args)
            )
        elif op == "total":
            assert host.total_access_count(*args) == oracle.total_access_count(*args)
        elif op == "clear":
            host.clear_object_state(*args)
            oracle.clear_object_state(*args)
        else:
            host.reset_access_counts(1.0)
            oracle.reset_access_counts(1.0)
    assert host.serviced_total == serviced
    for obj in range(N_OBJECTS):
        assert host.total_access_count(obj) == oracle.total_access_count(obj)
        assert host.object_access_counts(obj) == oracle.object_access_counts(obj)
    assert host.pending_access == {}
