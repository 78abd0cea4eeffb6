"""``Workload.sample_many`` against ``count`` repeated ``sample`` calls.

An evenly spaced arrival window takes all of its objects in one
``sample_many`` call; the per-arrival generator it replaced called
``sample`` once per arrival.  Both must draw the same objects and leave
the stream in the same state.  Reeds' formula is also checked against
its retired per-draw form, which recomputed ``log(n)`` on every draw.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngFactory, zipf_reeds, zipf_reeds_many
from repro.topology.uunet import uunet_backbone
from repro.workloads import SCENARIO_WORKLOADS
from repro.workloads.zipf import ZipfWorkload

SIZES = (1, 2, 53, 10**4, 10**5)
counts = st.integers(min_value=0, max_value=64)
seeds = st.integers(min_value=0, max_value=2**32)


def retired_zipf_reeds(rng, n):
    value = int(round(math.exp(rng.random() * math.log(n)))) if n > 1 else 1
    return min(max(value, 1), n)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from(SIZES), count=counts, seed=seeds)
def test_zipf_sample_many_is_repeated_sample(n, count, seed):
    workload = ZipfWorkload(n)
    batched, single, retired = (random.Random(seed) for _ in range(3))
    drawn = workload.sample_many(7, batched, count)
    assert drawn == [workload.sample(7, single) for _ in range(count)]
    assert drawn == [retired_zipf_reeds(retired, n) - 1 for _ in range(count)]
    assert batched.getstate() == single.getstate() == retired.getstate()


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from(SIZES), count=counts, seed=seeds)
def test_zipf_reeds_is_the_count_one_case(n, count, seed):
    batched, single = random.Random(seed), random.Random(seed)
    assert zipf_reeds_many(batched, n, count) == [
        zipf_reeds(single, n) for _ in range(count)
    ]
    assert batched.getstate() == single.getstate()


TOPOLOGY = uunet_backbone()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(SCENARIO_WORKLOADS)),
    gateway=st.sampled_from(TOPOLOGY.nodes),
    count=counts,
    seed=seeds,
)
def test_every_scenario_workload_samples_many_as_repeated_sample(
    name, gateway, count, seed
):
    workload = SCENARIO_WORKLOADS[name](1000, TOPOLOGY, RngFactory(3))
    batched, single = random.Random(seed), random.Random(seed)
    assert workload.sample_many(gateway, batched, count) == [
        workload.sample(gateway, single) for _ in range(count)
    ]
    assert batched.getstate() == single.getstate()


def test_exact_zipf_samples_many_as_repeated_sample():
    workload = ZipfWorkload(500, exact=True)
    batched, single = random.Random(5), random.Random(5)
    assert workload.sample_many(0, batched, 40) == [
        workload.sample(0, single) for _ in range(40)
    ]
    assert batched.getstate() == single.getstate()
