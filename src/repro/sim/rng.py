"""Deterministic random-number utilities.

Every stochastic component of a scenario (each workload generator, the
topology builder, tie-breaking randomness) draws from its own named
stream, derived from a single scenario seed.  This gives run-to-run
reproducibility that is robust to adding or removing components: a new
stream does not perturb existing ones.

Also home to :func:`zipf_reeds`, the closed-form approximation of Zipf's
law due to Jim Reeds that the paper uses (Section 6.1, footnote 3): the
requested page number is ``round(exp(U(0,1) * ln(n)))`` clamped to
``[1, n]``, which the paper states tracks true Zipf popularities within
15%.
"""

from __future__ import annotations

import hashlib
import math
import random

from repro.errors import SimulationError


class RngFactory:
    """Derive independent named :class:`random.Random` streams from a seed.

    >>> f = RngFactory(42)
    >>> a, b = f.stream("workload"), f.stream("topology")
    >>> a.random() != b.random()
    True
    >>> f2 = RngFactory(42)
    >>> f2.stream("workload").random() == RngFactory(42).stream("workload").random()
    True
    """

    __slots__ = ("_seed",)

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return a fresh generator for the stream ``name``.

        Calling twice with the same name returns two generators with
        identical sequences (streams are value-derived, not stateful).
        """
        digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def child(self, name: str) -> "RngFactory":
        """Derive a sub-factory, e.g. one per host, from this factory."""
        digest = hashlib.sha256(f"{self._seed}/{name}".encode()).digest()
        return RngFactory(int.from_bytes(digest[:8], "big"))


def derive_seed(root_seed: int, index: int) -> int:
    """Derive the scenario seed for run ``index`` of a multi-run sweep.

    Value-derived (sha256 of ``"root#index"``), so the mapping is stable
    across processes, platforms and Python versions — a sweep fanned out
    over a worker pool assigns every run the same seed the serial path
    would.  Distinct indices yield independent seeds; the root seed
    itself is never reused verbatim, so run 0 of a sweep differs from a
    plain single run with ``seed=root_seed``.
    """
    if index < 0:
        raise SimulationError(f"run index must be non-negative, got {index}")
    digest = hashlib.sha256(f"{int(root_seed)}#{int(index)}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def zipf_reeds_many(rng: random.Random, n: int, count: int) -> list[int]:
    """Sample ``count`` 1-based page ranks from Reeds' closed-form Zipf
    approximation, one ``rng.random()`` each, in order.

    Each value is ``round(exp(u * ln n))`` for ``u ~ U(0,1)``, clamped into
    ``[1, n]``.  Rank 1 is the most popular page.  ``n == 1`` draws
    nothing: its only rank is certain.
    """
    if n < 1:
        raise SimulationError(f"zipf_reeds needs n >= 1, got {n}")
    if n == 1:
        return [1] * count
    log_n = math.log(n)
    exp = math.exp
    draw = rng.random
    values = [round(exp(draw() * log_n)) for _ in range(count)]
    if values and (min(values) < 1 or max(values) > n):
        values = [min(max(value, 1), n) for value in values]
    return values


def zipf_reeds(rng: random.Random, n: int) -> int:
    """Sample one 1-based page rank: :func:`zipf_reeds_many`'s count-1 case."""
    return zipf_reeds_many(rng, n, 1)[0]


def zipf_exact_cdf(n: int, alpha: float = 1.0) -> list[float]:
    """Cumulative distribution of a true Zipf(alpha) law over ranks 1..n.

    Used by tests to check Reeds' approximation and offered as an exact
    (table-driven) alternative sampler's backing table.
    """
    if n < 1:
        raise SimulationError(f"zipf_exact_cdf needs n >= 1, got {n}")
    weights = [1.0 / (rank**alpha) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def zipf_exact(rng: random.Random, cdf: list[float]) -> int:
    """Sample a 1-based rank from a precomputed Zipf CDF via bisection."""
    import bisect

    return bisect.bisect_left(cdf, rng.random()) + 1
