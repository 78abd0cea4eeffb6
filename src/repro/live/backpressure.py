"""Control-plane backpressure: token buckets and bounded admission.

A redirector shard's control plane must degrade predictably when hosts
flood it (a placement storm, a retry storm after a partition heals, a
misbehaving peer).  Two independent brakes, composed by
:class:`Backpressure`:

* a **token bucket** capping the sustained mutation rate — ``rate``
  tokens/sec refill up to a ``burst`` ceiling, one token per admitted
  request.  An empty bucket answers with the exact time until the next
  token, which becomes the HTTP ``Retry-After`` hint;
* a **bounded in-flight queue** — at most :data:`MAX_INFLIGHT` admitted
  requests may be executing at once, so a slow downstream (a cross-shard
  forward) cannot stack unbounded work on the event loop.

Rejections are *cheap* by design: a 429 costs one bucket probe and no
allocation beyond the response, which is what lets a flooded shard keep
answering its data plane.  Clients honour ``Retry-After`` (see
:mod:`repro.live.client`), so the retry traffic self-paces instead of
hammering the refill boundary.

The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.errors import ConfigurationError

#: Control requests one server may have in flight before 429s start.
MAX_INFLIGHT = 256
#: Retry hint (seconds) when the in-flight bound, not the bucket, is the
#: brake — there is no refill schedule to quote, just "very soon".
INFLIGHT_RETRY_AFTER = 0.05


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/sec, ``burst`` capacity."""

    __slots__ = ("_clock", "_last", "_tokens", "burst", "rate")

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ConfigurationError("token bucket rate must be positive")
        if burst < 1:
            raise ConfigurationError("token bucket burst must be at least 1")
        self.rate = rate
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last = now

    def try_acquire(self) -> float:
        """Take one token; returns 0.0 on success, else seconds until
        the next token becomes available (the Retry-After hint)."""
        now = self._clock()
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


class Backpressure:
    """Admission control for one server's control plane.

    ``admit()`` returns 0.0 and reserves an in-flight slot, or a
    positive Retry-After hint (nothing reserved).  Every successful
    ``admit()`` must be paired with ``release()``.
    """

    __slots__ = ("_bucket", "_inflight", "rejected_total")

    def __init__(
        self,
        *,
        rate: float | None = None,
        burst: float = 64,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._bucket = (
            TokenBucket(rate, burst, clock=clock) if rate is not None else None
        )
        self._inflight = 0
        #: Requests turned away with 429, for the metrics snapshot.
        self.rejected_total = 0

    @property
    def inflight(self) -> int:
        return self._inflight

    def admit(self) -> float:
        """0.0 = admitted (slot reserved); > 0 = rejected, retry hint."""
        if self._inflight >= MAX_INFLIGHT:
            self.rejected_total += 1
            return INFLIGHT_RETRY_AFTER
        if self._bucket is not None:
            wait = self._bucket.try_acquire()
            if wait > 0.0:
                self.rejected_total += 1
                return wait
        self._inflight += 1
        return 0.0

    def release(self) -> None:
        self._inflight -= 1
        if self._inflight < 0:  # pragma: no cover - caller bug guard
            raise RuntimeError("release() without a matching admit()")


__all__ = ["Backpressure", "INFLIGHT_RETRY_AFTER", "MAX_INFLIGHT", "TokenBucket"]
