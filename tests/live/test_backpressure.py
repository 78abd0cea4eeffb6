"""Tests for control-plane backpressure: bucket, gate, 429 flow, dedup.

Unit tests drive :class:`TokenBucket`/:class:`Backpressure` with a fake
clock; the end-to-end tests flood a real shard over sockets and check
that 429 + ``Retry-After`` come back, that the blocking client honours
the hint, and that no registry update is lost or applied twice under
retry.
"""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.live import LiveConfig, LocalDeployment
from repro.live.backpressure import (
    INFLIGHT_RETRY_AFTER,
    Backpressure,
    TokenBucket,
)
from repro.live.client import ControlPlane, TransportError
from repro.live.config import live_protocol_config
from repro.live.pool import HttpPool
from repro.network.rpc import DedupCache


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------


def test_token_bucket_burst_then_refill():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() == 0.0
    # Empty: the hint is exactly the time until the next token (rate 2
    # tokens/sec -> 0.5 s).
    wait = bucket.try_acquire()
    assert wait == pytest.approx(0.5)
    clock.advance(0.5)
    assert bucket.try_acquire() == 0.0
    # Refill caps at burst: a long idle period does not bank extra.
    clock.advance(100.0)
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() > 0.0


def test_token_bucket_validation():
    with pytest.raises(ConfigurationError):
        TokenBucket(rate=0.0, burst=2)
    with pytest.raises(ConfigurationError):
        TokenBucket(rate=1.0, burst=0)


def test_backpressure_inflight_bound():
    gate = Backpressure(max_inflight=2)
    assert gate.admit() == 0.0
    assert gate.admit() == 0.0
    assert gate.admit() == INFLIGHT_RETRY_AFTER
    assert gate.rejected_total == 1
    gate.release()
    assert gate.admit() == 0.0
    assert gate.inflight == 2


def test_backpressure_rate_and_inflight_compose():
    clock = FakeClock()
    gate = Backpressure(rate=1.0, burst=1, max_inflight=10, clock=clock)
    assert gate.admit() == 0.0
    gate.release()
    wait = gate.admit()
    assert wait == pytest.approx(1.0)
    # A bucket rejection reserves nothing: no release owed.
    assert gate.inflight == 0
    clock.advance(1.0)
    assert gate.admit() == 0.0


def test_dedup_cache_lru_eviction():
    cache = DedupCache(capacity=2)
    cache.put("a", {"n": 1})
    cache.put("b", {"n": 2})
    assert cache.get("a") == {"n": 1}  # refreshes a
    cache.put("c", {"n": 3})  # evicts b, the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == {"n": 1}
    assert cache.get("c") == {"n": 3}
    assert len(cache) == 2


# ----------------------------------------------------------------------
# End to end over sockets
# ----------------------------------------------------------------------


def throttled_config() -> LiveConfig:
    protocol = live_protocol_config().replace(
        measurement_interval=0.5, placement_interval=1.0
    )
    return LiveConfig(
        base_port=0,
        protocol=protocol,
        control_rate_limit=50.0,
        control_burst=4.0,
    )


def test_flooded_control_plane_answers_429_with_retry_after():
    config = throttled_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        pool = HttpPool()
        try:
            address = deployment.redirector.server.address
            statuses = []
            retry_afters = []
            for i in range(12):
                status, headers, _b = await pool.request(
                    address,
                    "POST",
                    "/control/load_report",
                    payload={"node": 0, "load": 1.0},
                )
                statuses.append(status)
                if status == 429:
                    retry_afters.append(float(headers["retry-after"]))
            # The burst passes, the flood beyond it is shed with 429.
            assert statuses.count(200) >= 4
            assert statuses.count(429) >= 1
            assert all(hint > 0.0 for hint in retry_afters)
            assert deployment.redirector.control_gate.rejected_total >= 1
            # The data plane stays open while the control plane sheds.
            status, _h, _b = await pool.request(
                address, "GET", "/route?obj=0&gateway=0"
            )
            assert status == 200
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


def test_persistent_client_honours_retry_after_and_dedup_keeps_one_apply():
    """The registry-update-exactly-once guarantee under throttled retry:
    the blocking client sleeps out 429 hints until the mutation lands,
    and a duplicate msg_id is answered from cache, not re-applied."""
    config = throttled_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        redirector = deployment.redirector
        address = redirector.server.address
        directory = deployment.directory

        control = ControlPlane(directory)
        control.bind(asyncio.get_running_loop())

        def blocking_part():
            # Drain the burst so the next persistent call meets a 429
            # first and must sleep out the Retry-After hint.
            throttled = 0
            for _ in range(8):
                try:
                    control.load_report(0, 1.0)
                except TransportError as exc:
                    assert exc.status == 429
                    assert exc.retry_after is not None
                    throttled += 1
            assert throttled >= 1
            control.replica_created(1, 0, 1)

        # The deployment serves on this loop, and so do the control
        # plane's sockets: the blocking client must run on a thread
        # (same discipline the live hosts use).
        await asyncio.to_thread(blocking_part)
        await control.close()
        assert 1 in redirector.service.replica_hosts(0)
        assert redirector.service.affinity(0, 1) == 1
        pool = HttpPool()
        try:
            # Replay one mutation with a fixed msg_id: applied once.
            payload = {
                "obj": 2, "host": 1, "affinity": 1, "msg_id": "flood-1",
            }
            applied = 0
            for _ in range(6):
                status, _h, _b = await pool.request(
                    address, "POST", "/control/replica_created",
                    payload=payload,
                )
                if status == 200:
                    applied += 1
                await asyncio.sleep(0.03)
            assert applied >= 2  # at least one retry got through...
            assert redirector.service.affinity(2, 1) == 1  # ...one apply
            assert redirector.deduplicated_total >= 1
        finally:
            await pool.close()
            await deployment.stop()

    asyncio.run(main())


def test_throttled_registration_is_not_lost():
    """A registry mutation that first meets 429 still lands exactly once
    (client-side retries + server-side dedup compose)."""
    config = throttled_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        redirector = deployment.redirector
        directory = deployment.directory
        errors: list[Exception] = []
        control = ControlPlane(directory)
        control.bind(asyncio.get_running_loop())

        def register_many():
            try:
                for host in (1, 2):
                    # obj 3 starts on host 0 (3 mod 3); register two new
                    # replicas through a bucket sized to throttle them.
                    control.replica_created(host, 3, 1)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        # Run the blocking clients off-loop while the servers spin here.
        await asyncio.gather(
            *(asyncio.to_thread(register_many) for _ in range(2))
        )
        assert not errors
        replicas = redirector.service.replica_hosts(3)
        assert {1, 2}.issubset(set(replicas))
        assert redirector.service.affinity(3, 1) == 1
        assert redirector.service.affinity(3, 2) == 1
        await control.close()
        await deployment.stop()

    asyncio.run(main())
