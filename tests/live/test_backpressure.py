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
from repro.live.client import PERSISTENT_ATTEMPTS, ControlPlane, TransportError
from repro.live.config import PeerDirectory, live_protocol_config
from repro.live.httpd import HttpServer, Response, Router
from repro.live.pool import HttpPool, retry_after_hint
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
    the client waits out 429 hints until the mutation lands, and a
    duplicate msg_id is answered from cache, not re-applied."""
    config = throttled_config()

    async def main():
        deployment = LocalDeployment(config)
        await deployment.start(timers=False)
        redirector = deployment.redirector
        address = redirector.server.address
        directory = deployment.directory

        control = ControlPlane(directory)
        # Drain the burst so the next persistent call meets a 429 first
        # and must wait out the Retry-After hint.
        throttled = 0
        for _ in range(8):
            try:
                await control.load_report(0, 1.0)
            except TransportError as exc:
                assert exc.status == 429
                assert exc.retry_after is not None
                throttled += 1
        assert throttled >= 1
        await control.replica_created(1, 0, 1)
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
        control = ControlPlane(directory)

        async def register_many():
            for host in (1, 2):
                # obj 3 starts on host 0 (3 mod 3); register two new
                # replicas through a bucket sized to throttle them.
                await control.replica_created(host, 3, 1)

        # Two clients interleave with the servers on this one loop.
        await asyncio.gather(register_many(), register_many())
        replicas = redirector.service.replica_hosts(3)
        assert {1, 2}.issubset(set(replicas))
        assert redirector.service.affinity(3, 1) == 1
        assert redirector.service.affinity(3, 2) == 1
        await control.close()
        await deployment.stop()

    asyncio.run(main())


@pytest.mark.parametrize(
    "header, hint",
    [("0.25", 0.25), ("0", 0.0), ("1e9", 2.0), ("nan", None), ("inf", None),
     ("-inf", None), ("-1", None), ("soon", None), (None, None)],
)
def test_retry_after_hint_keeps_finite_values_up_to_the_limit(header, hint):
    headers = {} if header is None else {"retry-after": header}
    assert retry_after_hint(headers, 2.0) == hint


@pytest.mark.parametrize("header", ["nan", "inf", "1e9", "-1", "soon"])
def test_insane_retry_after_cannot_stall_a_persistent_call(header):
    """A 429 whose ``Retry-After`` is not a finite number >= 0 (a relay
    passes the owner's header on verbatim) must not park a persistent
    conversation — and the placement round awaiting it — for ever: the
    call spends its attempt budget and fails."""
    calls = []

    def throttled(request, params):
        calls.append(request.path)
        response = Response(status=429, body=b'{"error": "throttled"}')
        response.headers["Retry-After"] = header
        return response

    async def main():
        router = Router()
        router.add("POST", "/admin/register_host", throttled)
        server = HttpServer(router, port=0)
        port = await server.start()
        directory = PeerDirectory()
        directory.set_redirector(("127.0.0.1", port))
        control = ControlPlane(directory, timeout=0.2)
        try:
            with pytest.raises(TransportError) as failure:
                await asyncio.wait_for(
                    control.register_host(0, ("127.0.0.1", 1)), timeout=10.0
                )
            assert failure.value.status == 429
        finally:
            await control.close()
            await server.stop()

    asyncio.run(main())
    assert len(calls) == PERSISTENT_ATTEMPTS


@pytest.mark.parametrize(
    "status, exchanges",
    [(400, 1), (404, 1), (409, 1), (429, PERSISTENT_ATTEMPTS),
     (502, PERSISTENT_ATTEMPTS), (503, PERSISTENT_ATTEMPTS)],
)
def test_a_persistent_call_retries_only_what_another_attempt_could_change(
    status, exchanges
):
    """A refusal (400/404/409) is final: the call raises after one
    exchange, without backing off.  A 429 or a 5xx is retried to the
    attempt budget, as a lost exchange is."""
    calls = []

    def answer(request, params):
        calls.append(request.path)
        response = Response(status=status, body=b'{"error": "no"}')
        response.headers["Retry-After"] = "0"
        return response

    async def main():
        router = Router()
        router.add("POST", "/control/request_drop", answer)
        server = HttpServer(router, port=0)
        directory = PeerDirectory()
        directory.set_redirector(("127.0.0.1", await server.start()))
        control = ControlPlane(directory, timeout=1.0)
        loop = asyncio.get_running_loop()
        try:
            began = loop.time()
            with pytest.raises(TransportError) as failure:
                await control.request_drop(0, [7])
            assert failure.value.status == status
            if exchanges == 1:
                assert loop.time() - began < 0.05
        finally:
            await control.close()
            await server.stop()

    asyncio.run(main())
    assert len(calls) == exchanges
