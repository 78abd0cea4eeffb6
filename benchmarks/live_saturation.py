"""Emit the ``BENCH_live.json`` live-saturation trajectory artifact.

Launches the sharded redirector tier as *real OS processes* (``python -m
repro serve`` roles on ephemeral ports, discovered through port files),
steps the offered load through a route-only load generator, and records
requests/sec against latency percentiles for 1, 2 and 4 shards.  The
resulting JSON is the only multi-process measurement of the sharded
tier: every CI run records a saturation trajectory for the serving tier
instead of a point-in-time anecdote.

Route-only mode measures the redirector tier's own capacity — the
object fetch would fold the hosts' service time into every sample and
hide the tier under test.  ``--direct`` partition-aware routing sends
each ``/route`` straight to the owning shard (the same consistent-hash
ring the gateway uses), so added shards show up as added capacity rather
than as load on a single gateway loop.

Usage::

    python benchmarks/live_saturation.py --quick --out BENCH_live.json

``--quick`` is the CI mode: two short steps per shard count.  The
committed ``benchmarks/reports/live_baseline.json`` is a ``--quick``
artifact; regenerate it (same flag) after an intentional change and
gate with ``python benchmarks/compare_baseline.py --live BENCH_live.json``.

Absolute numbers are machine-bound (a one-core CI runner saturates the
loadgen and every server on the same core, so shard counts beyond the
core count cannot show wall-clock speedup); the gate therefore compares
each configuration against its own baseline with a generous tolerance
rather than asserting cross-shard scaling.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.live.client import fetch_endpoints  # noqa: E402
from repro.live.config import LiveConfig  # noqa: E402
from repro.live.loadgen import (  # noqa: E402
    LoadgenOptions,
    run_loadgen_multiprocess,
)
from repro.live.pool import TransportError  # noqa: E402

SCHEMA = "live-saturation/v1"

#: A step "sustains" its load when the tail stays under this SLA and
#: effectively nothing fails.  Generous on purpose: shared CI runners
#: jitter by tens of milliseconds.
SLA_P99_SECONDS = 0.250
SLA_ERROR_RATE = 0.01

BIND = "127.0.0.1"
STARTUP_TIMEOUT = 30.0


class TierError(RuntimeError):
    """The serving tier failed to come up or died under load."""


def _read_port(path: Path, deadline: float) -> int:
    while time.monotonic() < deadline:
        try:
            text = path.read_text().strip()
        except FileNotFoundError:
            text = ""
        if text:
            return int(text)
        time.sleep(0.05)
    raise TierError(f"timed out waiting for port file {path}")


def _poll(fn, deadline: float, what: str):
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            result = fn()
        except (TransportError, OSError, ValueError) as exc:
            last = exc
        else:
            if result is not None:
                return result
        time.sleep(0.05)
    raise TierError(f"timed out waiting for {what}: {last}")


class LiveTier:
    """A gateway + shards + hosts deployment run as child processes."""

    def __init__(self, num_shards: int, num_hosts: int, num_objects: int):
        self.num_shards = num_shards
        self.num_hosts = num_hosts
        self.num_objects = num_objects
        self.processes: list[subprocess.Popen] = []
        self.front: tuple[str, int] | None = None
        self.shard_endpoints: dict[int, tuple[str, int]] = {}
        self._tmp = tempfile.TemporaryDirectory(prefix="live-saturation-")
        self._dir = Path(self._tmp.name)
        self._log = (self._dir / "tier.log").open("w")

    def _spawn(self, role: str, *extra: str) -> subprocess.Popen:
        command = [
            sys.executable, "-m", "repro", "serve",
            "--role", role,
            "--bind", BIND,
            "--base-port", "0",
            "--shards", str(self.num_shards),
            "--hosts", str(self.num_hosts),
            "--objects", str(self.num_objects),
            # Slow the placement machinery right down: the saturation
            # run measures routing throughput, not replication churn.
            "--measurement-interval", "5",
            "--placement-interval", "30",
            *extra,
        ]
        process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT
        )
        self.processes.append(process)
        return process

    def start(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        if self.num_shards == 1:
            port_file = self._dir / "front.port"
            self._spawn("redirector", "--port-file", str(port_file))
            self.front = (BIND, _read_port(port_file, deadline))
        else:
            port_file = self._dir / "gateway.port"
            self._spawn("gateway", "--port-file", str(port_file))
            self.front = (BIND, _read_port(port_file, deadline))
            gateway = f"{self.front[0]}:{self.front[1]}"
            for shard in range(self.num_shards):
                self._spawn(
                    "shard", "--shard", str(shard), "--gateway", gateway,
                    "--port-file", str(self._dir / f"shard-{shard}.port"),
                )
        front = f"{self.front[0]}:{self.front[1]}"
        for node in range(self.num_hosts):
            self._spawn(
                "host", "--node", str(node), "--gateway", front,
                "--port-file", str(self._dir / f"host-{node}.port"),
            )

        def tier_ready():
            endpoints = fetch_endpoints(self.front, timeout=2.0)
            shards = endpoints.get("shards", {})
            hosts = endpoints.get("hosts", {})
            if len(shards) == self.num_shards and len(hosts) == self.num_hosts:
                return endpoints
            return None

        endpoints = _poll(tier_ready, deadline, "shard/host registration")
        self.shard_endpoints = {
            int(shard): (address[0], int(address[1]))
            for shard, address in endpoints["shards"].items()
        }

    def check_alive(self) -> None:
        for process in self.processes:
            if process.poll() is not None:
                raise TierError(
                    f"tier process {process.args[5]} exited "
                    f"with {process.returncode} (see tier.log)"
                )

    def stop(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self._log.close()
        self._tmp.cleanup()


def run_steps(
    tier: LiveTier,
    config: LiveConfig,
    rates: list[float],
    step_seconds: float,
    processes: int,
    seed: int,
) -> list[dict]:
    steps = []
    for rate in rates:
        tier.check_alive()
        options = LoadgenOptions(
            workload="zipf",
            rate=rate,
            requests=max(50, int(rate * step_seconds)),
            seed=seed,
            concurrency=128,
            timeout=5.0,
            route_only=True,
            shard_endpoints=tier.shard_endpoints,
        )
        stats = run_loadgen_multiprocess(
            tier.front, config, options, processes=processes
        )
        summary = stats.summary()
        step = {
            "offered_rps_target": rate,
            "offered_rps": summary["offered_rps"],
            "achieved_rps": summary["achieved_rps"],
            "error_rate": summary["error_rate"],
            "arrivals_late": summary["arrivals_late"],
            "sched_max_lag_ms": summary["sched_max_lag_ms"],
            "latency_p50_ms": summary.get("latency_p50_ms"),
            "latency_p99_ms": summary.get("latency_p99_ms"),
        }
        steps.append(step)
        p99 = step["latency_p99_ms"]
        p99_text = f"{p99:.1f} ms" if p99 is not None else "-"
        print(
            f"    rate {rate:>7.0f} rps -> achieved "
            f"{step['achieved_rps']:>7.0f} rps, p99 {p99_text}, "
            f"errors {step['error_rate']:.2%}"
        )
    return steps


def sustained_rps(steps: list[dict]) -> float:
    """Highest achieved rate whose step met the latency/error SLA."""
    best = 0.0
    for step in steps:
        p99 = step.get("latency_p99_ms")
        if p99 is None or p99 > SLA_P99_SECONDS * 1000.0:
            continue
        if step["error_rate"] > SLA_ERROR_RATE:
            continue
        best = max(best, step["achieved_rps"])
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_live.json", help="output path")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: fewer, shorter load steps",
    )
    parser.add_argument(
        "--shard-counts", type=int, nargs="+", default=[1, 2, 4],
        help="shard counts to sweep (default: 1 2 4)",
    )
    parser.add_argument(
        "--hosts", type=int, default=3, help="replica hosts per tier"
    )
    parser.add_argument(
        "--objects", type=int, default=64, help="hosted object count"
    )
    parser.add_argument(
        "--processes", type=int, default=1,
        help="loadgen worker processes per step (default: 1)",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    if args.quick:
        rates = [150.0, 300.0]
        step_seconds = 1.0
    else:
        rates = [200.0, 400.0, 800.0, 1600.0]
        step_seconds = 2.0

    results: dict[str, dict] = {}
    for num_shards in args.shard_counts:
        print(f"shards={num_shards}: starting tier "
              f"({args.hosts} hosts, {args.objects} objects)")
        tier = LiveTier(num_shards, args.hosts, args.objects)
        config = LiveConfig(
            base_port=0,
            num_shards=num_shards,
            num_hosts=args.hosts,
            num_objects=args.objects,
        )
        try:
            tier.start()
            steps = run_steps(
                tier, config, rates, step_seconds, args.processes, args.seed
            )
        finally:
            tier.stop()
        results[f"shards-{num_shards}"] = {
            "num_shards": num_shards,
            "num_hosts": args.hosts,
            "num_objects": args.objects,
            "steps": steps,
            "sustained_rps": sustained_rps(steps),
        }
        print(f"  sustained: {results[f'shards-{num_shards}']['sustained_rps']:.0f} rps")

    artifact: dict = {
        "schema": SCHEMA,
        "mode": "quick" if args.quick else "full",
        "sla": {
            "p99_ms": SLA_P99_SECONDS * 1000.0,
            "error_rate": SLA_ERROR_RATE,
        },
        "loadgen_processes": args.processes,
        "results": results,
    }
    if "shards-1" in results and "shards-4" in results:
        base = results["shards-1"]["sustained_rps"]
        artifact["speedup_4v1"] = (
            results["shards-4"]["sustained_rps"] / base if base else 0.0
        )
    Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
