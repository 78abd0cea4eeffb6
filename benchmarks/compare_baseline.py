"""CI gates over committed baselines: what may fail the build, in one table.

Usage::

    python -m repro sweep --smoke --json bench_smoke.json
    python benchmarks/compare_baseline.py bench_smoke.json
    python benchmarks/compare_baseline.py --gap BENCH_optgap.json
    python benchmarks/compare_baseline.py --live BENCH_live.json
    python benchmarks/compare_baseline.py --claims BENCH_claims.json

Nothing here times the simulator: anything that times code goes through
``bench/run.py`` (calibrated, bounded in ``BENCHMARK.json``).  The gates
below pin *behaviour* against a committed artefact; ``GATES`` lists them.
Exit code 0 on pass, 1 on any violation (the CI job fails).

Smoke-sweep gate (default)
--------------------------
Compares the summary of ``python -m repro sweep --smoke`` against
``benchmarks/reports/baseline.json``, exactly:

* **spec identity** — the spec hashes must match (a drifted smoke spec
  silently invalidates the comparison, so it is an error);
* **run health** — every run must have status ``ok``;
* **deterministic metrics** — every per-point metric mean must *equal*
  the baseline's.  The means depend only on seeds, so any difference
  means the simulation itself changed behaviour (which must come with a
  regenerated baseline).  Wall-clock fields in the summary are not read.

Regenerate after an intentional change with ``python -m repro sweep
--smoke --json benchmarks/reports/baseline.json``.

Live saturation gate
--------------------
``--live`` compares a ``BENCH_live.json`` produced by
``benchmarks/live_saturation.py`` against the committed
``benchmarks/reports/live_baseline.json``:

* every shard configuration's ``sustained_rps`` must not regress more
  than ``--tolerance`` (±25% default) — live serving throughput is the
  most machine-sensitive number in the suite (real sockets, real
  processes, shared CI cores), so the gate is regression-only and
  improvements always pass;
* a configuration that sustained load in the baseline must still
  sustain *some* load (a sustained_rps collapse to zero means every
  step blew the latency SLA or error bound — a functional break, not
  jitter).

Regenerate with ``python benchmarks/live_saturation.py --quick --out
benchmarks/reports/live_baseline.json`` after an intentional change.

Optimality-gap gate
-------------------
``--gap`` compares a ``BENCH_optgap.json`` produced by ``python -m repro
gap --quick`` against the committed
``benchmarks/reports/optgap_baseline.json``:

* **soundness** — every point's ``gap_ratio`` must be finite and >= 1.0
  (the oracle is a structural lower bound: a ratio below 1 is a solver
  bug, never noise), its ``oracle_cost`` positive and some requests
  serviced;
* **coverage** — every (topology, load, fault, strategy) point in the
  baseline must be present;
* **stability** — each point's ``gap_ratio`` must be within
  ``--tolerance`` (default ±25%) of the baseline.  Gap runs are seeded
  and the oracle exact, so genuine drift means protocol behaviour
  changed (which must come with a regenerated baseline).

Regenerate with ``python -m repro gap --quick --out
benchmarks/reports/optgap_baseline.json`` after an intentional change.

Paper-claims gate
-----------------
``--claims`` compares the verdicts of a ``python -m repro claims``
scorecard against ``benchmarks/reports/claims_baseline.json``: schema,
seeds and claim ids must match, and every (claim, seed) verdict that held
in the baseline must still hold — one already failing there (a finding,
such as Thm 5's) does not fail the gate.  Values are not compared (the
smoke gate pins behaviour).  Regenerate with ``python -m repro claims
--out benchmarks/reports/claims_baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPORTS = Path(__file__).parent / "reports"


def _rel_delta(current: float, reference: float) -> float:
    if reference == 0:
        return 0.0 if current == 0 else math.inf
    return (current - reference) / abs(reference)


def compare(current: dict, baseline: dict) -> list[str]:
    """Return the smoke gate's violations (empty = gate passes)."""
    problems: list[str] = []

    if current.get("spec_hash") != baseline.get("spec_hash"):
        problems.append(
            f"spec hash mismatch: current {current.get('spec_hash')!r} vs "
            f"baseline {baseline.get('spec_hash')!r} — the smoke spec changed; "
            "regenerate benchmarks/reports/baseline.json"
        )
        return problems  # nothing else is comparable

    statuses = current.get("statuses", {})
    failed = {k: v for k, v in statuses.items() if k != "ok"}
    if failed or statuses.get("ok", 0) != current.get("runs"):
        problems.append(f"not all runs succeeded: statuses={statuses}")

    for point, metrics in baseline.get("points", {}).items():
        current_metrics = current.get("points", {}).get(point)
        if current_metrics is None:
            problems.append(f"point {point!r} missing from current summary")
            continue
        for name, stats in metrics.items():
            if name not in current_metrics:
                problems.append(f"metric {point}/{name} missing from current summary")
                continue
            mean = current_metrics[name]["mean"]
            if mean != stats["mean"]:
                problems.append(
                    f"deterministic metric {point}/{name} changed: {mean!r} vs "
                    f"baseline {stats['mean']!r} "
                    f"({_rel_delta(mean, stats['mean']):+.3g} relative)"
                )
    return problems


def compare_live(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Gate a ``BENCH_live.json`` saturation artifact (see module doc)."""
    problems: list[str] = []
    if current.get("schema") != baseline.get("schema"):
        problems.append(
            f"schema mismatch: current {current.get('schema')!r} vs "
            f"baseline {baseline.get('schema')!r}"
        )
        return problems

    for name, base_result in baseline.get("results", {}).items():
        result = current.get("results", {}).get(name)
        if result is None:
            problems.append(f"configuration {name!r} missing from current artifact")
            continue
        base_rate = base_result.get("sustained_rps", 0.0)
        rate = result.get("sustained_rps", 0.0)
        if base_rate > 0.0 and rate == 0.0:
            problems.append(
                f"{name} sustained no load at all (baseline "
                f"{base_rate:,.0f} rps): every step blew the p99 SLA or "
                "the error bound"
            )
            continue
        delta = _rel_delta(rate, base_rate)
        if delta < -tolerance:
            problems.append(
                f"{name}/sustained_rps regressed {-delta:.1%} "
                f"(> {tolerance:.0%} tolerance): {rate:,.0f} vs "
                f"baseline {base_rate:,.0f}"
            )
    return problems


def _finite(ratio: float | None) -> bool:
    return ratio is not None and math.isfinite(ratio)


def _gap_point_key(point: dict) -> str:
    return (
        f"{point.get('topology')}/load={point.get('load_scale')}"
        f"/mtbf={point.get('fault_mtbf')}/{point.get('strategy')}"
    )


def compare_gap(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Gate a ``BENCH_optgap.json`` artifact (see module doc)."""
    problems: list[str] = []
    if current.get("schema") != baseline.get("schema"):
        problems.append(
            f"schema mismatch: current {current.get('schema')!r} vs "
            f"baseline {baseline.get('schema')!r}"
        )
        return problems

    points = {_gap_point_key(p): p for p in current.get("points", [])}
    if not points:
        problems.append("current artifact has no gap points")
        return problems

    for key, point in sorted(points.items()):
        ratio = point.get("gap_ratio")
        if not _finite(ratio):
            problems.append(f"{key}: gap_ratio is {ratio!r} (must be finite)")
            continue
        if ratio < 1.0 - 1e-9:
            problems.append(
                f"{key}: gap_ratio {ratio:.6f} < 1.0 — the oracle stopped "
                "being a lower bound (solver bug, not noise)"
            )
        if point.get("oracle_cost", 0.0) <= 0.0:
            problems.append(f"{key}: oracle_cost must be positive")
        if point.get("requests_serviced", 0) <= 0:
            problems.append(f"{key}: no requests serviced")

    for base_point in baseline.get("points", []):
        key = _gap_point_key(base_point)
        point = points.get(key)
        if point is None:
            problems.append(f"point {key!r} missing from current artifact")
            continue
        ratio = point.get("gap_ratio")
        if not _finite(ratio):
            continue  # reported above; there is no drift to measure
        drift = _rel_delta(ratio, base_point.get("gap_ratio", 0.0))
        if abs(drift) > tolerance:
            problems.append(
                f"{key}: gap_ratio drifted {drift:+.1%} (> {tolerance:.0%}): "
                f"{ratio:.4f} vs baseline "
                f"{base_point.get('gap_ratio'):.4f} — protocol behaviour "
                "changed; regenerate benchmarks/reports/optgap_baseline.json "
                "with rationale"
            )
    return problems


def compare_claims(current: dict, baseline: dict) -> list[str]:
    """Gate a ``BENCH_claims.json`` scorecard (see module doc)."""
    for key in ("schema", "seeds"):
        if current.get(key) != baseline.get(key):
            return [f"{key} mismatch: {current.get(key)!r} vs baseline {baseline.get(key)!r}"]
    rows = {row["id"]: row for row in current.get("claims", [])}
    base_rows = {row["id"]: row for row in baseline.get("claims", [])}
    problems = [f"claim {c!r} missing from current scorecard" for c in base_rows.keys() - rows]
    problems += [f"claim {c!r} is not in the baseline" for c in rows.keys() - base_rows]
    for claim, base_row in base_rows.items():
        row = rows.get(claim)  # a missing row is reported above
        for seed, held in base_row["verdicts"].items():
            if row is not None and held and not row["verdicts"].get(seed, False):
                problems.append(
                    f"{claim} ({seed}): held in the baseline, fails now — measured "
                    f"{row['values'].get(seed)!r}, threshold {row['threshold']}"
                )
    return sorted(problems)


def _summarise_smoke(current: dict, baseline: dict) -> None:
    means = sum(len(metrics) for metrics in baseline.get("points", {}).values())
    print(
        f"spec {baseline.get('spec_hash')}: {len(baseline.get('points', {}))} "
        f"points, {means} metric means compared exactly"
    )


def _summarise_live(current: dict, baseline: dict) -> None:
    for name, base_result in sorted(baseline.get("results", {}).items()):
        result = current.get("results", {}).get(name, {})
        rate = result.get("sustained_rps", 0.0)
        base_rate = base_result.get("sustained_rps", 0.0)
        delta = _rel_delta(rate, base_rate)
        print(
            f"{name}: sustained {rate:,.0f} rps "
            f"(baseline {base_rate:,.0f} rps, {delta:+.1%})"
        )


def _summarise_gap(current: dict, baseline: dict) -> None:
    for key, point in sorted(
        (_gap_point_key(p), p) for p in current.get("points", [])
    ):
        print(
            f"{key}: gap {point.get('gap_ratio', float('nan')):.4f} "
            f"(oracle {point.get('oracle_cost', 0):,.0f}, "
            f"violations {point.get('capacity_violations', 0)})"
        )


def _summarise_claims(current: dict, baseline: dict) -> None:
    rows = current.get("claims", [])
    print(f"{sum(row['holds'] for row in rows)} of {len(rows)} claims hold on every seed")
    for row in baseline.get("claims", []):
        failing = [seed for seed, held in row["verdicts"].items() if not held]
        if failing:
            print(f"known failure: {row['id']} ({', '.join(failing)})")


#: What may fail the build, one row per gate: the committed baseline, the
#: comparison and the per-entry summary printed before the verdict.  The
#: smoke and claims gates are exact, so ``--tolerance`` stops at their rows.
GATES = {
    "smoke": (
        REPORTS / "baseline.json",
        lambda current, baseline, tolerance: compare(current, baseline),
        _summarise_smoke,
    ),
    "live": (REPORTS / "live_baseline.json", compare_live, _summarise_live),
    "gap": (REPORTS / "optgap_baseline.json", compare_gap, _summarise_gap),
    "claims": (
        REPORTS / "claims_baseline.json", lambda c, b, t: compare_claims(c, b), _summarise_claims
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="artefact JSON to check")
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON (default: the gate's committed file under "
        f"{REPORTS})",
    )
    mode = parser.add_mutually_exclusive_group()
    for gate in [name for name in GATES if name != "smoke"]:
        mode.add_argument(
            f"--{gate}", dest="mode", action="store_const", const=gate,
            help=f"check a {gate} artefact instead of a smoke-sweep summary (module doc)",
        )
    parser.set_defaults(mode="smoke")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="--live / --gap only: allowed relative regression or drift "
        "(default: 0.25); the smoke and claims gates are exact",
    )
    args = parser.parse_args(argv)

    default_baseline, check, summarise = GATES[args.mode]
    current = json.loads(Path(args.current).read_text())
    baseline = json.loads(Path(args.baseline or default_baseline).read_text())
    problems = check(current, baseline, args.tolerance)
    summarise(current, baseline)
    if problems:
        print(f"\nbenchmark gate FAILED ({len(problems)} violation(s)):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
