#!/usr/bin/env python3
"""The repository benchmark: four workloads, both planes, one command.

    python3 bench/run.py --workload sim-paper --seed 1 --seconds 15 --trace 0
        one workload in this process; the last stdout line is the result
        object BENCHMARK.json's contract asks for (end-to-end metrics with
        ``--trace 0``, per-layer metrics with ``--trace 1``)
    python3 bench/run.py [--seed 1] [--out FILE]
        every workload, traced and untraced, each in its own child process
    python3 bench/run.py --aa
        the whole benchmark twice on this tree: gaps against the bounds
    python3 bench/run.py --selftest

Exit status is non-zero when any output check fails.  Names, units,
directions and bounds live in ``BENCHMARK.json`` only; this file reads
them.  See ``bench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Timed reps per run: as many as fit ``--seconds``, within these limits.
MIN_REPS, MAX_REPS = 3, 9


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def make_workload(name: str, seed: int, *, smoke: bool = False):
    """Instantiate a workload; imports ``repro`` from this checkout's src/."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        from liveplane import LiveWorkload
        from simplane import SimWorkload
    except ImportError as exc:
        sys.exit(f"bench: cannot import the program under {ROOT / 'src'}: {exc}")
    if name == "live-serve":
        return LiveWorkload(seed, requests=600 if smoke else None)
    return SimWorkload(name, seed, duration=30.0 if smoke else None)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def setup_samples(workload) -> list[float]:
    """Up to three scored set-up samples, fewer when set-up is expensive."""
    samples: list[float] = []
    began = perf_counter()
    while not samples or (len(samples) < 3 and perf_counter() - began < 0.25):
        gc.collect()
        samples.append(workload.setup_only())
    return samples


def measure(workload, seconds: float, trace: bool, *, min_reps: int = MIN_REPS) -> dict:
    """Warm-up, (traced rep,) timed reps, set-up samples -> every metric."""
    from calibrate import calibrated_us
    from layers import traced

    try:
        warm = workload.rep(instrumented=False, check=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plain_wall = warm.setup_s + warm.drain_s + warm.finalize_s
        workload.open()  # kernels exist only from here on: never in peak RSS
        profile = None
        if trace:
            gc.collect()
            began = perf_counter()
            traced_rep, calls, self_s = traced(
                lambda: workload.rep(instrumented=False)
            )
            seconds -= perf_counter() - began
            profile = (traced_rep, calls, self_s)
        count = max(min_reps, min(MAX_REPS, int(seconds // plain_wall)))
        # Scored set-up samples on either side of every timed rep, so they
        # see the same weather the reps do.  The collector runs before
        # every sample and rep: otherwise whichever one happens to trip a
        # full collection of its predecessors' garbage reads twice as long.
        reps, setups = [], setup_samples(workload)
        for _ in range(count):
            gc.collect()
            reps.append(workload.rep(instrumented=True))
            setups.extend(setup_samples(workload))
        probes = workload.layer_probes() if trace else {}
    finally:
        workload.close()

    problems = list(warm.problems)
    every = reps + ([profile[0]] if profile else [])
    for index, rep in enumerate(every):
        problems.extend(rep.problems)
        if rep.exact != warm.exact:
            changed = sorted(k for k in warm.exact if rep.exact.get(k) != warm.exact[k])
            problems.append(f"rep {index} changed the model statistics: {changed}")
    slices = {len(rep.recorder.slices) for rep in reps}
    if len(slices) != 1:
        problems.append(f"reps disagree on slice count: {sorted(slices)}")

    scores = [rep.recorder.scores() for rep in reps]
    cal_us = calibrated_us(scores, workload.nominal_us)
    requests = warm.requests
    exact = warm.exact
    end_to_end = {
        "setup_s": statistics.median(setups) * workload.nominal_us * 1e-6,
        "cal_us_per_request": cal_us / requests,
        "peak_rss_mb": peak_rss_mb,
        "served_share": exact["served_share"],
        "response_hops": exact["response_hops"],
        "overhead_share": exact["overhead_share"],
    }

    drains = [rep.drain_s for rep in reps]
    kernels = [wall for rep in reps for wall in rep.recorder.kernels]
    per_layer = {
        "phase.build_s": min(rep.setup_s for rep in reps),
        "phase.drain_s": min(drains),
        "phase.finalize_s": min(rep.finalize_s for rep in reps),
        "phase.metrics_fold_ms": min(rep.fold_ms for rep in reps),
        "raw.requests_per_s": requests / min(drains),
        "raw.rep_spread": (max(drains) - min(drains)) / statistics.median(drains),
        "cal.kernel_us_min": min(kernels) * 1e6,
        "cal.kernel_us_median": statistics.median(kernels) * 1e6,
        "cal.slices": float(slices.pop()),
        "cal.reps": float(count),
    }
    per_layer.update(
        (name, value) for name, value in exact.items() if "." in name
    )
    for name in reps[0].timings:
        per_layer[name] = statistics.median(rep.timings[name] for rep in reps)
    per_layer.update(probes)
    kinds = reps[0].recorder.kinds
    if "tick" in kinds:
        ticks = [index for index, kind in enumerate(kinds) if kind == "tick"]
        per_layer["live.control_share"] = (
            calibrated_us(scores, workload.nominal_us, ticks) / cal_us
        )
    if profile:
        traced_rep, calls, self_s = profile
        traced_wall = traced_rep.setup_s + traced_rep.drain_s + traced_rep.finalize_s
        plain = min(rep.setup_s + rep.drain_s + rep.finalize_s for rep in reps)
        total_s = sum(self_s.values())
        per_layer["trace.calls_per_request"] = sum(calls.values()) / requests
        per_layer["trace.overhead_ratio"] = traced_wall / plain
        for layer, count_ in calls.items():
            per_layer[f"calls_per_request.{layer}"] = count_ / requests
            per_layer[f"self_share.{layer}"] = self_s[layer] / total_s

    return {
        "problems": problems,
        "attempted": sum(rep.requests for rep in [warm] + every),
        "failed": sum(rep.failed for rep in [warm] + every),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "info": {**warm.info, "reps": count, "requests_per_rep": requests},
    }


def result_object(spec: dict, label: str, raw: dict, trace: bool) -> dict:
    """Print one run's metrics; return the contract's result object."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = raw["per_layer"] if trace else raw["end_to_end"]
    problems = raw["problems"]
    stray = sorted(set(values) - {m["name"] for m in wanted})
    if stray:
        problems.append(f"metrics missing from BENCHMARK.json: {stray}")
    if not trace:
        problems.extend(
            f"end-to-end metric {m['name']} is missing"
            for m in wanted
            if m["name"] not in values
        )
    # A per-layer metric that does not exist on this workload reads 0.
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    info = " ".join(f"{key}={value}" for key, value in raw["info"].items())
    print(f"{label} trace {int(trace)}  [{info}]")
    for metric_name, metric in metrics.items():
        print(f"  {metric_name:<46} {metric['value']:>16.6g} {metric['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    if name not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"bench: unknown workload {name!r}")
    raw = measure(make_workload(name, seed), seconds, trace)
    return result_object(spec, f"workload {name} seed {seed}", raw, trace)


# ----------------------------------------------------------------------
# Every workload, each in a child process (own heap, own peak RSS)
# ----------------------------------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, traces: tuple[bool, ...]) -> dict:
    spec = load_spec()
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        merged = {"correct": True, "metrics": {}}
        for trace in traces:
            result = run_child(name, seed, seconds, trace)
            merged["correct"] &= result["correct"]
            merged["metrics"].update(result["metrics"])
        results[name] = merged
    return results


def run_aa(seed: int, seconds: float) -> int:
    """Same tree, same seed, two sets of runs: gaps against the bounds."""
    spec = load_spec()
    first = run_all(seed, seconds, (False,))
    second = run_all(seed, seconds, (False,))
    status = 0
    print(f"{'workload':<12} {'metric':<20} {'first':>14} {'second':>14} {'gap':>8} {'bound':>7}")
    for name in first:
        if not (first[name]["correct"] and second[name]["correct"]):
            print(f"{name:<12} a run failed its output checks")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]["value"]
            b = second[name]["metrics"][metric["name"]]["value"]
            gap = abs(b - a) / abs(a)
            verdict = "" if gap <= metric["bound"] else "  EXCEEDS BOUND"
            if verdict:
                status = 1
            print(
                f"{name:<12} {metric['name']:<20} {a:>14.6g} {b:>14.6g} "
                f"{gap:>8.2%} {metric['bound']:>7.0%}{verdict}"
            )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every metric of a full run as JSON")
    parser.add_argument("--aa", action="store_true", help="run twice, compare")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.selftest:
        import selftest

        return selftest.main(sys.modules[__name__])
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.aa:
        return run_aa(args.seed, seconds)
    if args.workload:
        result = run_one(args.workload, args.seed, seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = run_all(args.seed, seconds, (False, True))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
