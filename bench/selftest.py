"""Self-test of the benchmark's own machinery (``run.py --selftest``, < 20 s).

Covers what no run of the benchmark can show about itself: that the
slice estimator cancels a uniform slowdown and rejects an outlier rep,
that profile entries land in the right layer, that ``BENCHMARK.json``
and the result object keep the contract's shape, and that every workload
still runs end to end at a 30 s horizon and emits exactly the metric
names the spec lists.
"""

from __future__ import annotations

import json
import math
import re

from calibrate import SliceRecorder, calibrated_us
from layers import LAYERS, layer_of, rollup

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _recorder(slices, kernels) -> SliceRecorder:
    recorder = SliceRecorder()
    recorder.slices, recorder.kernels = list(slices), list(kernels)
    return recorder


def check_estimator() -> None:
    slices = [0.004 + 0.001 * (index % 7) for index in range(200)]
    kernels = [0.0006] * 201
    clean = calibrated_us([_recorder(slices, kernels).scores()] * 5, 600.0)
    assert math.isclose(clean, sum(slices) * 1e6, rel_tol=1e-12), clean

    # A slowdown shared by workload and kernel cancels, rep by rep.
    reps = [
        _recorder([s * factor for s in slices], [k * factor for k in kernels]).scores()
        for factor in (1.0, 1.37, 0.8, 2.5, 1.1)
    ]
    assert math.isclose(calibrated_us(reps, 600.0), clean, rel_tol=1e-12)

    # One preempted rep per slice (a different rep each time) is rejected.
    reps = [
        _recorder(
            [s * (10.0 if index % 5 == rep else 1.0) for index, s in enumerate(slices)],
            kernels,
        ).scores()
        for rep in range(5)
    ]
    assert math.isclose(calibrated_us(reps, 600.0), clean, rel_tol=1e-12)

    # A subset of slices is a share of the whole.
    half = calibrated_us(reps, 600.0, range(0, 200, 2))
    assert 0.0 < half < clean

    try:
        calibrated_us([[1.0, 2.0], [1.0]], 600.0)
    except ValueError:
        pass
    else:
        raise AssertionError("reps with different slice counts were accepted")


def check_layers() -> None:
    table = {
        "/x/src/repro/sim/events.py": "sim",
        "/x/src/repro/workloads/batched.py": "workloads",
        "/x/src/repro/core/fastlane.py": "core.fastlane",
        "/x/src/repro/core/protocol.py": "core.protocol",
        "/x/src/repro/core/redirector.py": "core.redirector",
        "/x/src/repro/core/host.py": "core.host",
        "/x/src/repro/core/placement.py": "core.placement",
        "/x/src/repro/core/create_obj.py": "core.placement",
        "/x/src/repro/core/offload.py": "core.placement",
        "/x/src/repro/core/load_board.py": "core.placement",
        "/x/src/repro/load/estimates.py": "core.placement",
        "/x/src/repro/network/rpc.py": "network",
        "/x/src/repro/metrics/latency.py": "metrics",
        "/x/src/repro/routing/routes_db.py": "routing",
        "/x/src/repro/failures/repair.py": "failures",
        "/x/src/repro/consistency/plane.py": "consistency",
        "/x/src/repro/live/httpd.py": "live",
        "C:\\x\\src\\repro\\live\\pool.py": "live",
        "/x/src/repro/scenarios/runner.py": "other",
        "/usr/lib/python3.11/asyncio/streams.py": "other",
        "/x/bench/run.py": "other",
    }
    for path, layer in table.items():
        assert layer_of(path) == layer, (path, layer_of(path))
    assert set(table.values()) == set(LAYERS)

    host = ("/x/src/repro/core/host.py", 10, "record_service")
    loop = ("/usr/lib/python3.11/asyncio/base_events.py", 5, "_run_once")
    builtin = ("~", 0, "<method 'get' of 'dict' objects>")
    stats = {
        host: (4, 4, 0.5, 0.9, {loop: (4, 4, 0.5, 0.9)}),
        loop: (1, 1, 0.25, 1.5, {}),
        # a builtin called 6x from host.py and 2x from the loop
        builtin: (8, 8, 0.4, 0.4, {host: (6, 6, 0.3, 0.3), loop: (2, 2, 0.1, 0.1)}),
    }
    calls, seconds = rollup(stats)
    assert calls["core.host"] == 10 and calls["other"] == 3, calls
    assert math.isclose(seconds["core.host"], 0.8) and math.isclose(seconds["other"], 0.35)
    assert sum(calls.values()) == 13


def check_spec(spec: dict) -> None:
    """``BENCHMARK.json`` against the limits of the benchmark contract."""
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(part, str) and len(part) <= 200 for part in spec["command"])
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0.0 < metric["bound"] <= 0.25, metric
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_result(result: dict, wanted: list[dict]) -> None:
    """The object printed as a run's last line."""
    assert list(result) == ["correct", "attempted", "failed", "metrics"], list(result)
    assert result["correct"] is True, "a smoke run failed its output checks"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    json.loads(json.dumps(result))


def check_smoke(run, spec: dict) -> None:
    """Each workload at a 30 s horizon (live: 600 requests), two reps.

    Both planes run once traced, so between them the four workloads must
    produce every per-layer name the spec lists and no other.
    """
    traced = {"sim-paper", "live-serve"}
    produced: set[str] = set()
    for workload in spec["workloads"]:
        name = workload["name"]
        trace = name in traced
        raw = run.measure(run.make_workload(name, 1, smoke=True), 0.0, trace, min_reps=2)
        produced.update(raw["per_layer"])
        result = run.result_object(spec, f"smoke {name}", raw, trace)
        check_result(result, spec["per_layer"] if trace else spec["end_to_end"])
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values()), result
    listed = {m["name"] for m in spec["per_layer"]}
    assert produced == listed, sorted(produced ^ listed)


def main(run) -> int:
    """``run`` is the ``run.py`` module (it is ``__main__`` when this runs)."""
    spec = run.load_spec()
    for label, check in (
        ("estimator", check_estimator),
        ("layers", check_layers),
        ("spec", lambda: check_spec(spec)),
        ("smoke", lambda: check_smoke(run, spec)),
    ):
        check()
        print(f"selftest {label}: ok")
    return 0
