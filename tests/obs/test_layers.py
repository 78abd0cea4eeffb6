"""The profiler's one vocabulary (:mod:`repro.obs.layers`) and its exact roll-up.

``rollup`` reads the profiler's raw entries, one per code object, so two
functions that share a ``(file, line, name)`` label are both counted;
``pstats`` keys its table by that label and keeps only one of them.
``bench/layers.py`` reports the same names, and until it imports this
module the two tables are held equal here.
"""

import ast
import cProfile
import importlib.util
import json
import os
import pathlib
import pstats
import subprocess
import sys
from dataclasses import dataclass

import repro
from repro.obs.layers import LAYER_PATHS, LAYERS, layer_of, rollup

ROOT = pathlib.Path(__file__).resolve().parents[2]
PACKAGE = pathlib.Path(repro.__file__).parent


@dataclass
class _Left:
    value: int


@dataclass
class _Right:
    value: int


def test_colliding_labels_are_summed_not_overwritten():
    profiler = cProfile.Profile()
    profiler.enable()
    for value in range(300):
        _Left(value)
    for value in range(200):
        _Right(value)
    profiler.disable()
    entries = profiler.getstats()
    calls, _seconds = rollup(entries)
    assert sum(calls.values()) == sum(entry.callcount for entry in entries)
    inits = [entry for entry in entries
             if not isinstance(entry.code, str) and entry.code.co_name == "__init__"]
    assert sorted(entry.callcount for entry in inits) == [200, 300]
    assert calls["other"] >= 500
    labels = {(e.code.co_filename, e.code.co_firstlineno, e.code.co_name) for e in inits}
    if len(labels) == 1:
        # The label-keyed table keeps one of the two.
        table = pstats.Stats(profiler).stats
        assert sum(row[1] for row in table.values()) < sum(calls.values())


def test_a_builtin_is_charged_to_each_callers_layer():
    profiler = cProfile.Profile()
    profiler.enable()
    len([1])  # no profiled caller: stays in "other"
    _Left(1)
    profiler.disable()
    entries = profiler.getstats()
    calls, seconds = rollup(entries)
    assert sum(calls.values()) == sum(entry.callcount for entry in entries)
    assert set(calls) == set(seconds) == set(LAYERS)
    assert min(seconds.values()) >= 0.0


def test_layer_of_matches_the_first_fragment():
    assert layer_of("/x/src/repro/core/fastlane.py") == "core.fastlane"
    assert layer_of("C:\\x\\repro\\load\\bounds.py") == "core.placement"
    assert layer_of("/usr/lib/python3.11/heapq.py") == "other"
    assert LAYERS[-1] == "other" and len(set(LAYERS)) == len(LAYERS)


def test_the_benchmark_reports_the_same_layers():
    """Loaded by path and only read: the benchmark's table is its own."""
    spec = importlib.util.spec_from_file_location("_bench_layers", ROOT / "bench" / "layers.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.LAYER_PATHS == LAYER_PATHS
    assert bench.LAYERS == LAYERS


def test_call_counts_repeat_across_processes(tmp_path):
    """Two processes, two hash seeds: the same calls per request."""
    readings = []
    for run in range(2):
        out = tmp_path / f"profile{run}.json"
        subprocess.run(
            [sys.executable, "-m", "repro", "profile", "--preset", "zipf",
             "--scale", "0.05", "--duration", "30", "--loss", "0.02",
             "--json", str(out)],
            check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent), "PYTHONHASHSEED": str(run)},
        )  # fmt: skip
        readings.append(json.loads(out.read_text()))
    first, second = readings
    assert set(first["calls_per_request"]) == set(first["self_share"]) == set(LAYERS)
    assert first["calls_per_request"] == second["calls_per_request"]
    assert first["profiled_calls_total"] == second["profiled_calls_total"] > 0
    assert first["counters"]["requests_lost"] > 0  # the lossy, general path


# ----------------------------------------------------------------------
# Nothing in the package patches a class: brackets are simulator tracers
# ----------------------------------------------------------------------


def _class_patches(source: str) -> list[str]:
    """``Cls.attr = ...`` (any assignment form) and ``setattr(Cls, ...)``
    where ``Cls`` is a CamelCase name."""

    def class_like(node):
        return (isinstance(node, ast.Name) and node.id[:1].isupper()
                and not node.id.isupper())

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and node.args and class_like(node.args[0])):
            found.append(f"line {node.lineno}: setattr({node.args[0].id}, ...)")
            continue
        else:
            continue
        for target in targets:
            for part in ast.walk(target):
                if isinstance(part, ast.Attribute) and class_like(part.value):
                    found.append(f"line {node.lineno}: {part.value.id}.{part.attr} =")
    return found


def test_the_patch_lint_finds_what_the_profiler_used_to_do():
    assert _class_patches("Simulator.run = run\n") == ["line 1: Simulator.run ="]
    assert _class_patches("HostingSystem._make_placement_tick = make_tick\n")
    assert _class_patches("a, Simulator.run = 1, 2\n")
    assert _class_patches("setattr(Simulator, 'run', run)\n")
    assert not _class_patches("self.run = run\nsystem.submit_request = f\nCONFIG.x = 1\n")


def test_no_module_assigns_to_a_class_attribute():
    found = {
        str(path.relative_to(PACKAGE)): _class_patches(path.read_text())
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {path: lines for path, lines in found.items() if lines} == {}
