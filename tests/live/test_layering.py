"""What a serving process loads: the live tier, not the offline harnesses."""

from pathlib import Path

from tests.conftest import run_fresh

BENCH = Path(__file__).resolve().parents[2] / "bench"

#: Fresh-interpreter imports that must load no offline module: the live
#: tier alone, and the two workload planes a ``bench/run.py`` process
#: imports (as its ``make_workload`` does).
SCRIPTS = {
    "repro.live": "import repro.live",
    "bench/run.py": f"sys.path.insert(0, {str(BENCH)!r})\nimport liveplane, simplane",
}


def test_the_live_tier_loads_no_offline_oracle():
    """Neither ``import repro.live`` nor a benchmark process loads the
    optimality-gap oracle (``repro.optimal``) or the command line
    (``repro.cli``), so edits to those modules cannot move what the
    benchmark times."""
    for label, imports in SCRIPTS.items():
        script = f"""
import sys
{imports}
print(sorted(
    name for name in sys.modules
    if name.split(".")[:2] in (["repro", "optimal"], ["repro", "cli"])
))
"""
        assert run_fresh(script) == "[]", label
