"""What a serving process loads: the live tier, not the offline harnesses."""

from tests.conftest import run_fresh


def test_the_live_tier_loads_no_offline_oracle():
    """``import repro.live`` loads neither the optimality-gap oracle
    (``repro.optimal``) nor the availability-aware placer, which imports
    it."""
    script = """
import sys
import repro.live
print(sorted(
    name for name in sys.modules
    if name == "repro.optimal"
    or name.startswith("repro.optimal.")
    or name == "repro.baselines.availability_aware"
))
"""
    assert run_fresh(script) == "[]"
