"""The package runs on the standard library alone (``dependencies = []``)."""

from tests.conftest import run_fresh


def test_a_run_and_a_live_deployment_import_no_networkx():
    """networkx stays a test oracle: a paper run and the live tier's
    topology and routes must not load it."""
    script = """
import sys
import repro
from repro.live.config import LiveConfig
from repro.routing.routes_db import RoutingDatabase
from repro.scenarios.presets import paper_scenario
from repro.scenarios.runner import run_scenario
result = run_scenario(paper_scenario("zipf", scale=0.3, duration=2.0, seed=1))
assert result.latency.completed > 0, result.latency.completed
routes = RoutingDatabase(LiveConfig(num_hosts=4, topology="ring").build_topology())
assert routes.route(0, 2) in ((0, 1, 2), (0, 3, 2))
print("networkx" in sys.modules)
"""
    assert run_fresh(script) == "False"
