"""Offline-optimal placement solvers and the optimality-gap oracle.

The paper's protocol makes placement decisions online from local load
and proximity statistics.  This package answers "how far from optimal is
that?" with two exact solvers and one heuristic:

* :mod:`repro.optimal.tree_dp` — exact single-object replica placement
  on annotated trees under the Closest allocation policy (capacity and
  QoS constrained), certified in its tests by an exhaustive search;
* :mod:`repro.optimal.transport` — an exact min-cost-flow transportation
  solver, the engine behind the gap harness's per-run lower bound;
* :mod:`repro.optimal.multi_object` — a capacity-aware greedy placer for
  many objects on arbitrary graphs (k-median style); no strategy or
  harness calls it.

:mod:`repro.optimal.gap` wires the exact solvers into the simulator: it
replays one seeded workload through the paper protocol and each baseline
strategy, computes the offline-optimal cost for the demand each run
actually saw, and reports the ratio.
"""

from repro.optimal.gap import (
    CapacityViolationCounter,
    DemandTrace,
    GapSettings,
    OracleBound,
    make_gap_topology,
    oracle_lower_bound,
    quick_settings,
    run_gap_benchmark,
    run_gap_point,
    tree_replica_gap,
    uunet_slice,
)
from repro.optimal.instance import (
    INF_SLACK,
    PlacementEvaluation,
    TreeInstance,
    evaluate_tree_placement,
)
from repro.optimal.multi_object import (
    MultiObjectPlacement,
    greedy_multi_object_placement,
    greedy_replica_set,
    weighted_distance,
)
from repro.optimal.transport import MinCostFlow, TransportPlan, solve_transport
from repro.optimal.tree_dp import TreePlacement, solve_tree_placement

__all__ = [
    "CapacityViolationCounter",
    "DemandTrace",
    "GapSettings",
    "INF_SLACK",
    "MinCostFlow",
    "MultiObjectPlacement",
    "OracleBound",
    "PlacementEvaluation",
    "TransportPlan",
    "TreeInstance",
    "TreePlacement",
    "evaluate_tree_placement",
    "greedy_multi_object_placement",
    "greedy_replica_set",
    "make_gap_topology",
    "oracle_lower_bound",
    "quick_settings",
    "run_gap_benchmark",
    "run_gap_point",
    "solve_transport",
    "solve_tree_placement",
    "tree_replica_gap",
    "uunet_slice",
    "weighted_distance",
]
