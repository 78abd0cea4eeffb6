#!/usr/bin/env python3
"""Replica consistency in action (Section 5).

Demonstrates the three object categories on a small platform:

1. A *static* page replicated across regions, updated by its content
   provider; primary-copy propagation keeps replicas current, either
   immediately or batched through the epidemic batcher.
2. A *commuting-update* page (an access counter): each replica counts
   locally and the merged total is exact regardless of merge order.
3. A *non-commuting* page classified migrate-only: the consistency policy
   blocks the placement protocol from ever creating a second replica,
   while migrations remain free.
"""

from __future__ import annotations

from repro.consistency.categories import Category, ConsistencyPolicy
from repro.consistency.epidemic import EpidemicBatcher
from repro.consistency.merge import CountingStats
from repro.consistency.primary_copy import PrimaryCopyManager
from repro.core.config import ProtocolConfig
from repro.core.create_obj import handle_create_obj
from repro.core.protocol import HostingSystem
from repro.network.message import MessageClass
from repro.network.transport import Network
from repro.routing.routes_db import RoutingDatabase
from repro.sim.engine import Simulator
from repro.topology.generators import two_cluster_topology
from repro.types import PlacementAction, PlacementReason

STATIC_PAGE, COUNTER_PAGE, CART_PAGE = 0, 1, 2


def main() -> None:
    print(__doc__)
    sim = Simulator()
    topology = two_cluster_topology(cluster_size=4, bridge_length=3)
    network = Network(sim, RoutingDatabase(topology))
    policy = ConsistencyPolicy()
    policy.classify(COUNTER_PAGE, Category.COMMUTING)
    policy.classify(CART_PAGE, Category.NON_COMMUTING)  # migrate-only
    system = HostingSystem(
        sim,
        network,
        ProtocolConfig(),
        num_objects=3,
        consistency_policy=policy,
    )
    manager = PrimaryCopyManager(system, immediate=False)
    for obj in range(3):
        system.place_initial(obj, 0)

    # --- Category 1: static page, primary copy + epidemic batching -----
    print("1) static page replicates to Europe; provider updates batch:")
    handle_create_obj(
        system, 0, 7, PlacementAction.REPLICATE, STATIC_PAGE, 0.5,
        PlacementReason.GEO,
    )
    batcher = EpidemicBatcher(sim, manager, period=60.0)
    for edit in range(3):
        manager.apply_update(STATIC_PAGE)
        batcher.mark_dirty(STATIC_PAGE)
    print(f"   primary at host {manager.primary(STATIC_PAGE)}, "
          f"version {manager.primary_version(STATIC_PAGE)}; "
          f"stale replicas before flush: {manager.stale_replicas(STATIC_PAGE)}")
    sim.run(until=61.0)
    print(f"   after one epidemic flush: stale={manager.stale_replicas(STATIC_PAGE)}, "
          f"update transfers={manager.updates_propagated} "
          f"(3 edits, 1 transfer: batching amortised)")
    update_bytes = network.byte_hops[MessageClass.UPDATE]
    print(f"   update traffic: {update_bytes / 1024:.0f} KB-hops\n")

    # --- Category 2: commuting statistics merge ------------------------
    print("2) access-counter page: per-replica counts merge exactly:")
    stats = CountingStats(COUNTER_PAGE)
    stats.record_access(0, 120)   # American replica counted 120 hits
    stats.record_access(7, 45)    # European replica counted 45
    print(f"   local counts {stats.snapshot()}; merged total "
          f"{stats.merged_total()}")
    stats.transfer(7, 0)  # the European replica is dropped
    print(f"   after replica drop + fold-in: {stats.snapshot()} "
          f"(total still {stats.merged_total()})\n")

    # --- Category 3: migrate-only ---------------------------------------
    print("3) shopping-cart page (non-commuting): replication refused,")
    replicated = handle_create_obj(
        system, 0, 7, PlacementAction.REPLICATE, CART_PAGE, 0.5,
        PlacementReason.GEO,
    )
    print(f"   REPLICATE accepted? {replicated}")
    migrated = handle_create_obj(
        system, 0, 7, PlacementAction.MIGRATE, CART_PAGE, 0.5,
        PlacementReason.GEO,
    )
    if migrated:
        # The source-side half of a migration: drop the local copy.
        system.drive(system.engine.reduce_affinity(0, CART_PAGE, record_drop=False))
    print(f"   MIGRATE   accepted? {migrated} "
          f"(replicas now on hosts {system.replica_hosts(CART_PAGE)} — "
          "count unchanged)")
    system.check_invariants()


if __name__ == "__main__":
    main()
