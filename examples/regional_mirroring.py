#!/usr/bin/env python3
"""Regional mirroring: watch replicas migrate home.

The paper's regional workload models region-local popularity ("a document
is popular only in a particular region, which allows all the replicas of
the document to be concentrated in that region").  This example runs the
regional scenario on the synthetic UUNET backbone and prints, per region,
where that region's preferred objects physically live before and after
the protocol adjusts — plus the resulting bandwidth win.

Usage:
    python examples/regional_mirroring.py [scale] [duration_seconds]
"""

from __future__ import annotations

import sys
from collections import Counter

from repro import paper_scenario, run_scenario, uunet_backbone
from repro.metrics.report import format_table, series_summary
from repro.topology.regions import REGIONS
from repro.workloads.regional import RegionalWorkload


def replica_geography(system, workload, topology):
    """region -> Counter(region of replica hosts of preferred objects)."""
    geography = {}
    for region in REGIONS:
        counter: Counter = Counter()
        for obj in workload.preferred_ranges[region]:
            for host in system.replica_hosts(obj):
                counter[topology.region(host).value] += 1
        geography[region] = counter
    return geography


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.15
    duration = float(sys.argv[2]) if len(sys.argv) > 2 else 1800.0
    config = paper_scenario("regional", scale=scale, duration=duration)
    topology = uunet_backbone()
    workload = RegionalWorkload(config.num_objects, topology)

    print(f"Running {config.name!r} for {duration:g} simulated seconds ...")
    result = run_scenario(config, topology=topology)
    system = result.system

    print()
    print("Where each region's preferred objects ended up:")
    geography = replica_geography(system, workload, topology)
    rows = []
    for region in REGIONS:
        counter = geography[region]
        total = sum(counter.values())
        home = counter.get(region.value, 0)
        rows.append(
            [
                region.value,
                f"{total}",
                f"{home}",
                f"{home / total * 100:.0f}%" if total else "-",
            ]
        )
    print(
        format_table(
            ["region", "replicas of its objects", "hosted in-region", "share"],
            rows,
        )
    )
    print()
    print(series_summary("bandwidth (byte-hops/min)", result.bandwidth.payload_series()))
    print(series_summary("mean response hops", result.latency.mean_response_hops_series()))
    print(
        f"\nbandwidth reduction: {result.bandwidth_reduction() * 100:.1f}% "
        f"(paper reports 90.1% for the regional workload at full scale)"
    )
    print(f"replicas per object: {result.replicas_per_object():.2f} (paper: 1.49)")


if __name__ == "__main__":
    main()
