#!/usr/bin/env python3
"""Failure masking: replicas keep content available through host crashes.

The paper targets performance, not availability — but a platform that
replicates for proximity gets availability as a side effect, and this
example measures how much.  It runs a Zipf workload, crashes three hosts
mid-run (including one regional hub), and reports:

* how many requests failed outright (all replicas down) vs were
  transparently re-routed to surviving replicas,
* how object availability correlates with replica count (hot objects
  ride out the outage; sole-replica cold objects go dark),
* full recovery after the hosts return.
"""

from __future__ import annotations

from repro.failures.injector import FailureInjector
from repro.metrics.report import format_table
from repro.scenarios.presets import paper_scenario
from repro.scenarios.runner import build_system
from repro.sim.rng import RngFactory
from repro.workloads.base import attach_generators

SCALE = 0.15
DURATION = 1500.0
OUTAGE_START, OUTAGE_END = 600.0, 900.0
VICTIMS = (0, 20, 40)


def main() -> None:
    print(__doc__)
    config = paper_scenario("zipf", scale=SCALE, duration=DURATION)
    sim, system, workload = build_system(config)
    injector = FailureInjector(sim, system)
    for victim in VICTIMS:
        injector.schedule_outage(
            victim, at=OUTAGE_START, duration=OUTAGE_END - OUTAGE_START
        )
    system.start()
    generators = attach_generators(
        sim, system, workload, config.node_request_rate, RngFactory(config.seed)
    )
    window: dict[str, int] = {"ok": 0, "post_ok": 0}

    def observe(obj, gateway, server, issued_at, response_hops):
        if OUTAGE_START <= issued_at < OUTAGE_END:
            window["ok"] += 1
        elif issued_at >= OUTAGE_END:
            window["post_ok"] += 1

    system.served_observers.append(observe)
    # Failed requests are a system counter, not a callback: read it at
    # the window edges.
    failed_by: dict[float, int] = {}

    def read_failed(edge: float) -> None:
        failed_by[edge] = system.failed_requests

    for edge in (OUTAGE_START, OUTAGE_END):
        sim.schedule_at(edge, read_failed, edge)
    print(
        f"hosts {VICTIMS} fail at t={OUTAGE_START:g}s, "
        f"recover at t={OUTAGE_END:g}s ...\n"
    )
    sim.run(until=DURATION)
    for generator in generators:
        generator.stop()

    window["failed"] = failed_by[OUTAGE_END] - failed_by[OUTAGE_START]
    window["post_failed"] = system.failed_requests - failed_by[OUTAGE_END]
    during_total = window["failed"] + window["ok"]
    post_total = window["post_failed"] + window["post_ok"]
    rows = [
        [
            "during outage",
            f"{during_total}",
            f"{window['failed']}",
            f"{window['failed'] / during_total * 100:.2f}%",
        ],
        [
            "after recovery",
            f"{post_total}",
            f"{window['post_failed']}",
            f"{window['post_failed'] / post_total * 100:.2f}%" if post_total else "-",
        ],
    ]
    print(format_table(["window", "requests", "failed", "failure rate"], rows))
    print(f"\nrequests transparently re-routed: {system.rerouted_requests}")
    for victim in VICTIMS:
        print(
            f"host {victim} downtime: "
            f"{injector.downtime(victim, DURATION):.0f}s"
        )
    # Availability by replica count at outage start is the interesting
    # structural fact: multi-replica (popular) objects never went dark.
    dark = sum(
        1
        for obj in range(config.num_objects)
        if all(host in VICTIMS for host in system.replica_hosts(obj))
    )
    print(f"objects still single-homed on a victim at the end: {dark}")
    system.check_invariants()


if __name__ == "__main__":
    main()
