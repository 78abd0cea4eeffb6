"""Live-side metrics: snapshots, summaries, and export.

A live deployment's observable state is spread across processes, so
metrics travel as JSON snapshots (each server's ``GET /metrics``), are
merged into one deployment snapshot, and reduce to a flat summary whose
keys deliberately mirror the simulator's ``scenario_metrics`` names
(``relocations``, ``replica_drops``, ``replicas_per_object``, ...) so
the existing report tooling — :func:`repro.metrics.report.format_table`
and friends — renders live runs and simulated runs side by side.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.export import revision
from repro.types import PlacementAction, PlacementEvent


def placement_event_dict(event: PlacementEvent) -> dict[str, Any]:
    """One replica-set change as a JSON-safe dict."""
    return {
        "time": event.time,
        "action": event.action.value,
        "reason": event.reason.value,
        "obj": event.obj,
        "source": event.source,
        "target": event.target,
        "copied_bytes": event.copied_bytes,
    }


def summarize_deployment(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Flatten a deployment snapshot to scenario_metrics-style scalars."""
    hosts = snapshot.get("hosts", [])
    redirector = snapshot.get("redirector", {})
    events = [
        event for host in hosts for event in host.get("placement_events", [])
    ]
    by_action = {action.value: 0 for action in PlacementAction}
    copied_bytes = 0
    for event in events:
        by_action[event["action"]] = by_action.get(event["action"], 0) + 1
        copied_bytes += int(event.get("copied_bytes", 0))
    replicas_total = int(redirector.get("total_replicas", 0))
    registry = redirector.get("registry", {})
    num_objects = len(registry) or 1
    summary = {
        "requests_serviced": sum(h.get("serviced_total", 0) for h in hosts),
        "requests_routed": int(redirector.get("routed_total", 0)),
        "requests_unroutable": int(redirector.get("unroutable_total", 0)),
        "replications": by_action[PlacementAction.REPLICATE.value],
        "migrations": by_action[PlacementAction.MIGRATE.value],
        "replica_drops": by_action[PlacementAction.DROP.value],
        "relocations": (
            by_action[PlacementAction.REPLICATE.value]
            + by_action[PlacementAction.MIGRATE.value]
        ),
        "copied_bytes": copied_bytes,
        "replicas_total": replicas_total,
        "replicas_per_object": replicas_total / num_objects,
        "max_measured_load": max(
            (h.get("measured_load", 0.0) for h in hosts), default=0.0
        ),
        "chose_closest": int(redirector.get("chose_closest", 0)),
        "chose_least_requested": int(redirector.get("chose_least_requested", 0)),
        "num_shards": int(redirector.get("num_shards", 0)),
        "cross_shard_forwards": int(redirector.get("forwarded_total", 0)),
        "control_deduplicated": int(redirector.get("deduplicated_total", 0)),
        "control_throttled": int(redirector.get("throttled_total", 0)),
    }
    return summary


def write_metrics(path: str | Path, snapshot: dict[str, Any]) -> dict[str, Any]:
    """Write a deployment snapshot, its summary and the revision; returns the payload."""
    payload = {**snapshot, "summary": summarize_deployment(snapshot), "revision": revision()}
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def format_live_summary(summary: dict[str, Any]) -> str:
    """Render a live summary with the shared report tooling."""
    from repro.metrics.report import format_table

    rows = [
        (key, f"{value:.3f}" if isinstance(value, float) else str(value))
        for key, value in sorted(summary.items())
    ]
    return format_table(("metric", "value"), rows)
