"""Measurement and reporting for the paper's evaluation metrics.

The collectors subscribe to the hosting system's observer hooks and
produce the exact quantities Section 6.2 reports:

* :class:`~repro.metrics.bandwidth.BandwidthCollector` — backbone traffic
  in byte-hops, bucketed over time and split into payload vs relocation
  overhead (Figures 6 and 7).
* :class:`~repro.metrics.latency.LatencyCollector` — mean response
  latency over time (Figure 6, right) and percentiles off
  :class:`~repro.metrics.histogram.LatencyHistogram`, the one latency
  structure (the live loadgen merges it too).
* :class:`~repro.metrics.replicas.ReplicaCollector` — replica census over
  time and the mean replicas-per-object statistic (Table 2).
* :class:`~repro.metrics.loadstats.LoadCollector` — maximum host load and
  one focal host's actual load vs its bound estimates (Figure 8).
* :mod:`~repro.metrics.adjustment` — the adjustment-time statistic
  (Table 2): time until bandwidth first stays within 10% of equilibrium.
* :mod:`~repro.metrics.report` — plain-text tables and series renderers
  used by the CLI and the examples.
* :mod:`~repro.metrics.availability` — fault-plane scalars (retries,
  detection, repair, unavailability) for runs with faults enabled.
"""

from repro.metrics.adjustment import adjustment_time, equilibrium_level
from repro.metrics.availability import fault_metrics
from repro.metrics.bandwidth import BandwidthCollector
from repro.metrics.collectors import BucketedSeries, TimeSeries
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.latency import LatencyCollector
from repro.metrics.loadstats import LoadCollector
from repro.metrics.replicas import ReplicaCollector

__all__ = [
    "TimeSeries",
    "BucketedSeries",
    "BandwidthCollector",
    "LatencyCollector",
    "LatencyHistogram",
    "LoadCollector",
    "ReplicaCollector",
    "adjustment_time",
    "equilibrium_level",
    "fault_metrics",
]
