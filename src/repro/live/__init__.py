"""The live asyncio serving runtime (the bridge from reproduction to system).

Everything under :mod:`repro.live` deploys the *same* protocol logic the
simulator exercises — :mod:`repro.core.placement`,
:mod:`repro.core.create_obj`, :mod:`repro.core.offload` — over real TCP
sockets: a redirector server answering ChooseReplica per request, replica
host servers that serve object bytes and run wall-clock measurement and
placement timers, and a JSON-over-HTTP control plane carrying CreateObj,
drop arbitration, redirector notices and load reports.  The seam that
makes this possible without behavioural drift is
:mod:`repro.core.runtime` (clock + transport port).

Entry points: ``python -m repro serve`` and ``python -m repro loadgen``.
"""

from repro.live.clock import ManualClock, WallClock
from repro.live.config import LiveConfig
from repro.live.deploy import LocalDeployment
from repro.live.loadgen import (
    LoadgenOptions,
    LoadgenStats,
    run_loadgen,
    run_loadgen_multiprocess,
)
from repro.metrics.histogram import LatencyHistogram

__all__ = [
    "LatencyHistogram",
    "LiveConfig",
    "LoadgenOptions",
    "LoadgenStats",
    "LocalDeployment",
    "ManualClock",
    "WallClock",
    "run_loadgen",
    "run_loadgen_multiprocess",
]
