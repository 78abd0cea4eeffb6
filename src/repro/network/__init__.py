"""Backbone network model: messages, links and transport.

The paper's simulation charges each message the per-hop propagation delay
plus transmission time, and measures bandwidth consumption "by summing the
number of bytes transmitted on each hop" (Section 6.2).  Responses carry
object data and dominate bandwidth; requests and the UDP control messages
between distributors, redirectors and hosts are small; object relocation
(replication/migration copies) is the protocol's *overhead* traffic
(Figure 7).

:class:`~repro.network.transport.Network` performs delay computation and
per-hop byte accounting per traffic class; :class:`~repro.network.link.Link`
tracks per-link counters for utilisation analysis.

The robustness extension layers an optional, seeded unreliability model
under the transport: :class:`~repro.network.faults.FaultPlane` rolls
per-message drop/duplication/jitter verdicts and tracks link/partition
outages, and :class:`~repro.network.rpc.RpcLayer` gives the control
plane timeouts, bounded retries with exponential backoff, and idempotent
receive handling on top of it.  With no fault plane attached both layers
are pass-throughs, byte-identical to the reliable transport.
"""

from repro.network.faults import FaultConfig, FaultPlane
from repro.network.link import Link
from repro.network.message import MessageClass
from repro.network.rpc import RpcLayer, RpcOutcome
from repro.network.transport import Network

__all__ = [
    "FaultConfig",
    "FaultPlane",
    "Link",
    "MessageClass",
    "Network",
    "RpcLayer",
    "RpcOutcome",
]
