"""Traffic classes and message size conventions.

Message payloads in this simulation are plain Python callbacks — what
matters for the paper's metrics is each message's *size*, *route* and
*class*.  Classes partition the per-hop byte accounting so the benchmark
harness can report payload traffic and relocation overhead separately
(Figures 6 and 7).
"""

from __future__ import annotations

import enum


class MessageClass(enum.Enum):
    """What kind of traffic a message is, for bandwidth accounting."""

    #: Client request forwarded by a distributor to a redirector and on to
    #: a host.  "The request size is negligible compared to the page size"
    #: (Section 6.1) but we still account its (small) bytes.
    REQUEST = "request"
    #: Object data returned from a host to the requesting distributor.
    RESPONSE = "response"
    #: Small UDP control messages of the placement protocol: CreateObj
    #: requests/acks, redirector notifications, load reports.
    CONTROL = "control"
    #: Object bytes copied across the backbone by a migration/replication.
    RELOCATION = "relocation"
    #: Consistency maintenance traffic (primary-copy update propagation).
    UPDATE = "update"

    # Every per-class counter on the per-message path (byte-hops, traffic
    # cells, drop tallies, link bytes) is a dict keyed by a member.
    # ``Enum.__hash__`` is a Python-level ``hash(self._name_)``; members
    # are singletons compared by identity, so identity hashing is equally
    # sound and stays in C.
    __hash__ = object.__hash__


#: Default size, in bytes, of a client request message (HTTP GET scale).
DEFAULT_REQUEST_BYTES = 350

#: Default size, in bytes, of one protocol control message (UDP datagram).
DEFAULT_CONTROL_BYTES = 128

#: Traffic classes counted as protocol overhead in Figure 7 ("the
#: overhead, which occurs because of the replication and migration of
#: documents").
OVERHEAD_CLASSES = frozenset({MessageClass.CONTROL, MessageClass.RELOCATION})
