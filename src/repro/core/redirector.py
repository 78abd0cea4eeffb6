"""The redirector: request distribution and the replica-set registry.

Implements the ChooseReplica algorithm of Figure 2.  For each object the
redirector responsible for it keeps, per replica, a *request count*
``rcnt`` and the replica's *affinity* ``aff``; the ratio ``rcnt/aff`` is
the replica's *unit request count*.  On a request from a client behind
gateway ``g``:

* ``p`` = the replica closest to ``g``; ``ratio1 = rcnt(x_p)/aff(x_p)``;
* ``q`` = the replica with the smallest unit request count ``ratio2``;
* if ``ratio1 / C > ratio2`` choose ``q``, else choose ``p``
  (``C`` is the distribution constant, 2 in the paper);
* the chosen replica's request count is incremented.

The pseudocode in the published figure is garbled by OCR; this reading
follows the paper's prose and reproduces its worked examples exactly (the
closest of two equally-requested replicas always wins; a locally swamped
replica keeps only ``2N/(n+1)`` of ``N`` requests once ``n`` replicas
exist) — both are asserted by the test-suite.

All request counts for an object reset to 1 whenever its replica set
changes, so a fresh replica is not flooded while it "catches up".  Hence
the registry's two forms (DESIGN §9): an object with one replica at
affinity 1 is held as that bare host id — its count would never be read
before a reset — and as ``{host: ReplicaInfo}`` from its first change on.

The registry preserves the invariant that the recorded replica set is a
*subset* of replicas that actually exist (Section 4.2.1): creations are
registered after the copy exists, deletions are approved *before* the
host drops its copy, and the last replica of an object can never be
dropped (:meth:`RedirectorService.request_drop` arbitrates).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.errors import ProtocolError
from repro.obs.records import ChooseReplicaRecord
from repro.routing.hashring import HashRing
from repro.routing.routes_db import RoutingDatabase
from repro.types import NodeId, ObjectId, ReplicaInfo


class NotListed(ProtocolError):
    """A notice about a copy the registry does not list (a new one above
    affinity 1, or a decrement or drop request from a non-holder): a
    refusal, which a live owner answers 409 (DESIGN §8)."""


#: Observer signature for replica-set changes:
#: ``(obj, host, affinity, created, dropped)``.
ReplicaSetObserver = Callable[[ObjectId, NodeId, int, bool, bool], None]


class RedirectorService:
    """One redirector, responsible for a subset of the URL namespace.

    In the paper the namespace is hash-partitioned across redirectors for
    scalability; the evaluation co-locates a single redirector at the node
    with minimum mean hop distance.  :class:`RedirectorGroup` (below)
    provides the partitioning; each :class:`RedirectorService` manages the
    per-object state for the objects hashed to it.
    """

    def __init__(
        self,
        node: NodeId,
        routes: RoutingDatabase,
        *,
        distribution_constant: float = 2.0,
    ) -> None:
        if distribution_constant <= 1.0:
            raise ProtocolError(
                f"distribution constant must exceed 1, got {distribution_constant}"
            )
        self.node = node
        self._routes = routes
        self._constant = distribution_constant
        #: Flat form ``host`` (sole replica, affinity 1) or ``{host: ReplicaInfo}``.
        self._replicas: dict[ObjectId, NodeId | dict[NodeId, ReplicaInfo]] = {}
        #: Hosts currently marked unavailable (failure masking): their
        #: replicas stay registered but are never chosen.
        self._down_hosts: set[NodeId] = set()
        #: Optional liveness probe used by drop arbitration (robustness
        #: extension): ``probe(host) -> bool`` asks whether a survivor
        #: actually answers, catching crashed-but-not-yet-detected hosts
        #: the ``_down_hosts`` mask misses.  ``None`` (default) trusts
        #: the mask alone.
        self.liveness_probe: Callable[[NodeId], bool] | None = None
        self._observers: list[ReplicaSetObserver] = []
        #: Optional :class:`~repro.obs.tracer.ProtocolTracer` receiving a
        #: ChooseReplicaRecord per Figure 2 run; ``None`` disables (one
        #: pointer check per request).
        self.tracer = None
        #: Counters for analysis: how often the closest vs the
        #: least-requested replica won the Figure 2 comparison.
        self.chose_closest = 0
        self.chose_least_requested = 0

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------

    def add_observer(self, observer: ReplicaSetObserver) -> None:
        """Observe replica-set changes (used by metrics collectors)."""
        self._observers.append(observer)

    def _notify(
        self, obj: ObjectId, host: NodeId, affinity: int, created: bool, dropped: bool
    ) -> None:
        for observer in self._observers:
            observer(obj, host, affinity, created, dropped)

    def knows(self, obj: ObjectId) -> bool:
        return obj in self._replicas

    # ------------------------------------------------------------------
    # Failure masking
    # ------------------------------------------------------------------

    def set_host_available(self, host: NodeId, available: bool) -> None:
        """Mark every replica on ``host`` (un)eligible for selection.

        Registrations are preserved across failures — the bytes are still
        on the failed host's disk — but an unavailable replica is never
        chosen and does not protect its object from last-replica drops.

        An availability flip changes the *effective* replica set of every
        object with a copy on ``host``, so the paper's reset rule applies:
        request counts for those objects reset to 1.  Without this a
        recovering host returns carrying a stale ``rcnt`` and is
        mis-weighted against the survivors that serviced its share of the
        traffic while it was down.  Repeating the current availability is
        a no-op (no spurious resets).
        """
        if available:
            if host not in self._down_hosts:
                return
            self._down_hosts.discard(host)
        else:
            if host in self._down_hosts:
                return
            self._down_hosts.add(host)
        for replicas in self._replicas.values():
            if type(replicas) is dict and host in replicas:  # flat: no counts
                self._reset_counts(replicas)

    def host_available(self, host: NodeId) -> bool:
        return host not in self._down_hosts

    def available_replica_hosts(self, obj: ObjectId) -> list[NodeId]:
        """Hosts with a selectable (not failed) replica of ``obj``."""
        return [
            host for host in self.replica_hosts(obj) if host not in self._down_hosts
        ]

    def replica_hosts(self, obj: ObjectId) -> list[NodeId]:
        """Hosts currently registered as holding ``obj``."""
        replicas = self._entry(obj)
        return list(replicas) if type(replicas) is dict else [replicas]

    def objects_on(self, host: NodeId) -> list[ObjectId]:
        """Objects with a registered replica on ``host`` (repair scans)."""
        return [
            obj
            for obj, replicas in self._replicas.items()
            if (host in replicas if type(replicas) is dict else host == replicas)
        ]

    def replica_count(self, obj: ObjectId) -> int:
        return len(self.replica_hosts(obj))

    def affinity(self, obj: ObjectId, host: NodeId) -> int:
        replicas = self._entry(obj)
        return replicas[host].affinity if type(replicas) is dict else {replicas: 1}[host]

    def total_replicas(self) -> int:
        """Total physical replicas over all objects this redirector owns."""
        return sum(len(r) if type(r) is dict else 1 for r in self._replicas.values())

    def _entry(self, obj: ObjectId) -> NodeId | dict[NodeId, ReplicaInfo]:
        try:
            return self._replicas[obj]
        except KeyError:
            raise ProtocolError(f"redirector knows no replicas of object {obj}") from None

    def _expanded(self, obj: ObjectId) -> dict[NodeId, ReplicaInfo]:
        """``obj``'s entry as a dict; a flat one converts under its own key (order stays)."""
        replicas = self._entry(obj)
        if type(replicas) is not dict:
            replicas = self._replicas[obj] = {replicas: ReplicaInfo(replicas)}
        return replicas

    def register_initial(self, obj: ObjectId, host: NodeId) -> None:
        """Register an object's original placement (no reset semantics)."""
        self.register_initial_many(((obj, host),))

    def register_initial_many(
        self, placements: Iterable[tuple[ObjectId, NodeId]]
    ) -> None:
        """Register original placements, one ``(obj, host)`` at a time.

        The registry keeps insertion order (:meth:`objects_on` shows it),
        so hand the pairs over in the order they should be listed.
        """
        replicas = self._replicas
        observed = self._observers
        for obj, host in placements:
            if obj in replicas:
                raise ProtocolError(f"object {obj} already registered")
            replicas[obj] = host
            if observed:
                self._notify(obj, host, 1, True, False)

    def replica_created(self, obj: ObjectId, host: NodeId, affinity: int) -> None:
        """A host reports a new copy or an affinity increase (after the fact).

        A re-report with an unchanged affinity leaves the replica set as
        it was, so it must not trigger the reset rule (a spurious reset
        would discard the distribution state the Figure 2 algorithm has
        accumulated).  Figure 2 divides by the affinity: below 1 is refused.
        """
        if affinity < 1:
            raise ProtocolError(f"affinity of {obj} on {host} must be >= 1, got {affinity}")
        replicas = self._expanded(obj)
        created = host not in replicas
        if created:
            if affinity != 1:
                raise NotListed(
                    f"new replica of {obj} on {host} must have affinity 1, "
                    f"got {affinity}"
                )
            replicas[host] = ReplicaInfo(host=host, affinity=1)
        elif replicas[host].affinity == affinity:
            # Nothing about the replica set changed: no reset.
            self._notify(obj, host, affinity, False, False)
            return
        else:
            replicas[host].affinity = affinity
        self._reset_counts(replicas)
        self._notify(obj, host, affinity, created, False)

    def affinity_reduced(self, obj: ObjectId, host: NodeId, affinity: int) -> None:
        """A host reports a (non-final) affinity decrement."""
        replicas = self._expanded(obj)
        if host not in replicas:
            raise NotListed(f"host {host} holds no replica of {obj}")
        if affinity < 1:
            raise ProtocolError("use request_drop to remove the last affinity unit")
        replicas[host].affinity = affinity
        self._reset_counts(replicas)
        self._notify(obj, host, affinity, False, False)

    def request_drop(self, obj: ObjectId, host: NodeId) -> bool:
        """Arbitrate a replica drop (affinity 1 -> 0).

        Returns True and removes the registration if approved.  The last
        remaining *available* replica of an object is never approved for
        dropping, so the object always stays available: survivors on
        hosts currently masked as down do not count, and when a liveness
        probe is wired (fault plane active) at least one survivor must
        actually answer it — a stale up-mask on a crashed host must not
        let the last live copy be deleted.  An unreachable survivor is
        conservatively treated as dead (drop refused).  The registration
        is removed *before* the host physically drops the copy,
        preserving the subset invariant.
        """
        replicas = self._entry(obj)
        hosts = replicas if type(replicas) is dict else (replicas,)
        if host not in hosts:
            raise NotListed(f"host {host} holds no replica of {obj}")
        survivors = [
            other
            for other in hosts
            if other != host and other not in self._down_hosts
        ]
        if not survivors:
            # Never approve dropping the last (available) replica.
            return False
        probe = self.liveness_probe
        if probe is not None and not any(probe(other) for other in survivors):
            return False
        del replicas[host]  # a survivor exists, so this is the dict form
        self._reset_counts(replicas)
        self._notify(obj, host, 0, False, True)
        return True

    @staticmethod
    def _reset_counts(replicas: dict[NodeId, ReplicaInfo]) -> None:
        # "The redirector resets all request counts to 1 whenever it is
        # notified of any changes to the replica set for the object."
        for info in replicas.values():
            info.request_count = 1

    # ------------------------------------------------------------------
    # Request distribution (Figure 2)
    # ------------------------------------------------------------------

    def choose_replica(
        self, gateway: NodeId, obj: ObjectId, *, exclude: NodeId | None = None
    ) -> NodeId | None:
        """Pick the replica to service a request entering at ``gateway``.

        Returns ``None`` when every replica of the object is on a failed
        host (the request cannot be serviced until a host recovers).
        ``exclude`` skips one host even if it looks available — used by
        request retries under a stale view, where the redirector has not
        yet detected that the previously chosen host is dead.
        """
        try:
            replicas = self._replicas[obj]  # _entry, minus a call per request
        except KeyError:
            replicas = self._entry(obj)
        tracer = self.tracer
        flat = type(replicas) is not dict
        if flat or len(replicas) == 1:
            # A sole replica wins if it can be chosen at all, whatever other
            # hosts are masked.  The flat form keeps no request count: nothing
            # reads a sole replica's before the next change resets it.
            (sole,) = (replicas,) if flat else replicas
            chosen = None if sole in self._down_hosts or sole == exclude else sole
            if chosen is not None:
                self.chose_closest += 1
                if not flat:
                    replicas[sole].request_count += 1
            if tracer is not None:
                reason = "unavailable" if chosen is None else "sole"
                tracer.record(
                    ChooseReplicaRecord(obj, gateway, chosen, reason, constant=self._constant)
                )
            return chosen
        row = self._routes.distance_row(gateway)
        down = self._down_hosts
        # The eligibility test is hoisted: with no failed hosts and no
        # exclusion (the overwhelmingly common case) the loop never pays
        # the set lookup.  The lexicographic minima are tracked in scalar
        # locals instead of per-replica key tuples; the comparison
        # sequence is exactly the tuple-keyed oracle's
        # (``tests/core/figure2_oracle.py``): ``(distance, ratio, host)``
        # for the closest replica (equidistant replicas tie-break on unit
        # request count: a fixed id-order tie-break would funnel every
        # tie in the system to the same hub nodes and manufacture hot
        # spots) and ``(ratio, host)`` for the least-requested one.
        filtered = down or exclude is not None
        closest: ReplicaInfo | None = None
        least: ReplicaInfo | None = None
        closest_dist = 0
        closest_ratio = 0.0
        closest_host = 0
        least_ratio = 0.0
        least_host = 0
        for host, info in replicas.items():
            if filtered and (host in down or host == exclude):
                continue
            ratio = info.request_count / info.affinity
            distance = row[host]
            if closest is None:
                closest = least = info
                closest_dist, closest_ratio, closest_host = distance, ratio, host
                least_ratio, least_host = ratio, host
                continue
            if distance < closest_dist or (
                distance == closest_dist
                and (
                    ratio < closest_ratio
                    or (ratio == closest_ratio and host < closest_host)
                )
            ):
                closest = info
                closest_dist, closest_ratio, closest_host = distance, ratio, host
            if ratio < least_ratio or (ratio == least_ratio and host < least_host):
                least, least_ratio, least_host = info, ratio, host
        if closest is None or least is None:
            if tracer is not None:
                tracer.record(
                    ChooseReplicaRecord(
                        obj=obj,
                        gateway=gateway,
                        chosen=None,
                        reason="unavailable",
                        constant=self._constant,
                    )
                )
            return None
        ratio1 = closest_ratio
        if ratio1 / self._constant > least_ratio:
            chosen = least
            reason = "least-requested"
            self.chose_least_requested += 1
        else:
            chosen = closest
            reason = "closest"
            self.chose_closest += 1
        chosen.request_count += 1
        if tracer is not None:
            tracer.record(
                ChooseReplicaRecord(
                    obj=obj,
                    gateway=gateway,
                    chosen=chosen.host,
                    reason=reason,
                    closest=closest.host,
                    closest_ratio=ratio1,
                    least=least.host,
                    least_ratio=least_ratio,
                    constant=self._constant,
                )
            )
        return chosen.host


class RedirectorGroup:
    """Hash-partitions the object namespace across redirectors.

    "For scalability, the load is divided among multiple redirectors by
    hash-partitioning the URL namespace" (Section 2).  The same redirector
    is always used for all requests to the same object: the one the
    consistent-hash ring (:class:`~repro.routing.hashring.HashRing`, the
    live tier's partition too) names, or the only one.
    """

    def __init__(self, services: list[RedirectorService]) -> None:
        if not services:
            raise ProtocolError("a redirector group needs at least one service")
        self._services = list(services)
        self._ring = HashRing(len(services)) if len(services) > 1 else None

    @property
    def services(self) -> list[RedirectorService]:
        return list(self._services)

    def table(self, count: int) -> tuple[RedirectorService, ...]:
        """The service responsible for each object id below ``count``, for
        the request path to index ``table[obj % len(table)]``."""
        if self._ring is None:
            return (self._services[0],)
        return tuple(self._services[shard] for shard in self._ring.owners(count))

    def for_object(self, obj: ObjectId) -> RedirectorService:
        """The redirector responsible for ``obj`` (stable hash partition)."""
        if self._ring is None:
            return self._services[0]
        return self._services[self._ring.owner(obj)]

    def partition(
        self, objs: Sequence[ObjectId]
    ) -> list[tuple[RedirectorService, Sequence[ObjectId]]]:
        """``objs`` split by responsible service (:meth:`for_object`), order kept."""
        if self._ring is None:
            return [(self._services[0], objs)]
        shares: list[list[ObjectId]] = [[] for _ in self._services]
        for obj in objs:
            shares[self._ring.owner(obj)].append(obj)
        return list(zip(self._services, shares))

    def total_replicas(self) -> int:
        return sum(service.total_replicas() for service in self._services)
