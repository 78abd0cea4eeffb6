"""The retired dict-of-dicts registry, kept verbatim as an oracle (ISSUE 24).

Until then ``RedirectorService._replicas`` was ``{obj: {host:
ReplicaInfo}}`` for every object, 33 MB at 100k objects of which 98.5 %
held one replica at affinity 1.  The production registry now holds such
an object as a bare host id and expands it to the dict form on its first
replica-set change; ``tests/core/test_registry_oracle.py`` drives both
through the same operation sequences and requires every return value,
error message, observer call and registry reading to agree.  The class
below is the parent commit's ``RedirectorService`` with nothing edited.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import ProtocolError
from repro.obs.records import ChooseReplicaRecord
from repro.routing.routes_db import RoutingDatabase
from repro.types import NodeId, ObjectId, ReplicaInfo

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
        self._replicas: dict[ObjectId, dict[NodeId, ReplicaInfo]] = {}
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
            if host in replicas:
                self._reset_counts(replicas)

    def host_available(self, host: NodeId) -> bool:
        return host not in self._down_hosts

    def available_replica_hosts(self, obj: ObjectId) -> list[NodeId]:
        """Hosts with a selectable (not failed) replica of ``obj``."""
        return [
            host for host in self._entry(obj) if host not in self._down_hosts
        ]

    def replica_hosts(self, obj: ObjectId) -> list[NodeId]:
        """Hosts currently registered as holding ``obj``."""
        return list(self._entry(obj))

    def objects_on(self, host: NodeId) -> list[ObjectId]:
        """Objects with a registered replica on ``host`` (repair scans)."""
        return [
            obj for obj, replicas in self._replicas.items() if host in replicas
        ]

    def replica_count(self, obj: ObjectId) -> int:
        return len(self._entry(obj))

    def affinity(self, obj: ObjectId, host: NodeId) -> int:
        return self._entry(obj)[host].affinity

    def total_replicas(self) -> int:
        """Total physical replicas over all objects this redirector owns."""
        return sum(len(replicas) for replicas in self._replicas.values())

    def _entry(self, obj: ObjectId) -> dict[NodeId, ReplicaInfo]:
        try:
            return self._replicas[obj]
        except KeyError:
            raise ProtocolError(f"redirector knows no replicas of object {obj}") from None

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
            replicas[obj] = {host: ReplicaInfo(host)}
            if observed:
                self._notify(obj, host, 1, True, False)

    def replica_created(self, obj: ObjectId, host: NodeId, affinity: int) -> None:
        """A host reports a new copy or an affinity increase (after the fact).

        A re-report with an unchanged affinity leaves the replica set as
        it was, so it must not trigger the reset rule (a spurious reset
        would discard the distribution state the Figure 2 algorithm has
        accumulated).
        """
        replicas = self._entry(obj)
        created = host not in replicas
        if created:
            if affinity != 1:
                raise ProtocolError(
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
        replicas = self._entry(obj)
        if host not in replicas:
            raise ProtocolError(f"host {host} holds no replica of {obj}")
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
        if host not in replicas:
            raise ProtocolError(f"host {host} holds no replica of {obj}")
        survivors = [
            other
            for other in replicas
            if other != host and other not in self._down_hosts
        ]
        if not survivors:
            # Never approve dropping the last (available) replica.
            return False
        probe = self.liveness_probe
        if probe is not None and not any(probe(other) for other in survivors):
            return False
        del replicas[host]
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
        replicas = self._entry(obj)
        tracer = self.tracer
        if len(replicas) == 1 and not self._down_hosts and exclude is None:
            # Fast path: a sole replica always wins; still counted.
            (info,) = replicas.values()
            info.request_count += 1
            self.chose_closest += 1
            if tracer is not None:
                tracer.record(
                    ChooseReplicaRecord(
                        obj=obj,
                        gateway=gateway,
                        chosen=info.host,
                        reason="sole",
                        constant=self._constant,
                    )
                )
            return info.host
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
