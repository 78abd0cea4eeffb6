"""Every answer to one placement round, enumerated (Figure 3, bounded).

Hypothesis samples the runtime's answers to the placement engine's
messages; a small scope can instead be *enumerated*.  This explorer runs
one :meth:`~repro.core.placement.PlacementEngine.run_host` round against
a fake runtime (the offload referee's port, plus a model registry) and
branches at every message over a finite answer set:

* ``CreateObj`` — accepted; refused; or executed with the ack lost (the
  candidate holds and registers the copy, the source sees a refusal);
* ``RequestDrop`` — every subset of approvals the registry can grant
  (an object whose only registered copy is the asker's is refused);
* ``AffinityReduced`` — delivered (the registry takes the new affinity)
  or lost.

``ReadBoard`` / ``ProbeLoad`` get one fixed answer (an empty board): no
host in this scope is offloading.  The scope is every host of a 3-host
line holding 2 objects at affinity 1 or 2, each cold one perhaps with
one more copy elsewhere, and per-gateway access counts at the deciding host
from {0, u/2, 2u, 7u} (as rates over the round).  A round depends on the
counts only through its *view* — per object in store order: affinity,
the other copy, cold or not, and the migration and replication
candidate lists — so rounds are deduplicated by a canonical hash of the
view (the line's mirror image included).  Each round is explored
depth-first: it is re-run from scratch under every prefix of choices,
and a state already explored (the answers the engine saw plus the
stores and the registry) is not expanded twice.

Invariants, after every answer:

* no object loses its last copy, and the registry lists only copies the
  stores hold;
* every stored affinity is at least 1;
* a ``RequestDrop`` lists only objects that were cold at affinity 1,
  in store order, each once in the round — or exactly the object whose
  migration was just accepted (the source's hand-off).

A violation fails with the round and its choice sequence; ``replay``
runs one such sequence again.
"""

from __future__ import annotations

import functools
import itertools
import time
from types import SimpleNamespace

from repro.core.config import ProtocolConfig
from repro.core.host import HostServer
from repro.core.placement import PlacementEngine
from repro.core.runtime import AffinityReduced, CreateObj, ProbeLoad, ReadBoard, RequestDrop
from repro.routing.routes_db import RoutingDatabase
from repro.topology.generators import line_topology
from repro.types import PlacementAction

U = 0.02
CONFIG = ProtocolConfig(deletion_threshold=U, replication_threshold=6 * U)
NOW = 100.0  # the round's elapsed window: every host starts at 0
#: Per-gateway access counts over the window: 0, u/2, 2u and 7u requests/s.
LEVELS = (0, 1, 4, 14)
NODES = (0, 1, 2)
ROUTES = RoutingDatabase(line_topology(len(NODES)))
MIRROR = {node: NODES[-1] - node for node in NODES}


class Violation(AssertionError):
    pass


# ----------------------------------------------------------------------
# The scope: rounds and their views
# ----------------------------------------------------------------------


def object_view(host, affinity, other, counts):
    """What one object's part of ``host``'s round depends on."""
    total = sum(counts)
    rate = total / affinity / NOW
    if rate < U:
        return (affinity, other, "cold")
    at = dict.fromkeys(NODES, 0)
    paths = ROUTES.preference_paths(host)
    for gateway, count in zip(NODES, counts):
        for node in paths[gateway]:
            at[node] += count

    def candidates(ratio):
        return tuple(ROUTES.farthest_first(
            host, [p for p in NODES if p != host and at[p] / total > ratio]
        ))

    replicate = candidates(CONFIG.repl_ratio) if rate > CONFIG.replication_threshold else None
    return (affinity, other, candidates(CONFIG.migr_ratio), replicate)


def mirrored(view):
    """The view of the round's mirror image on the line."""

    def flip(nodes):
        return nodes if nodes is None else tuple(MIRROR[node] for node in nodes)

    host, objects = view
    return (MIRROR[host], tuple(
        (affinity, flip(other), *(rest if rest[0] == "cold" else map(flip, rest)))
        for affinity, other, *rest in objects
    ))


@functools.cache
def rounds():
    """``{canonical key: round}``, one round per distinct view, and how
    many assignments the views stand for.

    A hot object's other copy changes no answer set (its hand-off is
    grantable through the copy the migration just made), so only cold
    objects get one.  Each view's round is the one with the fewest
    requests to record.
    """
    assignments = 0
    found = {}
    counts_by_total = sorted(itertools.product(LEVELS, repeat=len(NODES)), key=sum)
    for host in NODES:
        per_object = {}
        kept = 0
        others = [None] + [(node,) for node in NODES if node != host]
        for affinity, other, counts in itertools.product((1, 2), others, counts_by_total):
            view = object_view(host, affinity, other, counts)
            if other is None or view[2] == "cold":
                kept += 1
                per_object.setdefault(view, (affinity, other, counts))
        assignments += kept**2
        for (view0, obj0), (view1, obj1) in itertools.product(per_object.items(), repeat=2):
            view = (host, (view0, view1))
            key = min(view, mirrored(view))
            found.setdefault(key, (host, (obj0, obj1)))
    return found, assignments


# ----------------------------------------------------------------------
# The fake runtime
# ----------------------------------------------------------------------


class World:
    """Three hosts, a model registry and the port the engine reads."""

    def __init__(self, scenario):
        self.node, objects = scenario
        self.hosts = {node: HostServer(node, CONFIG, ROUTES.preference_paths(node))
                      for node in NODES}
        #: obj -> {holder: affinity}, as the redirector has it.
        self.registry = {}
        deciding = self.hosts[self.node]
        for obj, (affinity, other, counts) in enumerate(objects):
            self.registry[obj] = {self.node: affinity}
            for _ in range(affinity):
                deciding.store.add(obj)
            for holder in other or ():
                self.hosts[holder].store.add(obj)
                self.registry[obj][holder] = 1
            for gateway, count in zip(NODES, counts):
                for _ in range(count):
                    deciding.record_service(obj, gateway)
        self.order = deciding.store.objects()
        self.cold = {obj for obj in self.order
                     if deciding.store.affinity(obj) == 1
                     and deciding.total_access_count(obj) / NOW < U}
        self.listed = set()
        self.accepted_migration = None
        self.port = SimpleNamespace(
            config=CONFIG, clock=SimpleNamespace(now=NOW), routes=ROUTES, tracer=None,
            hosts=self.hosts, record_placement=lambda *args, **kwargs: None,
        )

    def options(self, message):
        """The answers ``message`` may get, each ``(label, apply)``;
        ``apply()`` changes the world and returns what the engine sees."""
        kind = type(message)
        if kind is CreateObj:
            def executed(seen):
                def apply():
                    self.hosts[message.candidate].store.add(message.obj)
                    holders = self.registry[message.obj]
                    holders[message.candidate] = holders.get(message.candidate, 0) + 1
                    return seen
                return apply
            return [("accepted", executed(True)), ("refused", lambda: False),
                    ("ack-lost", executed(False))]
        if kind is RequestDrop:
            grantable = [obj for obj in message.objs
                         if any(holder != message.node for holder in self.registry[obj])]
            answers = []
            for granted in itertools.product((False, True), repeat=len(grantable)):
                approved = dict(zip(grantable, granted))

                def apply(approved=approved):
                    for obj, yes in approved.items():
                        if yes:
                            del self.registry[obj][message.node]
                    return [approved.get(obj, False) for obj in message.objs]
                answers.append((f"approve {sorted(o for o, y in approved.items() if y)}", apply))
            return answers
        if kind is AffinityReduced:
            def delivered():
                self.registry[message.obj][message.node] = message.affinity
            return [("delivered", delivered), ("lost", lambda: None)]
        if kind is ReadBoard:
            return [("empty board", lambda: ())]
        if kind is ProbeLoad:
            return [("unreachable", lambda: None)]
        raise Violation(f"unexpected message {message!r}")

    def check_message(self, message):
        if type(message) is not RequestDrop:
            return
        objs = message.objs
        if self.accepted_migration is not None:
            if objs != (self.accepted_migration,):
                raise Violation(f"{message} is not the hand-off of {self.accepted_migration}")
            return
        if message.node != self.node or len(set(objs)) != len(objs):
            raise Violation(f"{message} repeats an object or asks for another host")
        if not self.cold.issuperset(objs) or self.listed.intersection(objs):
            raise Violation(f"{message} lists an object that is not a cold affinity-1 "
                            f"one not listed before (cold: {sorted(self.cold)})")
        if list(objs) != sorted(objs, key=self.order.index):
            raise Violation(f"{message} is not in store order {self.order}")
        self.listed.update(objs)

    def check_world(self):
        """Check the invariants on the stores and the registry; return
        them as a hashable state."""
        stores = tuple(
            tuple((obj, host.store.affinity(obj)) for obj in host.store.objects())
            for host in self.hosts.values()
        )
        for node, held in zip(NODES, stores):
            if any(affinity < 1 for _obj, affinity in held):
                raise Violation(f"host {node} stores an object at affinity < 1: {held}")
        registry = tuple(sorted((obj, tuple(sorted(holders.items())))
                                for obj, holders in self.registry.items()))
        for obj, holders in registry:
            holding = {node for node, held in zip(NODES, stores) if obj in dict(held)}
            if not holding:
                raise Violation(f"object {obj} lost its last copy")
            if not holding.issuperset(holder for holder, _affinity in holders):
                raise Violation(f"registry lists {obj} on {holders}, stores hold it on {holding}")
        return stores, registry


def run(scenario, prefix, seen=None):
    """Run the round, answering message ``i`` with option ``prefix[i]``
    (the first option past the prefix).  Returns the choices taken and
    each message's option count; stops early at a state in ``seen``.

    The world is checked at every message and at the end of the round:
    each check sees what the engine did with the previous answer.
    """
    world = World(scenario)
    step = PlacementEngine(world.port).run_host(world.node, NOW)
    choices, widths, transcript, visible = [], [], [], []
    answer = None
    while True:
        try:
            message = step.send(answer)
        except StopIteration:
            message = None
        try:
            state = world.check_world()
            if message is None:
                return choices, widths
            world.check_message(message)
        except Violation as exc:
            steps = "".join(f"\n    {message} -> {label}" for message, label in transcript)
            raise Violation(
                f"{exc}\n  round: host {world.node}, objects {scenario[1]}"
                f"\n  choices: {choices}{steps}\n    then {message or 'the round ends'}"
            ) from None
        if seen is not None and len(choices) >= len(prefix):
            key = (tuple(visible), state)
            if key in seen:
                return choices, widths
            seen.add(key)
        options = world.options(message)
        pick = prefix[len(choices)] if len(choices) < len(prefix) else 0
        label, apply = options[pick]
        transcript.append((message, label))
        answer = apply()
        world.accepted_migration = (
            message.obj if type(message) is CreateObj and answer
            and message.action is PlacementAction.MIGRATE else None
        )
        choices.append(pick)
        widths.append(len(options))
        visible.append(answer if type(answer) is not list else tuple(answer))


def replay(scenario, choices):
    """Run one choice sequence (a counterexample's) again."""
    return run(scenario, choices)


def explore(scenario):
    """Depth-first over every answer sequence; ``(states, leaves)``."""
    seen = set()
    leaves = 0
    prefix = []
    while True:
        choices, widths = run(scenario, prefix, seen)
        leaves += 1
        depth = len(choices) - 1
        while depth >= 0 and choices[depth] + 1 >= widths[depth]:
            depth -= 1
        if depth < 0:
            return len(seen), leaves
        prefix = choices[:depth] + [choices[depth] + 1]


def test_every_answer_to_every_round_in_scope_keeps_the_invariants():
    began = time.perf_counter()
    found, assignments = rounds()
    states = leaves = 0
    for scenario in found.values():
        explored_states, explored_leaves = explore(scenario)
        states += explored_states
        leaves += explored_leaves
    wall = time.perf_counter() - began
    print(f"\nplacement explorer: {assignments} assignments, {len(found)} distinct rounds, "
          f"{states} states, {leaves} leaves, {wall:.1f}s")
    assert len(found) > 100 and leaves > len(found)


def test_the_scope_reaches_every_branch_point():
    """Each answer kind is asked for somewhere in the scope."""
    found, _ = rounds()
    kinds = set()
    for scenario in list(found.values()):
        world = World(scenario)
        step = PlacementEngine(world.port).run_host(world.node, NOW)
        answer = None
        try:
            while True:
                message = step.send(answer)
                kinds.add((type(message).__name__, len(getattr(message, "objs", ()))))
                answer = world.options(message)[0][1]()
        except StopIteration:
            pass
    assert {("CreateObj", 0), ("AffinityReduced", 0), ("RequestDrop", 1),
            ("RequestDrop", 2)} <= kinds


def test_a_lost_ack_leaves_a_registered_copy_and_a_refusal():
    """A pinned sequence: host 0 offers its hot object 0 to host 2, the
    ack is lost, and the offer to host 1 is accepted; the source keeps
    nothing (its own copy was handed off)."""
    hot = (1, None, (0, 0, 14))  # every request from gateway 2: migrate there
    cold = (1, None, (0, 0, 0))
    scenario = (0, (hot, cold))
    world = World(scenario)
    step = PlacementEngine(world.port).run_host(0, NOW)
    offer = step.send(None)
    assert (type(offer), offer.candidate, offer.action) == (CreateObj, 2, PlacementAction.MIGRATE)
    choices, widths = replay(scenario, [2, 0, 1])  # ack lost, accepted, hand-off approved
    assert choices[:3] == [2, 0, 1] and widths[:3] == [3, 3, 2]
