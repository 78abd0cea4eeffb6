"""The Offload step against an adversarial runtime (Figure 5).

:func:`~repro.core.offload.find_recipient` and
:func:`~repro.core.offload.run_offload` are driven here directly, with no
simulator and no sockets: every message they yield is answered by
hypothesis.  The board lists arbitrary candidates, each with its own low
watermark; a probe answers ``None`` (unreachable) or a load that need not
match the report (stale); each ``CreateObj`` is accepted or refused.
Whatever the answers, the search must spend at most
``MAX_RECIPIENT_PROBES`` probes, in board order, never on a candidate
that reports itself full, and return the first probed candidate below its
watermark; the transfer loop must not start before a recipient is found,
must count exactly the accepted offers, and must stop at the first
refusal.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.core.host import HostServer
from repro.core.offload import MAX_RECIPIENT_PROBES, find_recipient, run_offload
from repro.core.placement import PlacementEngine
from repro.core.runtime import CreateObj, ProbeLoad, ReadBoard, RequestDrop
from repro.types import PlacementReason

CONFIG = ProtocolConfig(
    high_watermark=20.0,
    low_watermark=10.0,
    deletion_threshold=0.03,
    replication_threshold=0.18,
)
SOURCE = 0
NOW = 100.0
NODES = 12

#: Loads that sit exactly on a watermark as well as between them.
loads = st.one_of(st.sampled_from([0.0, 5.0, 10.0, 20.0]), st.floats(0.0, 30.0))
boards = st.lists(
    st.tuples(st.integers(1, NODES), loads, st.sampled_from([5.0, 10.0, 20.0])),
    max_size=12,
    unique_by=lambda entry: entry[0],
)
probes = st.dictionaries(
    st.integers(1, NODES),
    st.one_of(st.none(), st.tuples(loads, st.sampled_from([5.0, 10.0, 20.0]))),
)


class Records(list):
    """A tracer that keeps what it is given."""

    record = list.append


def drive(step, board, answers, data):
    """Run ``step`` to completion; return its result and every
    ``(message, answer)`` pair, in order."""
    transcript = []
    answer = None
    while True:
        try:
            message = step.send(answer)
        except StopIteration as done:
            return done.value, transcript
        kind = type(message)
        if kind is ReadBoard:
            answer = board
        elif kind is ProbeLoad:
            answer = answers.get(message.candidate)
        elif kind is CreateObj:
            answer = data.draw(st.booleans(), label="accepted")
        elif kind is RequestDrop:
            answer = [data.draw(st.booleans(), label="approved") for _ in message.objs]
        else:  # AffinityReduced
            answer = None
        transcript.append((message, answer))


def check_search(board, answers, transcript):
    """The search's referee; returns the recipient it must have found."""
    (read, _board), *asked = transcript
    assert read == ReadBoard(SOURCE, NOW)
    assert all(type(message) is ProbeLoad and message.source == SOURCE
               for message, _answer in asked)
    probed = [message.candidate for message, _answer in asked]
    assert len(probed) <= MAX_RECIPIENT_PROBES
    full = {node for node, reported, low_watermark in board if reported >= low_watermark}
    assert full.isdisjoint(probed)
    # In board order, and no candidate below its watermark passed over.
    eligible = [node for node, reported, low_watermark in board if reported < low_watermark]
    assert probed == eligible[: len(probed)]
    below = [node for node in probed
             if answers.get(node) is not None and answers[node][0] < answers[node][1]]
    if not below:
        # Gave up only with the budget spent or the board exhausted.
        assert len(probed) == min(len(eligible), MAX_RECIPIENT_PROBES)
        return None
    # The first probed candidate below its watermark, and the last probed.
    assert below == [probed[-1]]
    return probed[-1]


@settings(max_examples=300, deadline=None)
@given(board=boards, answers=probes)
def test_find_recipient_spends_its_budget_on_eligible_candidates_in_board_order(
    board, answers
):
    found, transcript = drive(find_recipient(SOURCE, NOW), board, answers, None)
    recipient = check_search(board, answers, transcript)
    assert found == (None if recipient is None else (recipient, *answers[recipient]))


@settings(max_examples=300, deadline=None)
@given(
    board=boards,
    answers=probes,
    load=st.floats(10.0, 60.0),
    objects=st.lists(
        st.tuples(st.integers(1, 2), st.floats(0.0, 8.0), st.integers(0, 40)),
        max_size=8,
    ),
    data=st.data(),
)
def test_run_offload_moves_only_to_a_found_recipient_and_stops_at_a_refusal(
    board, answers, load, objects, data
):
    host = HostServer(SOURCE, CONFIG, {SOURCE: (SOURCE,), 1: (SOURCE, 1)})
    host.estimator.on_measurement(load, 0.0)
    for obj, (affinity, obj_load, remote_requests) in enumerate(objects):
        for _ in range(affinity):
            host.store.add(obj)
        host.meter.object_loads[obj] = obj_load
        for _ in range(remote_requests):
            host.record_service(obj, 1)
    host.update_mode()
    tracer = Records()
    port = SimpleNamespace(
        config=CONFIG,
        clock=SimpleNamespace(now=NOW),
        tracer=tracer,
        hosts={SOURCE: host},
        record_placement=lambda *args, **kwargs: None,
    )
    step = run_offload(port, PlacementEngine(port), host, NOW, 100.0)
    moved, transcript = drive(step, board, answers, data)

    searched = 1 + sum(type(message) is ProbeLoad for message, _answer in transcript)
    search, transfers = transcript[:searched], transcript[searched:]
    recipient = check_search(board, answers, search)
    assert not any(type(message) in (ReadBoard, ProbeLoad) for message, _answer in transfers)
    offers = [(message, accepted) for message, accepted in transfers
              if type(message) is CreateObj]
    if recipient is None:
        assert transfers == []
    for offer, _accepted in offers:
        assert (offer.source, offer.candidate) == (SOURCE, recipient)
        assert offer.reason is PlacementReason.LOAD
    verdicts = [accepted for _offer, accepted in offers]
    assert moved == verdicts.count(True)
    assert False not in verdicts[:-1]
    if verdicts and not verdicts[-1]:
        assert transfers[-1] == offers[-1]
    (record,) = tracer
    assert (record.recipient, record.moved) == (recipient, moved)
