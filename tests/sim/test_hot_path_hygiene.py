"""Lint-style guards for the simulator's per-event allocation budget.

The event engine's throughput rests on two properties that are easy to
erode one refactor at a time: queue entries stay plain tuples (heap
comparisons in C, no Python ``__lt__`` per comparison), and the classes
on the per-event path carry ``__slots__`` (no per-instance ``__dict__``).
The pinned ruff version has no per-path API-ban rule, so this test *is*
the lint: it fails any change that introduces ``@dataclass`` (or an
unslotted class) into ``src/repro/sim/``.

The same budget extends to the request path in ``src/repro/core/``: the
per-request classes (fast lane, host server, object store, load meter)
must stay slotted, the request-path modules must not grow dataclasses
(slotted ``types.RequestRecord``/``ReplicaInfo`` are the one sanctioned
home), and the fast lane's per-request methods must never iterate an
observer list — the lane exists because the reference path's observer
dispatch is the cost being bypassed.

And to the per-message path every faulted, traced or consistency run
takes (``network/transport.py``, ``network/faults.py``,
``metrics/bandwidth.py``): see the last section.
"""

import ast
import dataclasses
import enum
import inspect
import pathlib
import textwrap

import pytest

from repro.core import fastlane, host, object_store
from repro.load import metrics as load_metrics
from repro.metrics import bandwidth
from repro.network import faults, message, transport
from repro.sim import engine, events

SIM_DIR = pathlib.Path(inspect.getfile(events)).parent
CORE_DIR = pathlib.Path(inspect.getfile(fastlane)).parent

#: ``core/`` modules on the per-request path (config.py is excluded on
#: purpose: configs are built once per run, dataclasses are fine there).
REQUEST_PATH_MODULES = (
    "fastlane.py",
    "host.py",
    "object_store.py",
    "redirector.py",
    "protocol.py",
    "distributor.py",
)


def _sim_sources():
    return {path: path.read_text() for path in SIM_DIR.glob("*.py")}


def test_no_dataclass_events_in_sim():
    """Per-event allocation pattern ban: no dataclasses anywhere in the
    simulator package (a dataclass Event would put a Python-level
    ``__lt__``/``__eq__`` back on the hot comparison path)."""
    offenders = [
        str(path)
        for path, source in _sim_sources().items()
        if "dataclass" in source
    ]
    assert offenders == [], f"dataclass usage in sim/: {offenders}"
    assert not dataclasses.is_dataclass(events.Event)
    assert not dataclasses.is_dataclass(events.EventQueue)
    assert not dataclasses.is_dataclass(engine.Simulator)


def test_hot_path_classes_are_slotted():
    instances = (
        events.Event(1.0, 0, lambda: None, ()),
        events.EventQueue(),
        engine.Simulator(),
    )
    for instance in instances:
        cls = type(instance)
        assert "__slots__" in cls.__dict__, f"{cls.__name__} lost __slots__"
        assert not hasattr(
            instance, "__dict__"
        ), f"{cls.__name__} instances grew a __dict__"


def test_queue_entries_are_plain_tuples():
    """The queue must store raw tuples, not Event objects: tuple
    comparison never reaches Python because the unique seq breaks ties."""
    queue = events.EventQueue()
    queue.push(1.0, lambda: None, ())
    queue.push_fast(2.0, lambda: None, ())
    entry = queue.pop_until(None)
    assert type(entry) is tuple
    assert len(entry) == 5
    # (time, seq, handle, callback, args)
    assert entry[events.ENTRY_TIME] == 1.0
    assert entry[events.ENTRY_SEQ] == 0


def test_no_dataclasses_in_request_path_modules():
    """Per-request allocation ban, extended to ``core/``: the modules a
    request touches must not define (or decorate with) dataclasses —
    an unslotted record per request is the allocation pattern the fast
    lane exists to avoid."""
    offenders = [
        name
        for name in REQUEST_PATH_MODULES
        if "dataclass" in (CORE_DIR / name).read_text()
    ]
    assert offenders == [], f"dataclass usage on the request path: {offenders}"


def test_request_path_classes_are_slotted():
    """Every class instantiated or mutated per request carries
    ``__slots__`` (``HostingSystem``/``RedirectorService`` are built once
    per run and intentionally stay plain classes)."""
    for cls in (
        fastlane.FastLane,
        host.HostServer,
        object_store.ObjectStore,
        load_metrics.LoadMeter,
    ):
        assert "__slots__" in cls.__dict__, f"{cls.__name__} lost __slots__"


def test_fast_lane_never_dispatches_observers():
    """The lane's per-request methods must not reach any observer list:
    the whole point of the lane is that the single fault-free observer
    pipeline is inlined.  Observer mentions belong only in the
    eligibility check (``fast_lane_blockers``) and in comments."""
    for method in (
        fastlane.FastLane.submit_request,
        fastlane.FastLane._arrive,
        fastlane.FastLane._complete,
        fastlane.FastLane._finish,
    ):
        source = inspect.getsource(method)
        code_lines = [
            line.partition("#")[0] for line in source.splitlines()
        ]
        offenders = [
            line.strip()
            for line in code_lines
            if "request_observers" in line or "_observers" in line
        ]
        assert offenders == [], (
            f"observer dispatch crept into FastLane.{method.__name__}: "
            f"{offenders}"
        )


# ----------------------------------------------------------------------
# The per-message path: network/transport.py, network/faults.py and the
# bandwidth view in metrics/bandwidth.py
# ----------------------------------------------------------------------

#: Functions that run once (or more) per message on every non-lane run.
PER_MESSAGE_FUNCTIONS = (
    transport.Network.transmit,
    transport.Network._account,
    faults.FaultPlane.verdict,
    faults.FaultPlane.crosses_fault,
)


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


@pytest.mark.parametrize(
    "function", PER_MESSAGE_FUNCTIONS, ids=lambda f: f.__qualname__
)
def test_per_message_functions_stay_allocation_lean(function):
    """No closure, f-string, ``getattr``-by-name or dataclass
    instantiation may creep back into a per-message function (the old
    ``transmit``/``transit``/``drop_for`` trio had all four, and was 40 %
    of a faulted run's drain)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    body = tree.body[0]
    nested = [
        type(node).__name__
        for node in ast.walk(body)
        if node is not body
        and isinstance(node, (ast.Lambda, ast.FunctionDef, ast.JoinedStr))
    ]
    assert nested == [], f"closure/f-string in {function.__qualname__}"
    module = inspect.getmodule(function)
    dataclass_names = {
        name
        for name, value in vars(module).items()
        if inspect.isclass(value) and dataclasses.is_dataclass(value)
    }
    called = set(_called_names(body))
    assert "getattr" not in called
    assert called & dataclass_names == set()


def test_message_class_hash_stays_in_c():
    """Per-class counters are dicts keyed by ``MessageClass`` members;
    ``Enum.__hash__`` would put a Python call on every such lookup."""
    assert message.MessageClass.__hash__ is not enum.Enum.__hash__
    assert message.MessageClass.__hash__ is object.__hash__
    assert {cls: 0 for cls in message.MessageClass}[message.MessageClass("update")] == 0


def test_bandwidth_collector_is_not_on_the_per_message_path():
    """The collector reads the transport's traffic cells at query time;
    it must never go back to being a per-message observer."""
    source = inspect.getsource(bandwidth)
    assert "add_observer" not in source
    assert "dataclass" not in source
