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
(slotted ``types.ReplicaInfo`` is the one sanctioned home), a request
between stages is scalars in the event args and never a record, and the
fast lane stays three inlined stages over the shared accounting: it
never iterates an observer list and reaches into no collector, load
meter or host count table.

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

import repro.types
from repro.core import fastlane, host, object_store, protocol
from repro.load import metrics as load_metrics
from repro.metrics import bandwidth
from repro.network import faults, message, transport
from repro.scenarios.config import ScenarioConfig
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
    served observers are a blocker, so nothing is there to dispatch to.
    Observer mentions belong only in the eligibility check
    (``fast_lane_blockers``) and in comments."""
    for method in (
        fastlane.FastLane.submit_request,
        fastlane.FastLane._arrive,
        fastlane.FastLane._complete,
    ):
        source = inspect.getsource(method)
        code_lines = [
            line.partition("#")[0] for line in source.splitlines()
        ]
        offenders = [
            line.strip()
            for line in code_lines
            if "_observers" in line
        ]
        assert offenders == [], (
            f"observer dispatch crept into FastLane.{method.__name__}: "
            f"{offenders}"
        )


#: The general request stages and the one ledger writer they share with
#: the lane.
REQUEST_STAGES = (
    protocol.HostingSystem.submit_request,
    protocol.HostingSystem._arrive_at_host,
    protocol.HostingSystem._complete_service,
    protocol.HostingSystem._drop_request,
    protocol.HostingSystem._finish_request,
)


def test_request_stages_are_record_free():
    """A request between stages is scalars in the event args: no stage
    may construct a dataclass (or anything called a record) for it."""
    dataclass_names = {
        name
        for module in (protocol, repro.types)
        for name, value in vars(module).items()
        if inspect.isclass(value) and dataclasses.is_dataclass(value)
    }
    for stage in REQUEST_STAGES:
        tree = ast.parse(textwrap.dedent(inspect.getsource(stage)))
        called = set(_called_names(tree))
        assert called & dataclass_names == set(), stage.__qualname__
        assert not [name for name in called if "Record" in name], stage.__qualname__
    assert not hasattr(repro.types, "RequestRecord")
    assert protocol.HostingSystem.submit_request.__annotations__["return"] == "None"


def _code_only(module):
    """A module's source without comments and docstrings."""
    tree = ast.parse(inspect.getsource(module))
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(body, list)
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body[0] = ast.Pass()
    return tree, ast.unparse(tree)


def test_fast_lane_reaches_into_no_collector_meter_or_count_table():
    """What is left of the lane is three inlined stages; the accounting
    it used to mirror is shared code it calls.  It may still pre-bind the
    event queue's ``push_fast``, the redirector registry, the stores'
    affinity dicts and the hosts' ``_busy_until`` — nothing in
    ``metrics/``, ``load/`` or ``types.py`` beyond the id aliases."""
    tree, code = _code_only(fastlane)
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert not [name for name in imported if name.startswith("repro.metrics")]
    assert not [name for name in imported if name.startswith("repro.load")]
    for banned in ("RequestRecord", "meter._", "latency.", "pending_access ="):
        assert banned not in code, f"{banned!r} crept back into core/fastlane.py"


def test_engine_knobs_stay_retired():
    """Which pipeline and which generator run is decided by observation
    (``fast_lane_blockers``), never by a config field."""
    fields = {field.name for field in dataclasses.fields(ScenarioConfig)}
    assert not fields & {"fast_lane", "batched_arrivals"}


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
