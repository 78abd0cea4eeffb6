"""Lint-style guards for the sans-I/O protocol core and the threadless
live tier.

The placement engine and the Offload protocol are generators that
*yield* their control conversations (``core/runtime.py``); each runtime
answers them with its own drive loop.  Two properties keep that true one
refactor at a time, and the pinned ruff version has no per-path
import-ban rule, so this test *is* the lint:

* the decision modules import nothing from ``asyncio`` or
  ``repro.live`` — they cannot reach a socket or an event loop;
* no module under ``src/repro/core/`` imports a layer built on it
  (workloads, scenarios, sweep, cli, live): shared tables such as the
  object-id table live in ``repro.types`` or the core itself;
* nothing under ``src/repro/live/`` hands work to a thread
  (``to_thread``, ``run_coroutine_threadsafe``, ``import threading``)
  except the one documented off-loop tick shim,
  ``LiveSystem._run_on_loop``;
* the offload recipient search's probe budget, ``MAX_RECIPIENT_PROBES``,
  is named in ``core/offload.py`` alone: no runtime holds its policy;
* no module under ``src/repro/live/`` writes a control message's body by
  hand (a dict literal holding every wire key of a message) or reads one
  (``.get()`` of a wire key on a request body): ``to_wire`` /
  ``from_wire`` are the one codec.  The envelope keys (``msg_id``,
  ``forwarded``, ``source_addr``) stay outside it, and a registration's
  ``host`` is an address, read only inside ``peer_address(...)``.
"""

import ast
import inspect
import pathlib

from repro.core import offload, placement, runtime
from repro.core.runtime import (
    AffinityReduced,
    CreateObj,
    LoadReport,
    ReplicaCreated,
    RequestDrop,
)
from repro.live import system as live_system

CORE_DIR = pathlib.Path(inspect.getfile(placement)).parent
LIVE_DIR = pathlib.Path(inspect.getfile(live_system)).parent

THREAD_CALLS = {"to_thread", "run_coroutine_threadsafe"}
#: Packages layered on the protocol core, which the core never imports.
OUTER_LAYERS = ("repro.workloads", "repro.scenarios", "repro.sweep", "repro.cli", "repro.live")
#: ``(module, enclosing function)`` allowed to cross threads.
SANCTIONED_SHIM = {("system.py", "_run_on_loop")}


def _imported_modules(tree: ast.AST) -> set[str]:
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            # ``from repro import live`` imports ``repro.live``.
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def _thread_crossings(tree: ast.AST):
    """Yield ``(function, line)`` for every thread hand-off call."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (
                child.name
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else function
            )
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                if name in THREAD_CALLS:
                    yield function, child.lineno
            yield from visit(child, inner)

    yield from visit(tree, None)


def test_decision_modules_import_no_event_loop_or_live_code():
    for module in ("placement.py", "offload.py"):
        imported = _imported_modules(ast.parse((CORE_DIR / module).read_text()))
        banned = sorted(
            name
            for name in imported
            if name.split(".")[0] == "asyncio" or name.startswith("repro.live")
        )
        assert banned == [], f"core/{module} imports {banned}"


def test_core_imports_no_layer_built_on_it():
    found = {}
    for path in sorted(CORE_DIR.rglob("*.py")):
        imported = _imported_modules(ast.parse(path.read_text()))
        banned = sorted(
            name
            for name in imported
            if any(name == layer or name.startswith(layer + ".") for layer in OUTER_LAYERS)
        )
        if banned:
            found[str(path.relative_to(CORE_DIR))] = banned
    assert found == {}, f"core/ modules importing outer layers: {found}"


def test_live_tier_crosses_threads_only_in_the_tick_shim():
    crossings = set()
    threading = []
    for path in sorted(LIVE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        if any(
            name.split(".")[0] == "threading" for name in _imported_modules(tree)
        ):
            threading.append(path.name)
        crossings.update(
            (path.name, function, line) for function, line in _thread_crossings(tree)
        )
    assert threading == [], f"live/ modules importing threading: {threading}"
    assert {(name, function) for name, function, _ in crossings} <= SANCTIONED_SHIM, (
        f"thread hand-offs outside the tick shim: {sorted(crossings)}"
    )
    # ...and the shim is still the one crossing, not dead text.
    assert len(crossings) == 1


def test_protocol_steps_are_generators_and_the_port_has_no_conversations():
    for step in (
        placement.PlacementEngine.run_host,
        placement.PlacementEngine.reduce_affinity,
        offload.run_offload,
        offload.find_recipient,
    ):
        assert inspect.isgeneratorfunction(step), step
    methods = {
        name
        for name, member in vars(runtime.SystemPort).items()
        if callable(member) and not name.startswith("_")
    }
    assert methods == {"record_placement"}


def test_the_probe_budget_is_named_only_by_the_recipient_search():
    named = sorted(
        str(path.relative_to(CORE_DIR.parent))
        for path in CORE_DIR.parent.rglob("*.py")
        if "MAX_RECIPIENT_PROBES" in path.read_text()
    )
    assert named == ["core/offload.py"]


WIRE_MESSAGES = (CreateObj, ReplicaCreated, AffinityReduced, RequestDrop, LoadReport)
WIRE_KEYS = {key for cls in WIRE_MESSAGES for key, _attr, _kind in cls.WIRE}


def _hand_codecs(tree: ast.AST):
    """Yield ``(line, what)`` for every hand-written control body.

    A request body is a name bound to a ``.json()`` call or a parameter
    called ``payload``; a ``.get()`` inside a ``peer_address(...)`` call
    reads an address, not a message field.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = {key.value for key in node.keys if isinstance(key, ast.Constant)}
            for cls in WIRE_MESSAGES:
                if {key for key, _attr, _kind in cls.WIRE} <= keys:
                    yield node.lineno, f"a {cls.__name__} body built by hand"
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bodies = {arg.arg for arg in function.args.args if arg.arg == "payload"}
        addresses = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if getattr(node.value.func, "attr", None) == "json":
                    bodies.update(t.id for t in node.targets if isinstance(t, ast.Name))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "peer_address":
                addresses.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(function):
            if not (
                isinstance(node, ast.Call) and id(node) not in addresses
                and getattr(node.func, "attr", None) == "get" and node.args
                and isinstance(node.func.value, ast.Name) and node.func.value.id in bodies
                and isinstance(node.args[0], ast.Constant) and node.args[0].value in WIRE_KEYS
            ):
                continue
            yield node.lineno, f"{node.args[0].value!r} read off a body by hand"


def test_live_tier_writes_and_reads_control_bodies_only_through_the_codec():
    found = [
        (path.name, line, what)
        for path in sorted(LIVE_DIR.glob("*.py"))
        for line, what in _hand_codecs(ast.parse(path.read_text()))
    ]
    assert found == [], f"hand-written control bodies under live/: {found}"
    # ...and the guard still sees the shapes the codec replaced.
    retired = ast.parse(
        "def notice(self, payload):\n"
        "    affinity = payload.get('affinity')\n"
        "def send(obj, node):\n"
        "    return {'obj': obj, 'host': node, 'affinity': 1, 'msg_id': 'x'}\n"
        "async def handler(self, request, params):\n"
        "    body = request.json()\n"
        "    return body.get('load'), body.get('msg_id'), peer_address(body.get('host'))\n"
    )
    assert [line for line, _what in _hand_codecs(retired)] == [4, 4, 2, 7]
