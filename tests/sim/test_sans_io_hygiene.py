"""Lint-style guards for the sans-I/O protocol core and the threadless
live tier.

The placement engine and the Offload protocol are generators that
*yield* their control conversations (``core/runtime.py``); each runtime
answers them with its own drive loop.  Two properties keep that true one
refactor at a time, and the pinned ruff version has no per-path
import-ban rule, so this test *is* the lint:

* the decision modules import nothing from ``asyncio`` or
  ``repro.live`` — they cannot reach a socket or an event loop;
* nothing under ``src/repro/live/`` hands work to a thread
  (``to_thread``, ``run_coroutine_threadsafe``, ``import threading``)
  except the one documented off-loop tick shim,
  ``LiveSystem._run_on_loop``.
"""

import ast
import inspect
import pathlib

from repro.core import offload, placement, runtime
from repro.live import system as live_system

CORE_DIR = pathlib.Path(inspect.getfile(placement)).parent
LIVE_DIR = pathlib.Path(inspect.getfile(live_system)).parent

THREAD_CALLS = {"to_thread", "run_coroutine_threadsafe"}
#: ``(module, enclosing function)`` allowed to cross threads.
SANCTIONED_SHIM = {("system.py", "_run_on_loop")}


def _imported_modules(tree: ast.AST) -> set[str]:
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
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
    ):
        assert inspect.isgeneratorfunction(step), step
    methods = {
        name
        for name, member in vars(runtime.SystemPort).items()
        if callable(member) and not name.startswith("_")
    }
    assert methods == {"record_placement"}
