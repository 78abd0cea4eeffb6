"""Every module under ``src/repro`` has a user, except the pinned orphans.

Reachability is read from source with :mod:`ast`; no ``repro`` module is
imported.  The roots are ``repro.__main__`` and every ``repro`` import in
``bench/``, ``benchmarks/`` and ``examples/`` (``tests/`` is not a root).
``import a.b`` leads to ``a.b``; ``from pkg import name`` leads to the
module that binds ``name``, following package ``__init__`` re-exports.  A
package ``__init__`` leads on only through names its own code uses, not
names it merely re-exports, and imports under ``if TYPE_CHECKING:`` do not
count.  Reaching a module reaches its parent packages.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ROOT_DIRS = ("bench", "benchmarks", "examples")

#: Modules nothing reaches, each with its ROADMAP 16(b) floor cost: the
#: pinned test ids that deleting it would remove.
ORPHANS = {
    "repro.analysis.links",  # 5 floor ids; the only reader of track_links
    "repro.optimal.multi_object",  # 10 floor ids
    "repro.routing.placement_opt",  # 9 floor ids
    "repro.workloads.trace",  # 13 floor ids; item 7 would give it a caller
}


def _name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_name(path): path for path in (SRC / "repro").rglob("*.py")}
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(tree: ast.Module):
    """Every import statement in ``tree`` outside ``if TYPE_CHECKING:``."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _type_checking(node.test):
            stack.extend(node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        else:
            stack.extend(ast.iter_child_nodes(node))


def _bindings(node: ast.Import | ast.ImportFrom):
    """``(bound name, module, imported name or None)`` per alias.  The
    package uses absolute imports only; a relative one would resolve to
    nothing and show up here as a false orphan, not a missed one."""
    for alias in node.names:
        if isinstance(node, ast.Import):
            yield alias.asname or alias.name.split(".")[0], alias.name, None
        else:
            yield alias.asname or alias.name, node.module or "", alias.name


@cache
def _reexports(package: str) -> dict[str, tuple[str, str | None]]:
    return {
        bound: (module, name)
        for node in _imports(_tree(MODULES[package]))
        for bound, module, name in _bindings(node)
    }


def _provider(module: str, name: str | None) -> str | None:
    """The ``repro`` module that binds ``name`` when imported from ``module``."""
    if name is not None and f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if name is not None and module in PACKAGES and name in _reexports(module):
        return _provider(*_reexports(module)[name])
    return module if module in MODULES else None


def _targets(path: Path, *, only_used: bool) -> set[str]:
    tree = _tree(path)
    used = None
    if only_used:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {
        target
        for node in _imports(tree)
        for bound, module, name in _bindings(node)
        if used is None or bound in used
        if (target := _provider(module, name)) is not None
    }


def reachable() -> set[str]:
    todo = ["repro.__main__"]
    for directory in ROOT_DIRS:
        for path in sorted((ROOT / directory).glob("*.py")):
            todo.extend(_targets(path, only_used=False))
    seen: set[str] = set()
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        parent = module.rpartition(".")[0]
        if parent:
            todo.append(parent)
        todo.extend(_targets(MODULES[module], only_used=module in PACKAGES))
    return seen


def test_every_module_but_the_pinned_orphans_has_a_user():
    unreached = set(MODULES) - reachable()
    new = sorted(unreached - ORPHANS)
    assert not new, (
        f"orphan module(s) with no user: {new}; give each a caller or "
        "delete it (ROADMAP 16(b))"
    )
    stale = sorted(ORPHANS - unreached)
    assert not stale, (
        f"stale ORPHANS entries (now reachable or deleted): {stale}; "
        "drop them from the set"
    )
