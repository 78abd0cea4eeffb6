"""Lint-style guard: one HTTP stack, one exchange error.

``repro.live.pool.HttpPool`` is the only HTTP client in the package and
``repro.live.httpd`` the only server; every failed outbound exchange —
connect, I/O, a malformed reply, an error status — is
``repro.live.pool.TransportError``.  A second client tends to arrive as
a convenient stdlib import and a second error type as a convenient
local class, each then needing its own retry rule, status mapping and
``except`` clauses at every caller; this test *is* the lint that keeps
them out, in the manner of ``tests/test_cli_hygiene.py``.

Since PR 21 both halves sit on ``asyncio.Protocol`` and frame messages
in ``data_received``; the streams layer they replaced (a Task and an
``await`` per line, ``wait_for``'s Task per exchange) must not come back
under ``live/`` beside them, so its names are banned there too.  The
retired parsers live on as ``tests/live/oracle_streams.py``.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent

#: Standard-library HTTP stacks nothing under ``src/repro/`` may import.
BANNED_MODULES = ("http.client", "http.server", "urllib.request")

#: Exception classes ``live/`` may define: the one outbound exchange
#: error, and the server's verdict on a malformed *inbound* request.
EXCHANGE_ERROR = "TransportError"
INBOUND_ERRORS = {"BadRequest"}

#: The asyncio streams layer and the per-exchange Task: no name under
#: ``live/`` may spell any of these, as a bare name or an attribute.
BANNED_STREAM_NAMES = {
    "start_server",
    "open_connection",
    "StreamReader",
    "StreamWriter",
    "readuntil",
    "readline",
    "wait_for",
}


def banned_imports(source):
    """``(line, module)`` for every import of a banned HTTP stack."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            for module in BANNED_MODULES:
                if name == module or name.startswith(module + "."):
                    found.append((node.lineno, module))
    return sorted(set(found))


def stream_names(source):
    """``(line, name)`` for every use of the streams layer or ``wait_for``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        if name in BANNED_STREAM_NAMES:
            found.append((node.lineno, name))
    return sorted(set(found))


def exception_classes(source):
    """Names of the exception classes a module defines."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {getattr(base, "id", getattr(base, "attr", "")) for base in node.bases}
        if any(base.endswith(("Error", "Exception")) for base in bases):
            found.add(node.name)
    return found


def test_one_http_stack_and_one_exchange_error():
    imports = {
        str(path.relative_to(PACKAGE)): banned_imports(path.read_text())
        for path in PACKAGE.rglob("*.py")
    }
    assert {name: found for name, found in imports.items() if found} == {}
    defined = {
        path.name: exception_classes(path.read_text())
        for path in (PACKAGE / "live").glob("*.py")
    }
    assert {name: found for name, found in defined.items() if found} == {
        "pool.py": {EXCHANGE_ERROR},
        "httpd.py": INBOUND_ERRORS,
    }


def test_no_streams_layer_under_live():
    streams = {
        path.name: stream_names(path.read_text())
        for path in (PACKAGE / "live").glob("*.py")
    }
    assert {name: found for name, found in streams.items() if found} == {}


def test_guard_catches_a_second_client_and_a_second_error():
    """The shapes the parent commit had, one each."""
    bad = (
        "import http.client\n"
        "from urllib import request\n"
        "from http.server import BaseHTTPRequestHandler as Handler\n"
        "import urllib.request as fetcher, json\n"
        "class ClientError(Exception): pass\n"
        "class StaleSocket(ConnectionError): pass\n"
        "class Quiet(errors.ReproError): pass\n"
    )
    assert banned_imports(bad) == [
        (1, "http.client"),
        (2, "urllib.request"),
        (3, "http.server"),
        (4, "urllib.request"),
    ]
    assert exception_classes(bad) == {"ClientError", "StaleSocket", "Quiet"}
    good = "import json\nfrom urllib.parse import urlsplit\nclass Pool: pass\n"
    assert banned_imports(good) == [] and exception_classes(good) == set()


def test_guard_catches_each_way_back_to_streams():
    """One offender per banned name, in the shape the parent commit had it."""
    bad = (
        "server = await asyncio.start_server(serve, host, port)\n"
        "reader, writer = await asyncio.open_connection(*address)\n"
        "def serve(reader: asyncio.StreamReader, writer: asyncio.StreamWriter): pass\n"
        "line = await reader.readuntil(b'\\r\\n')\n"
        "line = await reader.readline()\n"
        "reply = await asyncio.wait_for(self._exchange(connection, message), deadline)\n"
        "from asyncio import wait_for as bounded\n"
    )
    assert stream_names(bad) == [
        (1, "start_server"),
        (2, "open_connection"),
        (3, "StreamReader"),
        (3, "StreamWriter"),
        (4, "readuntil"),
        (5, "readline"),
        (6, "wait_for"),
        (7, "wait_for"),
    ]
    good = (
        "server = await loop.create_server(factory, host, port)\n"
        "_, connection = await loop.create_connection(_Connection, *address)\n"
        "timer = loop.call_later(deadline, self._expire)\n"
        "async with asyncio.timeout(deadline): pass\n"
    )
    assert stream_names(good) == []
