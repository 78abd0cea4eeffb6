"""The exact-path router against the retired segment loop.

``tests/live/oracle_router.py`` holds the router ``live/httpd.py`` used
before capture-free patterns were answered from a table.  Hypothesis
draws route tables — static and ``{capture}`` patterns over a few shared
paths, so one path sits under several methods and a capture shadows a
static — registers them in both orders, and probes paths with leading,
trailing and doubled slashes and methods nobody registered.  Old and new
must give one verdict: the same handler and params, or the same 404 /
405.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.httpd import Router
from tests.live.oracle_router import SegmentLoopRouter

LITERAL = st.sampled_from(["a", "b", ""])
CAPTURE = st.sampled_from(["{x}", "{y}", "{}"])
METHODS = st.sampled_from(["GET", "POST", "get", "Put"])


def slashed(draw, segments: list[str]) -> str:
    """``segments`` as a path, with its outer slashes drawn."""
    lead = draw(st.sampled_from(["/", "", "//"]))
    trail = draw(st.sampled_from(["", "", "/", "//"]))
    return lead + "/".join(segments) + trail


@st.composite
def route_tables(draw) -> tuple[list[list[str]], list[tuple[str, str]]]:
    """A few literal paths, and ``(method, pattern)`` rows over them with
    each segment kept or made a capture."""
    paths = draw(st.lists(st.lists(LITERAL, max_size=3), min_size=1, max_size=2))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        path = draw(st.sampled_from(paths))
        shape = [draw(CAPTURE) if draw(st.booleans()) else s for s in path]
        rows.append((draw(METHODS), slashed(draw, shape)))
    return paths, rows


@st.composite
def probes(draw, paths: list[list[str]], rows: list[tuple[str, str]]) -> tuple[str, str]:
    """A method and a path: one of the table's paths, one with a segment
    spoiled or added, or any segments at all."""
    segments = list(draw(st.sampled_from(paths)))
    spoil = draw(st.integers(0, 3))
    if spoil == 1 and segments:
        segments[draw(st.integers(0, len(segments) - 1))] = "zz"
    elif spoil == 2:
        segments.append(draw(LITERAL))
    elif spoil == 3:
        segments = draw(st.lists(LITERAL, max_size=4))
    method = draw(st.sampled_from([m for m, _ in rows] + ["DELETE", "post"]))
    return method, slashed(draw, segments)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_router_matches_segment_loop(data):
    paths, rows = data.draw(route_tables())
    indexed = list(enumerate(rows))  # the row number is the handler
    for order in (indexed, indexed[::-1]):
        new, old = Router(), SegmentLoopRouter()
        for handler, (method, pattern) in order:
            new.add(method, pattern, handler)
            old.add(method, pattern, handler)
        for _ in range(6):
            method, path = data.draw(probes(paths, rows))
            assert new.resolve(method, path) == old.resolve(method, path), (order, method, path)
