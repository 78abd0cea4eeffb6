"""The retired segment-loop router, kept as the routing oracle.

Until the exact-path table, ``live/httpd.py``'s :class:`Router` matched
every request against every registered route in order.  This is that
router, verbatim but for its name, so ``tests/live/test_router_oracle.py``
can require the same handler, params, 404 or 405 from old and new on any
route table and any path.
"""

from __future__ import annotations

from repro.live.httpd import Handler


class SegmentLoopRouter:
    """Maps ``METHOD /path/{capture}`` patterns to async handlers."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, tuple[str, ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        segments = tuple(pattern.strip("/").split("/")) if pattern.strip("/") else ()
        self._routes.append((method.upper(), segments, handler))

    def resolve(
        self, method: str, path: str
    ) -> tuple[Handler, dict[str, str]] | int:
        """Find a handler, or the error status (404/405) to return."""
        segments = tuple(path.strip("/").split("/")) if path.strip("/") else ()
        path_matched = False
        for route_method, route_segments, handler in self._routes:
            params = _match_segments(route_segments, segments)
            if params is None:
                continue
            path_matched = True
            if route_method == method.upper():
                return handler, params
        return 405 if path_matched else 404


def _match_segments(
    pattern: tuple[str, ...], segments: tuple[str, ...]
) -> dict[str, str] | None:
    if len(pattern) != len(segments):
        return None
    params: dict[str, str] = {}
    for expected, actual in zip(pattern, segments):
        if expected.startswith("{") and expected.endswith("}"):
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params
