"""Unit tests for the load-report board."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.load_board import LoadReportBoard
from repro.errors import ConfigurationError


def test_reports_overwrite_by_node():
    board = LoadReportBoard()
    board.report(1, 10.0, 0.0)
    board.report(1, 4.0, 20.0)
    assert board.reported_load(1) == 4.0
    assert len(board) == 1


def test_unreported_is_none():
    assert LoadReportBoard().reported_load(7) is None


def test_candidates_below_sorted_most_idle_first():
    board = LoadReportBoard()
    board.report(1, 5.0, 0.0)
    board.report(2, 2.0, 0.0)
    board.report(3, 9.0, 0.0)
    board.report(4, 2.0, 0.0)
    # Ties on load break by node id.
    assert board.candidates(exclude=0) == [(2, 2.0), (4, 2.0), (1, 5.0), (3, 9.0)]
    # The offloader itself never appears.
    assert board.candidates(exclude=2) == [(4, 2.0), (1, 5.0), (3, 9.0)]


def test_candidates_full_listing():
    board = LoadReportBoard()
    board.report(1, 5.0, 0.0)
    board.report(2, 2.0, 0.0)
    assert board.candidates(exclude=1) == [(2, 2.0)]
    assert board.candidates(exclude=9) == [(2, 2.0), (1, 5.0)]


def test_expired_reports_filtered_from_queries():
    board = LoadReportBoard(expiry=60.0)
    board.report(1, 2.0, 0.0)  # stale: e.g. a crashed host's last report
    board.report(2, 5.0, 80.0)  # fresh
    assert board.candidates(exclude=None, now=100.0) == [(2, 5.0)]
    # A report exactly at the expiry horizon still counts.
    assert board.candidates(exclude=None, now=60.0) == [(1, 2.0), (2, 5.0)]


def test_queries_without_now_never_filter():
    board = LoadReportBoard(expiry=60.0)
    board.report(1, 2.0, 0.0)
    assert board.candidates(exclude=None) == [(1, 2.0)]


def test_no_expiry_board_never_filters():
    board = LoadReportBoard()
    board.report(1, 2.0, 0.0)
    assert board.candidates(exclude=None, now=1e9) == [(1, 2.0)]


def test_fresh_report_restores_candidacy():
    board = LoadReportBoard(expiry=60.0)
    board.report(1, 2.0, 0.0)
    assert board.candidates(exclude=None, now=100.0) == []
    board.report(1, 3.0, 90.0)
    assert board.candidates(exclude=None, now=100.0) == [(1, 3.0)]
    assert board.report_time(1) == 90.0


def test_expiry_boundary_inclusive_on_every_query_path():
    """The pinned semantic: a report aged *exactly* ``expiry`` is fresh."""
    board = LoadReportBoard(expiry=60.0)
    board.report(1, 2.0, 40.0)
    assert board.is_fresh(40.0, 100.0)  # age == expiry: fresh
    assert not board.is_fresh(40.0, 100.0 + 1e-9)  # any older: stale
    assert board.candidates(exclude=None, now=100.0) == [(1, 2.0)]
    assert board.candidates(exclude=None, now=100.5) == []


def test_sim_and_live_expiry_horizons_agree():
    """Both planes derive seconds-based expiry from the same protocol
    config through the shared ``expiry_from_protocol`` translation, so
    the horizon (and boundary semantics) cannot drift between them."""
    from repro.core.load_board import expiry_from_protocol

    config = ProtocolConfig(report_expiry_intervals=3, measurement_interval=20.0)
    assert expiry_from_protocol(config) == 60.0
    assert expiry_from_protocol(config.replace(report_expiry_intervals=None)) is None

    # The simulator's hosting system uses the helper verbatim.
    from repro.core.protocol import HostingSystem
    from repro.network.transport import Network
    from repro.routing.routes_db import RoutingDatabase
    from repro.sim.engine import Simulator
    from repro.topology.generators import line_topology

    sim = Simulator()
    routes = RoutingDatabase(line_topology(3))
    system = HostingSystem(
        sim, Network(sim, routes), config, num_objects=4, capacity=10.0
    )
    assert system.board.expiry == 60.0

    # The live redirector computes its board's expiry the same way
    # (LiveRedirector pulls in a socket-bound HTTP server, so assert
    # against the same shared helper its constructor calls).
    from repro.live.config import live_protocol_config

    live_protocol = live_protocol_config().replace(
        report_expiry_intervals=3, measurement_interval=20.0
    )
    assert expiry_from_protocol(live_protocol) == 60.0


def test_expiry_validation():
    with pytest.raises(ConfigurationError):
        LoadReportBoard(expiry=0.0)
    with pytest.raises(ConfigurationError):
        LoadReportBoard(expiry=-5.0)


def test_protocol_config_expiry_intervals_validated():
    # At least 2 intervals: a healthy host's newest report can be one
    # interval old, so 1 would filter live hosts in fault-free runs.
    with pytest.raises(ConfigurationError):
        ProtocolConfig(report_expiry_intervals=1)
    assert ProtocolConfig(report_expiry_intervals=2).report_expiry_intervals == 2
    assert ProtocolConfig(report_expiry_intervals=None).report_expiry_intervals is None
