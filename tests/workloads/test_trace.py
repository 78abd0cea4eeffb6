"""Tests for trace-driven workloads: format, synthesis, replay."""

import pytest

from repro.errors import WorkloadError
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.topology.generators import line_topology
from repro.workloads.base import UniformWorkload
from repro.workloads.trace import Trace, TraceRecord, TraceReplayer, synthesize_trace
from repro.workloads.zipf import ZipfWorkload
from tests.conftest import make_system, served_log


def sample_trace():
    return Trace(
        [
            TraceRecord(0.0, 0, 3),
            TraceRecord(0.5, 1, 3),
            TraceRecord(1.0, 2, 7),
            TraceRecord(1.0, 0, 1),
        ]
    )


def test_trace_statistics():
    trace = sample_trace()
    assert len(trace) == 4
    assert trace.duration == 1.0
    assert trace.num_objects() == 8
    assert trace.gateways() == {0, 1, 2}
    assert trace.popularity() == {3: 2, 7: 1, 1: 1}
    assert trace.mean_rate() == pytest.approx(4.0)


def test_trace_rejects_disorder_and_bad_values():
    with pytest.raises(WorkloadError):
        Trace([TraceRecord(1.0, 0, 0), TraceRecord(0.5, 0, 0)])
    with pytest.raises(WorkloadError):
        Trace([TraceRecord(-1.0, 0, 0)])
    with pytest.raises(WorkloadError):
        Trace([TraceRecord(0.0, -1, 0)])


def test_save_load_round_trip(tmp_path):
    trace = sample_trace()
    path = tmp_path / "trace.csv"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.records == trace.records


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2\n")
    with pytest.raises(WorkloadError):
        Trace.load(path)
    path.write_text("abc,1,2\n")
    with pytest.raises(WorkloadError):
        Trace.load(path)


def test_load_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("# header\n\n0.0,1,2\n")
    trace = Trace.load(path)
    assert len(trace) == 1


def test_synthesize_matches_rate_and_distribution():
    trace = synthesize_trace(
        ZipfWorkload(100),
        rate_per_gateway=10.0,
        duration=50.0,
        gateways=[0, 1, 2],
        rng=RngFactory(3).stream("trace"),
    )
    assert trace.mean_rate() == pytest.approx(30.0, rel=0.05)
    popularity = trace.popularity()
    head = sum(popularity.get(obj, 0) for obj in range(10))
    tail = sum(popularity.get(obj, 0) for obj in range(90, 100))
    assert head > tail
    # Times are sorted across gateways.
    times = [record.time for record in trace]
    assert times == sorted(times)


def test_synthesize_validation():
    rng = RngFactory(1).stream("t")
    with pytest.raises(WorkloadError):
        synthesize_trace(
            UniformWorkload(5), rate_per_gateway=0, duration=1, gateways=[0], rng=rng
        )
    with pytest.raises(WorkloadError):
        synthesize_trace(
            UniformWorkload(5), rate_per_gateway=1, duration=0, gateways=[0], rng=rng
        )


def test_replayer_drives_system():
    sim = Simulator()
    system = make_system(sim, line_topology(4), num_objects=10)
    system.initialize_round_robin()
    trace = synthesize_trace(
        UniformWorkload(10),
        rate_per_gateway=5.0,
        duration=20.0,
        gateways=[0, 1, 2, 3],
        rng=RngFactory(4).stream("replay"),
    )
    completed = served_log(system)
    replayer = TraceReplayer(sim, system, trace)
    sim.run(until=30.0)
    assert replayer.done
    assert replayer.replayed == len(trace)
    assert len(completed) == len(trace)


def test_replayer_time_scale_compresses():
    sim = Simulator()
    system = make_system(sim, line_topology(3), num_objects=5)
    system.initialize_round_robin()
    trace = Trace([TraceRecord(10.0, 0, 0), TraceRecord(20.0, 1, 1)])
    replayer = TraceReplayer(sim, system, trace, time_scale=0.1)
    sim.run(until=2.5)
    assert replayer.done  # both records fired by t=2.0


def test_replay_is_reproducible():
    def run_once():
        sim = Simulator()
        system = make_system(sim, line_topology(4), num_objects=10)
        system.initialize_round_robin()
        trace = synthesize_trace(
            ZipfWorkload(10),
            rate_per_gateway=4.0,
            duration=25.0,
            gateways=[0, 1, 2, 3],
            rng=RngFactory(9).stream("repro"),
        )
        TraceReplayer(sim, system, trace)
        sim.run(until=30.0)
        return system.network.total_byte_hops()

    assert run_once() == run_once()


def test_empty_trace_replayer_is_done():
    sim = Simulator()
    system = make_system(sim, line_topology(3), num_objects=5)
    system.initialize_round_robin()
    replayer = TraceReplayer(sim, system, Trace([]))
    assert replayer.done
