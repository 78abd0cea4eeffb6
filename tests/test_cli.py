"""Tests for the ``python -m repro`` command-line interface."""

import json
import re
import tracemalloc

import pytest

from repro.__main__ import build_cli, main, run_config
from repro.cli import revision
from repro.sim.engine import Simulator


def test_parser_defaults():
    # Flags that set a config field store nothing unless given: their
    # defaults are the dataclass's, read through run_config.
    args = build_cli().parse_args(["run"])
    assert args.workload == "zipf"
    assert args.scale == 0.15
    assert not args.high_load
    assert run_config(args).dynamic
    assert run_config(args).distribution == "paper"


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_cli().parse_args(["run", "--workload", "nope"])


def test_main_runs_small_scenario(capsys):
    code = main(
        [
            "--workload",
            "uniform",
            "--scale",
            "0.05",
            "--duration",
            "120",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "bandwidth reduction" in out
    assert "replicas per object" in out


def test_main_static_baseline(capsys):
    code = main(
        [
            "--workload",
            "uniform",
            "--scale",
            "0.05",
            "--duration",
            "120",
            "--static",
        ]
    )
    assert code == 0
    assert "relocations" in capsys.readouterr().out


def test_sweep_parser_defaults():
    args = build_cli().parse_args(["sweep"])
    assert args.workload == "zipf"
    assert args.seeds == 0
    assert args.workers is None
    assert args.retries == 1
    assert not args.smoke


def test_sweep_subcommand_runs_grid_and_writes_outputs(tmp_path, capsys):
    manifest = tmp_path / "manifest.jsonl"
    summary = tmp_path / "summary.json"
    code = main(
        [
            "sweep",
            "--preset",
            "uniform",
            "--scale",
            "0.05",
            "--duration",
            "120",
            "--seed-list",
            "1,2",
            "--set",
            "protocol.placement_interval=50,100",
            "--workers",
            "1",
            "--manifest",
            str(manifest),
            "--json",
            str(summary),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[placement_interval=50]" in out
    assert "4/4 runs ok" in out

    records = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert len(records) == 4
    assert [r["index"] for r in records] == [0, 1, 2, 3]
    assert {r["seed"] for r in records} == {1, 2}
    assert all(r["status"] == "ok" for r in records)
    assert all("bandwidth_reduction" in r["metrics"] for r in records)

    data = json.loads(summary.read_text())
    assert data["runs"] == 4
    assert data["statuses"] == {"ok": 4}
    assert data["throughput_rps"] > 0
    assert set(data["points"]) == {
        "placement_interval=50",
        "placement_interval=100",
    }
    # The manifest and summary agree on the spec identity.
    assert {r["spec_hash"] for r in records} == {data["spec_hash"]}


def test_sweep_subcommand_derived_seeds(capsys):
    code = main(
        [
            "sweep",
            "--preset",
            "uniform",
            "--scale",
            "0.05",
            "--duration",
            "120",
            "--seeds",
            "2",
            "--root-seed",
            "7",
            "--workers",
            "1",
        ]
    )
    assert code == 0
    assert "2 runs (1 points x 2 seeds)" in capsys.readouterr().err


def test_sweep_rejects_bad_set_syntax():
    assert main(["sweep", "--set", "no-equals-sign", "--workers", "1"]) == 2


def test_trace_parser_defaults():
    # --preset and --workload are two spellings of one argument.
    args = build_cli().parse_args(["trace", "--preset", "regional"])
    assert args.workload == "regional"
    assert args.out == "-"
    assert args.kind is None


def test_trace_subcommand_emits_decision_jsonl(tmp_path, capsys):
    flags = ["--preset", "zipf", "--scale", "0.1", "--duration", "250"]
    code = main(["trace", *flags])
    assert code == 0
    captured = capsys.readouterr()
    header, *records = [json.loads(line) for line in captured.out.splitlines()]
    # The first line names the run: the spec hash ``run --json`` and
    # ``sweep`` give the same command line, its seed, engine and revision.
    assert set(header) == {"kind", "spec_hash", "seed", "engine_mode", "revision"}
    assert header["kind"] == "provenance" and header["revision"] == revision()
    assert header["engine_mode"].startswith("stood down: tracer attached")
    assert header["seed"] == 1
    run_json = tmp_path / "run.json"
    assert main(["run", *flags, "--json", str(run_json)]) == 0
    assert header["spec_hash"] == json.loads(run_json.read_text())["spec_hash"]
    assert records
    kinds = {record["kind"] for record in records}
    assert {"choose-replica", "placement", "create-obj", "offload"} <= kinds
    # Every record is stamped and discriminated.
    assert all("time" in record and "seq" in record for record in records)
    # The run summary goes to stderr, keeping stdout valid JSONL.
    assert "counters" in captured.err


def test_trace_subcommand_kind_filter_and_file_output(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(
        [
            "trace",
            "--preset",
            "uniform",
            "--scale",
            "0.05",
            "--duration",
            "120",
            "--kind",
            "placement",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    header, *records = [json.loads(line) for line in out.read_text().splitlines()]
    assert header["kind"] == "provenance" and header["seed"] == 1
    assert records
    assert {record["kind"] for record in records} == {"placement"}


def test_run_strategy_flag_default():
    assert run_config(build_cli().parse_args(["run"])).strategy == "paper"


def test_gap_subcommand_runs_one_point(tmp_path, capsys):
    out = tmp_path / "gap.json"
    code = main(
        [
            "gap",
            "--quick",
            "--out",
            str(out),
            "--set",
            "gap.topology=ktree-2-2",
            "--set",
            "gap.load_scale=0.5",
            "--set",
            "gap.fault=none",
            "--set",
            "gap.strategy=static",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "optgap-v1"
    assert len(payload["points"]) == 1
    point = payload["points"][0]
    assert point["strategy"] == "static"
    assert point["gap_ratio"] >= 1.0 - 1e-9
    assert "tree_gap" in point
    assert "worst gap" in capsys.readouterr().err
    assert payload["revision"] == revision()


def test_gap_scalar_override_and_stdout(tmp_path, capsys):
    code = main(
        [
            "gap",
            "--quick",
            "--out",
            "-",
            "--set",
            "gap.topology=ktree-2-2",
            "--set",
            "gap.load_scale=0.5",
            "--set",
            "gap.fault=none",
            "--set",
            "gap.strategy=static",
            "--set",
            "gap.duration=120",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["settings"]["duration"] == 120


def test_gap_rejects_unknown_set_key():
    assert main(["gap", "--set", "gap.bogus=1"]) == 2


def test_gap_rejects_multi_valued_scalar():
    assert main(["gap", "--set", "gap.duration=10,20"]) == 2


# ----------------------------------------------------------------------
# Bad input is a message, not a traceback; short runs still report
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["run", "--loss", "1.5"], "drop_prob must be a probability"),
        (["run", "--scale", "-1"], "scale"),
        (["profile", "--dup", "2"], "duplicate_prob must be a probability"),
        (["run", "--write-rate", "1", "--category-mix", "1:2"], "category mix"),
        (["sweep", "--seed-list", "1,x"], "--seed-list"),
        (["sweep", "--set", "duration=abc"], "duration does not take text"),
        (["sweep", "--set", "protocol.placement_interval="], "has no values"),
        (["gap", "--set", "gap.load_scale=x"], "'x' is not a number"),
        (["gap", "--set", "gap.fault=x"], "'x' is not a number"),
        (["gap", "--set", "gap.duration=abc"], "gap.duration does not take text"),
        (["run", "--outage", "99:1:5"], "outage names node 99"),
        (["run", "--partition", "99:1:5"], "partition names node 99"),
        (["serve", "--config", "missing.json"], "cannot load live config"),
        (["serve", "--config", "{bad"], "cannot load live config"),
        (["serve", "--config", '{"num_hostz": 3}'], "unknown override key 'num_hostz'"),
        (["serve", "--config", '{"protocol": {"high_watermark": "x"}}'],
         "protocol.high_watermark does not take text"),
        (["loadgen", "--redirector", "foo:bar"], "--redirector must be HOST:PORT"),
        (["serve", "--gateway", "x:y"], "--gateway must be HOST:PORT"),
        (["sweep", "--set", "faults.outages=1"], "expected NODE:AT:DUR"),
        (["run", "--outage", "1:2"], "expected NODE:AT:DUR"),
        (["trace", "--partition", "x"], "expected NODES:AT:DUR"),
        (["run", "--mtbf", "5"], "mtbf and mttr must be set together"),
        (["sweep", "--set", "novalue"], "expected KEY=V1"),
        (["gap", "--set", "gap.seed=1,2"], "takes exactly one value"),
        (["gap", "--set", "gap.nope=1"], "known: gap.capacity, gap.duration"),
        (["serve", "--role", "shard"], "--role shard needs --shard"),
        (["serve", "--role", "host"], "--role host needs --node"),
        (["loadgen", "--redirector", "nocolon"], "--redirector must be HOST:PORT"),
        (["loadgen", "--base-port", "0"], "pass --redirector HOST:PORT"),
        (["loadgen", "--processes", "0"], "--processes must be at least 1"),
        (["loadgen", "--direct", "--redirector", "127.0.0.1:1"],
         "--direct: cannot read the front door's endpoints"),
        (["serve", "--role", "shard", "--shard", "1", "--shards", "2", "--trace", "t.jsonl"],
         "--trace needs --role all"),
        (["serve", "--role", "shard", "--shard", "2", "--shards", "2"],
         "--shard must be in [0, 2), got 2"),
        (["serve", "--role", "host", "--node", "0", "--base-port", "0"],
         "ephemeral ports need --gateway HOST:PORT (the front door)"),
        (["sweep", "--set", "load_scale=0"], "load scale must be positive"),
        (["gap", "--set", "gap.strategy=availability-aware"], "unknown strategy"),
        (["run", "--strategy", "availability-aware"], "unknown strategy"),
        (["gap", "--quick", "--set", "gap.topology=bogus"], "unknown gap topology"),
        (["gap", "--quick", "--set", "gap.workload=bogus"], "unknown workload"),
    ],
)
def test_configuration_errors_exit_2_with_one_line(
    argv, fragment, capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    if argv[1] == "--config" and argv[2].startswith("{"):
        (tmp_path / "live.json").write_text(argv[2])
        argv = [argv[0], "--config", "live.json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: error: ")
    assert captured.err.count("\n") == 1
    assert fragment in captured.err
    assert "Traceback" not in captured.err


def test_serve_duration_ends_a_single_role(tmp_path, capsys):
    """``--serve-duration`` used to reach ``--role all`` only; a lone
    role waited for a signal whatever it said."""
    port_file = tmp_path / "r.port"
    metrics = tmp_path / "r.json"
    code = main(
        ["serve", "--role", "shard", "--shard", "0", "--base-port", "0", "--serve-duration",
         "0.2", "--port-file", str(port_file), "--metrics", str(metrics)]
    )  # fmt: skip
    assert code == 0
    assert f"shard 0 up on 127.0.0.1:{int(port_file.read_text())}" in (
        capsys.readouterr().err
    )
    payload = json.loads(metrics.read_text())
    assert payload["kind"] == "live-shard" and payload["revision"] == revision()
    # A live deployment has no ScenarioConfig, so no spec hash either.
    assert "spec_hash" not in payload


def test_protocol_errors_stay_loud(monkeypatch):
    """Only bad-input errors are folded into a message: a ProtocolError
    is a bug in the program and must keep its traceback."""
    from repro import __main__ as cli
    from repro.errors import ProtocolError

    def broken(args):
        raise ProtocolError("registry out of sync")

    populate, _, summary = cli.COMMANDS["run"]
    monkeypatch.setitem(cli.COMMANDS, "run", (populate, broken, summary))
    with pytest.raises(ProtocolError):
        main(["run"])


def _rows(text: str) -> dict[str, str]:
    """The ``run`` table's rows, metric -> value."""
    return {
        line.split("  ")[0]: line.split("  ", 1)[1].strip()
        for line in text.splitlines()
        if "  " in line
    }


def test_short_faulted_run_reports_na_and_engine_mode(tmp_path, capsys):
    """A run shorter than two buckets used to simulate to the end and
    then die in ``bandwidth_reduction()``."""
    out = tmp_path / "short.json"
    code = main(
        ["run", "--duration", "20", "--scale", "0.05", "--loss", "0.01",
         "--json", str(out)]
    )  # fmt: skip
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert rows["bandwidth reduction"] == "n/a"
    assert rows["per-request bandwidth reduction"] == "n/a"
    assert rows["engine"].startswith("stood down: fault plane attached")
    metrics = json.loads(out.read_text())
    assert "bandwidth_reduction" not in metrics
    assert metrics["engine_mode"] == rows["engine"]
    assert metrics["requests_completed"] > 0


def test_run_reports_latency_percentiles_off_the_histogram(tmp_path, capsys, monkeypatch):
    from repro.cli import sim as cli_sim

    results = []
    run_scenario = cli_sim.run_scenario

    def kept(config):
        results.append(run_scenario(config))
        return results[-1]

    monkeypatch.setattr(cli_sim, "run_scenario", kept)
    out = tmp_path / "run.json"
    code = main(["run", "--preset", "zipf", "--scale", "0.05", "--duration", "60",
                 "--json", str(out)])  # fmt: skip
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    metrics = json.loads(out.read_text())
    (result,) = results
    p50, p99 = metrics["latency_p50_ms"], metrics["latency_p99_ms"]
    assert 0 < p50 <= p99
    assert p50 == result.latency.percentile(50) * 1e3
    assert p99 == result.latency.percentile(99) * 1e3
    assert rows["latency p50 / p99"] == f"{p50:.1f} / {p99:.1f} ms"


def test_run_without_completions_omits_the_percentiles(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(["run", "--preset", "zipf", "--scale", "0.05", "--duration", "0.01",
                 "--json", str(out)])  # fmt: skip
    assert code == 0
    assert _rows(capsys.readouterr().out)["latency p50 / p99"] == "n/a"
    metrics = json.loads(out.read_text())
    assert metrics["requests_completed"] == 0
    assert "latency_p50_ms" not in metrics and "latency_p99_ms" not in metrics


def test_run_json_names_its_spec_seed_engine_and_revision(tmp_path, capsys):
    """The spec hash is the one ``sweep`` prints for the same command line."""
    flags = ["--preset", "zipf", "--scale", "0.02", "--duration", "30", "--seed", "3"]
    out = tmp_path / "run.json"
    assert main(["run", *flags, "--json", str(out)]) == 0
    metrics = json.loads(out.read_text())
    assert metrics["seed"] == 3
    assert metrics["engine_mode"] == "fast lane: installed"
    assert metrics["revision"] == revision()
    capsys.readouterr()
    assert main(["sweep", *flags, "--workers", "1"]) == 0
    printed = re.search(r", spec (\w+)$", capsys.readouterr().err, re.M).group(1)
    assert metrics["spec_hash"] == printed


def test_revision_is_none_outside_a_git_checkout(tmp_path):
    assert revision(str(tmp_path)) is None


def test_fault_free_run_reports_fast_lane(capsys):
    assert main(["run", "--workload", "uniform", "--scale", "0.05",
                 "--duration", "40"]) == 0  # fmt: skip
    assert "fast lane: installed" in capsys.readouterr().out


def test_profile_accepts_fault_and_consistency_flags(tmp_path, capsys):
    out = tmp_path / "profile.json"
    code = main(
        ["profile", "--preset", "zipf", "--scale", "0.05", "--duration", "30",
         "--loss", "0.02", "--jitter", "0.005", "--write-rate", "5",
         "--json", str(out)]
    )  # fmt: skip
    assert code == 0
    text = capsys.readouterr().out
    assert "engine: stood down: fault plane attached" in text
    breakdown = json.loads(out.read_text())
    assert "consistency plane attached" in breakdown["engine_mode"]
    assert breakdown["seed"] == 1 and breakdown["revision"] == revision()
    assert len(breakdown["spec_hash"]) == 16
    assert breakdown["metrics"]["messages_dropped"] > 0
    assert breakdown["metrics"]["writes_applied"] > 0
    # Every request is in the counters, the ones lost in transit included
    # (they used to appear nowhere).
    counters = breakdown["counters"]
    assert counters["requests_lost"] > 0
    assert counters["requests_fast_lane"] == 0
    assert counters["requests_general_path"] == sum(
        counters[f"requests_{outcome}"]
        for outcome in ("completed", "dropped", "failed", "lost")
    )
    assert f"{counters['requests_lost']} lost" in text


def test_profile_reports_the_benchmark_layers_from_raw_entries(tmp_path, capsys):
    """Calls per request and self share, keyed by the benchmark's layers;
    the calls add up to the profiler's raw total."""
    from repro.obs.layers import LAYERS

    out = tmp_path / "profile.json"
    code = main(["profile", "--preset", "zipf", "--scale", "0.05", "--duration", "120",
                 "--top", "12", "--json", str(out)])  # fmt: skip
    assert code == 0
    text = capsys.readouterr().out
    breakdown = json.loads(out.read_text())
    assert breakdown["schema"] == "pipeline-profile/v2"
    per_request, shares = breakdown["calls_per_request"], breakdown["self_share"]
    assert set(per_request) == set(shares) == set(LAYERS)
    counters = breakdown["counters"]
    requests = sum(counters[f"requests_{outcome}"]
                   for outcome in ("completed", "dropped", "failed", "lost"))
    assert sum(per_request.values()) * requests == pytest.approx(
        breakdown["profiled_calls_total"], rel=1e-4
    )
    assert per_request["core.fastlane"] > per_request["network"]
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    assert len(breakdown["top_functions"]) == 12
    table = text.partition("top functions by cumulative time (top 12):\n")[2]
    assert len(table.split("\n\n")[0].splitlines()) == 12
    assert {row["layer"] for row in breakdown["top_functions"]} <= set(LAYERS)
    assert f"{breakdown['profiled_calls_total']:,} calls" in text
    # Placement rounds ran (the first is at 100 s) and are timed by the
    # event census's placement-tick row.
    walls, census = breakdown["stage_walltimes"], breakdown["event_census"]
    assert walls["placement_s"] == census["placement_s"] > 0
    assert walls["cyclic_objects"] == 0
    assert walls["build_s"] > 0 and walls["drain_s"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--duration", "1", "--json", "{missing}/run.json"],
        ["trace", "--duration", "1", "--out", "{missing}/t.jsonl"],
        ["sweep", "--duration", "1", "--json", "{missing}/s.json"],
        ["sweep", "--duration", "1", "--manifest", "{missing}/m.jsonl"],
        ["profile", "--duration", "1", "--json", "{missing}/p.json"],
        ["gap", "--out", "{missing}/g.json"],
        ["claims", "--out", "{missing}/c.json"],
        ["loadgen", "--json", "{missing}/l.json"],
    ],
)
def test_an_output_path_without_a_directory_fails_before_the_run(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    argv = [arg.format(missing=missing) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"repro: error: cannot write {argv[-1]}: no directory {missing}\n"
    assert captured.out == ""


@pytest.mark.parametrize("top", ["0", "-1"])
def test_profile_rejects_a_top_below_one(top, capsys):
    assert main(["profile", "--duration", "1", "--top", top]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"repro: error: --top must be at least 1, got {top}\n"
    assert captured.out == ""


def test_profile_event_census_counts_each_lane_stage_once_per_request(tmp_path, capsys):
    """The census tracer joins at ``Simulator.run`` entry, after the lane
    was installed: the run keeps the fast lane, and each of its three
    stages and the response leg fire about once per request."""
    run_before = Simulator.run
    out = tmp_path / "profile.json"
    code = main(
        ["profile", "--preset", "zipf", "--scale", "0.05", "--duration", "60",
         "--json", str(out)]
    )  # fmt: skip
    assert code == 0
    assert Simulator.run is run_before
    text = capsys.readouterr().out
    census = json.loads(out.read_text())["event_census"]
    assert census["engine_mode"] == "fast lane: installed"
    assert census["requests_completed"] > 1000
    callbacks = census["callbacks"]
    for stage in (
        "FastLane.submit_request", "FastLane._arrive", "FastLane._complete",
        "HostingSystem._finish_request",
    ):
        assert callbacks[stage]["per_request"] == pytest.approx(1.0, abs=0.05), stage
        assert f"  {stage}" in text
    # Periodic ticks are named by what they run, not as one lump.
    ticks = [label for label in callbacks if label.startswith("PeriodicProcess(")]
    assert len(ticks) >= 2 and "PeriodicProcess._tick" not in callbacks
    assert sum(row["events"] for row in callbacks.values()) == census["events"]
    shares = sum(row["time_share"] for row in callbacks.values())
    assert shares == pytest.approx(1.0, abs=0.01)
    assert f"event census: {census['events_per_request']:g} events" in text


def test_profile_memory_census_rolls_the_heap_up_by_stage_and_file(tmp_path, capsys):
    run_before = Simulator.run
    out = tmp_path / "census.json"
    code = main(
        ["profile", "--preset", "zipf", "--scale", "0.05", "--duration", "30",
         "--memory", "--top", "5", "--json", str(out)]
    )  # fmt: skip
    assert code == 0
    assert Simulator.run is run_before and not tracemalloc.is_tracing()
    text = capsys.readouterr().out
    assert "engine: fast lane: installed" in text
    assert "by layer (MB):" in text and "by allocating file (MB):" in text
    census = json.loads(out.read_text())
    assert census["schema"] == "memory-census/v1"
    assert census["engine_mode"] == "fast lane: installed"
    assert census["seed"] == 1 and census["revision"] == revision()
    assert len(census["spec_hash"]) == 16
    assert census["requests_completed"] > 0
    for reading in (census["run_entry"], census["horizon"]):
        assert set(reading) == {"total_mb", "stage_mb", "file_mb"}
        assert reading["total_mb"] == pytest.approx(
            sum(reading["stage_mb"].values()), abs=0.01 * len(reading["stage_mb"])
        )
        assert len(reading["file_mb"]) <= 5
    # The registry is built before the run and is its largest structure.
    assert "core/redirector.py" in census["run_entry"]["file_mb"]
    assert census["run_entry"]["stage_mb"]["core.redirector"] > 0


def test_memory_census_reports_rss_beside_the_traced_heap(tmp_path, capsys, monkeypatch):
    """``tracemalloc`` cannot see what a C extension allocates for itself
    (the 44 MB numpy + scipy cost the large preset until ISSUE 24), so the
    census says how much of the process it did see."""
    from repro.obs import profile

    out = tmp_path / "census.json"
    main(
        ["profile", "--preset", "zipf", "--scale", "0.02", "--duration", "10",
         "--memory", "--json", str(out)]
    )  # fmt: skip
    text = capsys.readouterr().out
    census = json.loads(out.read_text())
    rss = census["rss_mb"]
    assert set(rss) == {"start", "run_entry", "horizon"}
    assert all(reading > 5 for reading in rss.values())
    for moment in ("run_entry", "horizon"):
        traced = census[moment]["total_mb"]
        assert traced < rss[moment]
        assert f"traced {traced:.1f} of {rss[moment]:.0f} MB RSS" in text

    def no_procfs(*args, **kwargs):
        raise FileNotFoundError("/proc/self/statm")

    monkeypatch.setattr(profile, "open", no_procfs, raising=False)
    # From ``resource``: the peak, which the kernel updates lazily.
    assert 0.8 * rss["horizon"] < profile._rss_mb()


def test_golden_cli_flags_describe_the_golden_scenario():
    """The golden file records the command line that reproduces it, so
    the flags must build exactly the refereed config."""
    from tests.integration.faulted_golden import CLI_FLAGS, GOLDEN_PATH, golden_scenario

    assert json.loads(GOLDEN_PATH.read_text())["cli"] == list(CLI_FLAGS)
    args = build_cli().parse_args(["run", *CLI_FLAGS, "--seed", "2"])
    assert run_config(args) == golden_scenario(2)
