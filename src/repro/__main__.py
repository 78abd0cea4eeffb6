"""Command-line interface: ``python -m repro <command>``.

One parser, eight subcommands, each command's ``populate`` and ``main``
in :mod:`repro.cli`.  ``run``, ``trace``, ``sweep`` and ``profile``
describe their scenario with one shared option group (``--workload`` /
``--preset``, ``--scale``, ``--strategy``, the fault-injection and
consistency flags); a flag that sets a config field is declared on that
field and derived by :mod:`repro.schema`:

``run``
    One paper scenario in the simulator, printing the evaluation
    summary.  For backwards compatibility, invoking ``python -m repro``
    with bare flags (no subcommand) means ``run``:

        python -m repro run --workload regional --scale 0.15 --duration 1800
        python -m repro run --workload zipf --loss 0.05 --outage 3:60:120
        python -m repro run --workload zipf --check-invariants --json run.json

``trace``
    A scenario with the decision tracer attached, emitting the
    structured protocol trace as JSONL (stdout by default):

        python -m repro trace --preset zipf > trace.jsonl
        python -m repro trace --preset zipf --loss 0.02 --kind placement

``sweep``
    A scenario x seed x parameter grid fanned out across worker
    processes, with aggregate statistics:

        python -m repro sweep --preset zipf --seeds 4 --workers 4
        python -m repro sweep --smoke --json bench_smoke.json   # the CI gate

``gap``
    The optimality-gap campaign: the same seeded workload replayed
    through the protocol and each selected baseline strategy, with the
    offline-optimal assignment cost of every run's own demand trace as
    the yardstick (``gap_ratio = protocol_cost / oracle_cost >= 1``):

        python -m repro gap --quick --out BENCH_optgap.json
        python -m repro gap --set gap.load_scale=0.5,1,2 \\
            --set gap.fault=none,600 --set gap.strategy=paper,static

``claims``
    The paper-claims scorecard: the Fig. 6–9 / Table 1–2 / Sec. 3 /
    Thm 5 runs over seeds 1–3 on the sweep engine, every claim judged
    per seed, one JSON artefact and one markdown table (stdout):

        python -m repro claims --out BENCH_claims.json

``profile``
    One scenario run under ``cProfile`` with its calls and self time
    attributed to the benchmark's layers (``sim``, ``core.fastlane``,
    ``core.placement``, ``network``, ...; :mod:`repro.obs.layers`), plus
    honest unprofiled stage wall-clocks.  For looking; numbers to quote
    come from ``bench/run.py``:

        python -m repro profile --large --duration 20 --json profile.json
        python -m repro profile --preset zipf --loss 0.02

``serve``
    The live asyncio serving runtime — the same protocol over real
    sockets.  Runs a whole deployment in one process (optionally
    sharded: ``--shards N`` runs N redirector shards, shard 0 the front
    door), or a single role (``shard``, ``host``) for multi-process
    deployments.  With ``--base-port 0`` every role binds an ephemeral
    port, publishes it via ``--port-file``, and every role but shard 0
    registers with the front door given by ``--gateway``.  Exits
    cleanly on SIGINT/SIGTERM, exporting metrics (and the trace) on
    the way down:

        python -m repro serve --hosts 3 --metrics live.json
        python -m repro serve --shards 4 --hosts 3
        python -m repro serve --role shard --shard 1 --base-port 0 \\
            --gateway 127.0.0.1:8100 --port-file s1.port
        python -m repro serve --role host --node 1 --config live.json

``loadgen``
    The load generator that drives a live deployment through the
    redirector at a target open-loop request rate.  ``--processes``
    forks workers that split the load and merge latency histograms;
    ``--route-only`` measures the redirector tier alone; ``--direct``
    routes each request straight to the owning shard:

        python -m repro loadgen --workload zipf --rate 150 --requests 1000
        python -m repro loadgen --shards 4 --route-only --direct \\
            --processes 2 --rate 2000 --requests 20000
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.cli import claims, gap, live, profile, sim, sweep
from repro.cli.sim import scenario_from_args as run_config  # noqa: F401
from repro.errors import ConfigurationError, TopologyError, WorkloadError

#: command -> (populate(parser), main(args), one-line help)
COMMANDS = {
    "run": (sim.populate_run, sim.run_main, "run one simulated scenario"),
    "trace": (
        sim.populate_trace,
        sim.trace_main,
        "run a scenario and emit a JSONL decision trace",
    ),
    "sweep": (
        sweep.populate_sweep,
        sweep.sweep_main,
        "fan a scenario grid across worker processes",
    ),
    "gap": (
        gap.populate_gap,
        gap.gap_main,
        "measure the protocol's optimality gap against the oracle",
    ),
    "claims": (
        claims.populate_claims,
        claims.claims_main,
        "judge the paper's claims over seeds 1-3",
    ),
    "profile": (
        profile.populate_profile,
        profile.profile_main,
        "attribute a scenario's calls and time to the benchmark's layers",
    ),
    "serve": (
        live.populate_serve,
        live.serve_main,
        "run the live serving runtime over real sockets",
    ),
    "loadgen": (
        live.populate_loadgen,
        live.loadgen_main,
        "drive load through a live deployment",
    ),
}


def build_cli() -> argparse.ArgumentParser:
    """The unified ``python -m repro`` parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of the ICDCS 1999 dynamic object replication "
            "and migration protocol: simulator, sweeps, and a live "
            "serving runtime."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (populate, _, summary) in COMMANDS.items():
        populate(sub.add_parser(name, help=summary))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Legacy compatibility: bare flags (or nothing) mean `run`.
    if not argv:
        argv = ["run"]
    elif argv[0] not in COMMANDS and argv[0] not in (
        "-h", "--help", "--version",
    ):
        argv = ["run", *argv]
    try:
        args = build_cli().parse_args(argv)
        return COMMANDS[args.command][1](args)
    except (ConfigurationError, WorkloadError, TopologyError) as exc:
        # Bad input, not a bug: one line, argparse's exit status.
        # ProtocolError/SimulationError stay loud tracebacks on purpose.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
