"""``serve`` and ``loadgen``: the live runtime over real sockets."""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.cli import write_json
from repro.errors import ConfigurationError
from repro.live.client import fetch_endpoints
from repro.live.config import LiveConfig
from repro.live.deploy import serve_all, serve_role
from repro.live.loadgen import LoadgenOptions, run_loadgen, run_loadgen_multiprocess
from repro.live.metrics import format_live_summary
from repro.live.pool import TransportError
from repro.schema import add_flags, apply_overrides, given


def _add_deployment_options(parser: argparse.ArgumentParser) -> None:
    """The live-deployment world model shared by serve/loadgen."""
    live = parser.add_argument_group(
        "live deployment",
        "--config JSON is the base; the flags override individual fields",
    )
    live.add_argument(
        "--config",
        metavar="PATH",
        help="LiveConfig JSON (shared across the deployment's processes)",
    )
    defaults = LiveConfig()
    add_flags(live, defaults, "live.")
    add_flags(live, defaults.protocol, "live.protocol.")


def _deployment(args: argparse.Namespace) -> LiveConfig:
    base = LiveConfig.from_file(args.config) if args.config else LiveConfig()
    return apply_overrides(base, given(args, "live."))


def _hostport(value: str, option: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ConfigurationError(f"{option} must be HOST:PORT, got {value!r}")
    return host, int(port)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def populate_serve(parser: argparse.ArgumentParser) -> None:
    _add_deployment_options(parser)
    parser.add_argument(
        "--role",
        choices=("all", "redirector", "gateway", "shard", "host"),
        default="all",
        help="which role this process runs; all is the single-process "
        "deployment (default: %(default)s)",
    )
    parser.add_argument(
        "--node", type=int, help="host node id (required with --role host)"
    )
    parser.add_argument(
        "--shard", type=int, help="shard id (required with --role shard)"
    )
    parser.add_argument(
        "--gateway",
        metavar="HOST:PORT",
        help="front-door address to register with (ephemeral-port "
        "shard/host roles)",
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        help="write this process's bound port to PATH after binding "
        "(port-conflict-proof launches: use with --base-port 0)",
    )
    parser.add_argument(
        "--serve-duration",
        type=float,
        metavar="S",
        help="exit after S seconds instead of waiting for a signal (any role)",
    )
    parser.add_argument(
        "--metrics",
        dest="metrics_out",
        metavar="PATH",
        help="write the deployment metrics snapshot as JSON on shutdown",
    )
    parser.add_argument(
        "--trace",
        dest="trace_out",
        metavar="PATH",
        help="attach the decision tracer and write its JSONL on shutdown "
        "(--role all only)",
    )


def serve_main(args: argparse.Namespace) -> int:
    config = _deployment(args)
    gateway = _hostport(args.gateway, "--gateway") if args.gateway else None
    outputs = {
        "metrics_path": args.metrics_out,
        "port_file": args.port_file,
        "duration": args.serve_duration,
    }
    if args.role == "all":
        coroutine = serve_all(config, trace_path=args.trace_out, **outputs)
    elif args.trace_out:
        raise ConfigurationError(
            f"--trace needs --role all: a lone {args.role} process has no "
            "deployment-wide decision tracer to write"
        )
    else:
        index = {"shard": args.shard, "host": args.node}.get(args.role)
        coroutine = serve_role(
            config, args.role, index=index, gateway=gateway, **outputs
        )
    asyncio.run(coroutine)
    return 0


# ----------------------------------------------------------------------
# loadgen
# ----------------------------------------------------------------------


def populate_loadgen(parser: argparse.ArgumentParser) -> None:
    _add_deployment_options(parser)
    add_flags(parser, LoadgenOptions(), "loadgen.")
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="loadgen worker processes; load and seeds split across them "
        "and latency histograms merge at the end (default: %(default)s)",
    )
    parser.add_argument(
        "--direct",
        action="store_true",
        help="partition-aware routing: discover shard endpoints from the "
        "front door and send each /route straight to the owning shard",
    )
    parser.add_argument(
        "--redirector",
        metavar="HOST:PORT",
        help="front-door address (when omitted: derived from the live config)",
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        metavar="PATH",
        help="write the client-side metrics as JSON here",
    )


def loadgen_main(args: argparse.Namespace) -> int:
    config = _deployment(args)
    if args.processes < 1:
        raise ConfigurationError(
            f"--processes must be at least 1, got {args.processes}"
        )
    if args.redirector:
        redirector = _hostport(args.redirector, "--redirector")
    else:
        redirector = config.redirector_address()
        if redirector[1] == 0:
            raise ConfigurationError(
                "ephemeral-port config: pass --redirector HOST:PORT"
            )
    shard_endpoints = None
    if args.direct:
        try:
            reply = fetch_endpoints(redirector)
        except TransportError as exc:
            raise ConfigurationError(
                f"--direct: cannot read the front door's endpoints: {exc}"
            ) from None
        shard_endpoints = {
            int(shard): (str(address[0]), int(address[1]))
            for shard, address in (reply.get("shards") or {}).items()
        }
        if not shard_endpoints:
            raise ConfigurationError(
                "--direct: the front door reports no shard endpoints"
            )
    options = apply_overrides(
        LoadgenOptions(shard_endpoints=shard_endpoints), given(args, "loadgen.")
    )

    def progress(done: int, total: int) -> None:
        print(f"  {done}/{total} requests issued", file=sys.stderr)

    if args.processes > 1:
        stats = run_loadgen_multiprocess(
            redirector, config, options, processes=args.processes
        )
    else:
        stats = asyncio.run(
            run_loadgen(redirector, config, options, on_progress=progress)
        )
    summary = stats.summary()
    print(format_live_summary(summary))
    if args.json_out:
        write_json(args.json_out, summary)
        print(f"wrote metrics to {args.json_out}", file=sys.stderr)
    return 0 if stats.completed > 0 and stats.failed == 0 else 1
