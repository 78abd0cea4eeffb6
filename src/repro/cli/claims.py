"""``claims``: the paper-claims scorecard over the fixed seeds."""

from __future__ import annotations

import argparse
import sys

from repro.analysis.claims import markdown, run_claims
from repro.cli import output_path, provenance, write_json
from repro.sweep import default_workers


def populate_claims(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", default="BENCH_claims.json", type=output_path, metavar="PATH",
        help="output JSON scorecard (default: %(default)s)",
    )


def claims_main(args: argparse.Namespace) -> int:
    def progress(line: str) -> None:
        print(f"  {line}", file=sys.stderr, flush=True)

    card = run_claims(workers=default_workers(), progress=progress)
    write_json(args.out, card | provenance())
    print(markdown(card))
    print(f"wrote {args.out} ({card['elapsed_seconds']:.0f}s wall)", file=sys.stderr)
    for failure in card["failures"]:
        print(f"FAILED run {failure}", file=sys.stderr)
    # Verdicts are the gate's business (compare_baseline.py --claims); a
    # run that did not finish is this command's.
    return 1 if card["failures"] else 0
