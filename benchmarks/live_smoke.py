"""CI's ``live-smoke`` job as one script: serve + loadgen over real sockets.

A redirector and three hosts run as separate ``python -m repro serve``
processes, every one on port 0 and found through its port file (hosts
register themselves at the front door over the wire); ``python -m repro
loadgen`` then replays a two-phase workload and the processes are
stopped with SIGINT.  The run passes when every request completed, the
hosts' placement histories hold at least one replicate/migrate *and* one
drop — dynamic replication happened over real sockets — and every
process exited 0 with its metrics flushed.

Usage (``PYTHONPATH=src`` unless the package is installed)::

    python benchmarks/live_smoke.py --out-dir smoke/

Artefacts, all in ``--out-dir``: ``live.json`` (the config every process
read), ``client.json`` (loadgen stats), ``redirector.json`` and
``host{0,1,2}.json`` (each process's ``--metrics`` snapshot).
"""

from __future__ import annotations

import argparse
import json
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path
from string import Template

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from live_saturation import STARTUP_TIMEOUT, TierError, _poll, _read_port  # noqa: E402

from repro.live import LiveConfig  # noqa: E402
from repro.live.client import fetch_endpoints  # noqa: E402
from repro.live.config import live_protocol_config  # noqa: E402

HOSTS = 3
REQUESTS = 1500  # as spelt in COMMANDS below

#: The deployment and its load, as the command lines one would type: the
#: redirector, the hosts, the loadgen.  ``$OUT`` and ``$FRONT`` are filled
#: in at run time; ``tests/test_schema.py`` checks that each line parses.
COMMANDS = """
python -m repro serve --config $OUT/live.json --role redirector --port-file $OUT/r.port --metrics $OUT/redirector.json
python -m repro serve --config $OUT/live.json --role host --node 0 --gateway $FRONT --port-file $OUT/h0.port --metrics $OUT/host0.json
python -m repro serve --config $OUT/live.json --role host --node 1 --gateway $FRONT --port-file $OUT/h1.port --metrics $OUT/host1.json
python -m repro serve --config $OUT/live.json --role host --node 2 --gateway $FRONT --port-file $OUT/h2.port --metrics $OUT/host2.json
python -m repro loadgen --config $OUT/live.json --redirector $FRONT --rate 250 --requests 1500 --phases 2 --seed 1 --json $OUT/client.json
""".strip().splitlines()


def _argv(line: str, **values: object) -> list[str]:
    return [sys.executable, *shlex.split(Template(line).substitute(values))[1:]]


def run(out: Path) -> dict[str, int]:
    protocol = live_protocol_config().replace(
        measurement_interval=0.5, placement_interval=1.0
    )
    (out / "live.json").write_text(
        json.dumps(LiveConfig(base_port=0, num_hosts=HOSTS, protocol=protocol).to_dict())
    )
    for stale in out.glob("*.port"):  # a previous run's: would be read as this one's
        stale.unlink()
    front_door, *hosts, loadgen = COMMANDS
    processes: list[subprocess.Popen] = []
    try:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        processes.append(subprocess.Popen(_argv(front_door, OUT=out)))
        address = ("127.0.0.1", _read_port(out / "r.port", deadline))
        front = f"{address[0]}:{address[1]}"
        print(f"front door at {front}")
        for line in hosts:
            processes.append(subprocess.Popen(_argv(line, OUT=out, FRONT=front)))
        ports = [address[1]] + [
            _read_port(out / f"h{node}.port", deadline) for node in range(HOSTS)
        ]
        # All hosts must have registered at the front door (which they do
        # once their own server is bound) before the loadgen starts, or
        # early routes point nowhere.
        _poll(
            lambda: len(fetch_endpoints(address, timeout=1.0).get("hosts", {})) == HOSTS
            or None,
            deadline,
            "host registration",
        )
        print("deployment up:", ports)
        subprocess.run(_argv(loadgen, OUT=out, FRONT=front), check=True)
        time.sleep(3)  # a placement round or two after the last request
    finally:
        for process in processes:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
        codes = [process.wait(timeout=30) for process in processes]
    if any(codes):
        raise TierError(f"a role process exited non-zero: {codes}")

    client = json.loads((out / "client.json").read_text())
    assert client["requests_completed"] == REQUESTS, client
    assert client["requests_failed"] == 0, client
    actions = [
        event["action"]
        for node in range(HOSTS)
        for host in json.loads((out / f"host{node}.json").read_text())["hosts"]
        for event in host["placement_events"]
    ]
    assert actions.count("replicate") + actions.count("migrate") >= 1, actions
    assert actions.count("drop") >= 1, actions
    redirector = json.loads((out / "redirector.json").read_text())["redirector"]
    assert redirector["routed_total"] >= REQUESTS, redirector
    assert redirector["unroutable_total"] == 0, redirector
    return {action: actions.count(action) for action in sorted(set(actions))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=".", help="where the artefacts go")
    args = parser.parse_args(argv)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    print("live smoke ok:", run(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
