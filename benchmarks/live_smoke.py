"""CI's ``live-smoke`` job as one script: serve + loadgen over real sockets.

The redirector shards and three hosts run as separate ``python -m repro
serve`` processes, every one on port 0 and found through its port file.
Shard 0 is the front door: the other shards (``--shards N``) and the
hosts register themselves there over the wire.  ``python -m repro
loadgen`` then replays a two-phase workload and the processes are
stopped with SIGINT.  The run passes when every request completed, the
hosts' placement histories hold at least one replicate/migrate *and* one
drop — dynamic replication happened over real sockets, driven by the
hosts' wall-clock timers — and every process exited 0 with its metrics
flushed.  With more than one shard, the front door must have relayed
routes, the other shards must have received more registry mutations
straight from the hosts than the front door relayed, and the shards must
have judged more drop requests than they held registry conversations (a
placement round sends a run of them as one).

Usage (``PYTHONPATH=src`` unless the package is installed)::

    python benchmarks/live_smoke.py --out-dir smoke/
    python benchmarks/live_smoke.py --shards 2 --out-dir smoke-sharded/

Artefacts, all in ``--out-dir``: ``live.json`` (the config every process
read), ``client.json`` (loadgen stats), ``shard{0..N-1}.json`` and
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

#: The deployment and its load, as the command lines one would type: a
#: shard (shard 0 is the front door; every other shard also gets
#: ``--gateway $FRONT`` to join it), the hosts, the loadgen.  ``$OUT``,
#: ``$FRONT`` and ``$SHARD`` are filled in at run time;
#: ``tests/test_schema.py`` checks that each line parses.
COMMANDS = """
python -m repro serve --config $OUT/live.json --role shard --shard $SHARD --port-file $OUT/s$SHARD.port --metrics $OUT/shard$SHARD.json
python -m repro serve --config $OUT/live.json --role host --node 0 --gateway $FRONT --port-file $OUT/h0.port --metrics $OUT/host0.json
python -m repro serve --config $OUT/live.json --role host --node 1 --gateway $FRONT --port-file $OUT/h1.port --metrics $OUT/host1.json
python -m repro serve --config $OUT/live.json --role host --node 2 --gateway $FRONT --port-file $OUT/h2.port --metrics $OUT/host2.json
python -m repro loadgen --config $OUT/live.json --redirector $FRONT --rate 250 --requests 1500 --phases 2 --seed 1 --json $OUT/client.json
""".strip().splitlines()


def _argv(line: str, **values: object) -> list[str]:
    return [sys.executable, *shlex.split(Template(line).substitute(values))[1:]]


def run(out: Path, shards: int = 1) -> dict[str, int]:
    protocol = live_protocol_config().replace(
        measurement_interval=0.5, placement_interval=1.0
    )
    config = LiveConfig(
        base_port=0, num_hosts=HOSTS, num_shards=shards, protocol=protocol
    )
    (out / "live.json").write_text(json.dumps(config.to_dict()))
    for stale in out.glob("*.port"):  # a previous run's: would be read as this one's
        stale.unlink()
    shard, *hosts, loadgen = COMMANDS
    processes: list[subprocess.Popen] = []
    try:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        processes.append(subprocess.Popen(_argv(shard, OUT=out, SHARD=0)))
        address = ("127.0.0.1", _read_port(out / "s0.port", deadline))
        front = f"{address[0]}:{address[1]}"
        print(f"front door at {front}")
        for index in range(1, shards):
            argv = _argv(shard, OUT=out, SHARD=index) + ["--gateway", front]
            processes.append(subprocess.Popen(argv))
        for line in hosts:
            processes.append(subprocess.Popen(_argv(line, OUT=out, FRONT=front)))
        ports = [address[1]] + [
            _read_port(out / f"h{node}.port", deadline) for node in range(HOSTS)
        ]

        # Every host and shard must be in the front door's address book
        # before the loadgen starts, or early routes point nowhere.
        def registered():
            book = fetch_endpoints(address, timeout=1.0)
            counts = (len(book.get("hosts", {})), len(book.get("shards", {})))
            return counts == (HOSTS, shards) or None

        _poll(registered, deadline, "registration")
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
    tier = [
        json.loads((out / f"shard{index}.json").read_text())["redirector"]
        for index in range(shards)
    ]
    assert sum(piece["routed_total"] for piece in tier) >= REQUESTS, tier
    assert sum(piece["unroutable_total"] for piece in tier) == 0, tier
    # Hosts send registry mutations straight to the owning shard; the
    # front door's relay is only the fallback for a stale sender.
    relayed = tier[0]["forwarded_control_total"]
    routes = tier[0]["forwarded_total"] - relayed
    print("relayed by the front door:", routes, "routes,", relayed, "registry mutations")
    # A placement round asks about a run of cold objects in one
    # request_drop conversation per owning shard.
    arbitrated = sum(piece["drops_arbitrated_total"] for piece in tier)
    conversations = sum(piece["drop_conversations_total"] for piece in tier)
    mutations = sum(piece["mutations_total"] for piece in tier)
    print(
        "drop requests judged:", arbitrated, "in", conversations,
        "request_drop conversations, of", mutations, "registry mutations",
    )
    if shards > 1:
        direct = sum(piece["mutations_total"] for piece in tier[1:]) - relayed
        print("registry mutations sent straight to shards 1..:", direct)
        assert direct > 0, tier
        assert routes > 0, tier  # the relay works across processes
        assert relayed < direct, tier
        assert arbitrated > conversations, tier
    return {action: actions.count(action) for action in sorted(set(actions))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=".", help="where the artefacts go")
    parser.add_argument(
        "--shards", type=int, default=1,
        help="redirector shards; shard 0 is the front door",
    )
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be at least 1")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    print("live smoke ok:", run(out, args.shards))
    return 0


if __name__ == "__main__":
    sys.exit(main())
