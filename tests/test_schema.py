"""The config dataclasses are the schema: properties over every declared knob.

Nothing here names a flag: each test walks the dataclasses, so the next
knob is covered by being declared (DESIGN §4, "adding a knob").
"""

import argparse
import dataclasses
import functools
import importlib.util
import pathlib
import re
import shlex
import types
import typing

import pytest

from repro.__main__ import COMMANDS, build_cli, main
from repro.consistency.config import ConsistencyConfig
from repro.live.config import LiveConfig
from repro.live.loadgen import LoadgenOptions
from repro.network.faults import FaultConfig
from repro.optimal.gap import GapSettings
from repro.scenarios.config import ScenarioConfig
from repro.schema import AT_DEFAULT, NEVER, apply_overrides, given, set_keys
from repro.sweep import SweepSpec
from tests.test_cli_hygiene import LIVE, SIM

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: (command, the config its flags apply to, the ``add_flags`` prefix).
#: mtbf/mttr are only valid together, so their base sets both.
SCHEMAS = [
    ("trace", ScenarioConfig(), ""),
    ("run", FaultConfig(mtbf=100.0, mttr=10.0), "faults."),
    ("profile", ConsistencyConfig(), "consistency."),
    ("serve", LiveConfig(), "live."),
    ("serve", LiveConfig().protocol, "live.protocol."),
    ("loadgen", LoadgenOptions(), "loadgen."),
]

#: Text for the fields whose type alone does not suggest one.
SAMPLES = {
    "outages": "3:10:20",
    "partitions": "4:10:20",
    "category_mix": "0.8:0.1:0.1",
    "strategy": "static",
    "bind_host": "localhost",
}

FLAGGED = [
    pytest.param(command, config, prefix, field, id=f"{command}{field.metadata['flag']}")
    for command, config, prefix in SCHEMAS
    for field in dataclasses.fields(config)
    if "flag" in field.metadata
]


def _sample(config, field):
    """Some valid text other than the default, from the declaration."""
    value = getattr(config, field.name)
    if field.name in SAMPLES:
        return SAMPLES[field.name]
    if field.metadata.get("choices"):
        return next(c for c in field.metadata["choices"] if c != value)
    if isinstance(value, bool):
        return str(not value).lower()
    if isinstance(value, float) and not value:  # a probability or a rate at 0
        return "0.5"
    return str((value or 4) + 1)


def test_every_config_with_a_flag_is_covered():
    declaring = {
        cls
        for cls in (*SIM, *LIVE, GapSettings)
        if any("flag" in field.metadata for field in dataclasses.fields(cls))
    }
    assert declaring == {type(config) for _, config, _ in SCHEMAS}


@pytest.mark.parametrize("command, config, prefix, field", FLAGGED)
def test_flag_and_set_spell_the_same_override(command, config, prefix, field):
    text = _sample(config, field)
    flag = field.metadata["flag"]
    is_switch = isinstance(getattr(config, field.name), bool)
    args = build_cli().parse_args([command, flag] + ([] if is_switch else [text]))
    overrides = given(args, prefix)
    assert list(overrides) == [field.name]
    via_flag = apply_overrides(config, overrides)
    via_set = apply_overrides(config, {field.name: text})
    assert via_flag == via_set
    changed = getattr(via_flag, field.name)
    assert changed != getattr(config, field.name)
    # Typed, not text (a str field is the one kind that holds its text).
    hint = typing.get_type_hints(type(config))[field.name]
    assert isinstance(changed, str) == (hint is str)


def _actions(command):
    sub = next(
        a for a in build_cli()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices[command]._actions


def _knob_actions(command):
    return [a for a in _actions(command) if a.dest.startswith("knob:")]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_help_defaults_are_read_from_the_dataclasses(command):
    roots = {
        "serve": types.SimpleNamespace(live=LiveConfig()),
        "loadgen": types.SimpleNamespace(live=LiveConfig(), loadgen=LoadgenOptions()),
    }
    root = roots.get(command, ScenarioConfig())
    for action in _knob_actions(command):
        held = functools.reduce(getattr, action.dest[len("knob:"):].split("."), root)
        shown = re.search(r"\(default: ([^)]*)\)$", action.help)
        if isinstance(held, bool) or held is None or isinstance(held, tuple):
            assert shown is None, action.option_strings
        elif isinstance(held, str):
            assert shown.group(1) == held
        else:
            assert float(shown.group(1)) == held, action.option_strings


def test_live_help_shows_the_live_watermark():
    """The instance's default (live_protocol_config), not ProtocolConfig's 90."""
    (high,) = [
        a for a in _knob_actions("serve") if "--high-watermark" in a.option_strings
    ]
    assert high.help.endswith("(default: 160)")


def test_hash_rules_are_generic():
    """A knob declared NEVER or AT_DEFAULT lands without a spec_hash edit."""
    extended = dataclasses.make_dataclass(
        "Extended",
        [
            ("audit", bool, dataclasses.field(default=False, metadata={"hash": NEVER})),
            ("extra", str, dataclasses.field(default="x", metadata={"hash": AT_DEFAULT})),
        ],
        bases=(ScenarioConfig,),
        frozen=True,
    )
    original = SweepSpec(base=ScenarioConfig()).spec_hash()
    assert SweepSpec(base=extended()).spec_hash() == original
    assert SweepSpec(base=extended(audit=True)).spec_hash() == original
    assert SweepSpec(base=extended(extra="y")).spec_hash() != original


def test_gap_keys_are_one_set(capsys):
    schema = set(set_keys(GapSettings()))
    (option,) = [a for a in _actions("gap") if a.dest == "overrides"]
    assert set(re.findall(r"gap\.\w+", option.help)) == schema
    assert main(["gap", "--set", "nope=1"]) == 2
    known = capsys.readouterr().err.partition("known: ")[2]
    assert set(known.strip().split(", ")) == schema


# ----------------------------------------------------------------------
# Every documented command line still parses
# ----------------------------------------------------------------------

DOCUMENTS = (
    "README.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
    "benchmarks/live_smoke.py",  # ci.yml's live-smoke job, command lines as text
)


def _command_lines(name):
    """Every ``python -m repro ...`` line of one document, as argv."""
    text = (ROOT / name).read_text().replace("\\\n", " ")
    for line in text.splitlines():
        match = re.match(r"\s*(?:run: |PYTHONPATH=src )?python -m repro (.*)", line)
        if match is not None:
            command = re.split(r" [&>#]|\$\(", match.group(1))[0]
            # Placeholders as live_smoke.py fills them: $OUT is a directory
            # that exists (output paths are checked when parsed).
            command = command.replace("$FRONT", "127.0.0.1:1").replace("$OUT", ".")
            yield shlex.split(command.replace("$SHARD", "0"))


# One case per document, not per line: ids must survive a doc edit.
@pytest.mark.parametrize("name, at_least", zip(DOCUMENTS, (6, 15, 2, 15, 5)))
def test_documented_command_lines_parse(name, at_least):
    lines = list(_command_lines(name))
    assert len(lines) >= at_least
    for argv in lines:
        try:
            build_cli().parse_args(argv if argv[0] in COMMANDS else ["run", *argv])
        except SystemExit:
            pytest.fail(f"{name}: no longer parses: {' '.join(argv)}")


def test_live_saturation_serve_argv_parses(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "live_saturation", ROOT / "benchmarks" / "live_saturation.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    spawned = []
    monkeypatch.setattr(
        module.subprocess, "Popen", lambda command, **_: spawned.append(command)
    )
    tier = module.LiveTier(2, 2, 8)
    tier._spawn("shard", "--shard", "0", "--gateway", "127.0.0.1:1", "--port-file", "p")
    tier.processes.clear()  # nothing was started
    tier.stop()  # closes the log, removes the temporary directory
    args = build_cli().parse_args(spawned[0][3:])
    assert given(args, "live.")["protocol.placement_interval"] == 30.0


# ----------------------------------------------------------------------
# No flag spelling is ever dropped
# ----------------------------------------------------------------------

#: Option strings per command, recorded at the commit before the flags
#: were derived from the dataclasses (PR 19).  Commands may gain flags.
INVENTORY = {
    "run": "--anti-entropy-interval --category-mix --check-invariants "
    "--distribution --dup --duration --epidemic-interval --high-load --jitter "
    "--json --loss --mtbf --mttr --outage --partition --scale --seed --static "
    "--strategy --workload --write-rate",
    "trace": "--capacity --duration --high-load --kind --out --preset --scale --seed",
    "sweep": "--duration --high-load --json --manifest --preset --retries "
    "--root-seed --scale --seed-list --seeds --set --smoke --timeout --workers",
    "gap": "--out --quick --set",
    "profile": "--anti-entropy-interval --category-mix --dup --duration "
    "--epidemic-interval --high-load --jitter --json --large --loss --mtbf "
    "--mttr --outage --partition --preset --scale --seed --top --write-rate",
    "serve": "--base-port --bind --config --gateway --high-watermark --hosts "
    "--low-watermark --measurement-interval --metrics --node --object-size "
    "--objects --placement-interval --port-file --role --serve-duration "
    "--shard --shards --topology --trace",
    "loadgen": "--base-port --bind --concurrency --config --direct "
    "--high-watermark --hosts --json --low-watermark --max-lag "
    "--measurement-interval --object-size --objects --phases "
    "--placement-interval --processes --rate --redirector --requests "
    "--route-only --seed --shards --topology --workload",
}


@pytest.mark.parametrize("command", list(INVENTORY))
def test_flag_inventory_only_grows(command):
    spelled = {s for a in _actions(command) for s in a.option_strings}
    assert set(INVENTORY[command].split()) <= spelled


# ----------------------------------------------------------------------
# Every config field has a setter
# ----------------------------------------------------------------------

#: Where a field may be set: the program, its tests, the benchmarks,
#: the examples and CI.
SETTERS = ("src", "tests", "bench", "benchmarks", "examples", ".github/workflows/ci.yml")

#: Fields that nothing sets and that stay fields, with the reason.
UNSET_ALLOWED = {
    "LiveConfig.ring_vnodes": "bench/liveplane.py reads it to build the ring "
    "every shard agrees on",
}


def _setter_text() -> str:
    """Every file a setter may live in, but this lint's own."""
    paths = []
    for name in SETTERS:
        path = ROOT / name
        paths += [path] if path.is_file() else sorted(path.rglob("*.py"))
    return "\n".join(
        path.read_text() for path in paths if path != pathlib.Path(__file__).resolve()
    )


def _unset_fields(classes, text: str) -> list[str]:
    """``Class.field`` for each field of ``classes`` that declares no flag
    or ``--set`` key and that ``text`` never sets: passes by keyword,
    names as a dict or JSON key, or spells as ``[prefix.]field=value``."""
    unset = []
    for cls in classes:
        for field in dataclasses.fields(cls):
            if "flag" in field.metadata or "key" in field.metadata:
                continue
            name = re.escape(field.name)
            setter = rf"[(,]\s*{name}\s*=(?!=)|[\s\"'](?:\w+\.)*{name}(?:[\"']\s*:|=(?!=))"
            if re.search(setter, text) is None:
                unset.append(f"{cls.__name__}.{field.name}")
    return unset


def test_the_setter_lint_sees_each_kind_of_setter():
    fields = [
        (name, int, dataclasses.field(default=0, metadata=metadata))
        for name, metadata in (
            ("flagged", {"flag": "--flagged"}),
            ("keyed", {"key": "x.keyed"}),
            ("by_keyword", {}),
            ("by_json_key", {}),
            ("by_set_line", {}),
            ("only_read", {}),
        )
    ]
    synthetic = dataclasses.make_dataclass("Synthetic", fields)
    text = (
        "config = Synthetic(\n    by_keyword=3,\n)\n"
        'json.dumps({"by_json_key": 1})\n'
        "python -m repro sweep --set deep.by_set_line=2,3\n"
        # Reads, comparisons and declarations set nothing.
        "value = config.only_read\nassert config.only_read == 0\n"
        "only_read: int = 0\nself.only_read = 1\nprint('only_read')\n"
    )
    assert _unset_fields([synthetic], text) == ["Synthetic.only_read"]
    assert _unset_fields([synthetic], text + "replace(config, only_read=1)") == []


def test_every_config_field_has_a_setter():
    classes = dict.fromkeys((*SIM, *LIVE, GapSettings))
    assert _unset_fields(classes, _setter_text()) == list(UNSET_ALLOWED)
