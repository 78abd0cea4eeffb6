"""Lint-style guard: the CLI restates no config knob.

A flag that sets a config field is declared on the field and reaches
argparse through :mod:`repro.schema`; ``repro/__main__.py`` and
``repro/cli/`` must not grow a hand-written twin (whose type, default
and help text would then drift from the dataclass), a help string with
a literal default in it, or a ``raise SystemExit("...")`` (exit 1, no
``repro: error:`` prefix) where a :class:`ConfigurationError` belongs.
The pinned ruff version has no rule for any of this, so this test *is*
the lint — in the manner of ``tests/sim/test_hot_path_hygiene.py``.
"""

import ast
import dataclasses
import pathlib
import re

import repro.__main__
from repro.consistency.config import ConsistencyConfig
from repro.core.config import ProtocolConfig
from repro.live.config import LiveConfig
from repro.live.loadgen import LoadgenOptions
from repro.network.faults import FaultConfig
from repro.optimal.gap import GapSettings
from repro.scenarios.config import ScenarioConfig

PACKAGE = pathlib.Path(repro.__main__.__file__).parent
SIM = (ScenarioConfig, ProtocolConfig, FaultConfig, ConsistencyConfig)
LIVE = (LiveConfig, ProtocolConfig, LoadgenOptions)
EVERY = (*SIM, *LIVE, GapSettings)

#: CLI source file -> the config dataclasses its commands configure.
CONFIGS = {
    "__main__.py": EVERY,
    "cli/__init__.py": EVERY,
    "cli/sim.py": SIM,
    "cli/sweep.py": SIM,
    "cli/profile.py": SIM,
    "cli/gap.py": (GapSettings,),
    "cli/live.py": LIVE,
}

#: Arguments of the ``paper_scenario`` preset that share a name with a
#: ``ScenarioConfig`` field but default per command; written once, in
#: ``cli/sim.add_scenario_options``.
PRESET_ARGUMENTS = {"cli/sim.py": {"workload", "preset", "duration", "seed"}}

LITERAL_DEFAULT = re.compile(r"default:?\s+(?!%\(default\)s)")


def _knob_names(configs):
    names = set()
    for config in configs:
        for field in dataclasses.fields(config):
            names.add(field.name)
            if "flag" in field.metadata:
                names.add(field.metadata["flag"].lstrip("-").replace("-", "_"))
    return names


def _strings(node):
    return [
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]


def offences(source, configs, allowed=frozenset()):
    """What the guard objects to in one CLI source text."""
    found = []
    banned = _knob_names(configs) - allowed
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "SystemExit"
            and node.exc.args
            and _strings(node.exc.args[0])
        ):
            found.append((node.lineno, "raise SystemExit with a message"))
        if not (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
        ):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        names = {
            s.lstrip("-").replace("-", "_") for arg in node.args for s in _strings(arg)
        }
        if "dest" in keywords:
            names.update(_strings(keywords["dest"]))
        for name in sorted(names & banned):
            found.append((node.lineno, f"add_argument restates knob {name!r}"))
        for text in _strings(keywords.get("help", ast.Constant(0))):
            if LITERAL_DEFAULT.search(text):
                found.append((node.lineno, f"literal default in help {text!r}"))
    return [f"line {lineno}: {what}" for lineno, what in sorted(found)]


def test_cli_restates_no_knob():
    sources = {
        str(path.relative_to(PACKAGE)): path.read_text()
        for path in [PACKAGE / "__main__.py", *(PACKAGE / "cli").glob("*.py")]
    }
    assert set(sources) == set(CONFIGS)
    problems = {
        name: offences(text, CONFIGS[name], PRESET_ARGUMENTS.get(name, frozenset()))
        for name, text in sources.items()
    }
    assert {name: found for name, found in problems.items() if found} == {}


def test_guard_catches_each_kind_of_restatement():
    """The shapes the parent commit was full of, one each."""
    bad = (
        'parser.add_argument("--loss", type=float, help="drop probability")\n'
        'parser.add_argument("--hosts", dest="num_hosts", type=int)\n'
        'parser.add_argument("--top", help="functions to list (default: 25)")\n'
        'parser.add_argument("--seeds", help=f"seeds (default {N})")\n'
        'raise SystemExit(f"bad --outage {text!r}")\n'
    )
    assert offences(bad, EVERY) == [
        "line 1: add_argument restates knob 'loss'",
        "line 2: add_argument restates knob 'hosts'",
        "line 2: add_argument restates knob 'num_hosts'",
        "line 3: literal default in help 'functions to list (default: 25)'",
        "line 4: literal default in help 'seeds (default '",
        "line 5: raise SystemExit with a message",
    ]
    good = 'parser.add_argument("--top", help="listed (default: %(default)s)")\n'
    assert offences(good, EVERY) == []
