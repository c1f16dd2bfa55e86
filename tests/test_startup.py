"""Start-up cost: each engine, and numpy with it, loads only in the
subcommand that runs it.  Start-up, ``--help``, a usage error and
``throughput`` load no closed forms (``zicarq.analytic``), which ``curve``,
``simulate`` and ``verify`` load when they run; start-up and ``curve``
load neither ``dataclasses`` nor ``inspect`` (``verify`` no
``dataclasses``); and the package's lazy exports are the objects their
modules define.  The module sets are read in fresh interpreters, since the
test process may already hold every engine."""

import importlib
import json
import os
from operator import itemgetter
import subprocess
import sys
from pathlib import Path

import pytest

import zicarq

SRC = Path(__file__).resolve().parents[1] / "src"
WATCHED = ("numpy", "zicarq.analytic", "zicarq.regions", "zicarq.simulator",
           "zicarq.verify", "dataclasses", "inspect")


def _loaded_after(tmp_path, *steps):
    """Run ``steps`` in order in one fresh interpreter; for each, the
    WATCHED modules loaded once it has run."""
    script = ["import json, sys", "seen = []"]
    for step in steps:
        script += [step, f"seen.append([m for m in {WATCHED!r} if m in sys.modules])"]
    script.append("print(json.dumps(seen))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", "\n".join(script)], cwd=tmp_path,
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return [set(mods) for mods in json.loads(out.stdout.splitlines()[-1])]


def _main(argv):
    return f"from zicarq.cli import main\nassert main({argv!r}) == 0"


def test_curve_loads_no_engine_and_no_numpy(tmp_path):
    package, parser, curve = _loaded_after(
        tmp_path, "import zicarq",
        "import zicarq.cli\nzicarq.cli.build_parser()",
        _main(["curve", "--scheme", "hk,hk-stop,coop-dd", "--L", "2",
               "--sweep", "r1:0:1:0.5", "--out", "c.csv"]))
    assert not package
    assert not parser
    assert curve == {"zicarq.analytic"}  # its own engine, and no numpy


def _exits(argv, code):
    # --help ends in SystemExit(0), a usage or validation error in exit 1
    return (f"from zicarq.cli import main\ntry:\n    code = main({argv!r})\n"
            f"except SystemExit as exc:\n    code = exc.code\nassert code == {code}")


@pytest.mark.parametrize("step", [
    "import zicarq.cli\nzicarq.cli.build_parser()",
    _exits(["--help"], 0),
    _exits(["curve", "--help"], 0),
    _exits(["curve", "--no-such-flag"], 1),
    _exits(["curve", "--sweep", "x:0:1:0.1", "--out", "c.csv"], 1),
    _exits(["curve", "--scheme", "cmo,cmo", "--out", "c.csv"], 1),
    _main(["throughput", "--rho-db", "10", "--trials", "1000", "--out", "t.csv"]),
], ids=["start-up", "help", "curve-help", "usage-error", "bad-sweep",
        "repeated-scheme", "throughput"])
def test_loads_no_closed_forms(step, tmp_path):
    (loaded,) = _loaded_after(tmp_path, step)
    assert "zicarq.analytic" not in loaded


@pytest.mark.parametrize("argv", [  # curve's own test above covers curve
    ["simulate", "--rho-db", "10", "--trials", "1000", "--out", "s.csv"],
    ["verify", "--samples", "1", "--scheme", "hk"],
], ids=itemgetter(0))
def test_closed_forms_load_when_run(argv, tmp_path):
    (loaded,) = _loaded_after(tmp_path, _main(argv))
    assert "zicarq.analytic" in loaded


def test_first_read_of_the_binding_loads_the_closed_forms(tmp_path):
    # the bench tracer reads zicarq.cli.analytic and rebinds it to a proxy
    before, after = _loaded_after(
        tmp_path, "import zicarq.cli",
        "forms = zicarq.cli.analytic\nassert forms is sys.modules['zicarq.analytic']\n"
        "assert vars(zicarq.cli)['analytic'] is forms")
    assert "zicarq.analytic" not in before
    assert "zicarq.analytic" in after


@pytest.mark.parametrize("command", ["simulate", "throughput"])
def test_monte_carlo_loads_no_oracle(command, tmp_path):
    (loaded,) = _loaded_after(tmp_path, _main(
        [command, "--rho-db", "10:15:5", "--trials", "1000", "--out", "x.csv"]))
    assert "zicarq.simulator" in loaded
    assert not loaded & {"zicarq.regions", "zicarq.verify"}


def test_verify_loads_no_monte_carlo(tmp_path):
    (loaded,) = _loaded_after(tmp_path, _main(["verify", "--samples", "1",
                                               "--scheme", "hk"]))
    assert {"zicarq.regions", "zicarq.verify"} <= loaded
    assert "zicarq.simulator" not in loaded
    assert "dataclasses" not in loaded


def test_exports_are_their_defining_modules_objects():
    # every name the package exports is the object its module defines
    for name, module in zicarq._HOME.items():
        home = importlib.import_module(f"zicarq.{module}")
        assert getattr(zicarq, name) is getattr(home, name), name
    assert sorted(zicarq.__all__) == sorted(zicarq._HOME)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(zicarq, "no_such_name")
