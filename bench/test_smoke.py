"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, and that a corrupted output is counted as a failed op.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 2          # held out: not the seed whose digests are stored
SCALE = 0.03


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--scale", str(SCALE))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = _spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line
                   for line in lines[:-1]), m["name"]
    if trace:
        assert result["metrics"]["trace.missing_targets"]["value"] == 0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


def _corrupting(match, edit):
    """zicarq.cli.main, but the first output of an op matching ``match``
    (seen for the n-th time, per ``edit``) is rewritten by ``edit``."""
    import zicarq.cli
    seen = {}

    def main(argv):
        code = zicarq.cli.main(argv)
        key = " ".join(argv[:-2])
        seen[key] = seen.get(key, 0) + 1
        if match(argv) and not main.done:
            path = Path(argv[-1])
            new = edit(path.read_text(), seen[key])
            if new is not None:
                path.write_text(new)
                main.done = True
        return code

    main.done = False
    return main


def _mean_zeta_too_small(text, nth):
    lines = text.splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",0.5"
    return "\n".join(lines) + "\n"


def _crlf_on_second_run(text, nth):
    # still a valid CSV, but no longer byte-identical to the first run
    return text.replace("\n", "\r\n") if nth == 2 else None


@pytest.mark.parametrize("match, edit", [
    (lambda argv: argv[0] == "throughput", _mean_zeta_too_small),
    (lambda argv: argv[0] == "simulate", _crlf_on_second_run),
])
def test_corrupted_output_counts_in_error_rate(match, edit):
    main = _corrupting(match, edit)
    result = run.measure("explore", SEED, 1, 0, scale=SCALE, main=main,
                         setup_runs=1)
    assert main.done
    assert result.failed == 1, result.failures
    assert result.metrics["error_rate"] == 1 / result.attempted


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", WORKLOADS[0], "--seed", str(SEED), "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
