"""zicarq benchmark: one closed-loop client driving the CLI in-process.

    python3 bench/run.py --workload oracle-verify --seed 1 --seconds 30 --trace 0

Each run builds the workload's invocation list from ``--seed`` (see
workloads.py), warms up on a small prefix, then runs the whole list again
and again for ``--seconds``; every call to ``zicarq.cli.main(argv)``
starts after the previous one returns, in one process and one thread.
Every output is checked.  With ``--trace 0`` the end-to-end metrics are
medians over those passes; with ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics come from the traced ones.  Every time
is reported at reference machine speed: divided by the slowness that
probe.py reads during the same pass (the raw figures are recorded too).  The last
line of stdout is one JSON object; a results file with provenance and
every metric goes to ``.bench_work/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One thread: keep numpy's BLAS pool (unused by zicarq) from spinning up
# threads, here and in the set-up probes that inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import probe  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402  (imports numpy)
from workloads import WORKLOADS, CheckFailed, check_output, make_ops  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1      # the seed whose simulate/throughput digests are stored
SETUP_RUNS = 9        # fresh processes per run for setup_s (plus one discarded)
WARMUP_SCALE = 0.05   # warm-up list: this share of the workload

# name -> unit.  END_TO_END and PER_LAYER are the metrics BENCHMARK.json
# lists.  EXTRA_METRICS are printed and recorded but not gated: most are 0
# on some workload (a verify rate where nothing is verified), and the last
# two show the measured wall time before it is scaled to reference speed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
EXTRA_METRICS = {
    "verify_samples_per_s": "1/s",
    "mc_trials_per_s": "1/s",
    "curve_rows_per_s": "1/s",
    "verify_max_gap": "abs",
    "error_rate": "ratio",
    "raw_wall_s": "s",
    "slowness": "ratio",
}
KERNEL_SCHEMES = ("cmo", "hk", "tian", "coop-dd")
PER_LAYER = {
    **{f"regions.{m}.{k}": u for m in ("min_rx1", "min_coop", "min_rx2")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "regions.self_s": "s",
    "regions.ms_per_sample": "ms",
    "simulator.draw.self_s": "s",
    "simulator.draw.trials_per_s": "1/s",
    "simulator.kernel.self_s": "s",
    **{f"simulator.kernel.{s}.trials_per_s": "1/s" for s in KERNEL_SCHEMES},
    "simulator.estimate.self_s": "s",
    "simulator.us_per_call": "us",
    "simulator.calls": "count",
    "simulator.blocks": "count",
    "simulator.trials": "count",
    "simulator.useful_point_ratio": "ratio",
    "core.validate.calls": "count",
    "analytic.calls": "count",
    "analytic.self_s": "s",
    "analytic.us_per_call": "us",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.csv_bytes": "B",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
    "trace.missing_targets": "count",
}

PROBE_EVERY_S = 0.2   # seconds between speed-probe readings within a pass

# The probe runs before the import, so zicarq cannot affect its reading.
SETUP_SNIPPET = """\
import time
import probe
slowness = sorted(probe.slowness() for _ in range(5))[2]
t0 = time.perf_counter()
import zicarq.cli
zicarq.cli.build_parser()
print(time.perf_counter() - t0, slowness)
"""


def measure_setup(runs: int) -> float:
    """Median seconds, at reference speed, to import zicarq.cli and build
    its parser, each in a fresh interpreter; the first, which may compile
    bytecode, is dropped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(runs + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        seconds, slowness = map(float, out.stdout.split()[-2:])
        times.append(seconds / slowness)
    return statistics.median(times[1:])


@dataclass
class Pass:
    """One run of the invocation list; times are at reference speed."""

    raw_wall: float
    slowness: float
    latencies: list[float]
    time_by_kind: dict[str, float]
    work_by_kind: dict[str, int]

    @property
    def wall(self) -> float:
        return self.raw_wall / self.slowness


@dataclass
class Runner:
    """Runs invocation lists through ``main`` and checks every output."""

    main: object
    workdir: Path
    expected_digests: dict[str, str]
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    gaps: list[float] = field(default_factory=list)
    next_op_id: int = 0

    def run_pass(self, ops, traced: bool = False) -> Pass:
        paths = [str(self.workdir / f"op{i}.csv") for i in range(len(ops))]
        codes, logs, latencies = [], [], []
        main = self.main
        clock = time.perf_counter
        readings = [probe.slowness()]
        if traced:
            main = self.tracer.wrap(self.main, "cli.main")
            self.tracer.install()
        t_pass = last_probe = clock()
        probing = 0.0
        try:
            for op, path in zip(ops, paths):
                if clock() - last_probe > PROBE_EVERY_S:
                    t0 = clock()
                    readings.append(probe.slowness())
                    last_probe = clock()
                    probing += last_probe - t0
                if traced:
                    self.tracer.current_op = self.next_op_id
                self.next_op_id += 1
                log = io.StringIO()
                t0 = clock()
                try:
                    with contextlib.redirect_stdout(log), \
                            contextlib.redirect_stderr(log):
                        code = main(op.argv + ["--out", path])
                except (Exception, SystemExit):  # the op failed; keep going
                    log.write(traceback.format_exc())
                    code = "exception"
                latencies.append(clock() - t0)
                codes.append(code)
                logs.append(log)
            raw_wall = clock() - t_pass - probing
        finally:
            if traced:
                self.tracer.uninstall()
        readings.append(probe.slowness())
        slowness = statistics.median(readings)
        latencies = [dt / slowness for dt in latencies]
        time_by_kind, work_by_kind = {}, {}
        for op, dt in zip(ops, latencies):
            time_by_kind[op.kind] = time_by_kind.get(op.kind, 0.0) + dt
            work_by_kind[op.kind] = work_by_kind.get(op.kind, 0) + op.work
        self._check(ops, paths, codes, logs)
        return Pass(raw_wall, slowness, latencies, time_by_kind, work_by_kind)

    def _check(self, ops, paths, codes, logs):
        for i, (op, path, code, log) in enumerate(zip(ops, paths, codes, logs)):
            self.attempted += 1
            try:
                if code != 0:
                    raise CheckFailed(f"exit {code}: {log.getvalue()[-300:]!r}")
                try:
                    data = Path(path).read_bytes()
                except OSError as exc:
                    raise CheckFailed(f"no output: {exc}")
                values = check_output(op, data.decode("utf-8"))
                if "gap" in values:
                    self.gaps.append(values["gap"])
                if op.kind in ("simulate", "throughput"):
                    self._check_digest(op, hashlib.sha256(data).hexdigest())
            except (CheckFailed, ValueError, IndexError) as exc:
                self.failed += 1
                self.failures.append(f"op {i} ({op.key}): {exc}")
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)

    def _check_digest(self, op, digest: str):
        first = self.digests.setdefault(op.key, digest)
        if first != digest:
            raise CheckFailed("output differs from an earlier run of the same argv")
        stored = self.expected_digests.get(op.key)
        if stored is not None and stored != digest:
            raise CheckFailed("output differs from the stored digest")


def _median_rate(passes: list[Pass], kinds: tuple[str, ...]) -> float:
    """Median over passes of work per second of op time, for these op kinds."""
    rates = []
    for p in passes:
        t = sum(p.time_by_kind.get(k, 0.0) for k in kinds)
        if t > 0:
            rates.append(sum(p.work_by_kind.get(k, 0) for k in kinds) / t)
    return statistics.median(rates) if rates else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end_metrics(runner: Runner, passes: list[Pass], setup_s: float) -> dict:
    # each invocation's median over passes, then percentiles across them
    lat = [statistics.median(p.latencies[i] for p in passes)
           for i in range(len(passes[0].latencies))]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": _percentile(lat, 50) * 1e3,
        "op_p90_ms": _percentile(lat, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verify_samples_per_s": _median_rate(passes, ("verify",)),
        "mc_trials_per_s": _median_rate(passes, ("simulate", "throughput")),
        "curve_rows_per_s": _median_rate(passes, ("curve",)),
        "verify_max_gap": max(runner.gaps, default=0.0),
        "error_rate": runner.failed / runner.attempted,
        "raw_wall_s": statistics.median(p.raw_wall for p in passes),
        "slowness": statistics.median(p.slowness for p in passes),
    }


def per_layer_metrics(tracer: Tracer, traced: list[Pass], untraced: list[Pass],
                      verify_samples: int) -> tuple[dict, dict]:
    """Per traced pass: counts, self seconds (at reference speed, like every
    time here) and the rates built from them.

    Also returns each layer's share of the traced pass wall time.
    """
    summary = tracer.summary()
    counters = tracer.counters
    n_traced = len(traced)
    slowness = statistics.median(p.slowness for p in traced)

    def calls(name):
        return summary.get(name, (0, 0, 0.0))[0] / n_traced

    def under(prefix):
        return [v for name, v in summary.items()
                if name == prefix or name.startswith(prefix + ".")]

    def self_s(prefix):
        return sum(s for _, _, s in under(prefix)) / n_traced / slowness

    def count(key):
        return counters.get(key, 0) / n_traced

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for name in ("min_rx1", "min_coop", "min_rx2"):
        m[f"regions.{name}.calls"] = calls(f"regions.{name}")
        m[f"regions.{name}.self_s"] = self_s(f"regions.{name}")
    m["regions.self_s"] = self_s("regions")
    m["regions.ms_per_sample"] = ratio(m["regions.self_s"], verify_samples, 1e3)
    m["simulator.draw.self_s"] = self_s("simulator.draw")
    m["simulator.draw.trials_per_s"] = ratio(count("simulator.trials"),
                                             m["simulator.draw.self_s"])
    m["simulator.kernel.self_s"] = self_s("simulator.kernel")
    for s in KERNEL_SCHEMES:
        m[f"simulator.kernel.{s}.trials_per_s"] = ratio(
            count(f"simulator.kernel.{s}.trials"), self_s(f"simulator.kernel.{s}"))
    m["simulator.estimate.self_s"] = self_s("simulator.estimate")
    m["simulator.calls"] = calls("simulator.estimate")
    m["simulator.us_per_call"] = ratio(self_s("simulator"), m["simulator.calls"], 1e6)
    m["simulator.blocks"] = sum(c for c, _, _ in under("simulator.kernel")) / n_traced
    m["simulator.trials"] = count("simulator.trials")
    m["simulator.useful_point_ratio"] = ratio(
        counters.get("simulator.useful_points", 0), counters.get("simulator.points", 0))
    m["core.validate.calls"] = calls("core.validate")
    m["analytic.calls"] = sum(e for _, e, _ in under("analytic")) / n_traced
    m["analytic.self_s"] = self_s("analytic")
    m["analytic.us_per_call"] = ratio(m["analytic.self_s"], m["analytic.calls"], 1e6)
    m["cli.self_s"] = self_s("cli")
    m["cli.rows_written"] = count("cli.rows_written")
    m["cli.csv_bytes"] = count("cli.csv_bytes")
    m["trace.wall_s"] = statistics.median(p.wall for p in traced)
    m["trace.untraced_wall_s"] = statistics.median(p.wall for p in untraced)
    m["trace.overhead"] = m["trace.wall_s"] / m["trace.untraced_wall_s"]
    m["trace.missing_targets"] = len(tracer.missing)

    wall = m["trace.wall_s"]
    shares = {layer: self_s(layer) / wall for layer in LAYERS}
    shares["simulator.draw+kernel"] = (m["simulator.draw.self_s"]
                                       + m["simulator.kernel.self_s"]) / wall
    return m, shares


@dataclass
class Result:
    workload: str
    seed: int
    trace: int
    passes: int
    ops_per_pass: int
    op_counts: dict
    attempted: int
    failed: int
    failures: list
    metrics: dict
    setup_runs: int = 0
    shares: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    pass_times: dict = field(default_factory=dict)


def measure(workload: str, seed: int, seconds: float, trace: int,
            scale: float = 1.0, main=None, setup_runs: int = SETUP_RUNS,
            record: bool = False) -> Result:
    """One benchmark run; ``main`` defaults to zicarq.cli.main.

    With ``record`` the stored digests are neither compared nor required,
    and the result carries this run's digests instead.
    """
    if main is None:
        import zicarq.cli
        main = zicarq.cli.main
    ops = make_ops(workload, seed, scale)
    stored = {}
    if DIGESTS.is_file() and not record:
        stored = json.loads(DIGESTS.read_text()).get(workload, {})
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    runner = Runner(main, workdir, stored, tracer)
    passes, traced = [], []
    try:
        setup_s = 0.0 if trace else measure_setup(setup_runs)
        runner.run_pass(make_ops(workload, seed, scale * WARMUP_SCALE))
        t_start = time.perf_counter()
        while True:
            passes.append(runner.run_pass(ops))
            if trace:
                traced.append(runner.run_pass(ops, traced=True))
            elapsed = time.perf_counter() - t_start
            # stop when one more round would overrun --seconds
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if seed == DEFAULT_SEED and scale == 1.0 and not record:
        for key in sorted(runner.digests.keys() - stored.keys()):
            runner.failed += 1
            runner.failures.append(f"no stored digest for {key}")

    op_counts = {}
    for op in ops:
        op_counts[op.kind] = op_counts.get(op.kind, 0) + 1
    shares = {}
    if trace:
        metrics, shares = per_layer_metrics(tracer, traced, passes,
                                            op_counts.get("verify", 0))
        spans = WORK / "traces" / f"{workload}-seed{seed}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(str(spans))
    else:
        metrics = end_to_end_metrics(runner, passes, setup_s)
    return Result(workload, seed, trace, len(passes) + len(traced), len(ops),
                  op_counts, runner.attempted, runner.failed, runner.failures,
                  metrics, 0 if trace else setup_runs, shares,
                  tracer.missing if tracer else [], runner.digests,
                  {"untraced": [[p.raw_wall, p.slowness] for p in passes],
                   "traced": [[p.raw_wall, p.slowness] for p in traced]})


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def provenance(result: Result, seconds: float, scale: float) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "workload": result.workload,
        "seed": result.seed,
        "seconds": seconds,
        "scale": scale,
        "trace": result.trace,
        "passes": result.passes,
        "ops_per_pass": result.ops_per_pass,
        "op_counts": result.op_counts,
    }


def report(result: Result, seconds: float, scale: float) -> dict:
    """Print every metric by name and unit, write the results file, and
    return the object for the final JSON line."""
    units = PER_LAYER if result.trace else {**END_TO_END, **EXTRA_METRICS}
    m = result.metrics
    notes = {
        "setup_s": f"median of {result.setup_runs} fresh processes",
        "wall_s": f"median over {result.passes} passes",
        "op_p50_ms": f"over {result.ops_per_pass} invocations, each a median of "
                     f"{result.passes} passes",
        "op_p90_ms": f"over {result.ops_per_pass} invocations",
        "error_rate": f"{result.failed}/{result.attempted} ops failed",
        "trace.wall_s": f"median over {result.passes // 2} traced passes",
    }
    print(f"workload={result.workload} seed={result.seed} trace={result.trace} "
          f"passes={result.passes} ops/pass={result.ops_per_pass} "
          f"op_counts={result.op_counts}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:38s} {m[name]:.6g} {unit}{note}")
    for layer, share in result.shares.items():
        print(f"  self-time share of traced wall_s: {layer:24s} {share:.1%}")
    for target in result.missing:
        print(f"  missing trace target: {target}")
    for failure in result.failures[:20]:
        print(f"  FAILED {failure}")

    all_units = {**END_TO_END, **EXTRA_METRICS, **PER_LAYER}
    record = {"provenance": provenance(result, seconds, scale),
              "attempted": result.attempted, "failed": result.failed,
              "failures": result.failures[:100], "missing": result.missing,
              "shares": result.shares,
              "pass_raw_wall_s_and_slowness": result.pass_times,
              "metrics": {k: {"value": v, "unit": all_units[k]} for k, v in m.items()}}
    out = WORK / "results" / \
        f"{result.workload}-seed{result.seed}-trace{result.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"  results: {out.relative_to(ROOT)}")
    listed = PER_LAYER if result.trace else END_TO_END
    return {"correct": result.failed == 0, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {k: {"value": m[k], "unit": u} for k, u in listed.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the workload, for smoke tests; 1 = full size")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's simulate/throughput digests; needs "
                         "the default seed, full scale and --trace 0")
    args = ap.parse_args(argv)
    if not 0.0 < args.scale <= 1.0 or args.seconds < 1:
        ap.error("--scale must be in (0, 1] and --seconds >= 1")
    record = args.record_digests
    if record and (args.seed != DEFAULT_SEED or args.scale != 1.0 or args.trace):
        ap.error("--record-digests needs the default seed, full scale and --trace 0")

    if not (SRC / "zicarq" / "cli.py").is_file():
        print(f"error: {SRC / 'zicarq'} not found; run from a zicarq checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zicarq
    if Path(zicarq.__file__).resolve().parent != SRC / "zicarq":
        print(f"error: imported zicarq from {zicarq.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.scale, record=record)
    line = report(result, args.seconds, args.scale)
    if record:
        if result.failed:
            print("error: not recording the digests of a run with failures",
                  file=sys.stderr)
            return 2
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table[args.workload] = dict(sorted(result.digests.items()))
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
