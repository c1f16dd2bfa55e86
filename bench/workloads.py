"""The benchmark's workloads: CLI invocation lists made from a seed, and the
checks every invocation's output must pass.

Each workload is a fixed list of ``zicarq`` argv lists.  The program sees
only the generated argv; the seed fixes every parameter.  The lists are
prefix-stable (a smaller scale gives a prefix of the full list, except in
``mc-bulk``, where scale shrinks the trial counts instead).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("oracle-verify", "mc-bulk", "explore")

# The seven schemes `zicarq verify` checks, and the six simulatable ones.
VERIFY_SCHEMES = ("hk", "cmo", "tian", "hk-keep", "coop-cmo", "coop-tian", "coop-dd")
SIM_SCHEMES = ("cmo", "hk", "tian", "coop-cmo", "coop-tian", "coop-dd")
CURVE_SCHEMES = ("cmo", "tian", "hk", "coop-cmo", "coop-tian", "coop-dd")
COOP = ("coop-cmo", "coop-tian", "coop-dd")

VERIFY_CALLS = 280          # 40 per scheme
EXPLORE_CALLS = 180         # 60 each of curve, simulate, throughput
BULK_TRIALS = 2_000_000     # per SNR point
EXPLORE_TRIALS = 4096       # per SNR point
CURVE_SWEEP = ("r1", 0.0, 1.0, 0.002)
CURVE_POINTS = 501          # 0, 0.002, ..., 1
WILSON_Z = 1.959963984540054


@dataclass
class Op:
    """One CLI invocation (without --out) and what its output must satisfy."""

    kind: str               # verify | curve | simulate | throughput
    argv: list[str]
    scheme: str = ""
    L: int = 1
    points: int = 1         # SNR points (simulate, throughput)
    trials: int = 0         # per SNR point
    rows: int = 0           # expected data rows

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def work(self) -> int:
        """Units of work: verify samples, curve rows, or MC trials x points."""
        if self.kind == "verify":
            return 1
        if self.kind == "curve":
            return self.rows
        return self.trials * self.points


def _f(x: float) -> str:
    return f"{x:.3f}"


def _rates(rng):
    r1 = round(float(rng.uniform(0.1, 0.6)), 3)
    r2 = round(float(rng.uniform(0.1, 0.6)), 3)
    beta = round(float(rng.uniform(0.3, 1.5)), 3)
    # t2 <= r2/2 and b <= 0.5 keep rho**b finite on every grid used here
    t2 = math.floor(float(rng.uniform(0.0, 0.5)) * r2 * 1000) / 1000
    b = round(float(rng.uniform(0.0, 0.5)), 3)
    return r1, r2, beta, t2, b


def _mc_op(kind, scheme, L, params, grid, points, trials, seed):
    r1, r2, t2, b, beta = params
    argv = [kind, "--scheme", scheme, "--L", str(L), "--r1", _f(r1),
            "--r2", _f(r2), "--t2", _f(t2), "--b", _f(b), "--beta", _f(beta),
            "--rho-db", grid, "--trials", str(trials), "--seed", str(seed)]
    rows = points + 1 if kind == "simulate" else points
    return Op(kind, argv, scheme=scheme, L=L, points=points, trials=trials,
              rows=rows)


def _verify_ops(rng, scale):
    n = max(len(VERIFY_SCHEMES), round(VERIFY_CALLS * scale))
    ops = []
    for i in range(n):
        scheme = VERIFY_SCHEMES[i % len(VERIFY_SCHEMES)]
        seed = int(rng.integers(0, 2**31))
        ops.append(Op("verify", ["verify", "--scheme", scheme, "--samples", "1",
                                 "--seed", str(seed)], scheme=scheme, rows=1))
    return ops


# mc-bulk runs fixed operating points (the README's, and the same point for
# the L=4 and cooperative schemes); only the Monte Carlo seeds come from the
# workload seed.  Kernel time depends a little on the parameters (how many
# trials each round's boolean scatter touches), which would otherwise add
# several percent of seed-to-seed spread.
BULK_OPS = (
    # kind, scheme, L, (r1, r2, t2, b, beta), grid, points
    ("simulate", "cmo", 1, (0.2, 0.2, 0.0, 0.0, 0.5), "15:35:5", 5),
    ("simulate", "hk", 4, (0.3, 0.3, 0.1, 0.1, 0.8), "15:35:5", 5),
    ("simulate", "tian", 4, (0.3, 0.3, 0.0, 0.0, 0.8), "15:35:5", 5),
    ("simulate", "coop-dd", 2, (0.3, 0.3, 0.0, 0.0, 0.8), "15:35:5", 5),
    ("throughput", "hk", 2, (0.3, 0.3, 0.1, 0.1, 0.8), "30", 1),
    ("throughput", "coop-dd", 2, (0.3, 0.3, 0.0, 0.0, 0.8), "30", 1),
)


def _bulk_ops(rng, scale):
    trials = max(EXPLORE_TRIALS, round(BULK_TRIALS * scale))
    return [_mc_op(kind, scheme, L, params, grid, points, trials,
                   int(rng.integers(0, 2**31)))
            for kind, scheme, L, params, grid, points in BULK_OPS]


def _explore_ops(rng, scale):
    n = max(3, round(EXPLORE_CALLS * scale))
    var, lo, hi, step = CURVE_SWEEP
    ops = []
    for i in range(n):
        kind = ("curve", "simulate", "throughput")[i % 3]
        if kind == "curve":
            _, r2, beta, t2, b = _rates(rng)
            argv = ["curve", "--scheme", ",".join(CURVE_SCHEMES), "--L", "2",
                    "--r2", _f(r2), "--t2", _f(t2), "--b", _f(b),
                    "--beta", _f(beta), "--sweep", f"{var}:{lo:g}:{hi:g}:{step:g}"]
            ops.append(Op("curve", argv, L=2,
                          rows=len(CURVE_SCHEMES) * CURVE_POINTS))
            continue
        scheme = SIM_SCHEMES[int(rng.integers(0, len(SIM_SCHEMES)))]
        L = 2 if scheme in COOP else int(rng.integers(1, 5))
        # grids start above 0 dB: the simulator rejects rho <= 1 by design
        lo_db = 5.0 + 2.5 * int(rng.integers(0, 5))
        if kind == "simulate":
            grid, points = f"{lo_db:g}:{lo_db + 22.5:g}:2.5", 10
        else:
            grid, points = f"{lo_db:g}:{lo_db + 10:g}:5", 3
        r1, r2, beta, t2, b = _rates(rng)
        if scheme != "hk":
            t2 = b = 0.0
        ops.append(_mc_op(kind, scheme, L, (r1, r2, t2, b, beta), grid, points,
                          EXPLORE_TRIALS, int(rng.integers(0, 2**31))))
    return ops


def make_ops(workload: str, seed: int, scale: float = 1.0) -> list[Op]:
    """The workload's invocation list for this seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    build = {"oracle-verify": _verify_ops, "mc-bulk": _bulk_ops,
             "explore": _explore_ops}[workload]
    return build(rng, scale)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """An invocation's output breaks one of the workload's checks."""


HEADERS = {
    "verify": ["scheme", "samples", "max_abs_gap", "tol", "status"],
    "curve": ["scheme", "L", "r1", "r2", "t2", "b", "beta", "d1", "d2",
              "source", "branch"],
    "simulate": ["row", "scheme", "rho_db", "p_out1", "ci1", "p_out2", "ci2",
                 "trials", "slope1", "stderr1", "slope2", "stderr2",
                 "analytic_d1", "analytic_d2"],
    "throughput": ["scheme", "rho_db", "eta1", "eta2", "ratio1", "ratio2",
                   "mean_zeta"],
}


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def wilson(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval, clamped to contain k/n (reference copy)."""
    ph = k / n
    z2 = WILSON_Z * WILSON_Z
    den = 1.0 + z2 / n
    center = (ph + z2 / (2.0 * n)) / den
    half = WILSON_Z * math.sqrt(ph * (1.0 - ph) / n + z2 / (4.0 * n * n)) / den
    return max(0.0, min(center - half, ph)), min(1.0, max(center + half, ph))


def _check_estimate(p_text: str, ci_text: str, trials: int, what: str):
    """p is k/trials in [0, 1] and its Wilson interval contains it."""
    p, half = float(p_text), float(ci_text)
    _require(0.0 <= p <= 1.0, f"{what}: p={p} outside [0, 1]")
    k = round(p * trials)
    _require(abs(k / trials - p) <= 1e-9, f"{what}: p={p} is not k/{trials}")
    lo, hi = wilson(k, trials)
    _require(lo <= p <= hi, f"{what}: CI [{lo}, {hi}] misses p={p}")
    _require(abs((hi - lo) / 2.0 - half) <= 1e-9,
             f"{what}: CI half-width {half} != {(hi - lo) / 2.0}")


def check_output(op: Op, text: str) -> dict:
    """Raise CheckFailed unless the CSV text is a correct output of op.

    Returns the values the metrics read from it (verify: the gap).
    """
    lines = text.splitlines()
    _require(bool(lines), "empty output")
    reader = csv.reader(lines)
    header = next(reader)
    _require(header == HEADERS[op.kind], f"header {header}")
    rows = list(reader)
    _require(len(rows) == op.rows, f"{len(rows)} rows, expected {op.rows}")
    _require(all(len(r) == len(header) for r in rows), "ragged row")

    if op.kind == "verify":
        scheme, samples, gap, tol, status = rows[0]
        _require(scheme == op.scheme, f"scheme {scheme} != {op.scheme}")
        _require(status == "ok", f"status {status}")
        _require(int(samples) == 1, f"samples {samples}")
        _require(0.0 <= float(gap) <= float(tol), f"gap {gap} > tol {tol}")
        return {"gap": float(gap)}

    if op.kind == "curve":
        for r in rows:
            _require(r[0] in CURVE_SCHEMES, f"scheme {r[0]}")
            d1, d2 = float(r[7]), float(r[8])
            _require(d1 >= 0.0 and d2 >= 0.0, f"negative exponent in {r}")
        return {}

    if op.kind == "simulate":
        _require(rows[-1][0] == "summary", "no summary row")
        for r in rows[:-1]:
            _require(r[0] == "point" and r[1] == op.scheme, f"bad point row {r}")
            _require(int(r[7]) == op.trials, f"trials {r[7]} != {op.trials}")
            _check_estimate(r[3], r[4], op.trials, f"p_out1@{r[2]}dB")
            _check_estimate(r[5], r[6], op.trials, f"p_out2@{r[2]}dB")
        return {}

    for r in rows:  # throughput
        mean_zeta = float(r[6])
        _require(1.0 <= mean_zeta <= op.L, f"mean_zeta {mean_zeta} outside [1, {op.L}]")
        _require(abs(float(r[4]) - 1.0 / mean_zeta) <= 1e-9, f"ratio1 {r[4]}")
    return {}
