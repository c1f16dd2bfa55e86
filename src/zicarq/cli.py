"""Command-line driver: analytic curves, oracle verification sweeps,
Monte Carlo outage runs, and throughput runs, all emitting CSV.

Subcommands
-----------
curve       closed-form (d1, d2) along a parameter sweep, per scheme;
            hk-stop has no closed form, so its d1 comes from the oracle
verify      randomized analytic-vs-oracle agreement report
simulate    Monte Carlo outage curves plus a diversity-slope summary
throughput  Monte Carlo renewal-time and throughput-ratio table

A flat key=value config file (# comments allowed) can preload any flag;
explicit flags win.  Exit codes: 0 success, 1 validation error,
2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace

import numpy as np

from . import analytic
from .analytic import SchemeId
from .core import ParameterError, SystemParams, validate
from .regions import oracle_d1_hk_stop
from .simulator import SimConfig, estimate_throughput, fit_loglog_slope, outage_points
from .verify import VERIFY_SCHEMES, worst_gap

RATE_SWEEP_FLOOR = 1e-3  # curve sweeps never touch exact-zero rates
SWEEP_VARS = ("r1", "r2", "beta", "b", "t2")
MAX_GRID_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, keep 2 for verify failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _parse_triplet(text: str, what: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ParameterError(f"{what} expects LO:HI:STEP, got {text!r}")
    values = [float(v) for v in parts]
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"{what}: values must be finite, got {text!r}")
    if len(values) == 1:
        return values
    lo, hi, step = values
    if hi < lo:
        raise ParameterError(f"{what}: HI must be >= LO")
    if hi == lo:
        return [lo]
    if step <= 0:
        raise ParameterError(f"{what}: STEP must be > 0")
    span = (hi - lo) / step
    if not span < MAX_GRID_POINTS:
        raise ParameterError(f"{what}: more than {MAX_GRID_POINTS} grid points")
    n = int(math.floor(span + 1e-9)) + 1
    return [lo + k * step for k in range(n)]


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise ParameterError(f"--sweep expects VAR:LO:HI:STEP, got {text!r}")
    var = parts[0]
    if var not in SWEEP_VARS:
        raise ParameterError(f"sweep variable must be one of {SWEEP_VARS}")
    values = _parse_triplet(":".join(parts[1:]), "--sweep")
    if var in ("r1", "r2"):
        values = [max(v, RATE_SWEEP_FLOOR) for v in values]
    return var, values


def _parse_schemes(text: str) -> list[SchemeId]:
    return [_parse_single_scheme(tok.strip()) for tok in text.split(",")]


def _parse_single_scheme(text: str) -> SchemeId:
    try:
        return SchemeId(text)
    except ValueError:
        valid = ", ".join(s.value for s in SchemeId)
        raise ParameterError(f"unknown scheme {text!r}; valid schemes: {valid}")


def _load_config(path: str) -> dict:
    cfg = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}")
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            cfg[key.replace("-", "_")] = (lineno, val)
    return cfg


def _merge_config(args: argparse.Namespace):
    """Fill flags the user left at their default from the config file."""
    if not getattr(args, "config", None):
        return
    file_cfg = _load_config(args.config)
    for key, (lineno, raw) in file_cfg.items():
        if not hasattr(args, key):
            raise ParameterError(f"unknown config key {key!r}")
        if key in args._explicit:
            continue
        current = getattr(args, key)
        convert = type(current) if isinstance(current, (int, float)) else str
        try:
            setattr(args, key, convert(raw))
        except ValueError:
            kind = "an int" if convert is int else "a float"
            raise ParameterError(f"{args.config}:{lineno}: {key} expects "
                                 f"{kind}, got {raw!r}") from None


def _system_params(args) -> SystemParams:
    return validate(SystemParams(r1=args.r1, r2=args.r2, t2=args.t2,
                                 b=args.b, beta=args.beta, L=args.L))


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def cmd_curve(args) -> int:
    schemes = _parse_schemes(args.scheme)
    var, values = _parse_sweep(args.sweep)
    base = _system_params(args)
    rows = []
    for s in schemes:
        for v in values:
            p = validate(replace(base, **{var: v}))
            if s is SchemeId.HK_STOP:
                # no closed form: the region oracle evaluates this policy,
                # and it needs both rates at the floor rate sweeps clamp to
                p = replace(p, r1=max(p.r1, RATE_SWEEP_FLOOR),
                            r2=max(p.r2, RATE_SWEEP_FLOOR))
                d1, d2 = oracle_d1_hk_stop(p), analytic.d2_hk(p)
                source, branch = "oracle", "d1_hk_stop:oracle"
            else:
                res = analytic.scheme_dmt(s, p)
                d1, d2, source = res.d1, res.d2, "analytic"
                branch = "|".join(f"{fid}:{br}" for fid, br, _ in res.branch_trace)
            rows.append([s.value, p.L, p.r1, p.r2, p.t2, p.b, p.beta,
                         d1, d2, source, branch])

    _write_csv(args.out,
               ["scheme", "L", "r1", "r2", "t2", "b", "beta", "d1", "d2",
                "source", "branch"],
               rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    tol = args.tol
    if not 0.0 <= tol < math.inf:
        raise ParameterError("--tol must be finite and >= 0")
    rng = np.random.default_rng(args.seed)
    schemes = _parse_schemes(args.scheme) if args.scheme else \
        [SchemeId(s) for s in VERIFY_SCHEMES]

    if args.samples == 0:
        print("warning: samples=0, vacuous pass")
        return 0

    rows = []
    failed = False
    for scheme in schemes:
        worst, worst_desc = worst_gap(scheme, args.samples, rng)
        status = "ok" if worst <= tol else "FAIL"
        failed |= status == "FAIL"
        rows.append([scheme.value, args.samples, worst, tol, status])
        print(f"scheme={scheme.value:10s} samples={args.samples} "
              f"max|analytic-oracle|={worst:.3e} tol={tol:g} {status}"
              f"  worst: {worst_desc}")

    if args.out:
        _write_csv(args.out,
                   ["scheme", "samples", "max_abs_gap", "tol", "status"], rows)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# simulate / throughput
# ---------------------------------------------------------------------------

def _sim_setup(args) -> tuple[SchemeId, SystemParams, SimConfig]:
    scheme = _parse_single_scheme(args.scheme)
    p = _system_params(args)
    grid = _parse_triplet(args.rho_db, "--rho-db")
    return scheme, p, SimConfig(rho_db_grid=tuple(grid), trials=args.trials,
                                T=args.T, seed=args.seed).check()


def cmd_simulate(args) -> int:
    scheme, p, sim = _sim_setup(args)
    pts1, pts2 = outage_points(scheme, p, sim)
    rows = [["point", scheme.value, a.rho_db,
             a.p_out, (a.ci_hi - a.ci_lo) / 2.0,
             b.p_out, (b.ci_hi - b.ci_lo) / 2.0,
             sim.trials, "", "", "", "", "", ""] for a, b in zip(pts1, pts2)]

    slope1, se1, dropped1 = fit_loglog_slope(pts1)
    slope2, se2, dropped2 = fit_loglog_slope(pts2)
    for dropped, rx in ((dropped1, "RX1"), (dropped2, "RX2")):
        if dropped:
            print(f"note: {rx} zero-outage points dropped from fit: {dropped}")
    res = analytic.scheme_dmt(scheme, p)

    def cell(x):
        return "" if x is None or not math.isfinite(x) else x

    rows.append(["summary", scheme.value, "", "", "", "", "", "",
                 cell(slope1), cell(se1), cell(slope2), cell(se2),
                 res.d1, res.d2])

    _write_csv(args.out,
               ["row", "scheme", "rho_db", "p_out1", "ci1", "p_out2", "ci2",
                "trials", "slope1", "stderr1", "slope2", "stderr2",
                "analytic_d1", "analytic_d2"],
               rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_throughput(args) -> int:
    scheme, p, sim = _sim_setup(args)
    rows = []
    for k, db, rho in sim.points():
        est = estimate_throughput(scheme, p, rho, sim.trials, sim.seed,
                                  stream=k, T=sim.T)
        rows.append([scheme.value, db, est.eta1, est.eta2,
                     est.ratio1, est.ratio2, est.mean_zeta])

    _write_csv(args.out,
               ["scheme", "rho_db", "eta1", "eta2", "ratio1", "ratio2",
                "mean_zeta"],
               rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _write_csv(path: str, header: list[str], rows: list[list]):
    if not path:
        raise ParameterError("--out PATH is required")
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}")
    with fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])


class _TrackExplicit(argparse.Action):
    # remembers which flags the user actually passed, so the config file
    # only fills the rest (subparsers build fresh namespaces, hence setdefault)
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        if not hasattr(namespace, "_explicit"):
            namespace._explicit = set()
        namespace._explicit.add(self.dest)


def _add_common(sp, *, sim: bool):
    sp.add_argument("--L", type=int, default=1, action=_TrackExplicit)
    sp.add_argument("--r1", type=float, default=0.5, action=_TrackExplicit)
    sp.add_argument("--r2", type=float, default=0.5, action=_TrackExplicit)
    sp.add_argument("--t2", type=float, default=0.0, action=_TrackExplicit)
    sp.add_argument("--b", type=float, default=0.0, action=_TrackExplicit)
    sp.add_argument("--beta", type=float, default=1.0, action=_TrackExplicit)
    sp.add_argument("--config", default=None, action=_TrackExplicit)
    sp.add_argument("--out", default=None, action=_TrackExplicit)
    if sim:
        sp.add_argument("--rho-db", dest="rho_db", default="10:40:5",
                        action=_TrackExplicit)
        sp.add_argument("--trials", type=int, default=10000, action=_TrackExplicit)
        sp.add_argument("--seed", type=int, default=0, action=_TrackExplicit)
        sp.add_argument("--T", type=int, default=1000, action=_TrackExplicit)


def build_parser() -> _Parser:
    parser = _Parser(prog="zicarq",
                     description="ARQ diversity tradeoff toolkit for the "
                                 "Z-interference channel")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curve", help="closed-form DMT curves to CSV")
    c.add_argument("--scheme", default="hk,cmo,tian", action=_TrackExplicit)
    c.add_argument("--sweep", default="r1:0:1:0.01", action=_TrackExplicit)
    _add_common(c, sim=False)
    c.set_defaults(func=cmd_curve)

    v = sub.add_parser("verify", help="analytic vs oracle agreement sweep")
    v.add_argument("--scheme", default=None, action=_TrackExplicit)
    v.add_argument("--samples", type=int, default=500, action=_TrackExplicit)
    v.add_argument("--seed", type=int, default=7, action=_TrackExplicit)
    v.add_argument("--tol", type=float, default=1e-9, action=_TrackExplicit)
    v.add_argument("--config", default=None, action=_TrackExplicit)
    v.add_argument("--out", default=None, action=_TrackExplicit)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="Monte Carlo outage curves")
    s.add_argument("--scheme", default="cmo", action=_TrackExplicit)
    _add_common(s, sim=True)
    s.set_defaults(func=cmd_simulate)

    t = sub.add_parser("throughput", help="Monte Carlo throughput table")
    t.add_argument("--scheme", default="cmo", action=_TrackExplicit)
    _add_common(t, sim=True)
    t.set_defaults(func=cmd_throughput)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        namespace = argparse.Namespace(_explicit=set())
        args = parser.parse_args(argv, namespace=namespace)
        _merge_config(args)
        return args.func(args)
    except ValueError as exc:  # ParameterError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
