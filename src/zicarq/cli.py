"""Command-line driver: analytic curves, oracle verification sweeps,
Monte Carlo outage runs, and throughput runs, all emitting CSV.

Subcommands
-----------
curve       closed-form (d1, d2) along a parameter sweep, per scheme
verify      randomized analytic-vs-oracle agreement report
simulate    Monte Carlo outage curves plus a diversity-slope summary
throughput  Monte Carlo renewal-time and throughput-ratio table

A flat key=value config file (# comments allowed) can preload any flag
of the subcommand, keyed by the flag's name; explicit flags win.  Exit
codes: 0 success, 1 validation error, 2 verification failure.

Engines load on first use: ``curve`` and ``simulate`` import the closed
forms (``analytic``), ``verify`` numpy, the closed forms and the oracle,
``simulate`` and ``throughput`` the Monte Carlo engine, each when it runs,
so start-up, ``--help`` and a usage error load no engine, ``throughput``
no closed forms, and ``curve`` no numpy.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from functools import cache, lru_cache, partial

from .core import (RATE_FLOOR, REAL_FIELDS, ParameterError, SchemeId, SystemParams,
                   check_seed)

# the sweep variables: the real fields of a point, in SystemParams' order,
# and so in a curve row's
SWEEP_VARS = REAL_FIELDS
MAX_GRID_POINTS = 100_000


def __getattr__(name):
    # the closed forms load on the first read of ``analytic``, which then
    # binds them here like an import, so later reads skip this hook
    if name != "analytic":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import analytic
    globals()[name] = analytic
    return analytic


def _analytic():
    """The closed forms through this module's ``analytic`` binding, so a
    rebinding of ``cli.analytic`` is seen; the first call loads them."""
    return sys.modules[__name__].analytic


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors: exit 1, keep 2 for verify failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(message)


def _parse_triplet(text: str, what: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ParameterError(f"{what} expects LO:HI:STEP, got {text!r}")
    try:
        values = [float(v) for v in parts]
    except ValueError:
        raise ParameterError(f"{what}: values must be numbers, got {text!r}") from None
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
    # a span of a whole number of steps ends at HI, not at a rounding past it
    last = hi if n > 1 and abs(span - (n - 1)) <= 1e-9 else lo + (n - 1) * step
    return [lo + k * step for k in range(n - 1)] + [last]


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise ParameterError(f"--sweep expects VAR:LO:HI:STEP, got {text!r}")
    var = parts[0]
    if var not in SWEEP_VARS:
        raise ParameterError(f"sweep variable must be one of {SWEEP_VARS}")
    values = _parse_triplet(":".join(parts[1:]), "--sweep")
    if var in ("r1", "r2"):
        # at an exactly zero rate a closed form takes ext_div's vacuous
        # branch, off the curve: tian at L=2, r2=0.9, beta=1.3 has d1 = 1
        # at r1 = 0 but 0.1 at r1 = 1e-3
        values = [max(v, RATE_FLOOR) for v in values]
    return var, values


def _parse_schemes(text: str) -> list[SchemeId]:
    schemes = [SchemeId(tok.strip()) for tok in text.split(",")]
    for i, s in enumerate(schemes):
        if s in schemes[:i]:  # its rows would be written twice
            raise ParameterError(f"--scheme names {s.value} more than once")
    return schemes


def _load_config(path: str, command: argparse.ArgumentParser) -> list[str]:
    """``command``'s flags from a flat key=value file, as ``--flag=value``
    arguments, each value checked against the type of the flag's default."""
    flags = vars(command.parse_args([]))  # every flag's dest and default
    del flags["config"]  # files do not nest
    cfg = []
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
            key = key.replace("-", "_")
            if key not in flags:
                raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
            default = flags[key]
            convert = type(default) if isinstance(default, (int, float)) else str
            try:
                convert(val)
            except ValueError:
                kind = "an int" if convert is int else "a float"
                raise ParameterError(f"{path}:{lineno}: {key} expects "
                                     f"{kind}, got {val!r}") from None
            cfg.append(f"--{key.replace('_', '-')}={val}")
    return cfg


def _require_out(args):
    # checked before any work, so a forgotten --out costs nothing
    if not args.out:
        raise ParameterError("--out PATH is required")


def _param_flags(args) -> dict:
    """The SystemParams fields the common flags set, by name."""
    return {"r1": args.r1, "r2": args.r2, "t2": args.t2, "b": args.b,
            "beta": args.beta, "L": args.L}


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def _sweep_points(args, var: str, values: list[float]) -> list[SystemParams]:
    """The sweep's points: the flags' parameters with ``var`` set to each of
    ``values``.  Only these are built; an invalid one is named in the error."""
    fields = [*_param_flags(args).values()]  # in SystemParams' order
    swept = SWEEP_VARS.index(var)
    points = []
    try:
        for v in values:
            fields[swept] = v
            points.append(SystemParams(*fields))
    except ParameterError as exc:
        raise ParameterError(f"{exc} at {var}={_fmt(v)}") from None
    return points


def cmd_curve(args) -> int:
    _require_out(args)
    schemes = _parse_schemes(args.scheme)
    var, values = _parse_sweep(args.sweep)
    points = _sweep_points(args, var, values)
    # a point's parameter cells are the same for every scheme, and only the
    # swept one changes along the sweep, so each point's cells are formatted
    # and joined once; a row's own work is the closed forms and their cells
    fixed = [str(args.L), *(_fmt(getattr(args, name)) for name in SWEEP_VARS)]
    swept = 1 + SWEEP_VARS.index(var)
    cells = []
    for v in values:
        fixed[swept] = _fmt(v)
        cells.append(",".join(fixed))
    # exponents repeat along a sweep (d2 of hk, cmo and tian does not move
    # with r1), so each value is formatted once per call, and so is each
    # pair of labels; a zero is formatted every time, since 0.0 == -0.0
    # but the two differ
    floats, branches = {}, {}
    rows = []
    for s in schemes:
        name = s.value
        for params, ((d1, l1), (d2, l2)) in zip(cells, _analytic().scheme_curve(s, points)):
            c1, c2, branch = floats.get(d1), floats.get(d2), branches.get((l1, l2))
            if c1 is None:
                c1 = _fmt(d1)
                if d1:
                    floats[d1] = c1
            if c2 is None:
                c2 = _fmt(d2)
                if d2:
                    floats[d2] = c2
            if branch is None:
                branch = branches[l1, l2] = _csv_cell(f"d1:{l1}|d2:{l2}")
            rows.append(f"{name},{params},{c1},{c2},analytic,{branch}")

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
    import numpy as np

    from .verify import VERIFY_SCHEMES, worst_gap

    tol = args.tol
    if not 0.0 <= tol < math.inf:
        raise ParameterError("--tol must be finite and >= 0")
    check_seed(args.seed, "--seed")
    rng = np.random.default_rng(args.seed)
    schemes = _parse_schemes(args.scheme) if args.scheme else \
        [SchemeId(s) for s in VERIFY_SCHEMES]

    rows = []
    failed = False
    for scheme in schemes:
        worst, worst_desc = worst_gap(scheme, args.samples, rng)
        status = "ok" if worst <= tol else "FAIL"
        failed |= status == "FAIL"
        rows.append(_line(scheme.value, args.samples, _fmt(worst), _fmt(tol),
                          status))
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
    from .simulator import SimConfig

    scheme = SchemeId(args.scheme)
    p = SystemParams(**_param_flags(args))
    grid = _parse_triplet(args.rho_db, "--rho-db")
    check_seed(args.seed, "--seed")
    return scheme, p, SimConfig(rho_db_grid=tuple(grid), trials=args.trials,
                                seed=args.seed)


def cmd_simulate(args) -> int:
    _require_out(args)
    from .simulator import estimate_diversity

    scheme, p, sim = _sim_setup(args)
    fit1, fit2 = estimate_diversity(scheme, p, sim)
    rows = [_line("point", scheme.value,
                  *map(_fmt, (a.rho_db, a.p_out, (a.ci_hi - a.ci_lo) / 2.0,
                              b.p_out, (b.ci_hi - b.ci_lo) / 2.0)),
                  sim.trials, "", "", "", "", "", "")
            for a, b in zip(fit1.points, fit2.points)]

    for fit, rx in ((fit1, "RX1"), (fit2, "RX2")):
        if fit.dropped_rho_db:
            print(f"note: {rx} zero-outage points dropped from fit: {fit.dropped_rho_db}")
    (d1, _), (d2, _) = _analytic().scheme_dmt(scheme, p)

    def cell(x):
        return "" if x is None or not math.isfinite(x) else _fmt(x)

    rows.append(_line("summary", scheme.value, "", "", "", "", "", "",
                      cell(fit1.slope), cell(fit1.stderr), cell(fit2.slope),
                      cell(fit2.stderr), _fmt(d1), _fmt(d2)))

    _write_csv(args.out,
               ["row", "scheme", "rho_db", "p_out1", "ci1", "p_out2", "ci2",
                "trials", "slope1", "stderr1", "slope2", "stderr2",
                "analytic_d1", "analytic_d2"],
               rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_throughput(args) -> int:
    _require_out(args)
    from .simulator import estimate_throughput

    scheme, p, sim = _sim_setup(args)
    rows = []
    for k, db, rho in sim.points():
        est = estimate_throughput(scheme, p, rho, sim.trials, sim.seed, stream=k)
        rows.append(_line(scheme.value, *map(_fmt, (db, est.eta1, est.eta2,
                                                    est.ratio1, est.ratio2,
                                                    est.mean_zeta))))

    _write_csv(args.out,
               ["scheme", "rho_db", "eta1", "eta2", "ratio1", "ratio2",
                "mean_zeta"],
               rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    """The one format of every float cell the CLI writes."""
    return f"{x:.12g}"


def _line(*cells) -> str:
    """One CSV line of cells that need no quoting: numbers, names, ``ok``,
    empty cells.  A cell that may hold a comma goes through :func:`_csv_cell`."""
    return ",".join(map(str, cells))


@lru_cache(maxsize=1024)
def _csv_cell(text: str) -> str:
    """``text`` as a cell of the LF-ended ``csv.writer`` lines: quoted if it
    holds a comma, a quote or a newline.  Cached, since the same branch
    labels recur from one curve to the next."""
    import csv  # loaded on first use, so start-up and --help skip it

    buf = io.StringIO()
    # the writer quotes the characters of its line terminator, so it needs
    # the file's own "\n", which is then cut off
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _write_csv(path: str, header: list[str], rows: list[str]):
    """Write ``header`` and then ``rows``, one rendered line per data row, to
    ``path`` in one write, each line ending in LF.  Callers format their
    floats with :func:`_fmt` and render each row with :func:`_line`, quoting
    any cell that needs it with :func:`_csv_cell`."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}")
    with fh:
        fh.write("\n".join([",".join(header), *rows, ""]))


def _add_common(sp, *, sim: bool):
    sp.add_argument("--L", type=int, default=1)
    sp.add_argument("--r1", type=float, default=0.5)
    sp.add_argument("--r2", type=float, default=0.5)
    sp.add_argument("--t2", type=float, default=0.0)
    sp.add_argument("--b", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", default=None)
    if sim:
        sp.add_argument("--rho-db", dest="rho_db", default="10:40:5")
        sp.add_argument("--trials", type=int, default=10000)
        sp.add_argument("--seed", type=int, default=0)


COMMANDS = {"curve": cmd_curve, "verify": cmd_verify,
            "simulate": cmd_simulate, "throughput": cmd_throughput}


def build_parser() -> _Parser:
    # argparse builds a help formatter for each flag it adds, and each
    # formatter asks for the terminal size; ask once, with argparse's margin
    import shutil

    formatter = partial(argparse.HelpFormatter,
                        width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="zicarq", formatter_class=formatter,
                     description="ARQ diversity tradeoff toolkit for the "
                                 "Z-interference channel")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curve", help="closed-form DMT curves to CSV",
                       formatter_class=formatter)
    c.add_argument("--scheme", default="hk,cmo,tian")
    c.add_argument("--sweep", default="r1:0:1:0.01")
    _add_common(c, sim=False)

    v = sub.add_parser("verify", help="analytic vs oracle agreement sweep",
                       formatter_class=formatter)
    v.add_argument("--scheme", default=None)
    v.add_argument("--samples", type=int, default=500)
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--tol", type=float, default=1e-12)
    v.add_argument("--config", default=None)
    v.add_argument("--out", default=None)

    s = sub.add_parser("simulate", help="Monte Carlo outage curves",
                       formatter_class=formatter)
    s.add_argument("--scheme", default="cmo")
    _add_common(s, sim=True)

    t = sub.add_parser("throughput", help="Monte Carlo throughput table",
                       formatter_class=formatter)
    t.add_argument("--scheme", default="cmo")
    _add_common(t, sim=True)

    parser.commands = sub.choices  # subcommand name -> its parser
    return parser


@cache
def _shared_parser() -> _Parser:
    # parsing leaves a parser unchanged, so one serves every call in a process
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go right after the subcommand, so every flag
            # given on the command line comes later and wins
            config = _load_config(args.config, parser.commands[args.command])
            args = parser.parse_args(argv[:1] + config + argv[1:])
        return COMMANDS[args.command](args)
    except ValueError as exc:  # ParameterError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
