import argparse
import contextlib
import csv
import hashlib
import io
import math
import os
from operator import itemgetter
import re
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zicarq import analytic, cli, core, simulator
from zicarq.cli import SWEEP_VARS, _parse_triplet, main
from zicarq.core import ParameterError, SystemParams
from zicarq.regions import oracle_d1_hk
from zicarq.verify import worst_gap


# the schemes the Monte Carlo runs; hk-keep, hk-stop and coop-static are
# analysis-only
SIMULATED = ("hk", "cmo", "tian", "coop-cmo", "coop-tian", "coop-dd")


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def plain_csv(header, rows):
    """The reference writer: csv.writer over the cells, every float in .12g."""
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{c:.12g}" if isinstance(c, float) else c for c in row]
                     for row in rows)
    return ref.getvalue()


@pytest.fixture
def written(monkeypatch):
    """The rows of each cli._write_csv call, in call order."""
    calls = []
    write_csv = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv", lambda path, header, rows:
                        calls.append(rows) or write_csv(path, header, rows))
    return calls


def assert_one_entry_per_row(written, out):
    # the bench tracer counts rows with len()
    [rows] = written
    assert type(rows) is list
    assert len(rows) == len(out.read_text(encoding="utf-8").splitlines()) - 1


def assert_numeric_cells_finite(path):
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    val = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(val), f"non-finite cell {cell!r}"


class TestCurve:
    def test_six_schemes_101_rows_each(self, tmp_path):
        out = tmp_path / "curves.csv"
        rc = run(["curve",
                  "--scheme", "cmo,tian,hk,coop-cmo,coop-tian,coop-dd",
                  "--L", "2", "--r2", "0.9", "--beta", "1.3",
                  "--t2", "0.3", "--b", "0.1",
                  "--sweep", "r1:0:1:0.01", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 6 * 101
        per_scheme = {}
        for row in rows:
            per_scheme.setdefault(row["scheme"], []).append(row)
        assert set(per_scheme) == {"cmo", "tian", "hk", "coop-cmo",
                                   "coop-tian", "coop-dd"}
        assert all(len(v) == 101 for v in per_scheme.values())
        # rate sweeps clamp away from exactly zero
        assert float(rows[0]["r1"]) == pytest.approx(1e-3)
        assert_numeric_cells_finite(out)

    def test_zero_width_sweep(self, tmp_path):
        out = tmp_path / "one.csv"
        rc = run(["curve", "--scheme", "cmo", "--L", "2",
                  "--sweep", "r1:0.5:0.5:0.01", "--out", str(out)])
        assert rc == 0
        assert len(read_csv(out)) == 1

    def test_sweep_ends_exactly_at_hi(self, tmp_path):
        # 0 + 3*0.2 is 0.6000000000000001, past r2 = 0.6: a span of a whole
        # number of steps ends at HI itself, and any other span is untouched
        out = tmp_path / "t2.csv"
        rc = run(["curve", "--scheme", "hk", "--L", "2", "--r2", "0.6",
                  "--sweep", "t2:0:0.6:0.2", "--out", str(out)])
        assert rc == 0
        assert [float(row["t2"]) for row in read_csv(out)] == [0.0, 0.2, 0.4, 0.6]
        assert _parse_triplet("0:0.7:0.2", "--sweep") == [0.0, 0.2, 0.4, 3 * 0.2]

    def test_hk_stop_from_closed_form(self, tmp_path):
        # hk-stop rows come from the closed forms like every other scheme's,
        # and the branch names the ACK round and piece that won
        out = tmp_path / "stop.csv"
        rc = run(["curve", "--scheme", "hk-stop", "--L", "2", "--r2", "0.4",
                  "--t2", "0.2", "--b", "0.2", "--beta", "1.2",
                  "--sweep", "r1:0.25:0.25:0.1", "--out", str(out)])
        assert rc == 0
        [row] = read_csv(out)
        assert row["source"] == "analytic"
        p = SystemParams(r1=0.25, r2=0.4, t2=0.2, b=0.2, beta=1.2, L=2)
        d1, d1_label = analytic.d1_hk_stop(p)
        assert row["branch"] == f"d1:{d1_label}|d2:{analytic.d2_hk(p)[1]}"
        assert re.fullmatch(r"i=[12],d1[12]:[a-z-]+", d1_label)
        assert row["d1"] == f"{d1:.12g}"
        assert float(row["d1"]) == pytest.approx(oracle_d1_hk(p, stop=True), abs=1e-11)

    @pytest.mark.parametrize("argv,rate", [
        (["--r2", "0", "--sweep", "r1:0:1:0.5"], "r2"),
        (["--r1", "0", "--sweep", "beta:0:2:1"], "r1"),
    ], ids=["r2=0", "r1=0"])
    def test_hk_stop_zero_rate_unclamped(self, argv, rate, tmp_path):
        # the closed form takes zero rates as they are: an unswept zero rate
        # is written, and evaluated, as 0 for hk-stop as for hk
        out = tmp_path / "stop.csv"
        rc = run(["curve", "--scheme", "hk,hk-stop", "--L", "2", *argv,
                  "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 6
        for row in rows:
            assert float(row[rate]) == 0.0
            if row["scheme"] == "hk-stop":
                p = SystemParams(r1=float(row["r1"]), r2=float(row["r2"]),
                                 beta=float(row["beta"]), L=2)
                assert row["d1"] == f"{analytic.d1_hk_stop(p)[0]:.12g}"
                assert row["d2"] == f"{analytic.d2_hk(p)[0]:.12g}"

    def test_hk_stop_cells_exact(self, tmp_path):
        # hk-stop's closed form writes these cells exactly; the sweep's
        # r1 = 0 is clamped to 1e-3, hence 0.499
        out = tmp_path / "stop.csv"
        rc = run(["curve", "--scheme", "hk-stop", "--L", "2", "--t2", "0.5",
                  "--r2", "0.5", "--sweep", "r1:0:1:0.5", "--out", str(out)])
        assert rc == 0
        assert [row["d1"] for row in read_csv(out)] == ["0.499", "0", "0"]

    def test_each_sweep_point_built_once(self, tmp_path, monkeypatch):
        built = []
        validate = core.validate
        monkeypatch.setattr(core, "validate", lambda p: built.append(p) or validate(p))
        rc = run(["curve", "--scheme", "cmo,tian,hk", "--sweep", "r1:0:1:0.25",
                  "--out", str(tmp_path / "c.csv")])
        assert rc == 0
        assert len(built) == 5  # the five sweep points, and no unswept base

    def test_each_scheme_resolved_once(self, tmp_path, monkeypatch):
        # six schemes over five points: one curve call and one delay check
        # per scheme, not one dispatch per row
        curves, checks = [], []
        scheme_curve, check_rounds = analytic.scheme_curve, analytic.check_rounds
        monkeypatch.setattr(analytic, "scheme_curve", lambda s, points:
                            curves.append(s) or scheme_curve(s, points))
        monkeypatch.setattr(analytic, "check_rounds", lambda s, p:
                            checks.append(s) or check_rounds(s, p))
        monkeypatch.setattr(analytic, "scheme_dmt", None)
        schemes = "cmo,tian,hk,coop-cmo,coop-tian,coop-dd"
        rc = run(["curve", "--scheme", schemes, "--L", "2",
                  "--sweep", "r1:0:1:0.25", "--out", str(tmp_path / "c.csv")])
        assert rc == 0
        assert len(read_csv(tmp_path / "c.csv")) == 30
        assert [s.value for s in curves] == schemes.split(",")
        assert [s.value for s in checks] == schemes.split(",")

    @pytest.mark.parametrize("lo", ["0.6", "0.3"])
    def test_only_swept_points_validated(self, lo, tmp_path, capsys):
        # the flags' r2 = 0.5 is below t2 = 0.6, but no written point has it;
        # a swept point that is invalid is named in the error
        rc = run(["curve", "--scheme", "hk", "--t2", "0.6",
                  "--sweep", f"r2:{lo}:1:0.1", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        if lo == "0.6":
            assert rc == 0, err
            assert [row["r2"] for row in read_csv(tmp_path / "x.csv")] == \
                ["0.6", "0.7", "0.8", "0.9", "1"]
        else:
            assert rc == 1
            assert "error: t2 exceeds r2 at r2=0.3\n" in err

    def test_coop_requires_two_rounds(self, tmp_path, capsys):
        rc = run(["curve", "--scheme", "coop-dd", "--L", "3",
                  "--sweep", "r1:0:1:0.5", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "require L=2" in capsys.readouterr().err

    def test_hk_stop_large_b(self, tmp_path):
        # past max(1, beta) = 1 every b term of the closed forms is 0, so
        # b = 1e20 gives the exponents of b = 1
        d1 = {}
        for b in ("1", "1e20"):
            out = tmp_path / f"b{b}.csv"
            rc = run(["curve", "--scheme", "hk-stop,hk", "--L", "2", "--r2", "0.5",
                      "--t2", "0.2", "--b", b, "--sweep", "r1:0:1:0.5",
                      "--out", str(out)])
            assert rc == 0
            d1[b] = [(row["scheme"], row["d1"]) for row in read_csv(out)]
        assert d1["1e20"] == d1["1"]
        assert [v for s, v in d1["1e20"] if s == "hk-stop"] == ["0.9995", "0.75", "0.5"]

    @pytest.mark.parametrize("beta", ["1e100", "1e308"])
    def test_hk_stop_beta_above_ceiling(self, beta, tmp_path, capsys):
        # the oracle's beta ceiling does not bind the closed form, which
        # evaluates a huge beta without overflow warnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["curve", "--scheme", "hk-stop", "--L", "2", "--beta", beta,
                      "--sweep", "r1:0.5:0.5:0.1", "--out", str(tmp_path / "x.csv")])
        assert rc == 0
        assert not caught and "Warning" not in capsys.readouterr().err
        [row] = read_csv(tmp_path / "x.csv")
        p = SystemParams(r1=0.5, r2=0.5, beta=float(beta), L=2)
        assert row["d1"] == f"{analytic.d1_hk_stop(p)[0]:.12g}"
        assert_numeric_cells_finite(tmp_path / "x.csv")

    # one sweep per variable from r1 .25, r2 .5, t2 .25, b .1, beta .8; the
    # b sweep passes the hk-stop jump r1 + t2 = L*b at b = .25, and the
    # beta sweep at r1 = -0.0 writes that cell as -0
    @pytest.mark.parametrize("r1,sweep", [
        ("0.25", "r1:0:1:0.05"),
        ("0.25", "r2:0.25:1:0.05"),
        ("0.25", "t2:0:0.5:0.05"),
        ("0.25", "b:0:0.5:0.125"),
        ("0.25", "beta:0:2:0.1"),
        ("-0.0", "beta:0:2:0.25"),
    ], ids=["r1", "r2", "t2", "b", "beta", "r1=-0"])
    def test_matches_plain_row_writer(self, r1, sweep, tmp_path, written):
        # every scheme at L 2, against the plain writer: scheme_dmt per row
        # and .12g on every float cell of it
        out = tmp_path / "c.csv"
        schemes = [s.value for s in core.SchemeId]
        rc = run(["curve", "--scheme", ",".join(schemes), "--L", "2",
                  "--r1", r1, "--r2", "0.5", "--t2", "0.25", "--b", "0.1",
                  "--beta", "0.8", "--sweep", sweep, "--out", str(out)])
        assert rc == 0
        assert_one_entry_per_row(written, out)

        var, values = cli._parse_sweep(sweep)
        base = SystemParams(r1=float(r1), r2=0.5, t2=0.25, b=0.1, beta=0.8, L=2)
        rows = []
        for s in schemes:
            for v in values:
                p = SystemParams(**{**vars(base), var: v})
                (d1, d1_label), (d2, d2_label) = analytic.scheme_dmt(s, p)
                rows.append([s, p.L, p.r1, p.r2, p.t2, p.b, p.beta, d1, d2,
                             "analytic", f"d1:{d1_label}|d2:{d2_label}"])
        assert out.read_text(encoding="utf-8") == plain_csv(
            ["scheme", "L", "r1", "r2", "t2", "b", "beta", "d1", "d2", "source",
             "branch"], rows)
        if r1 == "-0.0":
            assert {row["r1"] for row in read_csv(out)} == {"-0"}

    def test_branch_with_comma_reads_back(self, tmp_path):
        # hk's labels name the ACK round after a comma, so the cell is quoted
        out = tmp_path / "hk.csv"
        rc = run(["curve", "--scheme", "hk", "--L", "2", "--sweep", "r1:0:1:0.5",
                  "--out", str(out)])
        assert rc == 0
        [row] = [row for row in read_csv(out) if row["r1"] == "0.001"]
        assert row["branch"] == "d1:i=2,d11:tail|d2:total"
        assert ',"d1:i=2,d11:tail|d2:total"\n' in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("label,cell", [
        ("d1:own|d2:total", "d1:own|d2:total"),
        ("d1:i=2,d11:tail|d2:total", '"d1:i=2,d11:tail|d2:total"'),
        ('d1:"own"|d2:total', '"d1:""own""|d2:total"'),
        ("d1:own\n|d2:total", '"d1:own\n|d2:total"'),
    ], ids=["plain", "comma", "quote", "newline"])
    def test_csv_cell_matches_csv_writer(self, label, cell):
        ref = io.StringIO()
        csv.writer(ref, lineterminator="\n").writerow(["x", label, "y"])
        assert ref.getvalue() == f"x,{cell},y\n"
        assert cli._csv_cell(label) == cell

    def test_bad_sweep_variable(self, tmp_path):
        rc = run(["curve", "--scheme", "cmo", "--sweep", "L:1:4:1",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_unwritable_path(self):
        rc = run(["curve", "--scheme", "cmo", "--sweep", "r1:0:1:0.5",
                  "--out", "/nonexistent-dir/x.csv"])
        assert rc == 1


class TestVerify:
    def test_small_pass(self, capsys):
        rc = run(["verify", "--samples", "2", "--seed", "7",
                  "--scheme", "cmo,hk"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheme=cmo" in out and "scheme=hk" in out
        # every scheme line names its worst check and parameter point
        lines = [ln for ln in out.splitlines() if ln.startswith("scheme=")]
        assert len(lines) == 2
        for line in lines:
            assert "  worst: d" in line and "@{'r1': " in line, line

    def test_zero_samples_vacuous(self, capsys):
        # a sweep over no samples checks nothing, so it may not report ok
        rc = run(["verify", "--samples", "0"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "samples must be >= 1" in err
        assert out == ""

    def test_impossible_tolerance_fails(self, capsys, monkeypatch):
        # a closed form off by more than --tol fails the sweep
        d1_cmo = analytic.d1_cmo

        def off(p):
            value, label = d1_cmo(p)
            return value + 1e-3, label
        monkeypatch.setattr(analytic, "d1_cmo", off)
        rc = run(["verify", "--samples", "2", "--seed", "7",
                  "--scheme", "cmo", "--tol", "1e-9"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("scheme,d1,d12", [
        ("coop-cmo", "d1c_cmo2", "d12c_cmo2"),
        ("coop-dd", "d1c_dd2", "d12c_dd2"),
    ])
    def test_cooperative_d1_minimum_checked(self, scheme, d1, d12, monkeypatch,
                                            capsys):
        # a planted min -> max in the scheme-level d1 leaves both pieces
        # right, so only the check of the minimum itself can catch it
        d11c, d12c = analytic.d11c_cmo2, getattr(analytic, d12)
        monkeypatch.setattr(analytic, d1, lambda r1, r2, beta:
                            max(d11c(r1, beta), d12c(r1, r2, beta), key=itemgetter(0)))
        rc = run(["verify", "--samples", "20", "--seed", "7", "--scheme", scheme])
        assert rc == 2
        assert f"FAIL  worst: {d1}@" in capsys.readouterr().out

    def test_matches_plain_row_writer(self, tmp_path, written):
        # --tol 0 fails a scheme whose worst gap is not exactly 0
        out = tmp_path / "v.csv"
        schemes = ["cmo", "hk", "tian"]
        rc = run(["verify", "--samples", "2", "--seed", "7", "--tol", "0",
                  "--scheme", ",".join(schemes), "--out", str(out)])
        assert_one_entry_per_row(written, out)

        rng = np.random.default_rng(7)
        rows = []
        for s in schemes:
            worst, _ = worst_gap(core.SchemeId(s), 2, rng)
            rows.append([s, 2, worst, 0.0, "ok" if worst <= 0.0 else "FAIL"])
        assert rc == (2 if any(row[-1] == "FAIL" for row in rows) else 0)
        assert out.read_text(encoding="utf-8") == plain_csv(
            ["scheme", "samples", "max_abs_gap", "tol", "status"], rows)

    def test_report_file(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = run(["verify", "--samples", "2", "--seed", "7",
                  "--scheme", "tian", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0]["scheme"] == "tian"
        assert rows[0]["status"] == "ok"
        assert float(rows[0]["tol"]) == 1e-12


class TestSimulate:
    def test_tiny_run_no_crash(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = run(["simulate", "--scheme", "cmo", "--L", "1",
                  "--r1", "0.2", "--r2", "0.2", "--beta", "0.5",
                  "--rho-db", "15:25:5", "--trials", "10", "--seed", "1",
                  "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert [r["row"] for r in rows] == ["point"] * 3 + ["summary"]
        assert_numeric_cells_finite(out)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--scheme", "hk", "--L", "2", "--r1", "0.3",
                "--r2", "0.4", "--t2", "0.2", "--b", "0.1", "--beta", "0.8",
                "--rho-db", "10:20:5", "--trials", "5000", "--seed", "9"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matches_plain_row_writer(self, tmp_path, written):
        # every simulatable scheme; the summary row ends with the scheme's
        # closed-form d1 and d2.  For hk, RX2 sees no outage at 45 dB, so
        # its fit has two points and its stderr cell stays empty
        p = SystemParams(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        sim = simulator.SimConfig(rho_db_grid=(5.0, 25.0, 45.0), trials=2000,
                                  seed=3)
        for scheme in SIMULATED:
            out = tmp_path / f"{scheme}.csv"
            written.clear()
            rc = run(["simulate", "--scheme", scheme, "--L", "2", "--r1", "0.3",
                      "--r2", "0.4", "--t2", "0.2", "--b", "0.1", "--beta", "0.8",
                      "--rho-db", "5:45:20", "--trials", "2000", "--seed", "3",
                      "--out", str(out)])
            assert rc == 0
            assert_one_entry_per_row(written, out)

            fit1, fit2 = simulator.estimate_diversity(scheme, p, sim)
            rows = [["point", scheme, a.rho_db, a.p_out, (a.ci_hi - a.ci_lo) / 2.0,
                     b.p_out, (b.ci_hi - b.ci_lo) / 2.0, 2000, "", "", "", "", "",
                     ""]
                    for a, b in zip(fit1.points, fit2.points)]
            fits = [x if x is not None and math.isfinite(x) else ""
                    for x in (fit1.slope, fit1.stderr, fit2.slope, fit2.stderr)]
            (d1, _), (d2, _) = analytic.scheme_dmt(scheme, p)
            rows.append(["summary", scheme, "", "", "", "", "", "", *fits, d1, d2])
            if scheme == "hk":
                assert fits[-1] == ""
            assert out.read_text(encoding="utf-8") == plain_csv(
                ["row", "scheme", "rho_db", "p_out1", "ci1", "p_out2", "ci2",
                 "trials", "slope1", "stderr1", "slope2", "stderr2", "analytic_d1",
                 "analytic_d2"], rows), scheme

    def test_invalid_scheme_lists_valid_ones(self, capsys):
        rc = run(["simulate", "--scheme", "bogus", "--out", "/tmp/x.csv"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "valid schemes" in err and "coop-dd" in err

    def test_coop_round_error_matches_curve(self, tmp_path, capsys):
        errs = []
        for argv in (["simulate", "--rho-db", "10"], ["curve"]):
            rc = run(argv + ["--scheme", "coop-dd", "--L", "1",
                             "--out", str(tmp_path / "x.csv")])
            assert rc == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert "require L=2 (scheme coop-dd)" in errs[0]

    def test_summary_carries_analytic_reference(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = run(["simulate", "--scheme", "cmo", "--L", "1",
                  "--r1", "0.2", "--r2", "0.2", "--beta", "0.5",
                  "--rho-db", "15:25:5", "--trials", "2000", "--seed", "1",
                  "--out", str(out)])
        assert rc == 0
        summary = read_csv(out)[-1]
        assert float(summary["analytic_d1"]) == pytest.approx(0.7)
        assert float(summary["analytic_d2"]) == pytest.approx(0.8)


class TestThroughput:
    def test_single_round_ratios_exactly_one(self, tmp_path):
        out = tmp_path / "tp.csv"
        rc = run(["throughput", "--scheme", "cmo", "--L", "1",
                  "--r1", "0.3", "--r2", "0.3", "--rho-db", "20",
                  "--trials", "2000", "--seed", "2", "--out", str(out)])
        assert rc == 0
        row = read_csv(out)[0]
        assert float(row["ratio1"]) == 1.0
        assert float(row["ratio2"]) == 1.0
        assert float(row["mean_zeta"]) == 1.0

    def test_matches_plain_row_writer(self, tmp_path, written):
        out = tmp_path / "tp.csv"
        rc = run(["throughput", "--scheme", "tian", "--L", "3", "--r1", "0.3",
                  "--r2", "0.4", "--beta", "0.8", "--rho-db", "10:30:10",
                  "--trials", "2000", "--seed", "4", "--out", str(out)])
        assert rc == 0
        assert_one_entry_per_row(written, out)

        p = SystemParams(r1=0.3, r2=0.4, beta=0.8, L=3)
        sim = simulator.SimConfig(rho_db_grid=(10.0, 20.0, 30.0), trials=2000,
                                  seed=4)
        rows = []
        for k, db, rho in sim.points():
            est = simulator.estimate_throughput("tian", p, rho, 2000, 4, stream=k)
            rows.append(["tian", db, est.eta1, est.eta2, est.ratio1, est.ratio2,
                         est.mean_zeta])
        assert out.read_text(encoding="utf-8") == plain_csv(
            ["scheme", "rho_db", "eta1", "eta2", "ratio1", "ratio2", "mean_zeta"],
            rows)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["throughput", "--scheme", "hk", "--L", "2", "--r1", "0.3",
                "--r2", "0.3", "--t2", "0.1", "--b", "0.1", "--beta", "0.8",
                "--rho-db", "30", "--trials", "20000", "--seed", "5"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_config_loads_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# demo configuration\n"
            "scheme = cmo\n"
            "L = 2\n"
            "r1 = 0.4\n"
            "r2 = 0.6   # inline comment\n"
            "sweep = r1:0.2:0.4:0.1\n"
        )
        out = tmp_path / "c.csv"
        rc = run(["curve", "--config", str(cfg), "--r2", "0.9",
                  "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert rows[0]["scheme"] == "cmo"
        assert float(rows[0]["L"]) == 2
        assert float(rows[0]["r2"]) == 0.9  # flag beats file

    def test_flag_before_config_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = cmo\nr2 = 0.6\nsweep = r1:0.5:0.5:0.1\n")
        out = tmp_path / "c.csv"
        assert run(["curve", "--r2", "0.9", "--config", str(cfg),
                    "--out", str(out)]) == 0
        assert [(r["scheme"], r["r2"]) for r in read_csv(out)] == [("cmo", "0.9")]

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        rc = run(["curve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("line", ["func = 1", "command = verify",
                                      "config = other.cfg"])
    def test_only_flag_names_are_keys(self, line, tmp_path, capsys):
        # namespace entries that are not the subcommand's flags are refused,
        # and so is --config, which a file cannot set for itself
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        rc = run(["curve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "unknown config key" in err
        assert "Traceback" not in err

    def test_round_length_is_not_a_key(self, tmp_path, capsys):
        # the relay's listening round is fixed at 1000 symbols
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("T = 1000\n")
        rc = run(["simulate", "--scheme", "coop-dd", "--L", "2", "--config", str(cfg),
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "unknown config key 'T'" in capsys.readouterr().err

    def test_keys_are_the_subcommands_flags(self, tmp_path):
        # simulate's flags load (dashes may stand for underscores); curve
        # has no --trials, so the same file is refused there
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 20\nrho-db = 20:30:10\nseed = 3\n")
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        points = [r for r in read_csv(out) if r["row"] == "point"]
        assert [(r["rho_db"], r["trials"]) for r in points] == [("20", "20"), ("30", "20")]
        assert run(["curve", "--config", str(cfg), "--out", str(out)]) == 1

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        rc = run(["curve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestSharedParser:
    # main() parses every call with one parser per process; a --config
    # call passes the file's flags as arguments, so they never reach a
    # later call

    def test_terminal_size_read_once(self, monkeypatch):
        # argparse's own formatter reads the terminal size for every flag
        # added; the parser reads it once, and every help text is as
        # argparse's own formatter prints it at that size
        calls = []
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a)
                            or os.terminal_size((70, 24)))
        parser = cli.build_parser()
        assert len(calls) == 1
        for command in (parser, *parser.commands.values()):
            text = command.format_help()
            command.formatter_class = argparse.HelpFormatter
            assert command.format_help() == text
        assert len(calls) == 1 + 1 + len(parser.commands)

    def test_curve_config_does_not_leak(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = cmo\nr2 = 0.6\n")
        argv = ["curve", "--sweep", "r1:0.5:0.5:0.1", "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(argv + [str(a), "--config", str(cfg)]) == 0
        assert [(r["scheme"], r["r2"]) for r in read_csv(a)] == [("cmo", "0.6")]
        assert run(argv + [str(b)]) == 0
        assert [(r["scheme"], r["r2"]) for r in read_csv(b)] == [
            ("hk", "0.5"), ("cmo", "0.5"), ("tian", "0.5")]

    def test_simulate_config_does_not_leak(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 20\n")
        argv = ["simulate", "--rho-db", "20", "--out", str(tmp_path / "s.csv")]
        assert run(argv + ["--config", str(cfg)]) == 0
        assert read_csv(tmp_path / "s.csv")[0]["trials"] == "20"
        assert run(argv) == 0
        assert read_csv(tmp_path / "s.csv")[0]["trials"] == "10000"

    def test_parser_built_once(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._shared_parser.cache_clear()
        try:
            out = str(tmp_path / "c.csv")
            for argv in (["curve", "--sweep", "r1:0.5:0.5:0.1", "--out", out],
                         ["curve", "--scheme", "bogus", "--out", out],
                         ["verify", "--samples", "1", "--scheme", "cmo"],
                         ["curve", "--scheme", "cmo", "--out", out]):
                assert run(argv) in (0, 1)
            assert len(built) == 1
            cfg = tmp_path / "run.cfg"
            cfg.write_text("scheme = cmo\n")
            assert run(["curve", "--config", str(cfg), "--out", out]) == 0
            assert len(built) == 1  # the config call reuses it too
        finally:
            cli._shared_parser.cache_clear()
        assert build() is not build()  # the public builder stays fresh

    @pytest.mark.parametrize("command,owner,work", [
        ("simulate", simulator, "estimate_diversity"),
        ("throughput", simulator, "estimate_throughput"),
        ("curve", analytic, "scheme_curve"),
    ], ids=["simulate", "throughput", "curve"])
    def test_missing_out_fails_before_work(self, command, owner, work,
                                           monkeypatch, capsys):
        def reached(*args, **kwargs):
            raise AssertionError(f"{work} ran without --out")
        monkeypatch.setattr(owner, work, reached)
        assert run([command, "--scheme", "cmo"]) == 1
        assert "--out PATH is required" in capsys.readouterr().err


class TestAnalyticBinding:
    """``cli.analytic`` is the binding the bench tracer reads and rebinds to
    a proxy, so its reads and the calls made through it are pinned here."""

    def test_reads_the_closed_forms(self):
        assert cli.analytic is analytic
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(cli, "no_such_name")

    def test_commands_call_through_the_binding(self, monkeypatch, tmp_path):
        calls = []

        class StandIn:  # the tracer's proxy, reduced to a call log
            def __getattr__(self, name):
                form = getattr(analytic, name)
                return lambda *args: calls.append(name) or form(*args)

        monkeypatch.setattr(cli, "analytic", StandIn())
        out = str(tmp_path / "x.csv")
        assert run(["curve", "--scheme", "hk,cmo,coop-dd", "--L", "2",
                    "--sweep", "r1:0.1:0.5:0.2", "--out", out]) == 0
        assert calls == ["scheme_curve"] * 3
        calls.clear()
        assert run(["simulate", "--rho-db", "10:15:5", "--trials", "1000",
                    "--out", out]) == 0
        assert calls == ["scheme_dmt"]


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["curve", "--beta", "inf"],
        ["simulate", "--scheme", "hk", "--b", "inf"],
        ["simulate", "--rho-db", "0:inf:1"],
        ["simulate", "--rho-db", "nan"],
        ["throughput", "--rho-db", "4000"],
        ["simulate", "--scheme", "hk", "--b", "100", "--rho-db", "40"],
        ["simulate", "--beta", "400", "--rho-db", "40"],
        ["simulate", "--scheme", "hk", "--L", "2", "--r1", ".3", "--r2", ".3",
         "--t2", ".1", "--b", ".1", "--beta", "1", "--rho-db", "3080"],
        ["verify", "--samples", "-1"],
        ["verify", "--samples", "1", "--tol", "nan"],
        ["verify", "--samples", "1", "--tol", "inf"],
        ["verify", "--samples", "1", "--tol", "-1"],
        ["curve", "--config", "/nonexistent-dir/run.cfg"],
        pytest.param(["simulate", "--scheme", "coop-dd", "--L", "2", "--rho-db", "20",
                      "--trials", "100", "--T", "1" + "0" * 400],
                     id="simulate --scheme coop-dd --T 10**400"),
        # an L past the largest float, which the closed forms cannot mix with floats
        pytest.param(["curve", "--scheme", "cmo", "--L", "1" + "0" * 400,
                      "--sweep", "r1:0:1:0.5"], id="curve --scheme cmo --L 10**400"),
        pytest.param(["simulate", "--scheme", "cmo", "--L", "1" + "0" * 400],
                     id="simulate --scheme cmo --L 10**400"),
    ], ids=" ".join)
    def test_validation_error(self, argv, tmp_path, capsys):
        rc = run(argv + ["--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,command,message", [
        ("trials = abc\n", "simulate", "bad.cfg:1: trials expects an int, got 'abc'"),
        ("# rates\nr1 = half\n", "curve", "bad.cfg:2: r1 expects a float, got 'half'"),
    ])
    def test_config_value_names_file_line_and_key(self, text, command, message,
                                                   tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        rc = run([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert message in err

    @pytest.mark.parametrize("argv,message", [
        pytest.param(argv, message, id=argv) for argv, message in [
            ("simulate --rho-db 1:2", "--rho-db expects LO:HI:STEP"),
            ("curve --sweep r1:1:0:0.1", "--sweep: HI must be >= LO"),
            ("curve --sweep r1:0:1:0", "--sweep: STEP must be > 0"),
            ("curve --sweep r1:0:1", "--sweep expects VAR:LO:HI:STEP"),
            ("curve --scheme cmo --sweep r1:a:1:0.1",
             "--sweep: values must be numbers, got 'a:1:0.1'"),
            ("throughput --rho-db x", "--rho-db: values must be numbers, got 'x'"),
            ("curve --t2 -0.1", "t2 must be >= 0"),
            ("verify --samples 1 --scheme coop-static",
             "scheme coop-static has no verify checks"),
        ]])
    def test_validation_error_names_bound(self, argv, message, tmp_path, capsys):
        rc = run(argv.split() + ["--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {message}" in err
        assert "Traceback" not in err

    # the Monte Carlo key holds 64 bits of the seed, so 7, 2**64 + 7 and
    # 7 - 2**64 would run the same trials; verify refuses the same range
    @pytest.mark.parametrize("argv", [
        pytest.param(argv, id=" ".join(argv).replace(str(seed), name))
        for seed, name in ((-1, "-1"), (2**64 + 7, "2**64+7"), (7 - 2**64, "7-2**64"),
                           (2**64, "2**64"))
        for argv in (["simulate", "--trials", "10", "--rho-db", "20", f"--seed={seed}"],
                     ["throughput", "--trials", "10", "--rho-db", "20", f"--seed={seed}"],
                     ["verify", "--samples", "1", f"--seed={seed}"])])
    def test_seed_outside_64_bits(self, argv, tmp_path, capsys):
        rc = run(argv + ["--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: --seed must be an integer in [0, 2**64)" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "throughput", "verify"])
    def test_seed_outside_64_bits_in_config(self, command, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {2**64 + 7}\n")
        rc = run([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error: --seed must be an integer in [0, 2**64)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,scheme", [
        pytest.param(argv, scheme, id=" ".join(argv)) for argv, scheme in [
            (["curve", "--scheme", "cmo,cmo"], "cmo"),
            (["curve", "--scheme", "hk,tian, hk", "--L", "2"], "hk"),
            (["verify", "--scheme", "hk,hk", "--samples", "3", "--seed", "7"], "hk"),
            (["verify", "--scheme", "cmo,coop-dd,cmo,coop-dd", "--samples", "1"], "cmo"),
        ]])
    def test_repeated_scheme(self, argv, scheme, tmp_path, capsys):
        # a table keyed by scheme gets one row per scheme and point: a
        # repeated curve scheme wrote each row twice, and a repeated verify
        # scheme two rows with different gaps, one per share of the draws
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert f"error: --scheme names {scheme} more than once" in err
        assert stdout == ""
        assert not out.exists()

    def test_grid_point_cap(self):
        # refused from the counts alone, before any point is built
        with pytest.raises(ParameterError, match="grid points"):
            _parse_triplet("1:2:1e-6", "--rho-db")


# Fuzzed argv: numbers mix plausible values with non-finite and extreme
# ones; trials, samples and grid sizes stay small so each call is quick.
_NUM = st.one_of(st.floats(0.0, 2.0).map(str), st.floats().map(repr),
                 st.sampled_from(["0", "1", "-1", "400", "1e308", "nan", "inf"]))
_SCHEME = st.sampled_from(["cmo", "hk", "tian", "hk-keep", "hk-stop",
                           "coop-cmo", "coop-tian", "coop-dd", "coop-static",
                           "bogus"])
_SCHEMES = st.lists(_SCHEME, min_size=1, max_size=3).map(",".join)


def _triplet(lo, step):
    return st.builds(lambda a, n, d: f"{a}:{a + n * d}:{d}",
                     lo, st.integers(0, 19), step)


_RHO_DB = st.one_of(_NUM, _triplet(st.floats(-5.0, 60.0), st.floats(0.5, 10.0)),
                    st.sampled_from(["0:inf:1", "10:20:0", "20:10:5", "1:2",
                                     "a:b:c", "4000", "10:20:nan"]))
_SWEEP = st.builds(lambda var, rest: f"{var}:{rest}",
                   st.sampled_from(SWEEP_VARS + ("L",)),
                   st.one_of(_triplet(st.floats(-0.5, 2.0), st.floats(0.05, 1.0)),
                             st.sampled_from(["0:inf:1", "0:1:0", "nan:1:1"])))
_COMMON = {"--L": st.integers(-1, 5).map(str), "--r1": _NUM, "--r2": _NUM,
           "--t2": _NUM, "--b": _NUM, "--beta": _NUM}
_SIM = {"--scheme": _SCHEME, "--rho-db": _RHO_DB,
        "--seed": st.integers(-3, 2**66).map(str), **_COMMON}
_ARGV = st.one_of(
    st.tuples(st.just("curve"),
              st.fixed_dictionaries({"--sweep": _SWEEP},
                                    optional={"--scheme": _SCHEMES, **_COMMON})),
    st.tuples(st.just("verify"),
              st.fixed_dictionaries({"--samples": st.integers(-3, 1).map(str)},
                                    optional={"--scheme": _SCHEMES, "--tol": _NUM,
                                              "--seed": st.integers(-3, 2**66).map(str)})),
    *(st.tuples(st.just(cmd),
                st.fixed_dictionaries({"--trials": st.integers(-2, 2000).map(str)},
                                      optional=_SIM))
      for cmd in ("simulate", "throughput")),
)


@settings(max_examples=60, deadline=None)
@given(cmd_flags=_ARGV)
def test_fuzz_main_exit_codes(cmd_flags, tmp_path_factory):
    cmd, flags = cmd_flags
    argv = [cmd, *(tok for kv in flags.items() for tok in kv),
            "--out", str(tmp_path_factory.getbasetemp() / "fuzz.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


# Every curve CSV of the golden grid below, concatenated in order, hashes to
# CURVE_GOLDEN: the closed forms' values and branch labels, recorded before
# the closed forms' internals and ACK-round search were rewritten.
GOLDEN_BASES = (
    ["--r1", "0.25", "--r2", "0.5", "--t2", "0.25", "--b", "0.1", "--beta", "0.8"],
    ["--r1", "0.4", "--r2", "0.9", "--t2", "0.3", "--b", "0.35", "--beta", "1.6"],
)
GOLDEN_SWEEPS = ("r1:0:1:0.025", "r2:0.3:1:0.025", "t2:0:0.5:0.025",
                 "b:0:1:0.025", "beta:0:2.5:0.05")
CURVE_GOLDEN = "8a5ffa8822dbbae3eeaa950df356b2400138c56fcbcee1e3d7768c701400bc9b"


def test_curve_golden(tmp_path):
    # all nine schemes at L 2, the non-cooperative ones at L 1, 3, 5 and 8
    digest = hashlib.sha256()
    out = tmp_path / "g.csv"
    for L in (1, 2, 3, 5, 8):
        schemes = [s.value for s in core.SchemeId
                   if L == 2 or s not in core.COOP_SCHEMES]
        for base in GOLDEN_BASES:
            for sweep in GOLDEN_SWEEPS:
                rc = run(["curve", "--scheme", ",".join(schemes), "--L", str(L),
                          *base, "--sweep", sweep, "--out", str(out)])
                assert rc == 0, (L, base, sweep)
                digest.update(out.read_bytes())
    assert digest.hexdigest() == CURVE_GOLDEN


# The stdout and --out CSV of verify at seeds 7 and 11, all eight schemes,
# concatenated in order, hash to VERIFY_GOLDEN: every worst gap and the
# point where it occurred, recorded before the oracle's minimisers were
# stacked per operating point.
VERIFY_GOLDEN = "3cc8daec3838d4807562c196e05e6921d593775d8443acde0ff6381da1fb6411"


def test_verify_golden(tmp_path, capsys):
    digest = hashlib.sha256()
    out = tmp_path / "v.csv"
    for seed in (7, 11):
        rc = run(["verify", "--samples", "40", "--tol", "1e-9", "--seed", str(seed),
                  "--out", str(out)])
        assert rc == 0, seed
        digest.update(capsys.readouterr().out.encode())
        digest.update(out.read_bytes())
    assert digest.hexdigest() == VERIFY_GOLDEN
