import contextlib
import csv
import io
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zicarq import analytic, cli, core, simulator
from zicarq.cli import SWEEP_VARS, _parse_triplet, main
from zicarq.core import ParameterError, SystemParams
from zicarq.regions import oracle_d1_hk


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
        d1 = analytic.d1_hk_stop(p)
        assert row["branch"] == f"d1:{d1.label}|d2:{analytic.d2_hk(p).label}"
        assert re.fullmatch(r"i=[12],d1[12]:[a-z-]+", d1.label)
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
                assert row["d1"] == f"{analytic.d1_hk_stop(p):.12g}"
                assert row["d2"] == f"{analytic.d2_hk(p):.12g}"

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
        assert len(built) == 6  # the base point and the five sweep points

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
        assert row["d1"] == f"{analytic.d1_hk_stop(p):.12g}"
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
    def test_matches_plain_row_writer(self, r1, sweep, tmp_path, monkeypatch):
        # every scheme at L 2, against the plain writer: scheme_dmt per row
        # and .12g on every float cell of it
        out = tmp_path / "c.csv"
        written = []
        write_csv = cli._write_csv
        monkeypatch.setattr(cli, "_write_csv", lambda path, header, rows:
                            written.append(rows) or write_csv(path, header, rows))
        schemes = [s.value for s in core.SchemeId]
        rc = run(["curve", "--scheme", ",".join(schemes), "--L", "2",
                  "--r1", r1, "--r2", "0.5", "--t2", "0.25", "--b", "0.1",
                  "--beta", "0.8", "--sweep", sweep, "--out", str(out)])
        assert rc == 0
        # the bench tracer counts rows with len()
        [rows] = written
        assert type(rows) is list

        var, values = cli._parse_sweep(sweep)
        base = SystemParams(r1=float(r1), r2=0.5, t2=0.25, b=0.1, beta=0.8, L=2)
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(["scheme", "L", "r1", "r2", "t2", "b", "beta", "d1", "d2",
                         "source", "branch"])
        for s in schemes:
            for v in values:
                p = SystemParams(**{**vars(base), var: v})
                d1, d2 = analytic.scheme_dmt(s, p)
                row = [s, p.L, p.r1, p.r2, p.t2, p.b, p.beta, d1, d2, "analytic",
                       f"d1:{d1.label}|d2:{d2.label}"]
                writer.writerow([f"{c:.12g}" if isinstance(c, float) else c
                                 for c in row])
        assert out.read_text(encoding="utf-8") == ref.getvalue()
        if r1 == "-0.0":
            assert {row["r1"] for row in read_csv(out)} == {"-0"}

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
        monkeypatch.setattr(analytic, "d1_cmo", lambda p: d1_cmo(p) + 1e-3)
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
                            max(d11c(r1, beta), d12c(r1, r2, beta)))
        rc = run(["verify", "--samples", "20", "--seed", "7", "--scheme", scheme])
        assert rc == 2
        assert f"FAIL  worst: {d1}@" in capsys.readouterr().out

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
        ("curve", analytic, "scheme_dmt"),
    ], ids=["simulate", "throughput", "curve"])
    def test_missing_out_fails_before_work(self, command, owner, work,
                                           monkeypatch, capsys):
        def reached(*args, **kwargs):
            raise AssertionError(f"{work} ran without --out")
        monkeypatch.setattr(owner, work, reached)
        assert run([command, "--scheme", "cmo"]) == 1
        assert "--out PATH is required" in capsys.readouterr().err


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
            ("curve --t2 -0.1", "t2 must be >= 0"),
        ]])
    def test_validation_error_names_bound(self, argv, message, tmp_path, capsys):
        rc = run(argv.split() + ["--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {message}" in err
        assert "Traceback" not in err

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
