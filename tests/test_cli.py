import contextlib
import csv
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zicarq.cli import SWEEP_VARS, _parse_triplet, main
from zicarq.core import ParameterError, SystemParams
from zicarq.regions import oracle_d1_hk_stop


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

    def test_hk_stop_from_oracle(self, tmp_path):
        # hk-stop has no closed form: its rows come from the region oracle
        out = tmp_path / "stop.csv"
        rc = run(["curve", "--scheme", "hk-stop", "--L", "2", "--r2", "0.4",
                  "--t2", "0.2", "--b", "0.2", "--beta", "1.2",
                  "--sweep", "r1:0.25:0.25:0.1", "--out", str(out)])
        assert rc == 0
        [row] = read_csv(out)
        assert row["source"] == "oracle"
        assert row["branch"] == "d1_hk_stop:oracle"
        p = SystemParams(r1=0.25, r2=0.4, t2=0.2, b=0.2, beta=1.2, L=2)
        assert float(row["d1"]) == pytest.approx(oracle_d1_hk_stop(p), abs=1e-11)

    @pytest.mark.parametrize("argv,rate", [
        (["--r2", "0", "--sweep", "r1:0:1:0.5"], "r2"),
        (["--r1", "0", "--sweep", "beta:0:2:1"], "r1"),
    ], ids=["r2=0", "r1=0"])
    def test_hk_stop_clamps_unswept_rate(self, argv, rate, tmp_path):
        # the oracle needs both rates active, so hk-stop rows clamp the
        # unswept zero rate as sweeps clamp theirs, and record the clamp
        out = tmp_path / "stop.csv"
        rc = run(["curve", "--scheme", "hk,hk-stop", "--L", "2", *argv,
                  "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 6
        for row in rows:
            expect = 1e-3 if row["scheme"] == "hk-stop" else 0.0
            assert float(row[rate]) == expect

    def test_coop_requires_two_rounds(self, tmp_path, capsys):
        rc = run(["curve", "--scheme", "coop-dd", "--L", "3",
                  "--sweep", "r1:0:1:0.5", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "require L=2" in capsys.readouterr().err

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
        rc = run(["verify", "--samples", "0"])
        assert rc == 0
        assert "vacuous" in capsys.readouterr().out

    def test_impossible_tolerance_fails(self, capsys):
        rc = run(["verify", "--samples", "2", "--seed", "7",
                  "--scheme", "cmo", "--tol", "0"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    def test_report_file(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = run(["verify", "--samples", "2", "--seed", "7",
                  "--scheme", "tian", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0]["scheme"] == "tian"
        assert rows[0]["status"] == "ok"
        assert float(rows[0]["tol"]) == 1e-09


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

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        rc = run(["curve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        rc = run(["curve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["curve", "--beta", "inf"],
        ["simulate", "--scheme", "hk", "--b", "inf"],
        ["simulate", "--rho-db", "0:inf:1"],
        ["simulate", "--rho-db", "nan"],
        ["throughput", "--rho-db", "4000"],
        ["simulate", "--scheme", "hk", "--b", "100", "--rho-db", "40"],
        ["simulate", "--beta", "400", "--rho-db", "40"],
        ["verify", "--samples", "-1"],
        ["verify", "--samples", "1", "--tol", "nan"],
        ["verify", "--samples", "1", "--tol", "inf"],
        ["verify", "--samples", "1", "--tol", "-1"],
        ["curve", "--config", "/nonexistent-dir/run.cfg"],
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
        "--seed": st.integers(-3, 2**66).map(str),
        "--T": st.integers(-1, 3000).map(str), **_COMMON}
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
