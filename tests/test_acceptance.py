"""Acceptance suite: one test per release criterion, each printing a
PASS line on success (run with ``pytest -s`` to see them).

Criterion 7's rate-splitting case at the stated operating point cannot
reach the required throughput ratio.  There the round-1 joint-rate test
at RX1 has exponent 0, since r1 + t2 + beta - b = 1.1 > 1, so its failure
probability does not vanish with SNR (0.50 at 30 dB, 0.94 at 120 dB).
The expected renewal time tends to 2, and the ratio falls from 0.663 at
30 dB toward 1/2, so no SNR reaches the demanded 0.9.  The test encodes
the criterion verbatim and is marked strict-xfail.
"""

import math

import numpy as np
import pytest

from zicarq import analytic, regions
from zicarq.analytic import (
    SchemeId,
    d1_cmo,
    d1_hk,
    d1_hk_keep,
    d1_hk_stop,
    d1_tian,
    d1_tian_general,
    d1c_cmo2,
    d1c_dd2,
    d1c_tian2,
    d2_cmo,
    d2_hk,
    d2_tian,
    d2c_cmo2,
    d2c_dd2,
    d2c_tian2,
    d_static_overall,
)
from zicarq.cli import main
from zicarq.core import SystemParams
from zicarq.regions import oracle_d1_hk, region_o12_hk
from zicarq.simulator import SimConfig, estimate_diversity, estimate_throughput
from zicarq.verify import sample_params


def P(**kw):
    return SystemParams(**kw)


def test_criterion_1_oracle_agreement():
    """Randomized analytic-vs-oracle sweep, 500 tuples per scheme."""
    rc = main(["verify", "--samples", "500", "--seed", "7"])
    assert rc == 0
    print("ACCEPTANCE 1 oracle agreement (500/scheme, default tol 1e-12): PASS")


def test_criterion_2_special_case_identity():
    """Rate splitting with t2 = b = 0 collapses onto the private-only
    scheme, and with the second user unloaded (r2 = 0, the value of r2
    being otherwise irrelevant to the closed form) the single-term
    private-only expression is exact."""
    worst = 0.0
    for r1 in np.linspace(0.0, 1.0, 50):
        for beta in np.linspace(0.0, 2.0, 50):
            for L in (1, 2, 3, 4, 5):
                p = P(r1=float(r1), r2=0.0, t2=0.0, b=0.0, beta=float(beta), L=L)
                a = d1_hk(p)[0]
                g = d1_tian_general(p)[0]
                c = d1_tian(p)[0]
                worst = max(worst, abs(a - g), abs(g - c))
    assert worst <= 1e-12, f"identity violated by {worst}"
    print(f"ACCEPTANCE 2 special-case identity (50x50x5 grid, max gap "
          f"{worst:.2e} <= 1e-12): PASS")


def test_criterion_3_policy_dominance():
    """Sending the common stream only after TX2's ACK beats both keeping
    and stopping everything, and the corresponding rate regions nest."""
    rng = np.random.default_rng(37)
    for _ in range(200):
        p = sample_params(rng, SchemeId.HK)
        lhs = d1_hk(p)[0]
        rhs = max(d1_hk_keep(p)[0], d1_hk_stop(p)[0], oracle_d1_hk(p, stop=True))
        assert lhs >= rhs - 1e-12, f"policy dominance violated at {p}"

    # Per ACK round i, O12_HK(i) lies within O12_STOP(i): the mixed tail
    # max((1-g11)+, (beta-g21)+) is never below the stop tail (1-g11)+.  O11(i)
    # is shared, so a point either policy decodes at round i is decoded by
    # the mixed policy at round i.
    for k in range(20):
        p = sample_params(rng, SchemeId.HK)
        g11, g21 = np.random.default_rng(1000 + k).uniform(
            0.0, regions._cap(p.beta), (2, 10_000))
        for i in range(1, p.L + 1):
            escape = region_o12_hk(p, i).member(g11, g21) \
                & ~region_o12_hk(p, i, stop=True).member(g11, g21)
            assert not escape.any(), f"O12_HK({i}) not within O12_STOP({i}) at {p}"
    print("ACCEPTANCE 3 policy dominance (200 tuples) and per-round rate-region "
          "containment (20x10k samples): PASS")


def test_criterion_4_cooperation_curves():
    """Behavior of the d1 curves at beta=1.3, r2=0.9, L=2 over r1."""
    beta, r2 = 1.3, 0.9
    sweep = np.concatenate(([0.001], np.linspace(0.01, 1.0, 100)))

    exists_strict = False
    for r1 in sweep:
        r1 = float(r1)
        dd = d1c_dd2(r1, r2, beta)[0]
        assert dd >= d1c_cmo2(r1, r2, beta)[0] - 1e-12
        (static_d1, _), _ = d_static_overall(r1, r2, beta)
        if dd > static_d1 + 1e-3:
            exists_strict = True
    assert exists_strict, "dynamic decoding never beat the static envelope"

    # near-zero rate: cooperation approaches two-branch diversity while
    # every non-cooperative curve stays below 1 + beta/2
    r1 = 0.001
    dd0 = d1c_dd2(r1, r2, beta)[0]
    assert dd0 == pytest.approx(2.0, abs=0.01)
    noncoop = [
        d1_cmo(P(r1=r1, r2=r2, beta=beta, L=2))[0],
        d1_tian(P(r1=r1, r2=r2, beta=beta, L=2))[0],
        d1_tian_general(P(r1=r1, r2=r2, beta=beta, L=2))[0],
        d1_hk(P(r1=r1, r2=r2, t2=0.3, b=0.1, beta=beta, L=2))[0],
        d1_hk(P(r1=r1, r2=r2, t2=0.6, b=0.3, beta=beta, L=2))[0],
    ]
    assert all(v <= 1.0 + beta / 2.0 for v in noncoop)
    print(f"ACCEPTANCE 4 cooperative curves at beta=1.3, r2=0.9 "
          f"(dd(0.001)={dd0:.4f}, noncoop max={max(noncoop):.4f}): PASS")


def test_criterion_5_rx2_cooperation_cost():
    """Relaying costs RX2 at most its retransmission round, and dynamic
    decoding achieves the better static RX2 exponent exactly."""
    for r1 in np.linspace(0.0, 1.0, 26):
        for r2 in np.linspace(0.0, 1.0, 26):
            for beta in (0.2, 0.5, 0.8, 1.0, 1.3, 1.7, 2.0):
                r1f, r2f = float(r1), float(r2)
                base = P(r1=r1f, r2=r2f, beta=beta, L=2)
                assert d2c_cmo2(r1f, r2f, beta)[0] <= d2_cmo(base)[0] + 1e-12
                assert d2c_tian2(r1f, r2f, beta)[0] <= d2_tian(base)[0] + 1e-12
                assert d2c_dd2(r1f, r2f, beta)[0] <= d2_cmo(base)[0] + 1e-12
                assert d2c_dd2(r1f, r2f, beta)[0] == max(
                    d2c_cmo2(r1f, r2f, beta)[0], d2c_tian2(r1f, r2f, beta)[0])
    print("ACCEPTANCE 5 RX2 cooperation cost and dynamic-decoding RX2 "
          "identity (26x26x7 grid): PASS")


def test_criterion_6_monte_carlo_slopes():
    """Empirical log-log slopes against the closed forms."""
    grid = (15, 20, 25, 30, 35)
    p = P(r1=0.2, r2=0.2, beta=0.5, L=1)
    cfg = SimConfig(rho_db_grid=grid, trials=10**6, seed=11)
    d1, d2 = estimate_diversity(SchemeId.CMO, p, cfg)
    assert abs(d1.slope - 0.70) <= 0.15, f"RX1 slope {d1.slope}"
    assert abs(d2.slope - 0.80) <= 0.15, f"RX2 slope {d2.slope}"

    p2 = P(r1=0.2, r2=0.5, beta=0.5, L=2)
    cfg2 = SimConfig(rho_db_grid=grid, trials=10**6, seed=11)
    _, d2b = estimate_diversity(SchemeId.CMO, p2, cfg2)
    assert abs(d2b.slope - 0.75) <= 0.15, f"RX2 slope {d2b.slope}"
    print(f"ACCEPTANCE 6 Monte Carlo slopes (RX1 {d1.slope:.3f}~0.70, "
          f"RX2 {d2.slope:.3f}~0.80, RX2/L2 {d2b.slope:.3f}~0.75): PASS")


def test_criterion_7_throughput_control():
    """Single-round control: no retransmissions, ratios exactly one."""
    p = P(r1=0.3, r2=0.3, t2=0.1, b=0.1, beta=0.8, L=1)
    est = estimate_throughput(SchemeId.HK, p, 10.0**3, 10**5, 5)
    assert est.ratio1 == 1.0 and est.ratio2 == 1.0
    print("ACCEPTANCE 7b throughput L=1 control (ratios exactly 1): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="the round-1 joint-rate test at RX1 has exponent 0, since "
    "r1 + t2 + beta - b = 1.1 > 1: its failure probability does not vanish "
    "but grows with SNR (0.50 at 30 dB, 0.94 at 120 dB), so E[renewal time] "
    "tends to 2 and the ratio falls from 0.663 at 30 dB toward 1/2; the "
    "stated 0.9 target is unreachable at any SNR (see notes)",
)
def test_criterion_7_throughput_as_stated():
    p = P(r1=0.3, r2=0.3, t2=0.1, b=0.1, beta=0.8, L=2)
    est = estimate_throughput(SchemeId.HK, p, 10.0**3, 10**5, 5)
    print(f"ACCEPTANCE 7a throughput at 30 dB: ratio1={est.ratio1:.4f} "
          f"ratio2={est.ratio2:.4f} (target >= 0.9)")
    assert est.ratio1 >= 0.9 and est.ratio2 >= 0.9


def test_criterion_7_throughput_measured_behavior():
    """Regression guard documenting what the stated point actually does."""
    p = P(r1=0.3, r2=0.3, t2=0.1, b=0.1, beta=0.8, L=2)
    est = estimate_throughput(SchemeId.HK, p, 10.0**3, 10**5, 5)
    assert 0.60 <= est.ratio1 <= 0.72
    assert est.ratio1 == est.ratio2
    print(f"ACCEPTANCE 7a' measured ratio at the stated point: "
          f"{est.ratio1:.4f} (documented defect, see notes): RECORDED")


def test_criterion_8_determinism(tmp_path):
    """Equal seeds give byte-identical CSVs for the criterion 6/7 runs."""
    sim_argv = ["simulate", "--scheme", "cmo", "--L", "1", "--r1", "0.2",
                "--r2", "0.2", "--beta", "0.5", "--rho-db", "15:35:5",
                "--trials", "1000000", "--seed", "11"]
    a, b = tmp_path / "sim_a.csv", tmp_path / "sim_b.csv"
    assert main(sim_argv + ["--out", str(a)]) == 0
    assert main(sim_argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    tp_argv = ["throughput", "--scheme", "hk", "--L", "2", "--r1", "0.3",
               "--r2", "0.3", "--t2", "0.1", "--b", "0.1", "--beta", "0.8",
               "--rho-db", "30", "--trials", "100000", "--seed", "5"]
    c, d = tmp_path / "tp_a.csv", tmp_path / "tp_b.csv"
    assert main(tp_argv + ["--out", str(c)]) == 0
    assert main(tp_argv + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    print("ACCEPTANCE 8 determinism (byte-identical CSVs): PASS")
