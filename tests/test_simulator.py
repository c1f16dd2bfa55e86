import math

import numpy as np
import pytest

from zicarq import simulator
from zicarq.analytic import SchemeId, d1_cmo, d2_cmo
from zicarq.core import ParameterError, SystemParams
from zicarq.simulator import (
    SimConfig,
    _episode_batch,
    _trial_gains,
    estimate_diversity,
    estimate_outage,
    estimate_throughput,
    run_episode,
    wilson_interval,
)


def P(**kw):
    return SystemParams(**kw)


HK_P = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)


class TestRunEpisode:
    def test_huge_gains_no_outage(self):
        # direct and relay links boosted; the interferer stays at unit
        # gain, since joint-decoding constraints are ratio-limited when
        # every gain grows together
        g = (1e12, 1.0, 1e12, 1e12)
        for s in (SchemeId.HK, SchemeId.CMO, SchemeId.TIAN):
            assert run_episode(s, HK_P, 1000.0, g) == (False, False, 1)
        for s in (SchemeId.COOP_CMO, SchemeId.COOP_TIAN, SchemeId.COOP_DD):
            out = run_episode(s, P(r1=0.3, r2=0.4, beta=0.8, L=2), 1000.0, g)
            assert out == (False, False, 1)

    def test_strong_interference_can_pin_the_joint_constraint(self):
        # boosting the interferer alongside the direct link keeps the
        # round-1 sum rate finite, so the episode spills into round 2
        # without producing an error
        g = (1e18, 1e18, 1e18, 1e18)
        assert run_episode(SchemeId.HK, HK_P, 1000.0, g) == (False, False, 2)

    def test_dead_direct_link(self):
        g = (0.0, 1.0, 1.0, 1.0)
        for s in (SchemeId.HK, SchemeId.CMO, SchemeId.TIAN):
            assert run_episode(s, HK_P, 1000.0, g)[0]

    def test_rho_must_exceed_one(self):
        g = (1.0, 1.0, 1.0, 1.0)
        for rho in (0.5, math.nan):
            with pytest.raises(ParameterError, match="rho"):
                run_episode(SchemeId.CMO, HK_P, rho, g)

    def test_coop_requires_two_rounds(self):
        g = (1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError, match="L=2"):
            run_episode(SchemeId.COOP_CMO, P(r1=0.3, r2=0.3, L=3), 100.0, g)

    def test_analysis_only_schemes_rejected(self):
        g = (1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            run_episode(SchemeId.HK_STOP, HK_P, 100.0, g)
        with pytest.raises(ParameterError):
            run_episode(SchemeId.COOP_STATIC, P(r1=0.3, r2=0.3, L=2), 100.0, g)

    def test_zeta_bounds(self):
        for g in _trial_gains(1, 0, 100, 0):
            err1, err2, zeta = run_episode(SchemeId.HK, HK_P, 50.0, g)
            assert 1 <= zeta <= HK_P.L
            # both ACKed strictly before the deadline implies no error
            if zeta < HK_P.L:
                assert not err1 and not err2


class TestProtocolSemantics:
    def test_cmo_keeps_transmitting_after_own_ack(self):
        # RX2 ACKs in round 1; RX1 needs the second joint round, which
        # only succeeds because TX2 keeps sending the same message
        p = P(r1=0.4, r2=0.1, beta=1.0, L=2)
        rho = 1000.0
        lg = math.log2(rho)
        # g11 tiny so own-rate needs 2 rounds; g21 carries the joint rate
        g11 = (2 ** (p.r1 * lg / 2) - 1) / rho * 1.01  # enough for 2 rounds only
        g22 = 10.0
        err1, _, zeta = run_episode(SchemeId.CMO, p, rho, (g11, 1.0, g22, 0.0))
        assert not err1
        assert zeta == 2

    def test_tian_interference_stops_after_rx2_ack(self):
        # huge interference, RX2 done in round 1; round 2 is clean and
        # rescues RX1, which the keep-interfering variants would fail
        p = P(r1=0.3, r2=0.1, beta=1.0, L=2)
        rho = 1000.0
        g21 = 1e6
        assert not run_episode(SchemeId.TIAN, p, rho, (1.0, g21, 100.0, 0.0))[0]

    def test_hk_reduces_to_tian_without_split_constant(self, monkeypatch):
        # with t2 = b = 0 and the finite-SNR power-split constant 1 + rho**b
        # forced to 1, the rate-splitting kernel is the noise-treating kernel
        p = P(r1=0.35, r2=0.45, t2=0.0, b=0.0, beta=0.9, L=3)
        g = _trial_gains(99, 0, 4000, 0)
        power = simulator._power
        monkeypatch.setattr(simulator, "_power", lambda rho, exponent, name:
                            0.0 if name == "b" else power(rho, exponent, name))
        hk = _episode_batch(SchemeId.HK, p, 200.0, g[:, 0], g[:, 1], g[:, 2],
                            g[:, 3], 1000)
        ti = _episode_batch(SchemeId.TIAN, p, 200.0, g[:, 0], g[:, 1],
                            g[:, 2], g[:, 3], 1000)
        for a, b in zip(hk, ti):
            assert np.array_equal(a, b)

    def test_coop_tx2_forfeits_own_retransmission(self):
        # RX1 NACKs round 1, so TX2 relays; RX2 failed its single shot and
        # must be in error even though a second round would have saved it
        p = P(r1=0.9, r2=0.2, beta=0.1, L=2)
        rho = 1000.0
        lg = math.log2(rho)
        g22 = (2 ** (p.r2 * lg) - 1) / rho * 0.9     # fails 1 round, passes 2
        g = (1e-4, 1.0, g22, 100.0)
        assert run_episode(SchemeId.COOP_CMO, p, rho, g)[1]
        # same draw under the non-cooperative protocol recovers in round 2
        assert not run_episode(SchemeId.CMO, p, rho, g)[1]

    def test_dd_errs_only_when_both_static_decoders_err(self):
        p = P(r1=0.4, r2=0.5, beta=0.9, L=2)
        g = _trial_gains(7, 0, 6000, 0)
        args = (g[:, 0], g[:, 1], g[:, 2], g[:, 3], 1000)
        e_cmo = _episode_batch(SchemeId.COOP_CMO, p, 100.0, *args)[0]
        e_tian = _episode_batch(SchemeId.COOP_TIAN, p, 100.0, *args)[0]
        e_dd = _episode_batch(SchemeId.COOP_DD, p, 100.0, *args)[0]
        assert np.array_equal(e_dd, e_cmo & e_tian)

    def test_scalar_matches_batch(self):
        for scheme, p in ((SchemeId.HK, HK_P), (SchemeId.TIAN, HK_P),
                          (SchemeId.COOP_DD, P(r1=0.3, r2=0.4, beta=0.8, L=2))):
            g = _trial_gains(42, 0, 150, 0)
            be1, be2, bz = _episode_batch(scheme, p, 100.0, g[:, 0], g[:, 1],
                                          g[:, 2], g[:, 3], 1000)
            for t in range(150):
                out = run_episode(scheme, p, 100.0, _trial_gains(42, t, 1, 0)[0])
                assert out == (bool(be1[t]), bool(be2[t]), int(bz[t]))


class TestEstimateOutage:
    def test_single_trial(self):
        est = estimate_outage(SchemeId.CMO, P(r1=0.9, r2=0.9, L=1), 10.0, 1, 0)
        assert est.p_out1 in (0.0, 1.0) and est.p_out2 in (0.0, 1.0)

    def test_zero_rate_outage_impossible(self):
        est = estimate_outage(SchemeId.CMO, P(r1=0.0, r2=0.0, beta=0.5, L=1),
                              100.0, 100_000, 3)
        assert est.p_out1 == 0.0 and est.p_out2 == 0.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ParameterError, match="trials"):
            estimate_outage(SchemeId.CMO, HK_P, 100.0, 0, 0)
        with pytest.raises(ParameterError, match="block_size"):
            estimate_outage(SchemeId.CMO, HK_P, 100.0, 10, 0, block_size=-1)

    def test_probability_bounds_and_ci(self):
        est = estimate_outage(SchemeId.HK, HK_P, 50.0, 5000, 1)
        for p, ci in ((est.p_out1, est.ci1), (est.p_out2, est.ci2)):
            assert 0.0 <= p <= 1.0
            assert ci[0] <= p <= ci[1]

    def test_partition_independent(self):
        kw = dict(scheme=SchemeId.HK, params=HK_P, rho=100.0, trials=30_000, seed=42)
        a = estimate_outage(**kw, block_size=977)
        b = estimate_outage(**kw, block_size=30_000)
        assert a == b

    def test_reproducible(self):
        a = estimate_outage(SchemeId.COOP_DD, P(r1=0.3, r2=0.4, beta=0.8, L=2),
                            100.0, 20_000, 9)
        b = estimate_outage(SchemeId.COOP_DD, P(r1=0.3, r2=0.4, beta=0.8, L=2),
                            100.0, 20_000, 9)
        assert a == b


class TestWilson:
    def test_contains_point_estimate(self):
        for k, n in ((0, 10), (1, 10), (5, 10), (10, 10), (3, 1000)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0


class TestEstimateDiversity:
    def test_monotone_in_snr_with_ci_overlap(self):
        cfg = SimConfig(rho_db_grid=(10, 15, 20, 25, 30), trials=200_000, seed=4)
        d1, d2 = estimate_diversity(SchemeId.CMO, P(r1=0.2, r2=0.2, beta=0.5, L=1), cfg)
        for est in (d1, d2):
            for a, b in zip(est.points, est.points[1:]):
                # allow CI overlap, flag only clear violations
                assert b.p_out <= a.ci_hi + 3 * (a.ci_hi - a.ci_lo)

    def test_zero_rates_raise(self):
        cfg = SimConfig(rho_db_grid=(10, 20, 30), trials=1000, seed=4)
        with pytest.raises(ValueError, match="fewer than 2 usable points"):
            estimate_diversity(SchemeId.CMO, P(r1=0.0, r2=0.0, L=1), cfg)

    def test_slope_approaches_analytic_with_wider_grids(self):
        p = P(r1=0.2, r2=0.2, beta=0.5, L=1)
        target = d1_cmo(p)  # 0.7
        gaps = []
        for top in (20, 30, 40):
            grid = tuple(range(10, top + 1, 5))
            cfg = SimConfig(rho_db_grid=grid, trials=200_000, seed=12)
            d1, _ = estimate_diversity(SchemeId.CMO, p, cfg)
            gaps.append(abs(d1.slope - target))
        assert gaps[-1] < gaps[0]

    def test_grid_validation(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            SimConfig(rho_db_grid=(10, 10), trials=10, seed=0).check()


class TestEstimateThroughput:
    def test_single_round_ratio_is_one(self):
        p = P(r1=0.3, r2=0.3, t2=0.1, b=0.1, beta=0.8, L=1)
        est = estimate_throughput(SchemeId.HK, p, 1000.0, 10_000, 5)
        assert est.ratio1 == 1.0 and est.ratio2 == 1.0
        assert est.mean_zeta == 1.0

    def test_ratio_bounds(self):
        est = estimate_throughput(SchemeId.HK, HK_P, 100.0, 20_000, 5)
        assert 0.0 < est.ratio1 <= 1.0
        assert 1.0 <= est.mean_zeta <= HK_P.L
        assert est.eta1 == pytest.approx(HK_P.r1 * math.log2(100.0) * est.ratio1)

    def test_high_rate_low_snr_hurts(self):
        p = P(r1=0.9, r2=0.9, beta=1.0, L=2)
        est = estimate_throughput(SchemeId.CMO, p, 10.0, 20_000, 5)
        assert est.ratio1 < 1.0


class TestTrialGains:
    def test_trial_gains_are_unit_exponentials(self):
        g = _trial_gains(3, 0, 200_000, 0)
        assert g.shape == (200_000, 4)
        assert float(g.mean()) == pytest.approx(1.0, rel=0.02)
        assert float((g < 0).sum()) == 0
