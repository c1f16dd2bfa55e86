import math

import numpy as np
import pytest

from zicarq import analytic
from zicarq.analytic import SchemeId
from zicarq.core import ExponentPoint, SystemParams
from zicarq.regions import (
    OracleConfig,
    OutageRegion,
    make_region,
    oracle_d1_hk,
    oracle_d1_hk_stop,
    oracle_min_exponent,
    oracle_min_exponent_coop,
    pos_part,
    rate_region_subset_check,
    region_contains,
    region_o1_coop,
    region_o3_coop,
    region_o11_hk,
    region_o12_dd,
    region_o12_hk,
    region_rx2_cmo,
    region_rx2_hk,
    symbols,
)
from zicarq.verify import VERIFY_SCHEMES, worst_gap

CFG = OracleConfig()
TOL = 2e-3


def P(**kw):
    return SystemParams(**kw)


class TestRegionContains:
    def test_rx2_hk_strong_channel_outside(self):
        region = region_rx2_hk(P(r1=0, r2=0.5, t2=0.5, b=0.2, L=2))
        assert not region_contains(region, ExponentPoint(0, 0, gamma22=0.0))

    def test_rx2_hk_faded_channel_inside(self):
        region = region_rx2_hk(P(r1=0, r2=0.5, t2=0.5, b=0.2, L=2))
        assert region_contains(region, ExponentPoint(0, 0, gamma22=0.9))

    def test_zero_rates_unreachable(self):
        p = P(r1=0.0, r2=0.0, beta=1.0, L=2)
        origin = ExponentPoint(0.0, 0.0, gamma22=0.0, f=1.0)
        for rid, kw in (
            ("O_RX2_HK", {}),
            ("O_RX2_CMO", {}),
            ("O_RX1_CMO", {}),
            ("O11_HK", {"i": 1}),
            ("O12_HK", {"i": 2}),
            ("O12_STOP", {"i": 1}),
            ("O1_COOP", {}),
            ("O2_COOP", {}),
            ("O3_COOP", {}),
            ("O11_DD", {}),
            ("O12_DD", {}),
        ):
            region = make_region(rid, p, **kw)
            assert not region_contains(region, origin), rid

    def test_unknown_region_id(self):
        with pytest.raises(ValueError, match="unknown region id"):
            make_region("O_NOPE", P(r1=0.1, r2=0.1, L=1))

    def test_missing_round_index(self):
        with pytest.raises(ValueError, match="requires the ACK round"):
            make_region("O11_HK", P(r1=0.1, r2=0.1, L=2))

    def test_membership_saturates_beyond_cap(self):
        # past the cap every bracket has clamped, so membership freezes
        rng = np.random.default_rng(8)
        p = P(r1=0.4, r2=0.6, t2=0.2, b=0.1, beta=1.4, L=3)
        cap = CFG.cap_for(p.beta)
        regions = [
            region_o11_hk(p, 2),
            region_o12_hk(p, 2),
            make_region("O_RX1_CMO", p),
        ]
        for region in regions:
            for _ in range(50):
                g_other = float(rng.uniform(0, cap))
                a = region_contains(region, ExponentPoint(cap, g_other))
                b = region_contains(region, ExponentPoint(cap * 3, g_other))
                assert a == b
                a = region_contains(region, ExponentPoint(g_other, cap))
                b = region_contains(region, ExponentPoint(g_other, cap * 3))
                assert a == b


class TestOracleSpotValues:
    def test_rx2_cmo_full_rate(self):
        region = region_rx2_cmo(P(r1=0, r2=1.0, L=2))
        assert oracle_min_exponent(region, CFG) == pytest.approx(0.5, abs=TOL)

    def test_o11_first_round(self):
        p = P(r1=0.3, r2=0.3, beta=0.8, b=0.1, L=2)
        assert oracle_min_exponent(region_o11_hk(p, 1), CFG) == pytest.approx(0.7, abs=TOL)

    def test_rate_at_floor_matches_closed_form(self):
        p = P(r1=CFG.rate_floor, r2=0.3, beta=0.8, b=0.1, L=2)
        got = oracle_min_exponent(region_o11_hk(p, 1), CFG)
        assert got == pytest.approx(analytic.d11_hk(p, 1), abs=TOL)

    def test_coop_o1(self):
        region = region_o1_coop(0.8, 0.3)
        assert oracle_min_exponent_coop(region, CFG) == pytest.approx(0.6, abs=TOL)

    def test_coop_o3(self):
        region = region_o3_coop(0.6, 1.0)
        assert oracle_min_exponent_coop(region, CFG) == pytest.approx(2.0 / 3.0, abs=TOL)

    def test_coop_dd_joint(self):
        region = region_o12_dd(0.6, 0.8, 0.9)
        expect = 0.9 - 0.2 * 0.8 / 0.6
        assert oracle_min_exponent_coop(region, CFG) == pytest.approx(expect, abs=TOL)

    def test_wrong_dispatch_rejected(self):
        with pytest.raises(ValueError, match="oracle_min_exponent_coop"):
            oracle_min_exponent(region_o1_coop(0.5, 1.0), CFG)
        p = P(r1=0.5, r2=0.5, L=1)
        with pytest.raises(ValueError, match="listening fraction"):
            oracle_min_exponent_coop(make_region("O_RX1_CMO", p), CFG)

    def test_rate_floor_rejected(self):
        p = P(r1=1e-6, r2=0.5, L=2)
        with pytest.raises(ValueError, match="rate floor"):
            oracle_min_exponent(region_o11_hk(p, 1), CFG)

    def test_empty_region_returns_inf(self):
        # unreachable events report +inf, never a junk minimum
        g11, g21, f = symbols()
        region = OutageRegion(
            "EMPTY", "rx1", pos_part(g11) + pos_part(g21) + 1.0 < 0.5,
            beta=1.0, active_rates=(0.5,))
        assert oracle_min_exponent(region, CFG) == math.inf
        region22 = OutageRegion(
            "EMPTY22", "rx2", pos_part(g11) + 1.0 < 0.5,
            beta=1.0, active_rates=(0.5,))
        assert oracle_min_exponent(region22, CFG) == math.inf
        coop = OutageRegion(
            "EMPTY_COOP", "coop", f * pos_part(1.0 - g11) + 1.0 < 0.5,
            beta=1.0, active_rates=(0.5,))
        assert oracle_min_exponent_coop(coop, CFG) == math.inf

    def test_coop_interior_kink(self):
        # the minimum sits at an interior listening fraction (f ~ 0.663);
        # the f = 1 endpoint, 2 - 1.5*r1, lies about 4.5e-3 higher
        r1, beta = 0.5481476168670432, 1.6267914545847555
        got = oracle_min_exponent_coop(region_o1_coop(r1, beta), CFG)
        assert got == pytest.approx(analytic.d11c_cmo2(r1, beta), abs=1e-9)
        assert (2.0 - 1.5 * r1) - got > 4e-3


class TestOracleD1Hk:
    def test_worked_example(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        assert oracle_d1_hk(p, CFG) == pytest.approx(0.65, abs=TOL)

    def test_matches_tian_when_split_disabled(self):
        p = P(r1=0.35, r2=0.6, t2=0.0, b=0.0, beta=1.1, L=3)
        assert oracle_d1_hk(p, CFG) == pytest.approx(
            analytic.d1_tian_general(p), abs=TOL)

    def test_single_round(self):
        p = P(r1=0.5, r2=0.5, t2=0.5, b=0.0, beta=0.7, L=1)
        assert oracle_d1_hk(p, CFG) == pytest.approx(analytic.d1_hk(p), abs=TOL)

    def test_saturated_rate_from_oracle(self):
        p = P(r1=1.0, r2=0.9, t2=0.0, b=0.0, beta=1.0, L=2)
        got = oracle_d1_hk(p, CFG)
        assert got == pytest.approx(analytic.d1_hk(p), abs=TOL)
        assert got == pytest.approx(0.0, abs=TOL)

    def test_requires_positive_rates(self):
        with pytest.raises(ValueError, match="rate_floor"):
            oracle_d1_hk(P(r1=0.0, r2=0.5, L=2), CFG)


class TestStopPolicyOracle:
    def test_stop_never_beats_policy(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            r2 = float(rng.uniform(0.05, 0.95))
            p = P(r1=float(rng.uniform(0.05, 0.95)), r2=r2,
                  t2=float(rng.uniform(0, r2 - 1e-3)) if r2 > 1e-3 else 0.0,
                  b=float(rng.uniform(0, 0.5)), beta=float(rng.uniform(0.2, 2)),
                  L=int(rng.integers(1, 4)))
            stop = oracle_d1_hk_stop(p, CFG)
            full = oracle_d1_hk(p, CFG)
            assert stop <= full + TOL
            assert full <= analytic.d1_hk(p) + TOL

    def test_keep_never_beats_policy_oracle(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        keep = min(
            oracle_min_exponent(region_o11_hk(p, p.L), CFG),
            oracle_min_exponent(region_o12_hk(p, p.L), CFG),
        )
        assert keep <= oracle_d1_hk(p, CFG) + TOL

    def test_stop_equals_policy_when_common_absent(self):
        # with no common stream the stop and mixed policies coincide
        p = P(r1=0.4, r2=0.5, t2=0.0, b=0.0, beta=0.9, L=2)
        assert oracle_d1_hk_stop(p, CFG) == pytest.approx(
            oracle_d1_hk(p, CFG), abs=TOL)

    def test_thin_wrapper(self):
        p = P(r1=0.25, r2=0.4, t2=0.2, b=0.2, beta=1.2, L=2)
        assert analytic.d1_hk_stop(p, CFG) == oracle_d1_hk_stop(p, CFG)


class TestOracleRobustness:
    def test_minimum_is_a_lower_bound(self):
        # no sampled member point beats the oracle's minimum
        rng = np.random.default_rng(5)
        n = 100_000
        p = P(r1=0.37, r2=0.41, t2=0.13, b=0.21, beta=1.17, L=3)
        cap = CFG.cap_for(p.beta)
        g11, g21 = rng.uniform(0, cap, n), rng.uniform(0, cap, n)

        rx1 = region_o12_hk(p, 2)
        inside = rx1.member(g11, g21)
        assert inside.any()
        assert (g11 + g21)[inside].min() >= oracle_min_exponent(rx1, CFG) - 1e-12

        rx2 = region_rx2_hk(p, 2)
        inside = rx2.member(g11)
        assert inside.any()
        assert g11[inside].min() >= oracle_min_exponent(rx2, CFG) - 1e-12

        r1, beta = 0.45, 1.3
        coop = region_o3_coop(r1, beta)
        cap = CFG.cap_for(beta)
        g11, g21 = rng.uniform(0, cap, n), rng.uniform(0, cap, n)
        f = rng.uniform(r1, 1.0, n)
        inside = coop.member(g11, g21, f)
        assert inside.any()
        objective = (g11 + g21 + 1.0 - r1 / f)[inside]
        assert objective.min() >= oracle_min_exponent_coop(coop, CFG) - 1e-12

    def test_cap_saturation(self):
        p = P(r1=0.3, r2=0.55, t2=0.25, b=0.15, beta=1.3, L=2)
        for region_fn in (lambda c: region_o12_hk(p, 1),
                          lambda c: region_o11_hk(p, 2)):
            base_cap = CFG.cap_for(p.beta)
            a = oracle_min_exponent(region_fn(None), CFG)
            wide = OracleConfig(gamma_cap=2 * base_cap)
            b = oracle_min_exponent(region_fn(None), wide)
            assert abs(a - b) <= TOL
        coop = region_o3_coop(0.45, 1.3)
        a = oracle_min_exponent_coop(coop, CFG)
        b = oracle_min_exponent_coop(coop, OracleConfig(gamma_cap=2 * CFG.cap_for(1.3)))
        assert abs(a - b) <= TOL

    def test_cap_must_clear_beta(self):
        p = P(r1=0.5, r2=0.5, beta=1.8, L=1)
        with pytest.raises(ValueError, match="gamma_cap"):
            oracle_min_exponent(region_o11_hk(p, 1), OracleConfig(gamma_cap=1.0))


class TestExactness:
    @pytest.mark.parametrize("scheme", VERIFY_SCHEMES)
    def test_closed_forms_match_oracle(self, scheme):
        gap, where = worst_gap(SchemeId(scheme), 50, np.random.default_rng(13))
        assert gap <= 1e-9, where


class TestSubsetCheck:
    def test_no_counterexamples(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        report = rate_region_subset_check(p, 10_000, seed=3)
        assert report.ok
        assert report.samples == 10_000

    def test_zero_samples(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        assert rate_region_subset_check(p, 0, seed=3).ok

    def test_degenerate_pure_common(self):
        p = P(r1=0.5, r2=0.6, t2=0.6, b=0.0, beta=1.5, L=3)
        assert rate_region_subset_check(p, 10_000, seed=11).ok
