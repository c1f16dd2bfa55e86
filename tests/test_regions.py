import math

import numpy as np
import pytest

from zicarq import analytic, regions
from zicarq.analytic import SchemeId
from zicarq.core import ExponentPoint, ParameterError, SystemParams
from zicarq.regions import (
    RATE_FLOOR,
    OutageRegion,
    oracle_d1_hk,
    oracle_d1_hk_stop,
    oracle_min_exponent,
    oracle_min_exponent_coop,
    pos_part,
    rate_region_subset_check,
    region_o1_coop,
    region_o2_coop,
    region_o3_coop,
    region_o11_dd,
    region_o11_hk,
    region_o12_dd,
    region_o12_hk,
    region_o12_stop,
    region_rx1_cmo,
    region_rx2_cmo,
    region_rx2_hk,
    symbols,
)
from zicarq.verify import VERIFY_SCHEMES, worst_gap

TOL = 2e-3


def P(**kw):
    return SystemParams(**kw)


class TestRegionContains:
    def test_rx2_hk_strong_channel_outside(self):
        region = region_rx2_hk(P(r1=0, r2=0.5, t2=0.5, b=0.2, L=2))
        assert not region.contains(ExponentPoint(0, 0, gamma22=0.0))

    def test_rx2_hk_faded_channel_inside(self):
        region = region_rx2_hk(P(r1=0, r2=0.5, t2=0.5, b=0.2, L=2))
        assert region.contains(ExponentPoint(0, 0, gamma22=0.9))

    def test_zero_rates_unreachable(self):
        p = P(r1=0.0, r2=0.0, beta=1.0, L=2)
        origin = ExponentPoint(0.0, 0.0, gamma22=0.0, f=1.0)
        for region in (
            region_rx2_hk(p),
            region_rx2_cmo(p),
            region_rx1_cmo(p),
            region_o11_hk(p, 1),
            region_o12_hk(p, 2),
            region_o12_stop(p, 1),
            region_o1_coop(p.r1, p.beta),
            region_o2_coop(p.r1, p.r2, p.beta),
            region_o3_coop(p.r1, p.beta),
            region_o11_dd(p.r1, p.beta),
            region_o12_dd(p.r1, p.r2, p.beta),
        ):
            assert not region.contains(origin), region

    def test_membership_saturates_beyond_cap(self):
        # past the cap every bracket has clamped, so membership freezes
        rng = np.random.default_rng(8)
        p = P(r1=0.4, r2=0.6, t2=0.2, b=0.1, beta=1.4, L=3)
        cap = regions._cap(p.beta)
        for region in (region_o11_hk(p, 2), region_o12_hk(p, 2), region_rx1_cmo(p)):
            for _ in range(50):
                g_other = float(rng.uniform(0, cap))
                a = region.contains(ExponentPoint(cap, g_other))
                b = region.contains(ExponentPoint(cap * 3, g_other))
                assert a == b
                a = region.contains(ExponentPoint(g_other, cap))
                b = region.contains(ExponentPoint(g_other, cap * 3))
                assert a == b


class TestOracleSpotValues:
    def test_rx2_cmo_full_rate(self):
        region = region_rx2_cmo(P(r1=0, r2=1.0, L=2))
        assert oracle_min_exponent(region) == pytest.approx(0.5, abs=TOL)

    def test_o11_first_round(self):
        p = P(r1=0.3, r2=0.3, beta=0.8, b=0.1, L=2)
        assert oracle_min_exponent(region_o11_hk(p, 1)) == pytest.approx(0.7, abs=TOL)

    def test_rate_at_floor_matches_closed_form(self):
        p = P(r1=RATE_FLOOR, r2=0.3, beta=0.8, b=0.1, L=2)
        got = oracle_min_exponent(region_o11_hk(p, 1))
        assert got == pytest.approx(analytic.d11_hk(p, 1), abs=TOL)

    def test_coop_o1(self):
        region = region_o1_coop(0.8, 0.3)
        assert oracle_min_exponent_coop(region) == pytest.approx(0.6, abs=TOL)

    def test_coop_o3(self):
        region = region_o3_coop(0.6, 1.0)
        assert oracle_min_exponent_coop(region) == pytest.approx(2.0 / 3.0, abs=TOL)

    def test_coop_dd_joint(self):
        region = region_o12_dd(0.6, 0.8, 0.9)
        expect = 0.9 - 0.2 * 0.8 / 0.6
        assert oracle_min_exponent_coop(region) == pytest.approx(expect, abs=TOL)

    def test_wrong_dispatch_rejected(self):
        with pytest.raises(ValueError, match="oracle_min_exponent_coop"):
            oracle_min_exponent(region_o1_coop(0.5, 1.0))
        p = P(r1=0.5, r2=0.5, L=1)
        with pytest.raises(ValueError, match="listening fraction"):
            oracle_min_exponent_coop(region_rx1_cmo(p))

    def test_rate_floor_rejected(self):
        p = P(r1=1e-6, r2=0.5, L=2)
        with pytest.raises(ValueError, match="rate floor"):
            oracle_min_exponent(region_o11_hk(p, 1))

    def test_empty_region_returns_inf(self):
        # unreachable events report +inf, never a junk minimum
        g11, g21, f = symbols()
        region = OutageRegion(
            "EMPTY", "rx1", pos_part(g11) + pos_part(g21) + 1.0 < 0.5,
            beta=1.0, active_rates=(0.5,))
        assert oracle_min_exponent(region) == math.inf
        region22 = OutageRegion(
            "EMPTY22", "rx2", pos_part(g11) + 1.0 < 0.5,
            beta=1.0, active_rates=(0.5,))
        assert oracle_min_exponent(region22) == math.inf
        coop = OutageRegion(
            "EMPTY_COOP", "coop", f * pos_part(1.0 - g11) + 1.0 < 0.5,
            beta=1.0, active_rates=(0.5,))
        assert oracle_min_exponent_coop(coop) == math.inf

    def test_coop_interior_kink(self):
        # the minimum sits at an interior listening fraction (f ~ 0.663);
        # the f = 1 endpoint, 2 - 1.5*r1, lies about 4.5e-3 higher
        r1, beta = 0.5481476168670432, 1.6267914545847555
        got = oracle_min_exponent_coop(region_o1_coop(r1, beta))
        assert got == pytest.approx(analytic.d11c_cmo2(r1, beta), abs=1e-9)
        assert (2.0 - 1.5 * r1) - got > 4e-3


class TestOracleD1Hk:
    def test_worked_example(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        assert oracle_d1_hk(p) == pytest.approx(0.65, abs=TOL)

    def test_matches_tian_when_split_disabled(self):
        p = P(r1=0.35, r2=0.6, t2=0.0, b=0.0, beta=1.1, L=3)
        assert oracle_d1_hk(p) == pytest.approx(
            analytic.d1_tian_general(p), abs=TOL)

    def test_single_round(self):
        p = P(r1=0.5, r2=0.5, t2=0.5, b=0.0, beta=0.7, L=1)
        assert oracle_d1_hk(p) == pytest.approx(analytic.d1_hk(p), abs=TOL)

    def test_saturated_rate_from_oracle(self):
        p = P(r1=1.0, r2=0.9, t2=0.0, b=0.0, beta=1.0, L=2)
        got = oracle_d1_hk(p)
        assert got == pytest.approx(analytic.d1_hk(p), abs=TOL)
        assert got == pytest.approx(0.0, abs=TOL)

    def test_requires_positive_rates(self):
        with pytest.raises(ValueError, match="rate floor"):
            oracle_d1_hk(P(r1=0.0, r2=0.5, L=2))


class TestStopPolicyOracle:
    def test_stop_never_beats_policy(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            r2 = float(rng.uniform(0.05, 0.95))
            p = P(r1=float(rng.uniform(0.05, 0.95)), r2=r2,
                  t2=float(rng.uniform(0, r2 - 1e-3)) if r2 > 1e-3 else 0.0,
                  b=float(rng.uniform(0, 0.5)), beta=float(rng.uniform(0.2, 2)),
                  L=int(rng.integers(1, 4)))
            stop = oracle_d1_hk_stop(p)
            full = oracle_d1_hk(p)
            assert stop <= full + TOL
            assert full <= analytic.d1_hk(p) + TOL

    def test_keep_never_beats_policy_oracle(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        keep = min(
            oracle_min_exponent(region_o11_hk(p, p.L)),
            oracle_min_exponent(region_o12_hk(p, p.L)),
        )
        assert keep <= oracle_d1_hk(p) + TOL

    def test_stop_equals_policy_when_common_absent(self):
        # with no common stream the stop and mixed policies coincide
        p = P(r1=0.4, r2=0.5, t2=0.0, b=0.0, beta=0.9, L=2)
        assert oracle_d1_hk_stop(p) == pytest.approx(
            oracle_d1_hk(p), abs=TOL)

class TestOracleRobustness:
    def test_minimum_is_a_lower_bound(self):
        # no sampled member point beats the oracle's minimum
        rng = np.random.default_rng(5)
        n = 100_000
        p = P(r1=0.37, r2=0.41, t2=0.13, b=0.21, beta=1.17, L=3)
        cap = regions._cap(p.beta)
        g11, g21 = rng.uniform(0, cap, n), rng.uniform(0, cap, n)

        rx1 = region_o12_hk(p, 2)
        inside = rx1.member(g11, g21)
        assert inside.any()
        assert (g11 + g21)[inside].min() >= oracle_min_exponent(rx1) - 1e-12

        rx2 = region_rx2_hk(p, 2)
        inside = rx2.member(g11)
        assert inside.any()
        assert g11[inside].min() >= oracle_min_exponent(rx2) - 1e-12

        r1, beta = 0.45, 1.3
        coop = region_o3_coop(r1, beta)
        cap = regions._cap(beta)
        g11, g21 = rng.uniform(0, cap, n), rng.uniform(0, cap, n)
        f = rng.uniform(r1, 1.0, n)
        inside = coop.member(g11, g21, f)
        assert inside.any()
        objective = (g11 + g21 + 1.0 - r1 / f)[inside]
        assert objective.min() >= oracle_min_exponent_coop(coop) - 1e-12

    def test_cap_saturation(self, monkeypatch):
        # a box twice as wide finds no smaller minimum
        p = P(r1=0.3, r2=0.55, t2=0.25, b=0.15, beta=1.3, L=2)
        found = [(oracle_min_exponent, region_o12_hk(p, 1)),
                 (oracle_min_exponent, region_o11_hk(p, 2)),
                 (oracle_min_exponent_coop, region_o3_coop(0.45, 1.3))]
        base = [oracle(region) for oracle, region in found]
        cap = regions._cap
        monkeypatch.setattr(regions, "_cap", lambda beta: 2 * cap(beta))
        wide = [oracle(region) for oracle, region in found]
        assert wide == pytest.approx(base, abs=TOL)

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
        # a check over no samples checks nothing, so it may not report ok
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        for samples in (0, -1):
            with pytest.raises(ParameterError, match="samples must be >= 1"):
                rate_region_subset_check(p, samples, seed=3)

    def test_degenerate_pure_common(self):
        p = P(r1=0.5, r2=0.6, t2=0.6, b=0.0, beta=1.5, L=3)
        assert rate_region_subset_check(p, 10_000, seed=11).ok
