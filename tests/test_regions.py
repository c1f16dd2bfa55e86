import math
from dataclasses import replace

import numpy as np
import pytest

from zicarq import analytic, regions
from zicarq.analytic import SchemeId
from zicarq.core import COOP_SCHEMES, ParameterError, SystemParams
from zicarq.regions import (
    BETA_CEILING,
    RATE_FLOOR,
    OutageRegion,
    oracle_d1_hk,
    oracle_d2_coop,
    oracle_min_exponent,
    oracle_min_exponent_coop,
    oracle_rx1_hk,
    pos_part,
    rate_region_subset_check,
    region_coop,
    region_o11_hk,
    region_o12_hk,
    region_rx1_cmo,
    region_rx2_hk,
    symbols,
)
from zicarq.verify import VERIFY_SCHEMES, _verify_checks, sample_params, worst_gap

TOL = 1e-12


def P(**kw):
    return SystemParams(**kw)


class TestRegionContains:
    def test_rx2_hk_strong_channel_outside(self):
        region = region_rx2_hk(P(r1=0, r2=0.5, t2=0.5, b=0.2, L=2))
        assert not region.member(0.0)

    def test_rx2_hk_faded_channel_inside(self):
        region = region_rx2_hk(P(r1=0, r2=0.5, t2=0.5, b=0.2, L=2))
        assert region.member(0.9)

    def test_zero_rates_unreachable(self):
        # the origin, with every gain exponent 0 (gamma22 for RX2 regions)
        # and f = 1
        p = P(r1=0.0, r2=0.0, beta=1.0, L=2)
        for region in (
            region_rx2_hk(p),
            region_rx1_cmo(p),
            region_o11_hk(p, 1),
            region_o12_hk(p, 2),
            region_o12_hk(p, 1, stop=True),
            *(region_coop(name, p)
              for name in ("O1_COOP", "O2_COOP", "O3_COOP", "O11_DD", "O12_DD")),
        ):
            assert not region.member(0.0, 0.0, 1.0), region

    def test_membership_saturates_beyond_cap(self):
        # past the cap every bracket has clamped, so membership freezes
        rng = np.random.default_rng(8)
        p = P(r1=0.4, r2=0.6, t2=0.2, b=0.1, beta=1.4, L=3)
        cap = regions._cap(p.beta)
        for region in (region_o11_hk(p, 2), region_o12_hk(p, 2), region_rx1_cmo(p)):
            for _ in range(50):
                g_other = float(rng.uniform(0, cap))
                a = region.member(cap, g_other)
                b = region.member(cap * 3, g_other)
                assert a == b
                a = region.member(g_other, cap)
                b = region.member(g_other, cap * 3)
                assert a == b


class TestOracleSpotValues:
    def test_rx2_cmo_full_rate(self):
        # the CMO RX2 outage is the rate-splitting one at t2 = b = 0
        region = region_rx2_hk(P(r1=0, r2=1.0, L=2))
        assert oracle_min_exponent(region) == pytest.approx(0.5, abs=TOL)

    def test_o11_first_round(self):
        p = P(r1=0.3, r2=0.3, beta=0.8, b=0.1, L=2)
        assert oracle_min_exponent(region_o11_hk(p, 1)) == pytest.approx(0.7, abs=TOL)

    def test_rate_at_floor_matches_closed_form(self):
        p = P(r1=RATE_FLOOR, r2=0.3, beta=0.8, b=0.1, L=2)
        got = oracle_min_exponent(region_o11_hk(p, 1))
        assert got == pytest.approx(analytic.d11_hk(p, 1), abs=TOL)

    def test_coop_o1(self):
        region = region_coop("O1_COOP", P(r1=0.8, r2=0.0, beta=0.3))
        assert oracle_min_exponent_coop(region) == pytest.approx(0.6, abs=TOL)

    def test_coop_o3(self):
        region = region_coop("O3_COOP", P(r1=0.6, r2=0.0, beta=1.0))
        assert oracle_min_exponent_coop(region) == pytest.approx(2.0 / 3.0, abs=TOL)

    def test_coop_dd_joint(self):
        region = region_coop("O12_DD", P(r1=0.6, r2=0.8, beta=0.9))
        expect = 0.9 - 0.2 * 0.8 / 0.6
        assert oracle_min_exponent_coop(region) == pytest.approx(expect, abs=TOL)

    def test_wrong_dispatch_rejected(self):
        with pytest.raises(ValueError, match="oracle_min_exponent_coop"):
            oracle_min_exponent(region_coop("O1_COOP", P(r1=0.5, r2=0.0, beta=1.0)))
        p = P(r1=0.5, r2=0.5, L=1)
        with pytest.raises(ValueError, match="listening fraction"):
            oracle_min_exponent_coop(region_rx1_cmo(p))

    def test_rx1_round_outside_rejected(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        for i in (0, 3):
            for stop in (False, True):
                with pytest.raises(ValueError, match=r"i=%d outside 1\.\.2" % i):
                    oracle_rx1_hk(p, i, stop)

    @pytest.mark.parametrize("scheme", sorted(
        set(SchemeId) - {SchemeId.COOP_CMO, SchemeId.COOP_TIAN, SchemeId.COOP_DD}))
    def test_coop_rx2_rejects_non_relaying_scheme(self, scheme):
        # coop-static is the envelope of two decoders, not one relaying scheme
        p = P(r1=0.5, r2=0.5, L=2)
        for name in (scheme, scheme.value):
            with pytest.raises(ParameterError, match=f"not {scheme.value}$"):
                oracle_d2_coop(p, name)

    def test_coop_rx2_takes_scheme_or_string(self):
        p = P(r1=0.4, r2=0.7, beta=1.3, L=2)
        for scheme, closed in ((SchemeId.COOP_CMO, analytic.d2c_cmo2),
                               (SchemeId.COOP_TIAN, analytic.d2c_tian2),
                               (SchemeId.COOP_DD, analytic.d2c_dd2)):
            got = oracle_d2_coop(p, scheme)
            assert oracle_d2_coop(p, scheme.value) == got
            assert abs(got - closed(p.r1, p.r2, p.beta)) <= 1e-12

    def test_rate_floor_rejected(self):
        p = P(r1=1e-6, r2=0.5, L=2)
        with pytest.raises(ValueError, match="rate floor"):
            oracle_min_exponent(region_o11_hk(p, 1))

    def test_empty_region_returns_inf(self):
        # unreachable events report +inf, never a junk minimum
        g11, g21, f = symbols()
        p = P(r1=0.5, r2=0.5, beta=1.0)
        region = OutageRegion(
            "EMPTY", "rx1", pos_part(g11) + pos_part(g21) + 1.0 < 0.5, p)
        assert oracle_min_exponent(region) == math.inf
        region22 = OutageRegion("EMPTY22", "rx2", pos_part(g11) + 1.0 < 0.5, p)
        assert oracle_min_exponent(region22) == math.inf
        coop = OutageRegion(
            "EMPTY_COOP", "coop", f * pos_part(1.0 - g11) + 1.0 < 0.5, p)
        assert oracle_min_exponent_coop(coop) == math.inf

    def test_coop_interior_kink(self):
        # the minimum sits at an interior listening fraction (f ~ 0.663);
        # the f = 1 endpoint, 2 - 1.5*r1, lies about 4.5e-3 higher
        r1, beta = 0.5481476168670432, 1.6267914545847555
        p = P(r1=r1, r2=0.0, beta=beta)
        got = oracle_min_exponent_coop(region_coop("O1_COOP", p))
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

    @pytest.mark.parametrize("stop", [False, True])
    def test_rate_floor_only_on_regions_built(self, stop):
        # a single round builds no RX2 prefix region, so r2 may sit below the floor
        p = P(r1=0.3, r2=0.0, b=0.1, beta=0.5, L=1)
        assert oracle_d1_hk(p, stop) == pytest.approx(analytic.d1_hk(p), abs=1e-12)
        with pytest.raises(ValueError, match=r"O_RX2_HK\(l=1\).*rate floor"):
            oracle_d1_hk(replace(p, L=2), stop)


class TestStopPolicyOracle:
    def test_stop_never_beats_policy(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            r2 = float(rng.uniform(0.05, 0.95))
            p = P(r1=float(rng.uniform(0.05, 0.95)), r2=r2,
                  t2=float(rng.uniform(0, r2 - 1e-3)) if r2 > 1e-3 else 0.0,
                  b=float(rng.uniform(0, 0.5)), beta=float(rng.uniform(0.2, 2)),
                  L=int(rng.integers(1, 4)))
            stop = oracle_d1_hk(p, stop=True)
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
        assert oracle_d1_hk(p, stop=True) == pytest.approx(
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

        rx2 = region_rx2_hk(replace(p, L=2))
        inside = rx2.member(g11)
        assert inside.any()
        assert g11[inside].min() >= oracle_min_exponent(rx2) - 1e-12

        r1, beta = 0.45, 1.3
        coop = region_coop("O3_COOP", P(r1=r1, r2=0.0, beta=beta))
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
        oracles = [oracle_min_exponent, oracle_min_exponent, oracle_min_exponent_coop]

        def build():
            return [region_o12_hk(p, 1), region_o11_hk(p, 2),
                    region_coop("O3_COOP", P(r1=0.45, r2=0.0, beta=1.3))]

        narrow = build()
        cap = regions._cap
        monkeypatch.setattr(regions, "_cap", lambda beta: 2 * cap(beta))
        # a region binds its box when it is built
        wide = build()
        assert [r.cap for r in wide] == [2 * r.cap for r in narrow]
        assert [f(r) for f, r in zip(oracles, wide)] == pytest.approx(
            [f(r) for f, r in zip(oracles, narrow)], abs=TOL)

class TestExactness:
    def test_every_scheme_verified(self):
        # coop-static is the envelope of coop-cmo and coop-tian, each checked
        # on its own; any other scheme left out would go unverified silently
        verified = {SchemeId(s) for s in VERIFY_SCHEMES}
        assert verified == set(SchemeId) - {SchemeId.COOP_STATIC}

    @pytest.mark.parametrize("scheme", VERIFY_SCHEMES)
    def test_closed_forms_match_oracle(self, scheme):
        gap, where = worst_gap(SchemeId(scheme), 50, np.random.default_rng(13))
        assert gap <= 1e-12, where

    @pytest.mark.parametrize("beta", [5.0, 10.0, 20.0])
    def test_large_beta(self, beta):
        # the closure slack grows with the terms at each vertex, so no vertex
        # is lost however far the box reaches
        rng = np.random.default_rng(17)
        for scheme in map(SchemeId, VERIFY_SCHEMES):
            for L in (2,) if scheme in COOP_SCHEMES else range(1, 6):
                for _ in range(3):
                    p = replace(sample_params(rng, scheme), beta=beta, L=L)
                    for check, closed, oracle in _verify_checks(scheme, p):
                        assert abs(closed - oracle) <= 1e-12, (check, p)

    @pytest.mark.parametrize("b", [1e15, 1e16, 1e20])
    def test_large_b(self, b):
        # once b >= max(1, beta) every b term is 0 over the box, so a huge b
        # gives the minima of b = cap, and the closed forms still agree
        p = P(r1=0.5, r2=0.5, t2=0.2, b=b, beta=0.8, L=2)
        at_cap = replace(p, b=regions._cap(p.beta))
        for stop in (False, True):
            assert oracle_d1_hk(p, stop) == oracle_d1_hk(at_cap, stop)
        assert abs(oracle_d1_hk(p) - analytic.d1_hk(p)) <= 1e-12
        for i in (1, 2):
            got = oracle_min_exponent(region_o11_hk(p, i))
            assert abs(got - analytic.d11_hk(p, i)) <= 1e-12
        got = oracle_min_exponent(region_rx2_hk(p))
        assert abs(got - analytic.d2_hk(p)) <= 1e-12

    def test_beta_ceiling(self):
        # at the ceiling the oracle is exact; above it, it refuses
        p = P(r1=0.5, r2=0.5, t2=0.2, b=0.1, beta=BETA_CEILING, L=2)
        assert abs(oracle_d1_hk(p) - analytic.d1_hk(p)) <= 1e-12
        coop = P(r1=0.5, r2=0.5, beta=BETA_CEILING)
        got = oracle_min_exponent_coop(region_coop("O1_COOP", coop))
        assert abs(got - analytic.d11c_cmo2(0.5, BETA_CEILING)) <= 1e-12
        for beta in (math.nextafter(BETA_CEILING, math.inf), 1e100):
            for stop in (False, True):
                with pytest.raises(ParameterError, match="beta.*ceiling"):
                    oracle_d1_hk(replace(p, beta=beta), stop)
            with pytest.raises(ParameterError, match="beta.*ceiling"):
                oracle_min_exponent_coop(region_coop("O1_COOP", replace(coop, beta=beta)))

    def test_level_constant_cancels(self):
        # 1 - b - (r2 - t2) leaves RX2 a level constant of 0.005 where the
        # compared values are 0.72, so the slack must follow the terms
        p = P(r1=0.8145143700705831, r2=0.9187082787536379, t2=0.1963162175546898,
              b=0.27249134072900205, beta=5.0, L=3)
        got = oracle_min_exponent(region_rx2_hk(replace(p, L=1)))
        assert abs(got - analytic.d2_hk(p, 1)) <= 1e-12
        assert abs(oracle_d1_hk(p) - analytic.d1_hk(p)) <= 1e-12


class TestNearRateFloor:
    @pytest.mark.parametrize("beta", [0.2, 0.6255, 1.0, 1.7])
    def test_dynamic_decoder_does_not_undershoot(self, beta):
        # a closure slack wider than rounding admits vertices just outside
        # the region, and near the rate floor those read below the closed forms
        for r1 in [0.0011379, *np.geomspace(RATE_FLOOR, 0.02, 25)]:
            r1 = float(r1)
            p = P(r1=r1, r2=0.0, beta=beta)
            got = oracle_min_exponent_coop(region_coop("O11_DD", p))
            assert abs(got - analytic.d11c_cmo2(r1, beta)) <= 1e-14, r1
            for r2 in (0.1, 0.5, 0.9):
                got = oracle_min_exponent_coop(region_coop("O12_DD", replace(p, r2=r2)))
                assert abs(got - analytic.d12c_dd2(r1, r2, beta)) <= 1e-14, (r1, r2)


def _clear_compiled():
    for builder in vars(regions).values():
        if hasattr(builder, "cache_clear"):
            builder.cache_clear()


class TestCompiledFamilies:
    def test_keyed_by_structure(self):
        # points that differ only in rates and beta share one compiled tree
        p = P(r1=0.3, r2=0.4, t2=0.1, b=0.1, beta=0.8, L=3)
        q = replace(p, r1=0.7, r2=0.9, t2=0.2, beta=1.6)
        _clear_compiled()
        first, second = region_o12_hk(p, 2), region_o12_hk(q, 2)
        info = regions._o12_event.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first.event is second.event
        region_o12_hk(replace(p, L=4), 2)  # a new structure compiles anew
        assert regions._o12_event.cache_info().misses == 2
        for name in ("O1_COOP", "O3_COOP", "O11_DD"):
            assert region_coop(name, P(r1=0.2, r2=0.0, beta=0.5)).event \
                is region_coop(name, P(r1=0.6, r2=0.0, beta=1.9)).event

    def test_unknown_coop_event_rejected(self):
        p = P(r1=0.3, r2=0.4, beta=0.8, L=2)
        names = "O1_COOP, O2_COOP, O3_COOP, O11_DD, O12_DD"
        with pytest.raises(ValueError, match=f"'O4_COOP'.*{names}"):
            region_coop("O4_COOP", p)

    def test_results_independent_of_call_order(self):
        rng = np.random.default_rng(21)
        points = [(s, sample_params(rng, SchemeId(s)))
                  for s in VERIFY_SCHEMES for _ in range(8)][:50]

        def minima(order):
            return {k: [orc for _, _, orc in _verify_checks(SchemeId(points[k][0]),
                                                            points[k][1])]
                    for k in order}

        _clear_compiled()
        forwards = minima(range(len(points)))
        _clear_compiled()
        backwards = minima(reversed(range(len(points))))
        assert forwards == backwards


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

    def test_reports_stop_points_the_mixed_policy_misses(self, monkeypatch):
        # with an O12 that holds on the whole box the mixed policy decodes
        # nowhere, so every point some stop-policy round decodes is reported
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        cap = regions._cap(p.beta)
        gamma11, _, _ = symbols()
        everywhere = OutageRegion("O12_ALL", "rx1", gamma11 < 2 * cap, p)
        monkeypatch.setattr(regions, "region_o12_hk", lambda p, i, stop=False:
                            region_o12_hk(p, i, stop) if stop else everywhere)
        n, seed = 2_000, 3
        report = rate_region_subset_check(p, n, seed)

        rng = np.random.default_rng(seed)
        g11, g21 = rng.uniform(0.0, cap, n), rng.uniform(0.0, cap, n)
        stop = np.zeros(n, dtype=bool)
        for i in range(1, p.L + 1):
            stop |= ~(region_o11_hk(p, i).member(g11, g21)
                      | region_o12_hk(p, i, stop=True).member(g11, g21))
        first = np.nonzero(stop)[0][:50]
        assert len(first) == 50
        assert report.counterexamples == tuple(
            {"gamma11": float(g11[k]), "gamma21": float(g21[k])} for k in first)
        assert not report.ok
