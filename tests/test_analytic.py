import math
import re

import numpy as np
import pytest

from zicarq import analytic, oracle_d1_hk
from zicarq.analytic import (
    Exponent,
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
    d11_hk,
    d11c_cmo2,
    d12_hk,
    d12_hk_stop,
    d12c_cmo2,
    d12c_dd2,
    d_static_overall,
    scheme_dmt,
)
from zicarq.core import COOP_SCHEMES, ParameterError, SystemParams
from zicarq.regions import RATE_FLOOR, oracle_min_exponent, region_o12_hk


def P(**kw):
    return SystemParams(**kw)


class TestD2Hk:
    def test_zero_rate(self):
        assert d2_hk(P(r1=0, r2=0, L=2)) == 1.0

    def test_pure_common_split(self):
        # cross-checked against the RX2 region oracle in test_regions
        assert d2_hk(P(r1=0, r2=0.5, t2=0.5, b=0.2, L=2)) == pytest.approx(0.75)

    def test_full_multiplexing(self):
        assert d2_hk(P(r1=0, r2=1, L=1)) == 0.0

    def test_round_zero_prefix(self):
        # positive rate at zero rounds: reaching the round costs nothing
        assert d2_hk(P(r1=0, r2=0.4, t2=0.2, b=0.1, L=2), rounds=0) == 0.0


class TestD11Hk:
    def test_first_round(self):
        assert d11_hk(P(r1=0.3, r2=0, beta=0.8, b=0.1, L=2), 1) == pytest.approx(0.7)

    def test_last_round(self):
        assert d11_hk(P(r1=0.3, r2=0, beta=0.8, b=0.1, L=2), 2) == pytest.approx(0.15)

    def test_zero_rate(self):
        assert d11_hk(P(r1=0, r2=0, beta=0.5, L=2), 1) == 1.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            d11_hk(P(r1=0.3, r2=0, L=2), 3)


class TestD12Hk:
    def test_mid_branch(self):
        p = P(r1=0.3, r2=0.2, t2=0.2, b=0.1, beta=0.8, L=2)
        assert d12_hk(p, 1) == pytest.approx(1.0)

    def test_high_sum_branch_at_last_round(self):
        p = P(r1=0.3, r2=0.2, t2=0.2, b=0.1, beta=0.8, L=2)
        assert d12_hk(p, 2) == pytest.approx(0.05)

    def test_low_sum_branch(self):
        p = P(r1=0.1, r2=0.0, t2=0.0, b=0.3, beta=0.5, L=2)
        assert d12_hk(p, 1) == pytest.approx(1.4)

    @pytest.mark.parametrize("i", [0, 3])
    def test_index_out_of_range(self, i):
        with pytest.raises(IndexError, match=f"i={i} outside 1..2"):
            d12_hk(P(r1=0.3, r2=0.3, L=2), i)

    def test_branch_continuity(self):
        # value is continuous across both branch boundaries in r1+t2,
        # except across s = L*b at i = L (genuine jump, tested below)
        rng = np.random.default_rng(5)
        eps = 1e-12
        for _ in range(200):
            L = int(rng.integers(1, 5))
            i = int(rng.integers(1, L + 1))
            beta = float(rng.uniform(0, 2))
            b = float(rng.uniform(0, 0.5))
            for boundary in (L * b, (L - i) * beta + i * b):
                if not 0 < boundary < 1:
                    continue
                if i == L and abs(boundary - L * b) < 1e-9:
                    continue
                lo = P(r1=boundary - eps, r2=0, b=b, beta=beta, L=L)
                hi = P(r1=boundary + eps, r2=0, b=b, beta=beta, L=L)
                assert d12_hk(lo, i) == pytest.approx(d12_hk(hi, i), abs=1e-9)

    def test_genuine_jump_at_full_round_boundary(self):
        # finding: with interference persisting through every round (i=L)
        # the common stream delivers at least exponent b of information per
        # round however faded the links are, so the joint-rate exponent
        # drops to [1-(s+L[beta-b]+)/L]+ as soon as s crosses L*b; both
        # sides of the jump match the region oracle (see test_regions)
        L, b, beta = 1, 0.2, 1.5
        below = d12_hk(P(r1=0.18, r2=0, b=b, beta=beta, L=L), L)
        above = d12_hk(P(r1=0.22, r2=0, b=b, beta=beta, L=L), L)
        assert below == pytest.approx(2.14)
        assert above == 0.0

    @pytest.mark.parametrize("r1, label, d12, d1, d1_label", [
        # the float sum 0.2 + 0.1 exceeds L*b = 0.3, so r1 = .2 is above
        (0.2, "d12:high-sum", 0.3999999999999999, 0.3999999999999999,
         "i=1,d12:high-sum"),
        (0.19999999, "d12:low-sum", pytest.approx(1.0, abs=1e-7), 0.50000001,
         "i=1,d11:capped"),
    ], ids=["high-sum", "low-sum"])
    def test_labels_on_each_side_of_the_jump(self, r1, label, d12, d1, d1_label):
        p = P(r1=r1, r2=0.5, t2=0.1, b=0.3, beta=0.6, L=1)
        assert d12_hk(p, 1).label == label
        assert d12_hk(p, 1) == d12
        got, _ = scheme_dmt(SchemeId.HK, p)
        assert got == d1
        assert got.label == d1_label
        assert abs(oracle_d1_hk(p) - got) <= 1e-12


class TestD1Hk:
    def test_two_round_example(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        assert d1_hk(p) == pytest.approx(0.65)

    def test_single_round_zero_rates(self):
        assert d1_hk(P(r1=0, r2=0, beta=1.0, L=1)) == 1.0

    def test_full_r1(self):
        # saturated multiplexing: the i=1 term already hits zero
        assert d1_hk(P(r1=1.0, r2=0.9, beta=1.0, L=2)) == pytest.approx(0.0)


class TestCmo:
    def test_d1_two_rounds(self):
        assert d1_cmo(P(r1=0.5, r2=0.5, beta=1.3, L=2)) == pytest.approx(0.75)

    def test_d1_one_round(self):
        assert d1_cmo(P(r1=0.3, r2=0.3, beta=0.4, L=1)) == pytest.approx(0.4)

    def test_d1_zero_rates(self):
        assert d1_cmo(P(r1=0, r2=0, beta=0.9, L=2)) == 1.0

    def test_d2(self):
        assert d2_cmo(P(r1=0, r2=0.5, L=2)) == pytest.approx(0.75)
        assert d2_cmo(P(r1=0, r2=1.0, L=1)) == 0.0
        assert d2_cmo(P(r1=0, r2=0.0, L=4)) == 1.0


class TestTian:
    def test_closed_form_values(self):
        assert d1_tian(P(r1=0.6, r2=0, beta=1.3, L=2)) == pytest.approx(0.4)
        assert d1_tian(P(r1=0.9, r2=0, beta=0.3, L=3)) == pytest.approx(0.6)
        assert d1_tian(P(r1=0.3, r2=0, beta=0.5, L=1)) == pytest.approx(0.2)

    def test_d2(self):
        assert d2_tian(P(r1=0, r2=0.9, L=2)) == pytest.approx(0.55)
        assert d2_tian(P(r1=0, r2=0.0, L=2)) == 1.0
        assert d2_tian(P(r1=0, r2=1.0, L=1)) == 0.0

    def test_general_examples(self):
        assert d1_tian_general(P(r1=0, r2=0.5, beta=1.0, L=2)) == 1.0
        assert d1_tian_general(P(r1=0.9, r2=0.2, beta=0.3, L=3)) == pytest.approx(0.6)

    def test_general_never_exceeds_single_term(self):
        # the single-term form keeps only the ACK-at-round-1 term
        rng = np.random.default_rng(9)
        for _ in range(300):
            p = P(r1=float(rng.uniform(0, 1)), r2=float(rng.uniform(0, 1)),
                  beta=float(rng.uniform(0, 2)), L=int(rng.integers(1, 5)))
            assert d1_tian_general(p) <= d1_tian(p) + 1e-12

    def test_single_term_form_is_optimistic_under_heavy_interference(self):
        # with a highly loaded second user the dominant outage path runs
        # through a late ACK round, which the single-term form misses
        p = P(r1=0.1, r2=0.5, beta=0.9, L=2)
        assert d1_tian_general(p) == pytest.approx(0.55)
        assert d1_tian(p) == pytest.approx(0.9)


class TestSpecialCaseIdentities:
    def test_hk_reduces_to_tian_general(self):
        # with no common stream and no power split the two schemes coincide
        # for every parameter choice, including the second user's rate
        rng = np.random.default_rng(17)
        for _ in range(500):
            p = P(r1=float(rng.uniform(0, 1)), r2=float(rng.uniform(0, 1)),
                  beta=float(rng.uniform(0, 2)), L=int(rng.integers(1, 6)))
            assert d1_hk(p) == pytest.approx(d1_tian_general(p), abs=1e-12)

    def test_all_three_agree_when_other_user_is_unloaded(self):
        for r1 in np.linspace(0, 1, 21):
            for beta in np.linspace(0, 2, 21):
                for L in (1, 2, 3, 4, 5):
                    p = P(r1=float(r1), r2=0.0, beta=float(beta), L=L)
                    a, g, c = d1_hk(p), d1_tian_general(p), d1_tian(p)
                    assert abs(a - g) <= 1e-12
                    assert abs(g - c) <= 1e-12


class TestCoopCmo:
    def test_d11_high_rate(self):
        assert d11c_cmo2(0.8, 0.3) == pytest.approx(0.6)

    def test_d11_low_rate(self):
        assert d11c_cmo2(0.2, 1.0) == pytest.approx(1.7)

    def test_d11_zero_rate(self):
        assert d11c_cmo2(0.0, 1.3) == pytest.approx(2.0)

    def test_d12(self):
        assert d12c_cmo2(0.4, 0.6, 0.9) == pytest.approx(0.9)
        assert d12c_cmo2(0.0, 0.0, 0.5) == pytest.approx(1.5)
        assert d12c_cmo2(1.0, 1.0, 0.5) == 0.0

    def test_d2(self):
        assert d2c_cmo2(0.3, 0.4, 1.0) == pytest.approx(0.8)
        assert d2c_cmo2(0.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_d1(self):
        assert d1c_cmo2(0.8, 0.1, 0.3) == pytest.approx(0.55)


class TestCoopTian:
    def test_branches(self):
        assert d1c_tian2(0.5, 0.4) == pytest.approx(0.55)
        assert d1c_tian2(0.1, 1.5) == pytest.approx(1.8)
        assert d1c_tian2(0.6, 1.0) == pytest.approx(2.0 / 3.0)

    def test_d2(self):
        assert d2c_tian2(0.3, 0.4, 0.5) == pytest.approx(0.8)
        assert d2c_tian2(0.0, 0.0, 2.0) == pytest.approx(1.0)
        # relay path [1-r2]^+ + [1-r1-beta]^+ = 0.7, duplex path 0.5
        assert d2c_tian2(0.1, 1.0, 0.2) == pytest.approx(0.5)

    def test_branch_continuity(self):
        eps = 1e-12
        for beta in np.linspace(0.05, 2.0, 40):
            for boundary in (beta, beta / 2.0, 0.5):
                if not eps < boundary < 1.0 - eps:
                    continue
                lo = d1c_tian2(boundary - eps, float(beta))
                hi = d1c_tian2(boundary + eps, float(beta))
                assert lo == pytest.approx(hi, abs=1e-9)


class TestStaticOverall:
    def test_zero_rates(self):
        d1, _ = d_static_overall(0.0, 0.0, 1.0)
        assert d1 == pytest.approx(2.0)

    def test_is_max(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r1, r2 = rng.uniform(0, 1, 2)
            beta = float(rng.uniform(0, 2))
            d1, d2 = d_static_overall(float(r1), float(r2), beta)
            c1, t1 = d1c_cmo2(float(r1), float(r2), beta), d1c_tian2(float(r1), beta)
            assert d1 == max(c1, t1)
            expect_d2 = d2c_cmo2(float(r1), float(r2), beta) if c1 >= t1 \
                else d2c_tian2(float(r1), float(r2), beta)
            assert d2 == expect_d2

    def test_evaluates_both_branches(self):
        d1, _ = d_static_overall(0.05, 0.9, 1.3)
        assert d1 == max(d1c_cmo2(0.05, 0.9, 1.3), d1c_tian2(0.05, 1.3))


class TestDynamicDecoding:
    def test_d12_mid_rate(self):
        assert d12c_dd2(0.6, 0.8, 0.9) == pytest.approx(0.9 - 0.2 * 0.8 / 0.6)

    def test_d12_low_rate(self):
        assert d12c_dd2(0.3, 0.5, 0.6) == pytest.approx(1.0)

    def test_d12_matches_cmo_when_r1_dominates(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            r2 = float(rng.uniform(0.05, 0.9))
            beta = float(rng.uniform(r2 + 0.01, 2.0))
            r1 = float(rng.uniform(r2, 1.0))
            assert d12c_dd2(r1, r2, beta) == d12c_cmo2(r1, r2, beta)

    def test_d12_branch_continuity(self):
        eps = 1e-12
        rng = np.random.default_rng(31)
        for _ in range(200):
            beta = float(rng.uniform(0.1, 2.0))
            r2 = float(rng.uniform(0.05, min(1.0, beta) - 1e-6)) \
                if beta > 0.06 else 0.05
            # r1 = r2 and r1 = 1/2 boundaries inside the r2 < beta regime
            for boundary in (r2, 0.5):
                if not eps < boundary < 1 - eps or boundary > r2:
                    continue
                lo = d12c_dd2(boundary - eps, r2, beta)
                hi = d12c_dd2(boundary + eps, r2, beta)
                assert lo == pytest.approx(hi, abs=1e-9)

    def test_d2_is_max_of_static_d2s(self):
        for r1 in np.linspace(0, 1, 21):
            for r2 in np.linspace(0, 1, 21):
                for beta in (0.2, 0.6, 1.0, 1.5, 2.0):
                    lhs = d2c_dd2(float(r1), float(r2), beta)
                    rhs = max(d2c_cmo2(float(r1), float(r2), beta),
                              d2c_tian2(float(r1), float(r2), beta))
                    assert lhs == rhs

    def test_dominates_static_cmo(self):
        for r1 in np.linspace(0.001, 1, 200):
            for beta, r2 in ((1.3, 0.9), (0.5, 0.3), (2.0, 0.7)):
                assert d1c_dd2(float(r1), r2, beta) >= d1c_cmo2(float(r1), r2, beta) - 1e-12


class TestPolicies:
    def test_keep_worked_example(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        assert d1_hk_keep(p) == pytest.approx(0.05)

    def test_keep_never_beats_policy(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            p = P(r1=float(rng.uniform(0, 1)), r2=float(rng.uniform(0, 1)),
                  t2=0.0, b=float(rng.uniform(0, 0.5)),
                  beta=float(rng.uniform(0, 2)), L=int(rng.integers(1, 5)))
            p = P(r1=p.r1, r2=p.r2, t2=float(rng.uniform(0, p.r2)), b=p.b,
                  beta=p.beta, L=p.L)
            assert d1_hk(p) >= d1_hk_keep(p) - 1e-12

    def test_keep_at_zero_rate(self):
        p = P(r1=0.0, r2=0.4, t2=0.1, b=0.2, beta=0.8, L=2)
        assert d1_hk_keep(p) <= d1_hk(p) + 1e-12

    def test_stop_worked_example(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        assert d1_hk_stop(p) == pytest.approx(0.6)
        assert d1_hk_stop(p).label == "i=1,d12:mid-sum"

    def test_mixed_policy_beats_keep_and_stop(self):
        # the paper's claim in closed form: sending only the common stream
        # after TX2's ACK is never worse than keeping or stopping both
        rng = np.random.default_rng(91)
        for k in range(20_000):
            r2 = float(rng.uniform(0, 1))
            t2 = (0.0, r2, float(rng.uniform(0, r2)))[k % 3]
            b = 0.0 if k % 4 == 0 else float(rng.uniform(0, 1))
            p = P(r1=float(rng.uniform(0, 1)), r2=r2, t2=t2, b=b,
                  beta=float(rng.uniform(0, 2)), L=k % 6 + 1)
            assert d1_hk(p) >= max(d1_hk_keep(p), d1_hk_stop(p)), p


class TestD12HkStop:
    @pytest.mark.parametrize("kw, i, label, value", [
        (dict(r1=0.1, t2=0.0, b=0.1, beta=0.5, L=2), 2, "d12:joint", 1.4),
        (dict(r1=0.2, t2=0.1, b=0.6, beta=0.8, L=3), 1, "d12:low-sum", 1.5),
        (dict(r1=0.1, t2=0.1, b=0.1, beta=0.5, L=2), 1, "d12:mid-sum", 0.9),
        (dict(r1=0.1, t2=0.2, b=0.1, beta=0.5, L=2), 2, "d12:high-sum", 0.45),
    ], ids=["joint", "low-sum", "mid-sum", "high-sum"])
    def test_each_piece_matches_oracle(self, kw, i, label, value):
        p = P(r2=0.5, **kw)
        got = d12_hk_stop(p, i)
        assert got.label == label
        assert got == pytest.approx(value, abs=1e-15)
        oracle = oracle_min_exponent(region_o12_hk(p, i, stop=True))
        assert abs(got - oracle) <= 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            d12_hk_stop(P(r1=0.3, r2=0.3, L=2), 3)

    def test_d1_matches_oracle(self):
        rng = np.random.default_rng(43)
        for k in range(3000):
            r2 = float(rng.uniform(RATE_FLOOR, 1))
            t2 = (0.0, r2, float(rng.uniform(0, r2)))[k % 3]
            b = (0.0, 1e20, float(rng.uniform(0, 1)), float(rng.uniform(0, 3)))[k % 4]
            r1 = RATE_FLOOR if k % 5 == 0 else float(rng.uniform(RATE_FLOOR, 1))
            p = P(r1=r1, r2=r2, t2=t2, b=b, beta=float(rng.uniform(0, 3)),
                  L=k % 6 + 1)
            assert abs(d1_hk_stop(p) - oracle_d1_hk(p, stop=True)) <= 1e-12, p

    @pytest.mark.parametrize("b, d12, d1", [
        (math.nextafter(0.25, 0.0), 0.2, 0.7),
        (0.25, 1.3, 0.75),
        (math.nextafter(0.25, 1.0), 1.3, 0.75),
    ], ids=["below", "at", "above"])
    def test_oracle_reads_lower_side_at_jump(self, b, d12, d1):
        # s = r1 + t2 = 0.5 = i*b at round i = 2: both closed forms jump up
        # at s <= i*b, but within its closure slack the oracle admits the
        # flat piece at gamma21 = 0 and keeps reading the lower side
        p = P(r1=0.25, r2=0.5, t2=0.25, b=b, beta=0.8, L=2)
        for form in (d12_hk, d12_hk_stop):
            assert form(p, 2) == pytest.approx(d12, abs=1e-15)
        for stop in (False, True):
            o12 = oracle_min_exponent(region_o12_hk(p, 2, stop))
            assert o12 == pytest.approx(0.2, abs=1e-15)
            assert oracle_d1_hk(p, stop) == pytest.approx(0.7, abs=1e-15)
        assert d1_hk(p) == d1_hk_stop(p) == pytest.approx(d1, abs=1e-15)


class TestGlobalInvariants:
    def _random_params(self, rng):
        r2 = float(rng.uniform(0, 1))
        return P(r1=float(rng.uniform(0, 1)), r2=r2,
                 t2=float(rng.uniform(0, r2)), b=float(rng.uniform(0, 1)),
                 beta=float(rng.uniform(0, 2)), L=int(rng.integers(1, 6)))

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(101)
        for _ in range(400):
            p = self._random_params(rng)
            hi = 2.0 + p.beta
            vals = [
                d1_hk(p), d2_hk(p), d1_cmo(p), d2_cmo(p),
                d1_tian(p), d1_tian_general(p), d2_tian(p), d1_hk_keep(p),
                d11c_cmo2(p.r1, p.beta), d12c_cmo2(p.r1, p.r2, p.beta),
                d1c_cmo2(p.r1, p.r2, p.beta), d2c_cmo2(p.r1, p.r2, p.beta),
                d1c_tian2(p.r1, p.beta), d2c_tian2(p.r1, p.r2, p.beta),
                d1c_dd2(p.r1, p.r2, p.beta), d2c_dd2(p.r1, p.r2, p.beta),
            ]
            for v in vals:
                assert 0.0 <= v <= hi + 1e-12

    def test_rate_monotonicity(self):
        rng = np.random.default_rng(55)
        for _ in range(300):
            p = self._random_params(rng)
            dr = float(rng.uniform(0, 1.0 - p.r1))
            hi = P(r1=p.r1 + dr, r2=p.r2, t2=p.t2, b=p.b, beta=p.beta, L=p.L)
            for fn in (d1_hk, d1_cmo, d1_tian, d1_tian_general):
                assert fn(hi) <= fn(p) + 1e-12
            dr2 = float(rng.uniform(0, 1.0 - p.r2))
            hi2 = P(r1=p.r1, r2=p.r2 + dr2, t2=p.t2, b=p.b, beta=p.beta, L=p.L)
            assert d2_hk(hi2) <= d2_hk(p) + 1e-12
            assert d2_cmo(hi2) <= d2_cmo(p) + 1e-12
            assert d1_hk(hi2) <= d1_hk(p) + 1e-12

    def test_rx2_cooperation_cost(self):
        # giving up the second transmission round to relay can only hurt RX2
        for r1 in np.linspace(0, 1, 15):
            for r2 in np.linspace(0, 1, 15):
                for beta in (0.2, 0.8, 1.3, 2.0):
                    base = P(r1=float(r1), r2=float(r2), beta=beta, L=2)
                    assert d2c_cmo2(float(r1), float(r2), beta) <= d2_cmo(base) + 1e-12
                    assert d2c_tian2(float(r1), float(r2), beta) <= d2_tian(base) + 1e-12
                    assert d2c_dd2(float(r1), float(r2), beta) <= d2_cmo(base) + 1e-12


class TestSchemeDmt:
    def test_coop_requires_two_rounds(self):
        p = P(r1=0.3, r2=0.3, beta=1.0, L=3)
        with pytest.raises(ParameterError, match="require L=2"):
            scheme_dmt(SchemeId.COOP_CMO, p)

    # the public closed forms behind each scheme's (d1, d2)
    FORMS = {
        SchemeId.HK: lambda p: (d1_hk(p), d2_hk(p)),
        SchemeId.CMO: lambda p: (d1_cmo(p), d2_cmo(p)),
        SchemeId.TIAN: lambda p: (d1_tian_general(p), d2_tian(p)),
        SchemeId.HK_KEEP: lambda p: (d1_hk_keep(p), d2_hk(p)),
        SchemeId.HK_STOP: lambda p: (d1_hk_stop(p), d2_hk(p)),
        SchemeId.COOP_CMO: lambda p: (d1c_cmo2(p.r1, p.r2, p.beta),
                                      d2c_cmo2(p.r1, p.r2, p.beta)),
        SchemeId.COOP_TIAN: lambda p: (d1c_tian2(p.r1, p.beta),
                                       d2c_tian2(p.r1, p.r2, p.beta)),
        SchemeId.COOP_STATIC: lambda p: d_static_overall(p.r1, p.r2, p.beta),
        SchemeId.COOP_DD: lambda p: (d1c_dd2(p.r1, p.r2, p.beta),
                                     d2c_dd2(p.r1, p.r2, p.beta)),
    }

    def test_public_forms_and_named_winners(self):
        rng = np.random.default_rng(29)
        for k in range(250):
            r1 = 0.0 if k % 10 == 0 else float(rng.uniform(0, 1))
            r2 = float(rng.uniform(0, 1))
            t2 = float(rng.uniform(0, r2))
            b = float(rng.uniform(0.01, 0.6))
            beta = float(rng.uniform(0, 2))
            L = int(rng.integers(1, 6))
            for scheme, forms in self.FORMS.items():
                p = P(r1=r1, r2=r2, t2=t2, b=b, beta=beta,
                      L=2 if scheme in COOP_SCHEMES else L)
                got = scheme_dmt(scheme, p)
                d1, d2 = forms(p)
                assert got == (d1, d2), (scheme, p)
                assert [e.label for e in got] == [d1.label, d2.label]
                assert all(e.label for e in got), (scheme, p)
                if scheme not in (SchemeId.HK, SchemeId.TIAN, SchemeId.HK_STOP):
                    continue
                # the label names the ACK round whose term is d1; tian is hk
                # at t2 = b = 0 with RX1 treating interference as noise
                m = re.fullmatch(r"i=(\d+),(d1[12]:.+)", d1.label)
                assert m, (scheme, d1.label)
                i = int(m.group(1))
                assert 1 <= i <= p.L
                if scheme is SchemeId.HK:
                    q, event = p, min(d11_hk(p, i), d12_hk(p, i))
                elif scheme is SchemeId.HK_STOP:
                    q, event = p, min(d11_hk(p, i), d12_hk_stop(p, i))
                else:
                    q = P(r1=r1, r2=r2, beta=beta, L=L)
                    event = d11_hk(q, i)
                assert m.group(2) == event.label
                assert d1 == (0.0 if i == 1 else d2_hk(q, i - 1)) + event

    def test_all_schemes_dispatch(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        for s in SchemeId:
            d1, d2 = scheme_dmt(s, p)  # hk-stop included: every scheme has a pair
            assert d1 >= 0.0 and d2 >= 0.0
            assert isinstance(d1, Exponent) and isinstance(d2, Exponent)
            assert d1.label and d2.label
