import math

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
        # past the cap every bracket has clamped, so membership freezes,
        # an infinite gain exponent included
        rng = np.random.default_rng(8)
        p = P(r1=0.4, r2=0.6, t2=0.2, b=0.1, beta=1.4, L=3)
        cap = regions._cap(p.beta)
        for region in (region_o11_hk(p, 2), region_o12_hk(p, 2), region_rx1_cmo(p)):
            for _ in range(50):
                g_other = float(rng.uniform(0, cap))
                for far in (cap * 3, math.inf):
                    a = region.member(cap, g_other)
                    b = region.member(far, g_other)
                    assert a == b
                    a = region.member(g_other, cap)
                    b = region.member(g_other, far)
                    assert a == b


class TestAffineInF:
    """``f * (1 - g11)``, ``g11 + f`` and ``(1 + f) * g21`` each fold into
    one affine piece with an f row, which the evaluator must add."""

    def test_leaves_match_definitions(self):
        g11, g21, f = symbols()
        a, b, ff = np.random.default_rng(5).uniform(0.0, 2.0, (3, 200))
        theta = np.array([0.8, 0.1, 0.3, 0.4, 0.2, 1.5, 1.0])
        for expr, expect in ((f * (1.0 - g11), ff * (1.0 - a)), (g11 + f, a + ff),
                             ((1.0 + f) * g21, (1.0 + ff) * b)):
            assert len(expr.pieces) == 1 and expr.pieces[0, 1].any()
            program = regions._Program(expr)
            got = program(regions._bind(program.leaves, theta), a, b, ff)
            np.testing.assert_allclose(got, expect, rtol=1e-15, atol=0)

    def test_region_reads_f_terms(self):
        g11, _, f = symbols()
        region = OutageRegion("F_SCALED", "coop", f * (1.0 - g11) < 0.2, P(r1=0.3, r2=0.4))
        assert not region.member(0.25, 0.0, 0.5) and region.member(0.75, 0.0, 0.5)
        a, ff = np.random.default_rng(6).uniform(0.0, 1.0, (2, 200))
        np.testing.assert_array_equal(region.member(a, 0.0, ff), ff * (1.0 - a) < 0.2)


class TestExprRefusals:
    """A tree stays affine in f and piecewise affine in gamma, or is refused
    while it is built."""

    def test_term_quadratic_in_f(self):
        _, _, f = symbols()
        with pytest.raises(ValueError, match="affine in f"):
            f * f

    def test_product_of_two_gamma_terms(self):
        g11, g21, _ = symbols()
        with pytest.raises(TypeError, match="one factor free of gamma"):
            g11 * g21

    def test_rate_not_affine(self):
        g11, g21, _ = symbols()
        with pytest.raises(TypeError, match="rate must be affine"):
            g11 < pos_part(g21)


COOP_EVENTS = ("O1_COOP", "O2_COOP", "O3_COOP", "O11_DD", "O12_DD")


def _count_min_gamma(monkeypatch):
    """Patch the oracle's gamma solve to log how many listening fractions
    each call solves at."""
    sizes = []
    solve = regions._min_gamma

    def counted(region, f):
        sizes.append(len(f))
        return solve(region, f)

    monkeypatch.setattr(regions, "_min_gamma", counted)
    return sizes


def _reference(node, theta, g11, g21, f, slack):
    """A node's value by recursion over the tree, each affine leaf bound to
    theta as its constant column's product with theta."""
    if node.op == "affine":
        (a, b, c), (a1, b1, c1) = np.column_stack([node.pieces[0, :, :2],
                                                   node.pieces[0, :, 2:] @ theta])
        return c + a * g11 + b * g21 + f * (c1 + a1 * g11 + b1 * g21)
    args = [_reference(arg, theta, g11, g21, f, slack) if hasattr(arg, "op") else arg
            for arg in node.args]
    if node.op == "max":
        return np.maximum(*args)
    if node.op == "add":
        return args[0] + args[1]
    if node.op == "scale":
        k0, k1, x = args
        return (k0 + k1 * f) * x
    if node.op == "lt":
        return args[0] < args[1] + slack
    if node.op == "or":
        return args[0] | args[1]
    assert node.op == "and", node.op
    return args[0] & args[1]


class TestCompiledMembership:
    """Each event's compiled program equals a plain recursive walk of its
    tree, bit for bit, on every family."""

    @staticmethod
    def _regions(p):
        for L in range(1, 5):
            q = p.replace(L=L)
            yield region_rx2_hk(q)
            yield region_rx1_cmo(q)
            for i in range(1, L + 1):
                yield region_o11_hk(q, i)
                yield region_o12_hk(q, i)
                yield region_o12_hk(q, i, stop=True)
        coop = p.replace(t2=0.0, b=0.0, L=2)
        for name in COOP_EVENTS:
            yield region_coop(name, coop)
        g11, _, f = symbols()
        yield OutageRegion("F_SCALED", "coop", f * (1.0 - g11) + pos_part(g11 - f) < 0.4, coop)

    @pytest.mark.parametrize("beta", [0.7, 1.6])
    def test_program_equals_tree(self, beta):
        p = P(r1=0.37, r2=0.61, t2=0.23, b=0.19, beta=beta, L=1)
        rng = np.random.default_rng(23)
        count = 0
        for region in self._regions(p):
            g11, g21 = rng.uniform(0.0, region.cap, (2, 2_000))
            f = rng.uniform(0.0, 1.0, 2_000) if region.kind == "coop" else 1.0
            slack = rng.uniform(0.0, 1e-3, 2_000)
            for s in (0.0, slack):
                got = region.member(g11, g21, f, slack=s)
                expect = _reference(region.event, region.theta, g11, g21, f, s)
                assert got.dtype == bool and np.array_equal(got, expect), region
                assert 0 < got.sum() < got.size, region
            count += 1
        assert count == 2 * 4 + 3 * 10 + 5 + 1


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

    @pytest.mark.parametrize("beta,r1", [(2.5, 0.75), (3.0, 0.8), (4.0, 0.85), (5.0, 0.9)])
    def test_coop_o1_round_two_term(self, beta, r1):
        # d11c_cmo2's 2 - 1.5*r1 wins only at beta > 2, outside the box that
        # verify samples, so this is where its closed form meets the oracle
        got = oracle_min_exponent_coop(region_coop("O1_COOP", P(r1=r1, r2=0.0, beta=beta)))
        assert abs(got - (2.0 - 1.5 * r1)) <= TOL
        assert abs(analytic.d11c_cmo2(r1, beta) - got) <= TOL

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
        with pytest.raises(ParameterError, match="rate floor"):
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

    def test_coop_anchor_off_a_coarse_grid(self):
        # the minimum lies between the points of a three-point grid in v,
        # which reads it at least 0.02 too high (0.0203 with its cells' kinks)
        r1, beta = 0.40554862885485976, 1.0625336881257679
        region = region_coop("O1_COOP", P(r1=r1, r2=0.0, beta=beta))
        got = oracle_min_exponent_coop(region)
        assert abs(got - analytic.d11c_cmo2(r1, beta)) <= 1e-14
        v = np.linspace(1.0, 1.0 / r1, 3)
        assert (regions._min_gamma(region, 1.0 / v)[0] + 1.0 - r1 * v).min() - got > 0.02

    def test_coop_search_splits_a_cell(self, monkeypatch):
        # the kink between the ends' optimal vertices has a third optimal
        # vertex, so the search must solve more than the ends and one round
        sizes = _count_min_gamma(monkeypatch)
        r1, beta = 0.37671331736191965, 1.7328803218152593
        region = region_coop("O11_DD", P(r1=r1, r2=0.498533310040877, beta=beta))
        got = oracle_min_exponent_coop(region)
        assert abs(got - analytic.d11c_cmo2(r1, beta)) <= 1e-14
        assert sizes[0] == 2 and len(sizes) > 2, sizes

    def test_coop_search_cost(self, monkeypatch):
        # counted gamma solves, no timing: at most 4 v points per minimum on
        # average, and no search reaches its round cap
        rng = np.random.default_rng(7)
        points = [sample_params(rng, SchemeId.COOP_DD) for _ in range(200)]
        sizes = _count_min_gamma(monkeypatch)
        solved, longest = 0, 0
        for p in points:
            for name in COOP_EVENTS:
                sizes.clear()
                oracle_min_exponent_coop(region_coop(name, p))
                solved += sum(sizes)
                longest = max(longest, len(sizes))
        assert solved / (len(points) * len(COOP_EVENTS)) <= 4.0
        assert longest <= regions._ROUNDS

    def test_kinks_do_not_depend_on_the_other_cells(self):
        # a cell's roots come out bit for bit the same whether the cell is
        # passed alone or beside others, so batching the cells of many
        # minima into one call would leave each minimum's search path as is
        rng = np.random.default_rng(7)
        found = 0
        for n in range(400):
            p = sample_params(rng, SchemeId.COOP_DD)
            region = region_coop(COOP_EVENTS[n % len(COOP_EVENTS)], p)
            v = np.linspace(1.0, 1.0 / p.r1, 6)
            g, k = regions._min_gamma(region, 1.0 / v)
            ends = list(zip(v.tolist(), (g + (1.0 - p.r1 * v)).tolist(), k.tolist()))
            lo, hi = ends[:-1], ends[1:]
            cells, roots = regions._kinks(region, lo, hi)
            cells = np.array(cells, dtype=int)
            for c in range(len(lo)):
                alone = regions._kinks(region, [lo[c]], [hi[c]])[1]
                assert roots[cells == c].tobytes() == alone.tobytes()
            found += len(roots)
        assert found > 100

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
        with pytest.raises(ParameterError, match="rate floor"):
            oracle_d1_hk(P(r1=0.0, r2=0.5, L=2))

    @pytest.mark.parametrize("stop", [False, True])
    def test_rate_floor_only_on_regions_built(self, stop):
        # a single round builds no RX2 prefix region, so r2 may sit below the floor
        p = P(r1=0.3, r2=0.0, b=0.1, beta=0.5, L=1)
        assert oracle_d1_hk(p, stop) == pytest.approx(analytic.d1_hk(p), abs=1e-12)
        with pytest.raises(ParameterError, match=r"O_RX2_HK\(l=1\).*rate floor"):
            oracle_d1_hk(p.replace(L=2), stop)


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

        rx2 = region_rx2_hk(p.replace(L=2))
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

    def test_coop_static_is_oracle_envelope(self):
        # d1 is the better static decoder's oracle minimum and d2 that
        # decoder's; at a d1 tie either decoder's d2 is the scheme's
        rng = np.random.default_rng(3)
        winners = set()
        for _ in range(60):
            p = sample_params(rng, SchemeId.COOP_STATIC)
            d1, d2 = analytic.d_static_overall(p.r1, p.r2, p.beta)

            def coop(name):
                return oracle_min_exponent_coop(region_coop(name, p))

            cmo = min(coop("O1_COOP"), coop("O2_COOP"))
            tian = coop("O3_COOP")
            assert abs(d1 - max(cmo, tian)) <= TOL, p
            if abs(cmo - tian) <= TOL:
                decoders = (SchemeId.COOP_CMO, SchemeId.COOP_TIAN)
            else:
                decoders = (SchemeId.COOP_CMO if cmo > tian else SchemeId.COOP_TIAN,)
            winners.update(decoders)
            assert min(abs(d2 - oracle_d2_coop(p, s)) for s in decoders) <= TOL, p
        assert winners == {SchemeId.COOP_CMO, SchemeId.COOP_TIAN}

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
                    p = sample_params(rng, scheme).replace(beta=beta, L=L)
                    for check, closed, oracle in _verify_checks(scheme, p):
                        assert abs(closed - oracle) <= 1e-12, (check, p)

    @pytest.mark.parametrize("b", [1e15, 1e16, 1e20])
    def test_large_b(self, b):
        # once b >= max(1, beta) every b term is 0 over the box, so a huge b
        # gives the minima of b = cap, and the closed forms still agree
        p = P(r1=0.5, r2=0.5, t2=0.2, b=b, beta=0.8, L=2)
        at_cap = p.replace(b=regions._cap(p.beta))
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
                    oracle_d1_hk(p.replace(beta=beta), stop)
            with pytest.raises(ParameterError, match="beta.*ceiling"):
                oracle_min_exponent_coop(region_coop("O1_COOP", coop.replace(beta=beta)))

    def test_level_constant_cancels(self):
        # 1 - b - (r2 - t2) leaves RX2 a level constant of 0.005 where the
        # compared values are 0.72, so the slack must follow the terms
        p = P(r1=0.8145143700705831, r2=0.9187082787536379, t2=0.1963162175546898,
              b=0.27249134072900205, beta=5.0, L=3)
        got = oracle_min_exponent(region_rx2_hk(p.replace(L=1)))
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
                got = oracle_min_exponent_coop(region_coop("O12_DD", p.replace(r2=r2)))
                assert abs(got - analytic.d12c_dd2(r1, r2, beta)) <= 1e-14, (r1, r2)


def _clear_compiled():
    for builder in vars(regions).values():
        if hasattr(builder, "cache_clear"):
            builder.cache_clear()


class TestCompiledFamilies:
    def test_keyed_by_structure(self):
        # points that differ only in rates and beta share one compiled tree
        p = P(r1=0.3, r2=0.4, t2=0.1, b=0.1, beta=0.8, L=3)
        q = p.replace(r1=0.7, r2=0.9, t2=0.2, beta=1.6)
        _clear_compiled()
        first, second = region_o12_hk(p, 2), region_o12_hk(q, 2)
        info = regions._o12_event.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first.event is second.event
        region_o12_hk(p.replace(L=4), 2)  # a new structure compiles anew
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


def _o12_escapes(p, seed, n=10_000):
    """Draws uniform over the oracle's box, and per ACK round i the indices
    of those in O12_HK(i) but outside O12_STOP(i)."""
    g11, g21 = np.random.default_rng(seed).uniform(0.0, regions._cap(p.beta), (2, n))
    return g11, g21, {i: np.nonzero(regions.region_o12_hk(p, i).member(g11, g21)
                                    & ~regions.region_o12_hk(p, i, stop=True).member(g11, g21))[0]
                      for i in range(1, p.L + 1)}


class TestSubsetCheck:
    """O12_HK(i) lies within O12_STOP(i) at every ACK round i; O11 is shared,
    so the stop policy decodes nothing the mixed policy misses."""

    def test_no_counterexamples(self):
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        g11, g21, escapes = _o12_escapes(p, 3)
        assert not any(bad.size for bad in escapes.values())
        # strict before round L, where the tails differ
        assert region_o12_hk(p, 1, stop=True).member(g11, g21).sum() \
            > region_o12_hk(p, 1).member(g11, g21).sum() > 0

    def test_degenerate_pure_common(self):
        p = P(r1=0.5, r2=0.6, t2=0.6, b=0.0, beta=1.5, L=3)
        assert not any(bad.size for bad in _o12_escapes(p, 11)[2].values())

    def test_reports_stop_points_the_mixed_policy_misses(self, monkeypatch):
        # with an O12_HK that holds on the whole box, every draw outside
        # O12_STOP(i) escapes at round i
        p = P(r1=0.3, r2=0.4, t2=0.2, b=0.1, beta=0.8, L=2)
        gamma11, _, _ = symbols()
        everywhere = OutageRegion("O12_ALL", "rx1", gamma11 < 2 * regions._cap(p.beta), p)
        monkeypatch.setattr(regions, "region_o12_hk", lambda p, i, stop=False:
                            region_o12_hk(p, i, stop) if stop else everywhere)
        g11, g21, escapes = _o12_escapes(p, 3, 2_000)
        for i in (1, 2):
            outside = np.nonzero(~region_o12_hk(p, i, stop=True).member(g11, g21))[0]
            assert escapes[i].size and np.array_equal(escapes[i], outside), i


def _min_rx2_alone(region):
    """The minimum over one RX2 region by its own root solve: the box ends
    and the piece roots inside the box, the smallest member."""
    a, _, c = region.lines[:, 0].T
    roots = -c[a != 0] / a[a != 0]
    cand = np.concatenate([[0.0, region.cap], roots[(roots > 0.0) & (roots < region.cap)]])
    size = region.sizes[:, 0].max(axis=0, initial=0.0)
    inside = region.member(cand, slack=regions._SLACK * (size[0] * cand + size[2]))
    return float(cand[inside].min()) if inside.any() else math.inf


def _kinks_cell_by_cell(region, lo, hi):
    """regions._kinks with np.roots called on each cell's gap on its own."""
    (v_lo, _, k_lo), (v_hi, _, k_hi) = (np.array(ends).reshape(-1, 3).T for ends in (lo, hi))
    k_lo, k_hi = k_lo.astype(int), k_hi.astype(int)
    num, den = region.event.vertex_sums
    left, right = regions._poly_mul(
        np.tensordot(region.theta, num[:, np.concatenate([k_lo, k_hi])], 1),
        den[np.concatenate([k_hi, k_lo])]).reshape(2, len(v_lo), -1)
    gap = left - right
    scale = np.maximum(np.abs(left).max(axis=1), np.abs(right).max(axis=1))
    cells, out = [], []
    for c in np.nonzero(np.abs(gap).max(axis=1) > 1e-12 * scale)[0]:
        f = np.roots(gap[c, ::-1])
        f = f.real[np.abs(f.imag) <= 1e-6]
        f = f[(f >= 1.0 / v_hi[c]) & (f <= 1.0 / v_lo[c])]
        cells += [c] * len(f)
        out.append(1.0 / f)
    return cells, np.concatenate(out) if out else np.empty(0)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


class TestStackedPasses:
    """The oracle solves a point's RX1 regions in one vertex pass and its
    RX2 regions in one root pass; each region's minimum must come out bit
    for bit as if it were solved alone, whatever its batch."""

    @staticmethod
    def _families(rng, L):
        scheme = SchemeId(("hk", "hk-stop", "tian", "cmo")[int(rng.integers(0, 4))])
        p = sample_params(rng, scheme).replace(L=L)
        if rng.random() < 0.15:
            p = p.replace(b=float(rng.choice([1e20, 2.0])), beta=float(rng.choice([0.0, 5.0])))
        rx1 = [region_rx1_cmo(p), *(region(p, i) for i in range(1, L + 1)
                                    for region in (region_o11_hk, region_o12_hk,
                                                   lambda p, i: region_o12_hk(p, i, True)))]
        return p, rx1, [region_rx2_hk(p.replace(L=l)) for l in range(1, L + 1)]

    @staticmethod
    def _empty(p):
        g11, g21, _ = symbols()
        return (OutageRegion("EMPTY", "rx1", pos_part(g11) + pos_part(g21) + 1.0 < 0.5, p),
                OutageRegion("EMPTY22", "rx2", pos_part(g11) + 1.0 < 0.5, p))

    def _batches(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(60):
            rx1, rx2 = [], []
            for L in rng.integers(1, 9, 3).tolist():
                p, one, two = self._families(rng, L)
                empty1, empty2 = self._empty(p)
                rx1 += one + [empty1]
                rx2 += two + [empty2]
            for pool in (rx1, rx2):
                rng.shuffle(pool)
            size = int(rng.integers(1, 41))
            yield rx1[:size], rx2[:size]

    def test_min_rx1_equals_the_solve_alone(self):
        found = set()
        for batch, _ in self._batches(31):
            alone = [regions._min_gamma(region, np.ones(1))[0][0] for region in batch]
            assert _bits(regions._min_rx1(batch)) == _bits(alone), batch
            found.update(map(math.isfinite, alone))
        assert found == {True, False}

    def test_min_rx2_equals_the_solve_alone(self):
        found = set()
        for _, batch in self._batches(32):
            alone = [_min_rx2_alone(region) for region in batch]
            assert _bits(regions._min_rx2(batch)) == _bits(alone), batch
            found.update(map(math.isfinite, alone))
        assert found == {True, False}

    def test_oracle_hk_reads_the_same_minima(self):
        rng = np.random.default_rng(33)
        for n in range(40):
            p = sample_params(rng, SchemeId.HK).replace(L=n % 8 + 1)
            for stop in (False, True):
                d1, d2, terms = regions.oracle_hk(p, stop)
                assert d1 == oracle_d1_hk(p, stop)
                assert d2 == oracle_min_exponent(region_rx2_hk(p))
                assert terms == [oracle_rx1_hk(p, i, stop) for i in range(1, p.L + 1)]

    def test_roots_equal_np_roots_row_by_row(self):
        rng = np.random.default_rng(34)
        for n in range(300):
            polys = rng.normal(size=(int(rng.integers(0, 7)), 5))
            # zero leading, trailing and inner coefficients, and all-zero rows
            polys[rng.random(polys.shape) < 0.3] = 0.0
            if len(polys) and n % 5 == 0:
                polys[0] = 0.0
            for row, got in zip(polys, regions._roots(polys), strict=True):
                want = np.roots(row)
                assert np.real(got).tobytes() == np.real(want).tobytes(), row
                assert np.imag(got).tobytes() == np.imag(want).tobytes(), row

    def test_kinks_equal_np_roots_cell_by_cell(self):
        rng = np.random.default_rng(35)
        found = 0
        for n in range(200):
            p = sample_params(rng, SchemeId.COOP_DD)
            region = region_coop(COOP_EVENTS[n % len(COOP_EVENTS)], p)
            v = np.linspace(1.0, 1.0 / p.r1, int(rng.integers(2, 8)))
            g, k = regions._min_gamma(region, 1.0 / v)
            ends = list(zip(v.tolist(), (g + (1.0 - p.r1 * v)).tolist(), k.tolist()))
            cells, roots = regions._kinks(region, ends[:-1], ends[1:])
            want_cells, want = _kinks_cell_by_cell(region, ends[:-1], ends[1:])
            assert cells == list(want_cells) and roots.tobytes() == want.tobytes()
            found += len(roots)
        assert found > 50
