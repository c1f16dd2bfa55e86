import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zicarq.analytic import scheme_dmt
from zicarq.core import (
    ParameterError,
    SystemParams,
    ext_div,
    pos_part,
    validate,
)
from zicarq.simulator import run_trials


class TestPosPart:
    def test_negative_clamps(self):
        assert pos_part(-0.3) == 0.0

    def test_identity_on_nonnegative(self):
        assert pos_part(0.7) == 0.7

    def test_neg_infinity(self):
        assert pos_part(-math.inf) == 0.0

    def test_pos_infinity(self):
        assert pos_part(math.inf) == math.inf

    def test_nan_rejected(self):
        with pytest.raises(ParameterError):
            pos_part(math.nan)

    @given(st.floats(allow_nan=False))
    @settings(max_examples=200)
    def test_idempotent(self, x):
        assert pos_part(pos_part(x)) == pos_part(x)

    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    @settings(max_examples=200)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert pos_part(lo) <= pos_part(hi)


class TestExtDiv:
    def test_positive_over_zero(self):
        assert ext_div(0.5, 0.0) == math.inf

    def test_zero_over_zero(self):
        assert ext_div(0.0, 0.0) == 0.0

    def test_ordinary_division(self):
        assert ext_div(0.6, 2.0) == pytest.approx(0.3)

    def test_bracket_consequence(self):
        # the convention the closed forms rely on
        assert pos_part(1.0 - ext_div(0.4, 0.0)) == 0.0
        assert pos_part(1.0 - ext_div(0.0, 0.0)) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            ext_div(-1.0, 2.0)
        with pytest.raises(ParameterError):
            ext_div(1.0, -2.0)

    @given(
        st.floats(min_value=1e-9, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_monotone_nonincreasing_in_den(self, num, d1, d2):
        lo, hi = min(d1, d2), max(d1, d2)
        assert ext_div(num, lo) >= ext_div(num, hi)


class TestValidate:
    def test_accepts_valid(self):
        p = SystemParams(r1=0.5, r2=0.9, t2=0.4, b=0.1, beta=1.3, L=2)
        assert validate(p) is p

    def test_t2_exceeds_r2(self):
        with pytest.raises(ParameterError, match="t2 exceeds r2"):
            validate(SystemParams(r1=0.5, r2=0.4, t2=0.5, L=1))

    def test_l_zero(self):
        with pytest.raises(ParameterError, match="L must be >= 1"):
            validate(SystemParams(r1=0.5, r2=0.4, L=0))

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(r1=1.5, r2=0.5), "r1"),
            (dict(r1=0.5, r2=-0.1), "r2"),
            (dict(r1=0.5, r2=0.5, b=-0.2), "b"),
            (dict(r1=0.5, r2=0.5, beta=-1.0), "beta"),
        ],
    )
    def test_bounds(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            validate(SystemParams(L=1, **kwargs))

    def test_derived_s2(self):
        p = SystemParams(r1=0.1, r2=0.7, t2=0.2, L=2)
        assert p.s2 == pytest.approx(0.5)


class TestSchemeId:
    @pytest.mark.parametrize("call", [
        lambda p: scheme_dmt("bogus", p),
        lambda p: run_trials("bogus", p, 100.0, 10, 0),
    ], ids=["scheme_dmt", "run_trials"])
    def test_unknown_scheme_names_valid_ones(self, call):
        with pytest.raises(ParameterError,
                           match="unknown scheme 'bogus'; valid schemes: .*hk-stop"):
            call(SystemParams(r1=0.3, r2=0.3))
