import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zicarq.analytic import Exponent, scheme_dmt
from zicarq.core import (
    REAL_FIELDS,
    ParameterError,
    SystemParams,
    ext_div,
    pos_part,
    validate,
)
from zicarq.simulator import run_trials

# every float but NaN, with the signed zeros and infinities always tried
NON_NAN = st.sampled_from([0.0, -0.0, math.inf, -math.inf]) | st.floats(allow_nan=False)


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

    @given(NON_NAN)
    @settings(max_examples=300)
    def test_plain_definition(self, x):
        want = x if x > 0 else 0.0
        got = pos_part(x)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

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

    @pytest.mark.parametrize("num,den", [(math.nan, 2.0), (0.5, math.nan),
                                         (math.nan, math.nan)],
                             ids=["num", "den", "both"])
    def test_nan_rejected(self, num, den):
        with pytest.raises(ParameterError, match="NaN"):
            ext_div(num, den)

    @given(NON_NAN, NON_NAN)
    @settings(max_examples=500)
    def test_matches_nan_first_reference(self, num, den):
        # the same values and errors as a form that tests NaN before anything
        def reference(num, den):
            if math.isnan(num) or math.isnan(den):
                raise ParameterError("ext_div: NaN input")
            if num < 0.0 or den < 0.0:
                raise ParameterError("ext_div: negative input")
            if den > 0.0:
                return num / den
            return math.inf if num > 0.0 else 0.0

        try:
            want = reference(num, den)
        except ParameterError as exc:
            with pytest.raises(ParameterError, match=str(exc)):
                ext_div(num, den)
            return
        got = ext_div(num, den)
        if math.isnan(want):  # inf / inf
            assert math.isnan(got)
        else:
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

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

    def test_l_past_the_largest_float(self):
        # the closed forms mix L with floats: the largest int that converts
        # to one runs them, and the next is refused with the bound named
        top = int(sys.float_info.max)
        for scheme in ("hk", "cmo", "tian", "hk-keep", "hk-stop"):
            scheme_dmt(scheme, SystemParams(r1=0.5, r2=0.4, t2=0.1, b=0.2, L=top))
        with pytest.raises(ParameterError, match=r"^L must be <= 1\.79769e\+308 "):
            SystemParams(r1=0.5, r2=0.4, L=top + 1)

    @pytest.mark.parametrize("L", [np.int64(2), 2.0], ids=["np.int64", "float"])
    def test_l_not_an_int(self, L):
        # a whole number of another type is refused as such, not as L < 1
        with pytest.raises(ParameterError, match="^L must be an int$"):
            SystemParams(r1=0.5, r2=0.4, L=L)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(r1=1.5, r2=0.5), "r1"),
            (dict(r1=0.5, r2=-0.1), "r2"),
            (dict(r1=0.5, r2=0.5, b=-0.2), "b"),
            (dict(r1=0.5, r2=0.5, beta=-1.0), "beta"),
            # bool subclasses int, but is no rate, exponent or delay
            (dict(r1=True, r2=0.4), "r1"),
            (dict(r1=0.5, r2=False), "r2"),
            (dict(r1=0.5, r2=0.5, t2=False), "t2"),
            (dict(r1=0.5, r2=0.5, b=True), "b"),
            (dict(r1=0.5, r2=0.5, beta=True), "beta"),
            (dict(r1=0.5, r2=0.5, L=True), "L"),
            # an exact float takes the finiteness test alone, and any other
            # value the full test, which names the field either way
            *[({"r1": 0.5, "r2": 0.5, name: bad}, f"^{name} must be a finite real number$")
              for name in REAL_FIELDS
              for bad in (math.nan, math.inf, -math.inf, np.float64("nan"), "0.5", None)],
        ],
    )
    def test_bounds(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            validate(SystemParams(**{"L": 1, **kwargs}))

    @pytest.mark.parametrize("value", [1, np.float64(0.25), Exponent(0.25)],
                             ids=["int", "np.float64", "Exponent"])
    def test_accepts_other_reals(self, value):
        # a real that is not an exact float is accepted as it is, in each field
        for name in REAL_FIELDS:
            p = SystemParams(**{"r1": 0.5, "r2": 1.0, "t2": 0.0, name: value})
            assert validate(p) is p
            assert getattr(p, name) is value

    def test_derived_s2(self):
        p = SystemParams(r1=0.1, r2=0.7, t2=0.2, L=2)
        assert p.s2 == pytest.approx(0.5)


class TestSystemParamsRecord:
    def test_frozen(self):
        p = SystemParams(r1=0.3, r2=0.4)
        for name in ("r1", "L", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, 0.5)
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert p == SystemParams(r1=0.3, r2=0.4)

    def test_equal_fields_equal_points_and_hashes(self):
        a = SystemParams(r1=0.3, r2=0.4, t2=0.1, b=0.2, beta=1.5, L=3)
        b = SystemParams(0.3, 0.4, 0.1, 0.2, 1.5, 3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a.replace(L=4)
        assert a != (0.3, 0.4, 0.1, 0.2, 1.5, 3)

    def test_repr(self):
        assert repr(SystemParams(r1=0.3, r2=0.4)) == (
            "SystemParams(r1=0.3, r2=0.4, t2=0.0, b=0.0, beta=1.0, L=1)")

    def test_positional_defaults(self):
        p = SystemParams(0.3, 0.4)
        assert vars(p) == dict(r1=0.3, r2=0.4, t2=0.0, b=0.0, beta=1.0, L=1)

    def test_replace_copies_and_validates(self):
        p = SystemParams(r1=0.5, r2=0.4)
        q = p.replace(t2=0.3, L=2)
        assert q == SystemParams(r1=0.5, r2=0.4, t2=0.3, L=2) and q is not p
        with pytest.raises(ParameterError, match="t2 exceeds r2"):
            p.replace(t2=0.9)
        assert vars(p) == dict(r1=0.5, r2=0.4, t2=0.0, b=0.0, beta=1.0, L=1)


class TestSchemeId:
    @pytest.mark.parametrize("call", [
        lambda p: scheme_dmt("bogus", p),
        lambda p: run_trials("bogus", p, 100.0, 10, 0),
    ], ids=["scheme_dmt", "run_trials"])
    def test_unknown_scheme_names_valid_ones(self, call):
        with pytest.raises(ParameterError,
                           match="unknown scheme 'bogus'; valid schemes: .*hk-stop"):
            call(SystemParams(r1=0.3, r2=0.3))
