"""Domain types, extended-real conventions, and parameter validation.

All diversity exponents in this package are plain nonnegative floats;
``math.inf`` encodes "decays faster than any polynomial order".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class ParameterError(ValueError):
    """A parameter violates its domain bound."""


class SchemeId(str, Enum):
    HK = "hk"
    CMO = "cmo"
    TIAN = "tian"
    COOP_CMO = "coop-cmo"
    COOP_TIAN = "coop-tian"
    COOP_STATIC = "coop-static"
    COOP_DD = "coop-dd"
    HK_KEEP = "hk-keep"
    HK_STOP = "hk-stop"

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(s.value for s in cls)
        raise ParameterError(f"unknown scheme {value!r}; valid schemes: {valid}")


COOP_SCHEMES = frozenset(
    {SchemeId.COOP_CMO, SchemeId.COOP_TIAN, SchemeId.COOP_STATIC, SchemeId.COOP_DD}
)


def pos_part(x: float) -> float:
    """max(x, 0), with -inf clamping to 0 and +inf passing through."""
    if math.isnan(x):
        raise ParameterError("pos_part: NaN input")
    return x if x > 0.0 else 0.0


def ext_div(num: float, den: float) -> float:
    """Nonnegative division with an explicit zero-denominator convention.

    Returns num/den for den > 0.  For den == 0 the result is +inf when
    num > 0 (the associated constraint is unreachable, so the bracketed
    term it feeds vanishes) and 0 when num == 0 (vacuous constraint, the
    bracketed term saturates at its cap).
    """
    if math.isnan(num) or math.isnan(den):
        raise ParameterError("ext_div: NaN input")
    if num < 0.0 or den < 0.0:
        raise ParameterError("ext_div: negative input")
    if den > 0.0:
        return num / den
    return math.inf if num > 0.0 else 0.0


@dataclass(frozen=True)
class SystemParams:
    """Operating point of the tradeoff.

    r1, r2  multiplexing gains of user 1 / user 2, in [0, 1]
    t2      common-stream multiplexing gain of user 2, in [0, r2]
    b       power-split exponent of user 2's private stream, >= 0
    beta    interference level (cross-link power scales as rho**(beta-1))
    L       maximum ARQ rounds, integer >= 1

    Construction raises ParameterError on the first violated bound.
    """

    r1: float
    r2: float
    t2: float = 0.0
    b: float = 0.0
    beta: float = 1.0
    L: int = 1

    def __post_init__(self):
        validate(self)

    @property
    def s2(self) -> float:
        """Private-stream multiplexing gain r2 - t2 (>= 0 by construction)."""
        return self.r2 - self.t2


def validate(params: SystemParams) -> SystemParams:
    """Return params unchanged if every invariant holds, else raise.

    The error message names the violated bound.
    """
    p = params
    for name, val in (("r1", p.r1), ("r2", p.r2), ("t2", p.t2),
                      ("b", p.b), ("beta", p.beta)):
        if not isinstance(val, (int, float)) or not math.isfinite(val):
            raise ParameterError(f"{name} must be a finite real number")
    if not 0.0 <= p.r1 <= 1.0:
        raise ParameterError("r1 must lie in [0, 1]")
    if not 0.0 <= p.r2 <= 1.0:
        raise ParameterError("r2 must lie in [0, 1]")
    if p.t2 < 0.0:
        raise ParameterError("t2 must be >= 0")
    if p.t2 > p.r2:
        raise ParameterError("t2 exceeds r2")
    if p.b < 0.0:
        raise ParameterError("b must be >= 0")
    if p.beta < 0.0:
        raise ParameterError("beta must be >= 0")
    if not isinstance(p.L, int) or p.L < 1:
        raise ParameterError("L must be >= 1")
    return p

