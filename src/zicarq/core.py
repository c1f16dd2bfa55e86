"""Domain types, extended-real conventions, and parameter validation.

All diversity exponents in this package are plain nonnegative floats;
``math.inf`` encodes "decays faster than any polynomial order".
"""

from __future__ import annotations

import math
import sys
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


def check_rounds(scheme: SchemeId, p: SystemParams) -> None:
    """Raise unless ``p.L`` is a delay the scheme is defined at: the
    cooperative schemes relay in round 2 and are defined at L = 2 only."""
    if scheme in COOP_SCHEMES and p.L != 2:
        raise ParameterError(f"cooperative schemes require L=2 (scheme {scheme.value})")


def check_round(L: int, i: int, first: int = 1, name: str = "round index i") -> None:
    """Raise unless ``i`` is an int (a bool is not) in first..L, by default
    one of the ARQ rounds 1..L.  The error names the index as ``name``."""
    if i.__class__ is not int:
        raise ParameterError(f"{name} must be an int, got {i!r}")
    if not first <= i <= L:
        raise ParameterError(f"{name}={i} outside {first}..{L}")


def check_seed(seed: int, name: str = "seed") -> None:
    """Raise unless ``seed`` is an int in [0, 2**64): the Monte Carlo key
    holds 64 bits of it, so any other seed would run as the one it aliases."""
    if not isinstance(seed, int) or seed is True or seed is False or not 0 <= seed < 1 << 64:
        raise ParameterError(f"{name} must be an integer in [0, 2**64), got {seed!r}")


# Smallest active rate the outage-region oracle accepts, and the lower end
# that `curve` clamps swept rates to: zero-rate limits live in the closed
# forms, not in the oracle.
RATE_FLOOR = 1e-3

# Largest delay L, and largest int in a real field: the closed forms mix
# both with floats, and a larger int does not convert to one.
_L_MAX = int(sys.float_info.max)


def pos_part(x: float) -> float:
    """max(x, 0), with -inf clamping to 0 and +inf passing through.

    NaN fails both comparisons and reaches the ParameterError on the last
    branch, so ordinary input pays for no NaN test.
    """
    if x > 0.0:
        return x
    if x <= 0.0:
        return 0.0
    raise ParameterError("pos_part: NaN input")


def ext_div(num: float, den: float) -> float:
    """Nonnegative division with an explicit zero-denominator convention.

    Returns num/den for den > 0.  For den == 0 the result is +inf when
    num > 0 (the associated constraint is unreachable, so the bracketed
    term it feeds vanishes) and 0 when num == 0 (vacuous constraint, the
    bracketed term saturates at its cap).

    A negative or NaN input fails the ordinary comparisons and falls through
    to the ParameterErrors on the last branches, so ordinary input pays for
    no NaN test.
    """
    if num >= 0.0:
        if den > 0.0:
            return num / den
        if den == 0.0:
            return math.inf if num > 0.0 else 0.0
    if math.isnan(num) or math.isnan(den):
        raise ParameterError("ext_div: NaN input")
    raise ParameterError("ext_div: negative input")


class SystemParams:
    """Operating point of the tradeoff.

    r1, r2  multiplexing gains of user 1 / user 2, in [0, 1]
    t2      common-stream multiplexing gain of user 2, in [0, r2]
    b       power-split exponent of user 2's private stream, >= 0
    beta    interference level (cross-link power scales as rho**(beta-1))
    L       maximum ARQ rounds, integer >= 1

    Construction raises ParameterError on the first violated bound.  A
    point is immutable and compares, hashes and prints by its six fields;
    :meth:`replace` returns a validated copy with some fields changed.
    Written out by hand rather than generated, so that starting the CLI
    imports no record-generating module and no ``inspect`` behind it.
    """

    def __init__(self, r1: float, r2: float, t2: float = 0.0, b: float = 0.0,
                 beta: float = 1.0, L: int = 1):
        # one call per field, through a setter looked up once; each field
        # lands in the instance's inline values, which read faster than a
        # __dict__ filled in one update
        _set = object.__setattr__
        _set(self, "r1", r1)
        _set(self, "r2", r2)
        _set(self, "t2", t2)
        _set(self, "b", b)
        _set(self, "beta", beta)
        _set(self, "L", L)
        validate(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.r1, self.r2, self.t2, self.b, self.beta, self.L)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(r1={self.r1!r}, r2={self.r2!r}, "
                f"t2={self.t2!r}, b={self.b!r}, beta={self.beta!r}, L={self.L!r})")

    def replace(self, **changes) -> SystemParams:
        """A validated copy with the named fields changed."""
        return self.__class__(**{**self.__dict__, **changes})

    @property
    def s2(self) -> float:
        """Private-stream multiplexing gain r2 - t2 (>= 0 by construction)."""
        return self.r2 - self.t2


# the real fields of a point, in SystemParams' order
REAL_FIELDS = ("r1", "r2", "t2", "b", "beta")


def validate(params: SystemParams) -> SystemParams:
    """Return params unchanged if every invariant holds, else raise.

    The error message names the violated bound.  A bool is rejected in
    every field, although ``bool`` subclasses ``int``.
    """
    p = params
    for val in (p.r1, p.r2, p.t2, p.b, p.beta):
        # an exact float needs the finiteness test alone; any other value
        # sends every field through the full test, which names the first
        # field that fails it
        if val.__class__ is not float or not math.isfinite(val):
            for name in REAL_FIELDS:
                val = getattr(p, name)
                if (not isinstance(val, (int, float)) or val is True or val is False
                        # finite, and for an int, no larger than the largest float
                        or not -_L_MAX <= val <= _L_MAX):
                    raise ParameterError(f"{name} must be a finite real number")
            break
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
    L = p.L
    if not isinstance(L, int) or L is True or L is False:
        raise ParameterError("L must be an int")
    if not 1 <= L <= _L_MAX:
        raise ParameterError("L must be >= 1" if L < 1 else
                             f"L must be <= {_L_MAX:.6g} (the largest float)")
    return p

