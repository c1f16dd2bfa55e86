"""Closed-form diversity exponents for every ARQ scheme on the ZIC.

Non-cooperative schemes (any number of rounds L):

* ``hk``   rate splitting at TX2 into a common and a private stream; after
  TX2's own ACK only the common stream keeps transmitting until TX1 ACKs.
* ``cmo``  common-message-only special case; TX2 keeps sending the same
  message after its ACK.
* ``tian`` private-only special case (interference treated as noise at
  RX1); TX2 goes silent after its ACK.
* ``hk-keep`` / ``hk-stop`` alternative policies where TX2 keeps or stops
  both streams after its own ACK (used for policy comparisons; the stop
  variant has no closed form: ``zicarq.regions.oracle_d1_hk(p, stop=True)``
  evaluates it, and :func:`scheme_dmt` rejects it).

Cooperative schemes (fixed at L = 2): after a round-1 NACK from RX1, TX2
decodes TX1's message and relays it for the rest of round 2.  ``coop-cmo``
and ``coop-tian`` fix RX1's decoder; ``coop-dd`` lets RX1 pick per
realization; ``coop-static`` is the per-user envelope of the two static
decoders.

Every function returns a plain float exponent.  Functions suffixed
``_with_branch`` also report which branch of the piecewise form fired,
feeding the ``branch_trace`` of :class:`DmtResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    COOP_SCHEMES,
    ParameterError,
    SchemeId,
    SystemParams,
    ext_div,
    pos_part,
)


@dataclass(frozen=True)
class DmtResult:
    """Diversity pair plus an audit trail of the active formula branches."""

    d1: float
    d2: float
    branch_trace: tuple[tuple[str, str], ...] = ()


# ---------------------------------------------------------------------------
# non-cooperative closed forms
# ---------------------------------------------------------------------------

def d2_hk(p: SystemParams, rounds: int | None = None) -> float:
    """RX2 diversity under rate splitting after ``rounds`` ARQ rounds.

    rounds=0 is allowed: it is the ACK-prefix factor for round 1 and
    evaluates through ext_div (0 whenever r2 > 0).
    """
    l = p.L if rounds is None else rounds
    total = pos_part(1.0 - ext_div(p.r2, l))
    private = pos_part(1.0 - ext_div(p.s2, l) - p.b)
    return min(total, private)


def d11_hk(p: SystemParams, i: int) -> float:
    """Individual-rate outage exponent at RX1 given TX2 ACKed at round i."""
    if not 1 <= i <= p.L:
        raise IndexError(f"round index i={i} outside 1..{p.L}")
    tail = pos_part(1.0 - ext_div(p.r1, p.L - i))
    capped = pos_part(1.0 - (p.r1 + i * pos_part(p.beta - p.b)) / p.L)
    return max(tail, capped)


def d12_hk_with_branch(p: SystemParams, i: int) -> tuple[float, str]:
    if not 1 <= i <= p.L:
        raise IndexError(f"round index i={i} outside 1..{p.L}")
    s = p.r1 + p.t2
    lb = p.L * p.b
    if s <= lb:
        val = pos_part(1.0 - s / p.L) + pos_part(p.beta - s / p.L)
        return val, "low-sum"
    if s >= (p.L - i) * p.beta + i * p.b:
        val = pos_part(1.0 - (s + i * pos_part(p.beta - p.b)) / p.L)
        return val, "high-sum"
    # middle branch is unreachable at i == L, so the division is safe
    x = (s - i * p.b) / (p.L - i)
    return pos_part(1.0 - x) + pos_part(p.beta - x), "mid-sum"


def d12_hk(p: SystemParams, i: int) -> float:
    """Joint-rate outage exponent at RX1 given TX2 ACKed at round i."""
    return d12_hk_with_branch(p, i)[0]


def _hk_prefix(p: SystemParams, i: int) -> float:
    # ACK at round 1 carries no cost: the conditioning event has
    # probability of polynomial order 0.
    return 0.0 if i == 1 else d2_hk(p, rounds=i - 1)


def d1_hk_with_trace(p: SystemParams) -> tuple[float, tuple]:
    best = None
    trace = []
    for i in range(1, p.L + 1):
        v11 = d11_hk(p, i)
        v12, br = d12_hk_with_branch(p, i)
        term = _hk_prefix(p, i) + min(v11, v12)
        trace.append(("d1_hk", f"i={i},d12:{br}"))
        if best is None or term < best:
            best = term
    return best, tuple(trace)


def d1_hk(p: SystemParams) -> float:
    """RX1 diversity under rate splitting: dominant ACK-round term."""
    return d1_hk_with_trace(p)[0]


def d1_cmo(p: SystemParams) -> float:
    """RX1 diversity when TX2 sends a single common message."""
    s = (p.r1 + p.r2) / p.L
    return min(pos_part(1.0 - p.r1 / p.L), pos_part(1.0 - s) + pos_part(p.beta - s))


def d2_cmo(p: SystemParams) -> float:
    return pos_part(1.0 - p.r2 / p.L)


def d1_tian(p: SystemParams) -> float:
    """Single-term RX1 diversity for the private-only scheme.

    This is the ACK-at-round-1 term of :func:`d1_tian_general`.  The two
    coincide when the other user's rate is small (see d1_tian_general);
    at L=1 the first bracket resolves through ext_div.
    """
    return max(
        pos_part(1.0 - ext_div(p.r1, p.L - 1)),
        pos_part(1.0 - p.r1 / p.L - p.beta / p.L),
    )


def d1_tian_general(p: SystemParams) -> float:
    """RX1 diversity for the private-only scheme, min over the ACK round.

    Ignores t2 and b (both forced to 0).  This is the value that matches
    the outage-region oracle for every parameter choice; d1_tian keeps only
    the i=1 term, which is not always the minimizer when r2 and beta are
    both large.
    """
    best = None
    for i in range(1, p.L + 1):
        prefix = 0.0 if i == 1 else pos_part(1.0 - ext_div(p.r2, i - 1))
        term = prefix + max(
            pos_part(1.0 - ext_div(p.r1, p.L - i)),
            pos_part(1.0 - (p.r1 + i * p.beta) / p.L),
        )
        if best is None or term < best:
            best = term
    return best


# RX2 hears no interference, so its exponent does not depend on RX1's decoder
d2_tian = d2_cmo


# ---------------------------------------------------------------------------
# alternative TX2 policies after its own ACK (for superiority comparisons)
# ---------------------------------------------------------------------------

def d1_hk_keep(p: SystemParams) -> float:
    """RX1 diversity when TX2 keeps both streams running all L rounds.

    The outage region is the i=L instantiation with no ACK-prefix factor,
    so the exponent never beats d1_hk.
    """
    return min(d11_hk(p, p.L), d12_hk(p, p.L))


# ---------------------------------------------------------------------------
# cooperative closed forms (two rounds)
# ---------------------------------------------------------------------------

def d11c_cmo2_with_branch(r1: float, beta: float) -> tuple[float, str]:
    if r1 >= 2.0 * beta:
        return 1.0 - r1 / 2.0, "r1>=2beta"
    if r1 >= beta / (1.0 + beta):
        val = min(1.0 + ((1.0 - r1) * beta - r1) / (1.0 + r1), 2.0 - 1.5 * r1)
        return val, "mid"
    val = min(
        2.0 - 1.5 * r1,
        2.0 - beta * r1 / (beta - r1),
        1.0 + beta - r1 / (1.0 - r1),
    )
    return val, "low"


def d11c_cmo2(r1: float, beta: float) -> float:
    """Individual-rate RX1 exponent, cooperative common-message decoding."""
    return d11c_cmo2_with_branch(r1, beta)[0]


def d12c_cmo2(r1: float, r2: float, beta: float) -> float:
    """Joint-rate RX1 exponent, cooperative common-message decoding."""
    s = (r1 + r2) / 2.0
    return pos_part(1.0 - s) + pos_part(beta - s)


def d1c_cmo2(r1: float, r2: float, beta: float) -> float:
    return min(d11c_cmo2(r1, beta), d12c_cmo2(r1, r2, beta))


def _d1_cmo1(r1: float, r2: float, beta: float) -> float:
    # single-round CMO exponent at RX1, reused by the cooperative RX2 forms
    return min(
        pos_part(1.0 - r1),
        pos_part(1.0 - r1 - r2) + pos_part(beta - r1 - r2),
    )


def d2c_cmo2(r1: float, r2: float, beta: float) -> float:
    """RX2 exponent under cooperation with the common-message decoder.

    Dominant error paths: RX1 ACKs round 1 and TX2's retransmission still
    fails after round 2, or RX1 NACKs round 1 (TX2 turns relay) and RX2's
    single shot failed.
    """
    relay_path = _d1_cmo1(r1, r2, beta) + pos_part(1.0 - r2)
    return min(relay_path, pos_part(1.0 - r2 / 2.0))


def d1c_tian2_with_branch(r1: float, beta: float) -> tuple[float, str]:
    if r1 >= beta:
        return pos_part(1.0 - (r1 + beta) / 2.0), "r1>=beta"
    if r1 < beta / 2.0:
        if beta >= 1.0:
            return 2.0 * pos_part(1.0 - r1), "low,beta>=1"
        return pos_part(1.0 - r1) + pos_part(beta - r1), "low,beta<1"
    if r1 > 0.5:
        return (1.0 - r1) * beta / r1, "mid,r1>1/2"
    return pos_part(1.0 - r1) + pos_part(beta - r1), "mid,r1<=1/2"


def d1c_tian2(r1: float, beta: float) -> float:
    """RX1 exponent, cooperative noise-treating decoder."""
    return d1c_tian2_with_branch(r1, beta)[0]


def d2c_tian2(r1: float, r2: float, beta: float) -> float:
    relay_path = pos_part(1.0 - r2) + pos_part(1.0 - r1 - beta)
    return min(relay_path, pos_part(1.0 - r2 / 2.0))


def d_static_overall(r1: float, r2: float, beta: float) -> tuple[float, float]:
    """Per-user envelope of the two static cooperative decoders.

    d1 is the max of the CMO and noise-treating values; d2 is reported for
    whichever decoder attained that max (ties resolve to CMO).
    """
    c1 = d1c_cmo2(r1, r2, beta)
    t1 = d1c_tian2(r1, beta)
    if c1 >= t1:
        return c1, d2c_cmo2(r1, r2, beta)
    return t1, d2c_tian2(r1, r2, beta)


def d12c_dd2_with_branch(r1: float, r2: float, beta: float) -> tuple[float, str]:
    if r2 >= beta:
        val, br = d1c_tian2_with_branch(r1, beta)
        return val, "r2>=beta:" + br
    if r1 >= r2:
        return d12c_cmo2(r1, r2, beta), "r1>=r2"
    if r1 >= 0.5:
        return pos_part(beta - (2.0 * r1 - 1.0) * r2 / r1), "1/2<=r1<r2"
    return pos_part(1.0 - r1) + pos_part(beta - r1), "r1<min(1/2,r2)"


def d12c_dd2(r1: float, r2: float, beta: float) -> float:
    """Joint-event RX1 exponent for the dynamic cooperative decoder."""
    return d12c_dd2_with_branch(r1, r2, beta)[0]


def d1c_dd2(r1: float, r2: float, beta: float) -> float:
    return min(d11c_cmo2(r1, beta), d12c_dd2(r1, r2, beta))


def _d1_tian1(r1: float, beta: float) -> float:
    # single-round exponent of the noise-treating decoder, in the limit
    # form the cooperative RX2 expressions print; it matches
    # d1_tian at L=1 for every r1 > 0 and keeps d2c_dd2 equal to
    # max(d2c_cmo2, d2c_tian2) at r1 = 0 as well
    return pos_part(1.0 - r1 - beta)


def d2c_dd2(r1: float, r2: float, beta: float) -> float:
    """RX2 exponent under dynamic decoding; equals the better of the two
    static cooperative RX2 exponents."""
    round1 = max(_d1_cmo1(r1, r2, beta), _d1_tian1(r1, beta))
    return min(round1 + pos_part(1.0 - r2), pos_part(1.0 - r2 / 2.0))


# ---------------------------------------------------------------------------
# scheme dispatcher
# ---------------------------------------------------------------------------

def scheme_dmt(scheme: SchemeId | str, p: SystemParams) -> DmtResult:
    """Evaluate (d1, d2) with a branch trace for one scheme at one point."""
    scheme = SchemeId(scheme)
    if scheme in COOP_SCHEMES and p.L != 2:
        raise ParameterError(f"cooperative schemes require L=2 (scheme {scheme.value})")

    if scheme is SchemeId.HK:
        d1, trace = d1_hk_with_trace(p)
        return DmtResult(d1, d2_hk(p), trace)
    if scheme is SchemeId.CMO:
        return DmtResult(d1_cmo(p), d2_cmo(p), (("d1_cmo", f"L={p.L}"),))
    if scheme is SchemeId.TIAN:
        return DmtResult(d1_tian_general(p), d2_tian(p),
                         (("d1_tian_general", f"L={p.L}"),))
    if scheme is SchemeId.HK_KEEP:
        return DmtResult(d1_hk_keep(p), d2_hk(p), (("d1_hk_keep", f"i={p.L}"),))
    if scheme is SchemeId.HK_STOP:
        raise ParameterError("scheme hk-stop has no closed form")

    r1, r2, beta = p.r1, p.r2, p.beta
    if scheme is SchemeId.COOP_CMO:
        v11, br = d11c_cmo2_with_branch(r1, beta)
        v12 = d12c_cmo2(r1, r2, beta)
        return DmtResult(
            min(v11, v12), d2c_cmo2(r1, r2, beta),
            (("d11c_cmo2", br), ("d12c_cmo2", "-")),
        )
    if scheme is SchemeId.COOP_TIAN:
        v1, br = d1c_tian2_with_branch(r1, beta)
        return DmtResult(v1, d2c_tian2(r1, r2, beta), (("d1c_tian2", br),))
    if scheme is SchemeId.COOP_STATIC:
        d1, d2 = d_static_overall(r1, r2, beta)
        return DmtResult(d1, d2, (("d_static_overall", "max"),))
    # dynamic decoding
    v11, br11 = d11c_cmo2_with_branch(r1, beta)
    v12, br12 = d12c_dd2_with_branch(r1, r2, beta)
    return DmtResult(
        min(v11, v12), d2c_dd2(r1, r2, beta),
        (("d11c_cmo2", br11), ("d12c_dd2", br12)),
    )
