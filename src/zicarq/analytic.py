"""Closed-form diversity exponents for every ARQ scheme on the ZIC.

Non-cooperative schemes (any number of rounds L):

* ``hk``   rate splitting at TX2 into a common and a private stream; after
  TX2's own ACK only the common stream keeps transmitting until TX1 ACKs.
* ``cmo``  common-message-only special case; TX2 keeps sending the same
  message after its ACK.
* ``tian`` private-only special case (interference treated as noise at
  RX1); TX2 goes silent after its ACK.
* ``hk-keep`` / ``hk-stop`` alternative policies where TX2 keeps or stops
  both streams after its own ACK (used for policy comparisons).

Cooperative schemes (fixed at L = 2): after a round-1 NACK from RX1, TX2
decodes TX1's message and relays it for the rest of round 2.  ``coop-cmo``
and ``coop-tian`` fix RX1's decoder; ``coop-dd`` lets RX1 pick per
realization; ``coop-static`` is the per-user envelope of the two static
decoders.

Every function returns its exponent as an :class:`Exponent`, a float
whose ``label`` names the piece of the piecewise form that won.  RX1's
individual- and joint-rate forms prefix theirs with ``d11:``/``d12:``
(``d12:high-sum``), a minimum over TX2's ACK round names the round
(``i=2,d12:high-sum``), and ``d_static_overall`` names the decoder
(``cmo:d11:mid``).  Arithmetic on an Exponent gives a plain float.
"""

from __future__ import annotations

from collections.abc import Sequence

from .core import SchemeId, SystemParams, check_rounds, ext_div, pos_part


class Exponent(float):
    """A float exponent that names the piece of its piecewise form that won."""

    __slots__ = ("label",)


def _piece(value: float, label: str) -> Exponent:
    e = Exponent(value)
    e.label = label
    return e


def _pick(best, a: float, la: str, b: float, lb: str) -> Exponent:
    """``best(a, b)`` for best in (min, max), labelled by the piece that
    won.  Ties keep ``a``, as min and max do."""
    if (b > a) if best is max else (b < a):
        return _piece(b, lb)
    return _piece(a, la)


def _joint(x: float, beta: float) -> float:
    # joint decoding of both messages at RX1 at per-round sum rate x
    return pos_part(1.0 - x) + pos_part(beta - x)


# ---------------------------------------------------------------------------
# non-cooperative closed forms
# ---------------------------------------------------------------------------

def d2_hk(p: SystemParams, rounds: int | None = None) -> Exponent:
    """RX2 diversity under rate splitting after ``rounds`` ARQ rounds.

    rounds=0 is allowed: it is the ACK-prefix factor for round 1 and
    evaluates through ext_div (0 whenever r2 > 0).
    """
    l = p.L if rounds is None else rounds
    return _pick(min, pos_part(1.0 - ext_div(p.r2, l)), "total",
                 pos_part(1.0 - ext_div(p.s2, l) - p.b), "private")


def _d11(p: SystemParams, i: int, excess: float) -> Exponent:
    # RX1 decodes its own message alone given TX2's ACK at round i; excess is
    # the interference term of rounds 1..i, (beta - b)+ for hk and beta for tian
    return _pick(max, pos_part(1.0 - ext_div(p.r1, p.L - i)), "d11:tail",
                 pos_part(1.0 - (p.r1 + i * excess) / p.L), "d11:capped")


def d11_hk(p: SystemParams, i: int) -> Exponent:
    """Individual-rate outage exponent at RX1 given TX2 ACKed at round i."""
    if not 1 <= i <= p.L:
        raise IndexError(f"round index i={i} outside 1..{p.L}")
    return _d11(p, i, pos_part(p.beta - p.b))


def d12_hk(p: SystemParams, i: int) -> Exponent:
    """Joint-rate outage exponent at RX1 given TX2 ACKed at round i."""
    if not 1 <= i <= p.L:
        raise IndexError(f"round index i={i} outside 1..{p.L}")
    s = p.r1 + p.t2
    if s <= p.L * p.b:
        return _piece(_joint(s / p.L, p.beta), "d12:low-sum")
    if s >= (p.L - i) * p.beta + i * p.b:
        val = pos_part(1.0 - (s + i * pos_part(p.beta - p.b)) / p.L)
        return _piece(val, "d12:high-sum")
    # middle branch is unreachable at i == L, so the division is safe
    return _piece(_joint((s - i * p.b) / (p.L - i), p.beta), "d12:mid-sum")


def _first_ack(p: SystemParams, ack_by, rx1_given) -> Exponent:
    """Min over TX2's ACK round i of ``ack_by(p, i - 1) + rx1_given(p, i)``,
    labelled ``i=<round>,<rx1_given's label>``.  ``ack_by(p, l)`` is TX2's
    exponent for needing more than l rounds; an ACK at round 1 costs
    nothing, as the conditioning event has polynomial order 0."""
    best = None
    for i in range(1, p.L + 1):
        term = rx1_given(p, i)
        total = term if i == 1 else ack_by(p, i - 1) + term
        if best is None or total < best:
            best, won = total, (i, term)
    return _piece(best, f"i={won[0]},{won[1].label}")


def _rx1_hk(p: SystemParams, i: int) -> Exponent:
    return min(d11_hk(p, i), d12_hk(p, i))


def d1_hk(p: SystemParams) -> Exponent:
    """RX1 diversity under rate splitting: dominant ACK-round term."""
    return _first_ack(p, d2_hk, _rx1_hk)


def d1_hk_keep(p: SystemParams) -> Exponent:
    """RX1 diversity when TX2 keeps both streams running all L rounds.

    The outage region is the i=L instantiation with no ACK-prefix factor,
    so the exponent never beats d1_hk.
    """
    return _rx1_hk(p, p.L)


def d12_hk_stop(p: SystemParams, i: int) -> Exponent:
    """d12_hk when TX2 stops both streams after its ACK at round i.  With
    s = r1 + t2 and b' = min(b, beta), the minimum sits at the joint vertex
    gamma21 = beta - s/L, at gamma11 = 1 if the i interfered rounds carry s
    alone (s <= i*b'), or else at gamma21 = 0, where each interfered round
    carries b' and the tail rounds carry the direct link."""
    if not 1 <= i <= p.L:
        raise IndexError(f"round index i={i} outside 1..{p.L}")
    s, cap = p.r1 + p.t2, min(p.b, p.beta)
    if s <= i * cap:
        val, label = 1.0 + p.beta - s / i, "d12:low-sum"
    elif s >= (p.L - i) * p.beta + i * cap:
        val, label = pos_part(1.0 - (s + i * (p.beta - cap)) / p.L), "d12:high-sum"
    else:  # unreachable at i == L, so the division is safe
        val, label = pos_part(1.0 - (s - i * cap) / (p.L - i)), "d12:mid-sum"
    return _pick(min, _joint(s / p.L, p.beta), "d12:joint", val, label)


def d1_hk_stop(p: SystemParams) -> Exponent:
    """d1_hk when TX2 stops both streams after its ACK: only d12 changes."""
    return _first_ack(p, d2_hk, lambda p, i: min(d11_hk(p, i), d12_hk_stop(p, i)))


def d1_cmo(p: SystemParams) -> Exponent:
    """RX1 diversity when TX2 sends a single common message."""
    return _pick(min, pos_part(1.0 - p.r1 / p.L), "own",
                 _joint((p.r1 + p.r2) / p.L, p.beta), "joint")


def d2_cmo(p: SystemParams) -> Exponent:
    return _piece(pos_part(1.0 - p.r2 / p.L), "total")


def d1_tian(p: SystemParams) -> Exponent:
    """Single-term RX1 diversity for the private-only scheme.

    This is the ACK-at-round-1 term of :func:`d1_tian_general`.  The two
    coincide when the other user's rate is small (see d1_tian_general);
    at L=1 the first bracket resolves through ext_div.
    """
    return _pick(max, pos_part(1.0 - ext_div(p.r1, p.L - 1)), "d11:tail",
                 pos_part(1.0 - p.r1 / p.L - p.beta / p.L), "d11:capped")


def d1_tian_general(p: SystemParams) -> Exponent:
    """RX1 diversity for the private-only scheme, min over the ACK round.

    Ignores t2 and b (both forced to 0).  This is the value that matches
    the outage-region oracle for every parameter choice; d1_tian keeps only
    the i=1 term, which is not always the minimizer when r2 and beta are
    both large.
    """
    # d1_hk's ACK rounds at t2 = b = 0, without the joint-rate event
    return _first_ack(p, lambda p, l: pos_part(1.0 - ext_div(p.r2, l)),
                      lambda p, i: _d11(p, i, p.beta))


# RX2 hears no interference, so its exponent does not depend on RX1's decoder
d2_tian = d2_cmo


# ---------------------------------------------------------------------------
# cooperative closed forms (two rounds)
# ---------------------------------------------------------------------------

def d11c_cmo2(r1: float, beta: float) -> Exponent:
    """Individual-rate RX1 exponent, cooperative common-message decoding."""
    if r1 >= 2.0 * beta:
        return _piece(1.0 - r1 / 2.0, "d11:r1>=2beta")
    if r1 >= beta / (1.0 + beta):
        val = min(1.0 + ((1.0 - r1) * beta - r1) / (1.0 + r1), 2.0 - 1.5 * r1)
        return _piece(val, "d11:mid")
    val = min(
        2.0 - 1.5 * r1,
        2.0 - beta * r1 / (beta - r1),
        1.0 + beta - r1 / (1.0 - r1),
    )
    return _piece(val, "d11:low")


def d12c_cmo2(r1: float, r2: float, beta: float) -> Exponent:
    """Joint-rate RX1 exponent, cooperative common-message decoding."""
    return _piece(_joint((r1 + r2) / 2.0, beta), "d12")


def d1c_cmo2(r1: float, r2: float, beta: float) -> Exponent:
    return min(d11c_cmo2(r1, beta), d12c_cmo2(r1, r2, beta))


def _d1_cmo1(r1: float, r2: float, beta: float) -> float:
    # single-round CMO exponent at RX1, reused by the cooperative RX2 forms
    return min(
        pos_part(1.0 - r1),
        pos_part(1.0 - r1 - r2) + pos_part(beta - r1 - r2),
    )


def _d1_tian1(r1: float, beta: float) -> float:
    # single-round exponent of the noise-treating decoder, in the limit
    # form the cooperative RX2 expressions print; it matches
    # d1_tian at L=1 for every r1 > 0 and keeps d2c_dd2 equal to
    # max(d2c_cmo2, d2c_tian2) at r1 = 0 as well
    return pos_part(1.0 - r1 - beta)


def _d2c(round1: float, r2: float) -> Exponent:
    # RX2 under cooperation.  Dominant error paths: RX1 NACKs round 1
    # (exponent round1), TX2 turns relay and RX2's single shot failed; or
    # RX1 ACKs round 1 and TX2's retransmission still fails after round 2.
    return _pick(min, round1 + pos_part(1.0 - r2), "relay",
                 pos_part(1.0 - r2 / 2.0), "two-round")


def d2c_cmo2(r1: float, r2: float, beta: float) -> Exponent:
    """RX2 exponent under cooperation with the common-message decoder."""
    return _d2c(_d1_cmo1(r1, r2, beta), r2)


def d1c_tian2(r1: float, beta: float) -> Exponent:
    """RX1 exponent, cooperative noise-treating decoder."""
    if r1 >= beta:
        return _piece(pos_part(1.0 - (r1 + beta) / 2.0), "r1>=beta")
    if r1 < beta / 2.0:
        if beta >= 1.0:
            return _piece(2.0 * pos_part(1.0 - r1), "low,beta>=1")
        return _piece(_joint(r1, beta), "low,beta<1")
    if r1 > 0.5:
        return _piece((1.0 - r1) * beta / r1, "mid,r1>1/2")
    return _piece(_joint(r1, beta), "mid,r1<=1/2")


def d2c_tian2(r1: float, r2: float, beta: float) -> Exponent:
    return _d2c(_d1_tian1(r1, beta), r2)


def d_static_overall(r1: float, r2: float, beta: float) -> tuple[Exponent, Exponent]:
    """Per-user envelope of the two static cooperative decoders.

    d1 is the max of the CMO and noise-treating values; d2 is reported for
    whichever decoder attained that max (ties resolve to CMO).
    """
    c1, t1 = d1c_cmo2(r1, r2, beta), d1c_tian2(r1, beta)
    if c1 >= t1:
        return _piece(c1, "cmo:" + c1.label), d2c_cmo2(r1, r2, beta)
    return _piece(t1, "tian:" + t1.label), d2c_tian2(r1, r2, beta)


def d12c_dd2(r1: float, r2: float, beta: float) -> Exponent:
    """Joint-event RX1 exponent for the dynamic cooperative decoder."""
    if r2 >= beta:
        v = d1c_tian2(r1, beta)
        return _piece(v, "d12:r2>=beta:" + v.label)
    if r1 >= r2:
        return _piece(d12c_cmo2(r1, r2, beta), "d12:r1>=r2")
    if r1 >= 0.5:
        return _piece(pos_part(beta - (2.0 * r1 - 1.0) * r2 / r1), "d12:1/2<=r1<r2")
    return _piece(_joint(r1, beta), "d12:r1<min(1/2,r2)")


def d1c_dd2(r1: float, r2: float, beta: float) -> Exponent:
    return min(d11c_cmo2(r1, beta), d12c_dd2(r1, r2, beta))


def d2c_dd2(r1: float, r2: float, beta: float) -> Exponent:
    """RX2 exponent under dynamic decoding; equals the better of the two
    static cooperative RX2 exponents."""
    return _d2c(max(_d1_cmo1(r1, r2, beta), _d1_tian1(r1, beta)), r2)


# ---------------------------------------------------------------------------
# scheme dispatcher
# ---------------------------------------------------------------------------

# each scheme's (d1, d2), from the public closed forms above
_DMT = {
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


def scheme_curve(scheme: SchemeId | str,
                 points: Sequence[SystemParams]) -> list[tuple[Exponent, Exponent]]:
    """One scheme's (d1, d2) at each of ``points``, in order, each labelled
    by its winning piece.  The scheme is resolved once, and each delay L
    among the points checked once, before any closed form runs."""
    scheme = SchemeId(scheme)
    for p in {p.L: p for p in points}.values():
        check_rounds(scheme, p)
    dmt = _DMT[scheme]
    return [dmt(p) for p in points]


def scheme_dmt(scheme: SchemeId | str, p: SystemParams) -> tuple[Exponent, Exponent]:
    """One scheme's (d1, d2) at one point, each labelled by its winning piece."""
    [dmt] = scheme_curve(scheme, (p,))
    return dmt
