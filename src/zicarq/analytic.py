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

Each scheme's (d1, d2) is written once, as private forms that return
plain ``(value, label)`` pairs, where the label names the piece of the
piecewise form that won.  RX1's individual- and joint-rate forms prefix
theirs with ``d11:``/``d12:`` (``d12:high-sum``), a minimum over TX2's ACK
round names the round (``i=2,d12:high-sum``), and the static envelope names
the decoder (``cmo:d11:mid``).

``scheme_curve`` returns those pairs, ``((d1, label), (d2, label))`` per
point, and boxes nothing.  Every other public function, ``scheme_dmt``
included, boxes its result in an :class:`Exponent`: a float that carries
the label.  Arithmetic on an Exponent gives a plain float.
"""

from __future__ import annotations

from collections.abc import Sequence

from .core import SchemeId, SystemParams, check_round, check_rounds, ext_div, pos_part


class Exponent(float):
    """A float exponent that names the piece of its piecewise form that won."""

    __slots__ = ("label",)


def _piece(value: float, label: str) -> Exponent:
    e = Exponent(value)
    e.label = label
    return e


# The private forms below return plain ``(value, label)`` pairs, and a
# public form is ``_piece`` over one of them.  A choice between two pieces
# keeps the first on a tie, as min and max do.

def _joint(x: float, beta: float) -> float:
    # joint decoding of both messages at RX1 at per-round sum rate x
    return pos_part(1.0 - x) + pos_part(beta - x)


# ---------------------------------------------------------------------------
# non-cooperative closed forms
# ---------------------------------------------------------------------------

def _d2_hk(p: SystemParams, l: int) -> tuple[float, str]:
    total = pos_part(1.0 - ext_div(p.r2, l))
    private = pos_part(1.0 - ext_div(p.s2, l) - p.b)
    return (private, "private") if private < total else (total, "total")


def d2_hk(p: SystemParams, rounds: int | None = None) -> Exponent:
    """RX2 diversity under rate splitting after ``rounds`` ARQ rounds.

    rounds=0 is allowed: it is the ACK-prefix factor for round 1 and
    evaluates through ext_div (0 whenever r2 > 0).
    """
    return _piece(*_d2_hk(p, p.L if rounds is None else rounds))


def _d11(p: SystemParams, i: int, excess: float) -> tuple[float, str]:
    # RX1 decodes its own message alone given TX2's ACK at round i; excess is
    # the interference term of rounds 1..i, (beta - b)+ for hk and beta for tian
    tail = pos_part(1.0 - ext_div(p.r1, p.L - i))
    capped = pos_part(1.0 - (p.r1 + i * excess) / p.L)
    return (capped, "d11:capped") if capped > tail else (tail, "d11:tail")


def d11_hk(p: SystemParams, i: int) -> Exponent:
    """Individual-rate outage exponent at RX1 given TX2 ACKed at round i."""
    check_round(p.L, i)
    return _piece(*_d11(p, i, pos_part(p.beta - p.b)))


def _d12_hk(p: SystemParams, i: int) -> tuple[float, str]:
    s = p.r1 + p.t2
    if s <= p.L * p.b:
        return _joint(s / p.L, p.beta), "d12:low-sum"
    if s >= (p.L - i) * p.beta + i * p.b:
        return pos_part(1.0 - (s + i * pos_part(p.beta - p.b)) / p.L), "d12:high-sum"
    # middle branch is unreachable at i == L, so the division is safe
    return _joint((s - i * p.b) / (p.L - i), p.beta), "d12:mid-sum"


def d12_hk(p: SystemParams, i: int) -> Exponent:
    """Joint-rate outage exponent at RX1 given TX2 ACKed at round i."""
    check_round(p.L, i)
    return _piece(*_d12_hk(p, i))


def _d12_hk_stop(p: SystemParams, i: int) -> tuple[float, str]:
    s, cap = p.r1 + p.t2, min(p.b, p.beta)
    if s <= i * cap:
        val, label = 1.0 + p.beta - s / i, "d12:low-sum"
    elif s >= (p.L - i) * p.beta + i * cap:
        val, label = pos_part(1.0 - (s + i * (p.beta - cap)) / p.L), "d12:high-sum"
    else:  # unreachable at i == L, so the division is safe
        val, label = pos_part(1.0 - (s - i * cap) / (p.L - i)), "d12:mid-sum"
    joint = _joint(s / p.L, p.beta)
    return (val, label) if val < joint else (joint, "d12:joint")


def d12_hk_stop(p: SystemParams, i: int) -> Exponent:
    """d12_hk when TX2 stops both streams after its ACK at round i.  With
    s = r1 + t2 and b' = min(b, beta), the minimum sits at the joint vertex
    gamma21 = beta - s/L, at gamma11 = 1 if the i interfered rounds carry s
    alone (s <= i*b'), or else at gamma21 = 0, where each interfered round
    carries b' and the tail rounds carry the direct link."""
    check_round(p.L, i)
    return _piece(*_d12_hk_stop(p, i))


# Up to this many rounds, _first_ack tries every ACK round.  The scan and
# the candidate rounds cost about the same at L = 8 (measured for hk, hk-stop
# and tian on 2 CPUs, Python 3.11); below it the scan is cheaper.
_SCAN_ROUNDS = 8


def _ack_rounds(L: int, cuts) -> list[int]:
    """1, 2, L - 1, L and the four rounds around each cut in [1, L], in
    increasing order.  A cut is a pair (num, den), the real round num/den."""
    rounds = {1, 2, L - 1, L}
    for num, den in cuts:
        if den:
            t = num / den
            if 1.0 <= t <= L:  # NaN and the infinities fail
                k = int(t)
                rounds.update((k - 1, k, k + 1, k + 2))
    return sorted(i for i in rounds if 1 <= i <= L)


def _rx1(p: SystemParams, i: int, excess: float, d12) -> tuple[float, str]:
    """RX1's exponent given TX2's ACK at round i: ``_d11(p, i, excess)``, or
    the post-ACK policy's joint-rate term ``d12(p, i)`` where that is
    smaller.  tian decodes its own message alone, so its ``d12`` is None."""
    d11 = _d11(p, i, excess)
    if d12 is None:
        return d11
    joint = d12(p, i)
    return joint if joint[0] < d11[0] else d11


def _first_ack(p: SystemParams, ack_by, excess: float, d12,
               cuts) -> tuple[float, str]:
    """Min over TX2's ACK round i of ``ack_by(p, i - 1) + _rx1(p, i, excess,
    d12)``, labelled ``i=<round>,<_rx1's label>``.  ``ack_by(p, l)`` is TX2's
    exponent for needing more than l rounds; an ACK at round 1 costs
    nothing, as the conditioning event has polynomial order 0.  ``excess``
    and ``d12`` are the policy's, as :func:`_rx1` takes them.

    Past _SCAN_ROUNDS only candidate rounds are tried, so the cost does not
    grow with L.  ``cuts(p)`` gives the real rounds where a term of the sum
    changes form: a branch bound, a pos_part reaching 0, a max changing
    sides.  Apart from the isolated rounds 1 and L, each term is concave in
    i or nondecreasing between two cuts, so the sum is smallest at an end of
    that run of rounds, and the rounds 1, 2, L - 1, L and those next to each
    cut hold every such end.  They are tried in increasing i with the same
    strict ``<`` as a scan over i = 1..L, so a tie keeps the smallest round
    and the value and label are the scan's.  The exception is a sum flat in
    exact arithmetic over a run of rounds, where the scan's pick rests on
    rounding.
    """
    L = p.L
    best = None
    for i in range(1, L + 1) if L <= _SCAN_ROUNDS else _ack_rounds(L, cuts(p)):
        term, label = _rx1(p, i, excess, d12)
        total = term if i == 1 else ack_by(p, i - 1) + term
        if best is None or total < best:
            best, won, won_label = total, i, label
    return best, f"i={won},{won_label}"


def _ack_hk(p: SystemParams, l: int) -> float:
    return _d2_hk(p, l)[0]


def _ack_tian(p: SystemParams, l: int) -> float:
    return pos_part(1.0 - ext_div(p.r2, l))


def _hk_cuts(p: SystemParams) -> tuple[tuple[float, float], ...]:
    # d11's capped piece overtakes its tail at i = L - r1/e (it reaches 0
    # only past L - 1, where the tail has), TX2's private exponent reaches
    # 0, d12's branch bound (also a kink of its middle branch), and the
    # high-sum branch and the middle branch's 1 - x reach 0
    s, e = p.r1 + p.t2, pos_part(p.beta - p.b)
    return ((p.L * e - p.r1, e), (1.0 - p.b + p.s2, 1.0 - p.b),
            (p.L * p.beta - s, p.beta - p.b), (p.L - s, e), (p.L - s, 1.0 - p.b))


def _hk_stop_cuts(p: SystemParams) -> tuple[tuple[float, float], ...]:
    # as _hk_cuts, with d12_hk_stop's two branch bounds and the rounds
    # where its high-sum and middle branches reach 0
    s, e, cap = p.r1 + p.t2, pos_part(p.beta - p.b), min(p.b, p.beta)
    return ((p.L * e - p.r1, e), (1.0 - p.b + p.s2, 1.0 - p.b), (s, cap),
            (p.L * p.beta - s, p.beta - cap), (p.L - s, p.beta - cap),
            (p.L - s, 1.0 - cap))


def _tian_cuts(p: SystemParams) -> tuple[tuple[float, float], ...]:
    # d11's capped piece overtakes its tail
    return ((p.L * p.beta - p.r1, p.beta),)


def _d1_hk(p: SystemParams) -> tuple[float, str]:
    return _first_ack(p, _ack_hk, pos_part(p.beta - p.b), _d12_hk, _hk_cuts)


def d1_hk(p: SystemParams) -> Exponent:
    """RX1 diversity under rate splitting: dominant ACK-round term."""
    return _piece(*_d1_hk(p))


def _d1_hk_keep(p: SystemParams) -> tuple[float, str]:
    return _rx1(p, p.L, pos_part(p.beta - p.b), _d12_hk)


def d1_hk_keep(p: SystemParams) -> Exponent:
    """RX1 diversity when TX2 keeps both streams running all L rounds.

    The outage region is the i=L instantiation with no ACK-prefix factor,
    so the exponent never beats d1_hk.
    """
    return _piece(*_d1_hk_keep(p))


def _d1_hk_stop(p: SystemParams) -> tuple[float, str]:
    return _first_ack(p, _ack_hk, pos_part(p.beta - p.b), _d12_hk_stop,
                      _hk_stop_cuts)


def d1_hk_stop(p: SystemParams) -> Exponent:
    """d1_hk when TX2 stops both streams after its ACK: only d12 changes."""
    return _piece(*_d1_hk_stop(p))


def _d1_cmo(p: SystemParams) -> tuple[float, str]:
    own = pos_part(1.0 - p.r1 / p.L)
    joint = _joint((p.r1 + p.r2) / p.L, p.beta)
    return (joint, "joint") if joint < own else (own, "own")


def d1_cmo(p: SystemParams) -> Exponent:
    """RX1 diversity when TX2 sends a single common message."""
    return _piece(*_d1_cmo(p))


def _d2_cmo(p: SystemParams) -> tuple[float, str]:
    return pos_part(1.0 - p.r2 / p.L), "total"


def d2_cmo(p: SystemParams) -> Exponent:
    return _piece(*_d2_cmo(p))


def d1_tian(p: SystemParams) -> Exponent:
    """Single-term RX1 diversity for the private-only scheme.

    This is the ACK-at-round-1 term of :func:`d1_tian_general`.  The two
    coincide when the other user's rate is small (see d1_tian_general);
    at L=1 the first bracket resolves through ext_div.
    """
    return _piece(*_rx1(p, 1, p.beta, None))


def _d1_tian_general(p: SystemParams) -> tuple[float, str]:
    # d1_hk's ACK rounds at t2 = b = 0, without the joint-rate event
    return _first_ack(p, _ack_tian, p.beta, None, _tian_cuts)


def d1_tian_general(p: SystemParams) -> Exponent:
    """RX1 diversity for the private-only scheme, min over the ACK round.

    Ignores t2 and b (both forced to 0).  This is the value that matches
    the outage-region oracle for every parameter choice; d1_tian keeps only
    the i=1 term, which is not always the minimizer when r2 and beta are
    both large.
    """
    return _piece(*_d1_tian_general(p))


# RX2 hears no interference, so its exponent does not depend on RX1's decoder
d2_tian = d2_cmo


# ---------------------------------------------------------------------------
# cooperative closed forms (two rounds)
# ---------------------------------------------------------------------------

def _d11c_cmo2(r1: float, beta: float) -> tuple[float, str]:
    if r1 >= 2.0 * beta:
        return 1.0 - r1 / 2.0, "d11:r1>=2beta"
    if r1 >= beta / (1.0 + beta):
        return min(1.0 + ((1.0 - r1) * beta - r1) / (1.0 + r1), 2.0 - 1.5 * r1), "d11:mid"
    return min(
        2.0 - 1.5 * r1,
        2.0 - beta * r1 / (beta - r1),
        1.0 + beta - r1 / (1.0 - r1),
    ), "d11:low"


def d11c_cmo2(r1: float, beta: float) -> Exponent:
    """Individual-rate RX1 exponent, cooperative common-message decoding."""
    return _piece(*_d11c_cmo2(r1, beta))


def d12c_cmo2(r1: float, r2: float, beta: float) -> Exponent:
    """Joint-rate RX1 exponent, cooperative common-message decoding."""
    return _piece(_joint((r1 + r2) / 2.0, beta), "d12")


def _d1c_cmo2(r1: float, r2: float, beta: float) -> tuple[float, str]:
    d11 = _d11c_cmo2(r1, beta)
    d12 = _joint((r1 + r2) / 2.0, beta)
    return (d12, "d12") if d12 < d11[0] else d11


def d1c_cmo2(r1: float, r2: float, beta: float) -> Exponent:
    return _piece(*_d1c_cmo2(r1, r2, beta))


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


def _d2c(round1: float, r2: float) -> tuple[float, str]:
    # RX2 under cooperation.  Dominant error paths: RX1 NACKs round 1
    # (exponent round1), TX2 turns relay and RX2's single shot failed; or
    # RX1 ACKs round 1 and TX2's retransmission still fails after round 2.
    relay = round1 + pos_part(1.0 - r2)
    two_round = pos_part(1.0 - r2 / 2.0)
    return (two_round, "two-round") if two_round < relay else (relay, "relay")


def _d2c_cmo2(r1: float, r2: float, beta: float) -> tuple[float, str]:
    return _d2c(_d1_cmo1(r1, r2, beta), r2)


def d2c_cmo2(r1: float, r2: float, beta: float) -> Exponent:
    """RX2 exponent under cooperation with the common-message decoder."""
    return _piece(*_d2c_cmo2(r1, r2, beta))


def _d1c_tian2(r1: float, beta: float) -> tuple[float, str]:
    if r1 >= beta:
        return pos_part(1.0 - (r1 + beta) / 2.0), "r1>=beta"
    if r1 < beta / 2.0:
        if beta >= 1.0:
            return 2.0 * pos_part(1.0 - r1), "low,beta>=1"
        return _joint(r1, beta), "low,beta<1"
    if r1 > 0.5:
        return (1.0 - r1) * beta / r1, "mid,r1>1/2"
    return _joint(r1, beta), "mid,r1<=1/2"


def d1c_tian2(r1: float, beta: float) -> Exponent:
    """RX1 exponent, cooperative noise-treating decoder."""
    return _piece(*_d1c_tian2(r1, beta))


def _d2c_tian2(r1: float, r2: float, beta: float) -> tuple[float, str]:
    return _d2c(_d1_tian1(r1, beta), r2)


def d2c_tian2(r1: float, r2: float, beta: float) -> Exponent:
    return _piece(*_d2c_tian2(r1, r2, beta))


def _d_static_overall(r1: float, r2: float, beta: float):
    c1, c1_label = _d1c_cmo2(r1, r2, beta)
    t1, t1_label = _d1c_tian2(r1, beta)
    if c1 >= t1:
        return (c1, "cmo:" + c1_label), _d2c_cmo2(r1, r2, beta)
    return (t1, "tian:" + t1_label), _d2c_tian2(r1, r2, beta)


def d_static_overall(r1: float, r2: float, beta: float) -> tuple[Exponent, Exponent]:
    """Per-user envelope of the two static cooperative decoders.

    d1 is the max of the CMO and noise-treating values; d2 is reported for
    whichever decoder attained that max (ties resolve to CMO).
    """
    d1, d2 = _d_static_overall(r1, r2, beta)
    return _piece(*d1), _piece(*d2)


def _d12c_dd2(r1: float, r2: float, beta: float) -> tuple[float, str]:
    if r2 >= beta:
        v, label = _d1c_tian2(r1, beta)
        return v, "d12:r2>=beta:" + label
    if r1 >= r2:
        return _joint((r1 + r2) / 2.0, beta), "d12:r1>=r2"
    if r1 >= 0.5:
        return pos_part(beta - (2.0 * r1 - 1.0) * r2 / r1), "d12:1/2<=r1<r2"
    return _joint(r1, beta), "d12:r1<min(1/2,r2)"


def d12c_dd2(r1: float, r2: float, beta: float) -> Exponent:
    """Joint-event RX1 exponent for the dynamic cooperative decoder."""
    return _piece(*_d12c_dd2(r1, r2, beta))


def _d1c_dd2(r1: float, r2: float, beta: float) -> tuple[float, str]:
    d11 = _d11c_cmo2(r1, beta)
    d12 = _d12c_dd2(r1, r2, beta)
    return d12 if d12[0] < d11[0] else d11


def d1c_dd2(r1: float, r2: float, beta: float) -> Exponent:
    return _piece(*_d1c_dd2(r1, r2, beta))


def _d2c_dd2(r1: float, r2: float, beta: float) -> tuple[float, str]:
    return _d2c(max(_d1_cmo1(r1, r2, beta), _d1_tian1(r1, beta)), r2)


def d2c_dd2(r1: float, r2: float, beta: float) -> Exponent:
    """RX2 exponent under dynamic decoding; equals the better of the two
    static cooperative RX2 exponents."""
    return _piece(*_d2c_dd2(r1, r2, beta))


# ---------------------------------------------------------------------------
# scheme dispatcher
# ---------------------------------------------------------------------------

# each scheme's ((d1, label), (d2, label)), from the private forms above
_DMT = {
    SchemeId.HK: lambda p: (_d1_hk(p), _d2_hk(p, p.L)),
    SchemeId.CMO: lambda p: (_d1_cmo(p), _d2_cmo(p)),
    SchemeId.TIAN: lambda p: (_d1_tian_general(p), _d2_cmo(p)),
    SchemeId.HK_KEEP: lambda p: (_d1_hk_keep(p), _d2_hk(p, p.L)),
    SchemeId.HK_STOP: lambda p: (_d1_hk_stop(p), _d2_hk(p, p.L)),
    SchemeId.COOP_CMO: lambda p: (_d1c_cmo2(p.r1, p.r2, p.beta),
                                  _d2c_cmo2(p.r1, p.r2, p.beta)),
    SchemeId.COOP_TIAN: lambda p: (_d1c_tian2(p.r1, p.beta),
                                   _d2c_tian2(p.r1, p.r2, p.beta)),
    SchemeId.COOP_STATIC: lambda p: _d_static_overall(p.r1, p.r2, p.beta),
    SchemeId.COOP_DD: lambda p: (_d1c_dd2(p.r1, p.r2, p.beta),
                                 _d2c_dd2(p.r1, p.r2, p.beta)),
}


def scheme_curve(scheme: SchemeId | str, points: Sequence[SystemParams]
                 ) -> list[tuple[tuple[float, str], tuple[float, str]]]:
    """One scheme's ``((d1, label), (d2, label))`` at each of ``points``, in
    order: plain floats, each with the name of its winning piece.  The
    scheme is resolved once, and each delay L among the points checked
    once, before any closed form runs."""
    scheme = SchemeId(scheme)
    for p in {p.L: p for p in points}.values():
        check_rounds(scheme, p)
    dmt = _DMT[scheme]
    return [dmt(p) for p in points]


def scheme_dmt(scheme: SchemeId | str, p: SystemParams) -> tuple[Exponent, Exponent]:
    """One scheme's (d1, d2) at one point, each an Exponent labelled by its
    winning piece: :func:`scheme_curve` at ``p``, boxed."""
    [(d1, d2)] = scheme_curve(scheme, (p,))
    return _piece(*d1), _piece(*d2)
