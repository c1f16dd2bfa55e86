"""High-SNR outage regions and the exact exponent oracle.

Each outage event is written once, as a small expression tree over the
channel-gain exponents: affine terms in (gamma11, gamma21), ``pos_part``,
``maximum``, sums and scalar multiples, and rate constraints ``F < r``
joined by ``|`` and ``&``.  In cooperative events the coefficients are
affine in the listening fraction f; RX2 events read gamma22 in the first
coordinate.  Numpy membership and the oracle's candidate lines both come
from that one tree, giving an independent ground truth for every closed
form in :mod:`zicarq.analytic`.

Minimisation.  A diversity exponent is the infimum of the objective over
the open outage region, which is its minimum over the region's closure
(Zheng & Tse, IEEE Trans. IT 2003).  At fixed f an event is a finite
union / intersection of piecewise-linear sublevel sets, so the linear
objective gamma11 + gamma21 attains that minimum over the box-limited
closure at a vertex (El Gamal, Caire & Damen, IEEE Trans. IT 2006).  The
boundary of ``F < r`` turns only where two pieces both equal ``r``, so
every vertex is the intersection of two lines from a finite set: the
level lines ``piece = r`` of every affine piece, and the four box edges.
The oracle intersects them pairwise, keeps the points in the closure
(``F <= r`` up to a 1e-12 rounding slack), and takes the smallest
objective.  RX2 events are 1-D: the candidates are the piece roots and
the box ends.

Cooperative events add the relay-link cost u = 1 - r1*v with v = 1/f.
The gamma solve above is exact at each v, so only v is searched: a
uniform grid, plus, in every grid cell whose two ends have different
optimal vertices, the exact v where those two vertices' objectives
(ratios of quadratics in f) cross.  The objective is piecewise concave
in v, so its minimum sits at such a kink or at an endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExponentPoint, ParameterError, SystemParams

# Candidate vertices lie on the boundary ``F = r`` up to rounding; the
# oracle's closure test and box test allow this slack.
_SLACK = 1e-12

# Search in v = 1/f: grid size.
_V_GRID = 17


# Smallest admissible active rate: zero-rate limits live in the closed
# forms, not in the oracle.
RATE_FLOOR = 1e-3


def _cap(beta: float) -> float:
    """Side of the search box [0, cap]^2; past max(1, beta) every bracket
    has clamped, so the box loses no minimum."""
    return max(1.0, beta) + 0.5


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------
#
# An affine piece is a (2, 3) array c: row d holds the coefficients of f**d
# on (gamma11, gamma21, 1).  Pieces and lines are stacked as (n, 2, 3).

def _unique(pieces: np.ndarray) -> np.ndarray:
    rows = sorted(set(map(tuple, pieces.reshape(-1, 6).tolist())))
    return np.array(rows, dtype=float).reshape(-1, 2, 3)


def _affine_value(row, g11, g21):
    out = row[2]
    if row[0]:
        out = out + row[0] * g11
    if row[1]:
        out = out + row[1] * g21
    return out


def _scale(k0: float, k1: float, pieces: np.ndarray) -> np.ndarray:
    """(k0 + k1*f) * pieces, refusing terms quadratic in f."""
    if k1 and pieces[:, 1].any():
        raise ValueError("coefficients must stay affine in f")
    out = k0 * pieces
    out[:, 1] += k1 * pieces[:, 0]
    return out


class _Expr:
    """A piecewise-linear expression: the affine pieces it can equal and
    its numpy evaluator.  Arithmetic with numbers and other expressions
    builds trees."""

    def __init__(self, pieces, evaluate):
        self.pieces = pieces
        self._evaluate = evaluate

    def value(self, env: dict):
        """Value at env's g11/g21/f arrays; shared subtrees are evaluated once."""
        if id(self) not in env:
            env[id(self)] = self._evaluate(env)
        return env[id(self)]

    def _is_affine(self) -> bool:
        return len(self.pieces) == 1

    def _is_scalar(self) -> bool:
        return self._is_affine() and not self.pieces[0, :, :2].any()

    def __add__(self, other):
        other = _as_expr(other)
        if self._is_affine() and other._is_affine():
            return _affine(self.pieces[0] + other.pieces[0])
        return _Expr(_unique(self.pieces[:, None] + other.pieces[None]),
                     lambda env: self.value(env) + other.value(env))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -1.0 * _as_expr(other)

    def __rsub__(self, other):
        return _as_expr(other) + -1.0 * self

    def __mul__(self, other):
        other = _as_expr(other)
        coef, x = (self, other) if self._is_scalar() else (other, self)
        if not coef._is_scalar():
            raise TypeError("a product needs one factor free of gamma")
        k0, k1 = coef.pieces[0, :, 2]
        if x._is_affine():
            return _affine(_scale(k0, k1, x.pieces)[0])
        return _Expr(_scale(k0, k1, x.pieces),
                     lambda env: (k0 + k1 * env["f"]) * x.value(env))

    __rmul__ = __mul__

    def __lt__(self, rate):
        rate = float(rate)
        level = self.pieces.copy()
        level[:, 0, 2] -= rate
        return _Event([level],
                      lambda env, slack: self.value(env) < rate + slack)


def _affine(c) -> _Expr:
    c = np.asarray(c, dtype=float)

    def evaluate(env):
        out = _affine_value(c[0], env["g11"], env["g21"])
        if c[1].any():
            out = out + env["f"] * _affine_value(c[1], env["g11"], env["g21"])
        return out

    return _Expr(c[None], evaluate)


def _as_expr(x) -> _Expr:
    if isinstance(x, _Expr):
        return x
    c = np.zeros((2, 3))
    c[0, 2] = x
    return _affine(c)


def symbols() -> tuple[_Expr, _Expr, _Expr]:
    """The leaves (gamma11, gamma21, f); RX2 events use the first for gamma22."""
    eye = np.eye(6).reshape(6, 2, 3)
    return _affine(eye[0]), _affine(eye[1]), _affine(eye[5])


def maximum(a, b) -> _Expr:
    """max(a, b) of expressions or numbers."""
    a, b = _as_expr(a), _as_expr(b)
    return _Expr(_unique(np.concatenate([a.pieces, b.pieces])),
                 lambda env: np.maximum(a.value(env), b.value(env)))


def pos_part(x) -> _Expr:
    """max(x, 0) of an expression."""
    return maximum(x, 0.0)


class _Event:
    """Rate constraints ``F < r`` joined by ``|`` (union) and ``&``
    (intersection): their level lines, and the membership test,
    where ``slack`` widens every constraint."""

    def __init__(self, lines, holds):
        self.lines = lines
        self.holds = holds

    def __or__(self, other):
        return _Event(self.lines + other.lines,
                      lambda env, slack: self.holds(env, slack) | other.holds(env, slack))

    def __and__(self, other):
        return _Event(self.lines + other.lines,
                      lambda env, slack: self.holds(env, slack) & other.holds(env, slack))


class OutageRegion:
    """One high-SNR outage event, held as rate constraints on expression trees.

    kind is 'rx2' (event over gamma22), 'rx1' (over gamma11/gamma21),
    or 'coop' (over gamma11/gamma21 and the listening fraction f); rate
    is the event's active rate, which the oracle keeps above its floor
    (and, for 'coop', the r1 of the relay-link cost).
    """

    def __init__(self, region_id, kind, event, beta, rate):
        self.region_id = region_id
        self.kind = kind
        self.event = event
        self.beta = beta
        self.rate = rate

    def __repr__(self):
        return f"OutageRegion({self.region_id})"

    def member(self, g11, g21=0.0, f=1.0, slack=0.0) -> np.ndarray:
        """Elementwise membership; ``slack`` widens every rate constraint."""
        held = self.event.holds({"g11": g11, "g21": g21, "f": f}, slack)
        return np.broadcast_to(held, np.broadcast(g11, g21, f).shape)

    def lines(self) -> np.ndarray:
        """Level lines of the tree, (n, 2, 3), excluding the box."""
        lines = _unique(np.concatenate(self.event.lines))
        return lines[lines[:, :, :2].any(axis=(1, 2))]

    def contains(self, pt: ExponentPoint) -> bool:
        if self.kind == "rx2":
            return bool(self.member(pt.gamma22))
        return bool(self.member(pt.gamma11, pt.gamma21, pt.f))


# ---------------------------------------------------------------------------
# region factories (trees transcribe the defining inequalities verbatim)
# ---------------------------------------------------------------------------

def region_rx2_hk(p: SystemParams, rounds: int | None = None) -> OutageRegion:
    """RX2 outage under rate splitting after ``rounds`` rounds."""
    l = p.L if rounds is None else rounds
    if l < 1:
        raise ValueError("rounds must be >= 1")
    r2, s2, b = p.r2, p.s2, p.b
    g22, _, _ = symbols()
    event = (l * pos_part(1.0 - g22) < r2) | (l * pos_part(1.0 - g22 - b) < s2)
    return OutageRegion(f"O_RX2_HK(l={l})", "rx2", event, p.beta, r2)


def _o11_event(p: SystemParams, i: int):
    if not 1 <= i <= p.L:
        raise ValueError(f"round index i={i} outside 1..{p.L}")
    g11, g21, _ = symbols()
    interfered = pos_part(1.0 - g11 - pos_part(p.beta - g21 - p.b))
    return i * interfered + (p.L - i) * pos_part(1.0 - g11) < p.r1


def _o12_event(p: SystemParams, i: int, stop: bool):
    if not 1 <= i <= p.L:
        raise ValueError(f"round index i={i} outside 1..{p.L}")
    g11, g21, _ = symbols()
    beta = p.beta
    joint = pos_part(maximum(1.0 - g11, beta - g21) - pos_part(beta - g21 - p.b))
    tail = pos_part(1.0 - g11) if stop else \
        maximum(pos_part(1.0 - g11), pos_part(beta - g21))
    return i * joint + (p.L - i) * tail < p.r1 + p.t2


def region_o11_hk(p: SystemParams, i: int) -> OutageRegion:
    """RX1 individual-rate outage given TX2's ACK at round i (of L)."""
    return OutageRegion(f"O11_HK(i={i})", "rx1", _o11_event(p, i), p.beta, p.r1)


def region_o12_hk(p: SystemParams, i: int) -> OutageRegion:
    """RX1 joint-rate outage given TX2's ACK at round i (of L)."""
    return OutageRegion(f"O12_HK(i={i})", "rx1", _o12_event(p, i, stop=False),
                        p.beta, p.r1)


def region_o12_stop(p: SystemParams, i: int) -> OutageRegion:
    """Stop-both policy variant of O12: after TX2's ACK the common stream
    is gone, so the tail rounds contribute the direct link only."""
    return OutageRegion(f"O12_STOP(i={i})", "rx1", _o12_event(p, i, stop=True),
                        p.beta, p.r1)


def region_rx1_cmo(p: SystemParams, rounds: int | None = None) -> OutageRegion:
    l = p.L if rounds is None else rounds
    if l < 1:
        raise ValueError("rounds must be >= 1")
    r1, beta = p.r1, p.beta
    g11, g21, _ = symbols()
    own = l * pos_part(1.0 - g11) < r1
    joint = l * maximum(pos_part(1.0 - g11), pos_part(beta - g21)) < r1 + p.r2
    return OutageRegion(f"O_RX1_CMO(l={l})", "rx1", own | joint, beta, r1)


def region_rx2_cmo(p: SystemParams, rounds: int | None = None) -> OutageRegion:
    l = p.L if rounds is None else rounds
    if l < 1:
        raise ValueError("rounds must be >= 1")
    g22, _, _ = symbols()
    return OutageRegion(f"O_RX2_CMO(l={l})", "rx2", l * pos_part(1.0 - g22) < p.r2,
                        p.beta, p.r2)


def region_rx1_tian1(r1: float, beta: float) -> OutageRegion:
    """Single-round noise-treating outage at RX1."""
    g11, g21, _ = symbols()
    event = pos_part(1.0 - g11 - pos_part(beta - g21)) < r1
    return OutageRegion("O_RX1_TIAN(l=1)", "rx1", event, beta, r1)


def _coop_terms(beta: float):
    """(f, direct link, both links, noise-treating round 1) of a relayed round."""
    g11, g21, f = symbols()
    direct = pos_part(1.0 - g11)
    both = maximum(direct, pos_part(beta - g21))
    round1 = pos_part(1.0 - g11 - pos_part(beta - g21))
    return f, direct, both, round1


def region_o1_coop(r1: float, beta: float) -> OutageRegion:
    """Individual-rate outage after a relayed second round, CMO decoding."""
    f, direct, both, _ = _coop_terms(beta)
    event = (1.0 + f) * direct + (1.0 - f) * both < r1
    return OutageRegion("O1_COOP", "coop", event, beta, r1)


def region_o2_coop(r1: float, r2: float, beta: float) -> OutageRegion:
    """Joint-rate outage after a relayed second round, CMO decoding."""
    f, direct, both, _ = _coop_terms(beta)
    event = (2.0 - f) * both + f * direct < r1 + r2
    return OutageRegion("O2_COOP", "coop", event, beta, r1)


def region_o3_coop(r1: float, beta: float) -> OutageRegion:
    """Outage after a relayed second round with noise-treating decoding."""
    f, direct, both, round1 = _coop_terms(beta)
    event = round1 + f * direct + (1.0 - f) * both < r1
    return OutageRegion("O3_COOP", "coop", event, beta, r1)


def region_o11_dd(r1: float, beta: float) -> OutageRegion:
    """Dynamic decoder, individual event: both decoders fail the own-rate
    test (the CMO event is contained in the noise-treating one)."""
    event = region_o1_coop(r1, beta).event & region_o3_coop(r1, beta).event
    return OutageRegion("O11_DD", "coop", event, beta, r1)


def region_o12_dd(r1: float, r2: float, beta: float) -> OutageRegion:
    """Dynamic decoder, joint event: CMO fails the sum-rate test and the
    noise-treating decoder fails as well."""
    event = region_o2_coop(r1, r2, beta).event & region_o3_coop(r1, beta).event
    return OutageRegion("O12_DD", "coop", event, beta, r1)


# ---------------------------------------------------------------------------
# oracle internals
# ---------------------------------------------------------------------------

def _candidates(region: OutageRegion, cap: float):
    """The tree's lines plus the box edges, and the index pairs of lines
    that are not parallel at every f."""
    box = np.zeros((4, 2, 3))
    box[[0, 1], 0, 0] = 1.0
    box[[2, 3], 0, 1] = 1.0
    box[[1, 3], 0, 2] = -cap
    lines = np.concatenate([region.lines(), box])
    i, j = np.triu_indices(len(lines), 1)
    # the determinant is quadratic in f: three zeros make it vanish identically
    at = lines[:, 0] + np.array([0.0, 0.5, 1.0])[:, None, None] * lines[:, 1]
    det = at[:, i, 0] * at[:, j, 1] - at[:, j, 0] * at[:, i, 1]
    keep = det.any(axis=0)
    return lines, (i[keep], j[keep])


def _min_gamma(region, lines, pairs, f, cap):
    """Exact min of gamma11 + gamma21 over the region at each listening
    fraction in ``f`` (shape (n,)), and the index of the minimising pair
    (+inf where no vertex enters the region)."""
    at = lines[:, 0] + f[:, None, None] * lines[:, 1]
    i, j = pairs
    a_i, b_i, c_i = at[:, i, 0], at[:, i, 1], at[:, i, 2]
    a_j, b_j, c_j = at[:, j, 0], at[:, j, 1], at[:, j, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        det = a_i * b_j - a_j * b_i
        x = (b_i * c_j - b_j * c_i) / det
        y = (a_j * c_i - a_i * c_j) / det
    lo, hi = -_SLACK, cap + _SLACK
    rows, cols = np.nonzero((x >= lo) & (x <= hi) & (y >= lo) & (y <= hi))
    g11 = np.clip(x[rows, cols], 0.0, cap)
    g21 = np.clip(y[rows, cols], 0.0, cap)
    inside = region.member(g11, g21, f[rows], slack=_SLACK)
    obj = np.full(x.shape, np.inf)
    obj[rows[inside], cols[inside]] = g11[inside] + g21[inside]
    k = obj.argmin(axis=1)
    return obj[np.arange(len(f)), k], k


def _min_rx1(region: OutageRegion) -> float:
    """min gamma11 + gamma21 over an RX1 region, by vertex enumeration."""
    cap = _cap(region.beta)
    lines, pairs = _candidates(region, cap)
    return float(_min_gamma(region, lines, pairs, np.ones(1), cap)[0][0])


def _poly_mul(p, q):
    """Row-wise products of polynomials in f (coefficients lowest order
    first, along the last axis)."""
    out = np.zeros(p.shape[:-1] + (p.shape[-1] + q.shape[-1] - 1,))
    for d in range(p.shape[-1]):
        out[..., d:d + q.shape[-1]] += p[..., d:d + 1] * q
    return out


def _vertex_sums(lines, pairs):
    """gamma11 + gamma21 at the vertex of every pair as num(f) / den(f),
    each a quadratic in f, shape (pairs, 3)."""
    (a_i, b_i, c_i), (a_j, b_j, c_j) = (np.moveaxis(lines[k], 2, 0) for k in pairs)
    m = _poly_mul
    num = m(b_i, c_j) - m(b_j, c_i) + m(a_j, c_i) - m(a_i, c_j)
    return num, m(a_i, b_j) - m(a_j, b_i)


def _kinks(sums, v_lo, v_hi, k_lo, k_hi):
    """The v in each cell [v_lo, v_hi] where the vertex sums of the pairs
    optimal at its two ends are equal."""
    num, den = sums
    left, right = _poly_mul(num[k_lo], den[k_hi]), _poly_mul(num[k_hi], den[k_lo])
    gap = left - right
    scale = np.maximum(np.abs(left).max(axis=1), np.abs(right).max(axis=1))
    out = []
    for c in np.nonzero(np.abs(gap).max(axis=1) > _SLACK * scale)[0]:
        f = np.roots(gap[c, ::-1])
        # a double root comes out slightly complex; a kept root is only a
        # candidate, evaluated exactly like every grid point
        f = f.real[np.abs(f.imag) <= 1e-6]
        f = f[(f >= 1.0 / v_hi[c]) & (f <= 1.0 / v_lo[c])]
        out.append(1.0 / f)
    return np.concatenate(out) if out else np.empty(0)


def _min_coop(region: OutageRegion, r1: float) -> float:
    """min gamma11 + gamma21 + u over a cooperative region, where the
    relay-link cost u = 1 - r1*v ties v = 1/f in [1, 1/r1] to the rate:
    an exact gamma solve at each v, searched in v only."""
    cap = _cap(region.beta)
    lines, pairs = _candidates(region, cap)

    def cost(v):
        g, k = _min_gamma(region, lines, pairs, 1.0 / v, cap)
        return g + (1.0 - r1 * v), k

    v = np.linspace(1.0, 1.0 / max(r1, RATE_FLOOR), _V_GRID)
    h, k = cost(v)
    if not np.isfinite(h).any():
        return math.inf
    # the exact kink in every cell whose two ends have different optimal vertices
    keep = np.isfinite(h[:-1] + h[1:])
    roots = _kinks(_vertex_sums(lines, pairs), v[:-1][keep], v[1:][keep],
                   k[:-1][keep], k[1:][keep])
    return float(min(h.min(), cost(roots)[0].min(initial=np.inf)))


def _min_rx2(region: OutageRegion) -> float:
    """min gamma22 over an RX2 region: the smallest member among the piece
    roots and the box ends."""
    cap = _cap(region.beta)
    a, _, c = region.lines()[:, 0].T
    roots = -c[a != 0] / a[a != 0]
    cand = np.concatenate([[0.0, cap], roots[(roots > 0.0) & (roots < cap)]])
    inside = region.member(cand, slack=_SLACK)
    return float(cand[inside].min()) if inside.any() else math.inf


def _check_rate(region: OutageRegion):
    if region.rate < RATE_FLOOR:
        raise ValueError(
            f"{region.region_id}: active rate {region.rate} below the oracle's "
            f"rate floor {RATE_FLOOR} (zero-rate limits live in the "
            "closed forms)"
        )


# ---------------------------------------------------------------------------
# oracle surface
# ---------------------------------------------------------------------------

def oracle_min_exponent(region: OutageRegion) -> float:
    """Exact minimum exponent over a non-cooperative region.

    Objective is gamma22 for RX2 regions, gamma11 + gamma21 otherwise.
    Returns +inf when no point within the search cap enters the region.
    """
    _check_rate(region)
    if region.kind == "rx2":
        return _min_rx2(region)
    if region.kind == "coop":
        raise ValueError("use oracle_min_exponent_coop for listening-phase regions")
    return _min_rx1(region)


def oracle_min_exponent_coop(region: OutageRegion) -> float:
    """Minimum of gamma11 + gamma21 + u over a cooperative region, where
    the relay-link cost u = 1 - r1/f ties the listening fraction to the
    rate."""
    if region.kind != "coop":
        raise ValueError(f"{region.region_id} has no listening fraction")
    _check_rate(region)
    return _min_coop(region, region.rate)


def oracle_d1_hk(p: SystemParams) -> float:
    """RX1 exponent under rate splitting from the outage regions alone.

    Sums over the ACK round of TX2: prefix exponent of reaching that round
    plus the dominant conditional outage exponent.
    """
    return _oracle_d1_decomposed(p, region_o12_hk)


def oracle_d1_hk_stop(p: SystemParams) -> float:
    """Same decomposition for the policy where TX2 stops both streams
    after its own ACK (no closed form exists for this variant)."""
    return _oracle_d1_decomposed(p, region_o12_stop)


def _oracle_d1_decomposed(p: SystemParams, o12_factory) -> float:
    if p.r1 < RATE_FLOOR or p.r2 < RATE_FLOOR:
        raise ValueError(f"oracle requires r1, r2 >= the rate floor {RATE_FLOOR}")
    best = math.inf
    for i in range(1, p.L + 1):
        prefix = 0.0 if i == 1 else _min_rx2(region_rx2_hk(p, i - 1))
        o11 = _min_rx1(region_o11_hk(p, i))
        o12 = _min_rx1(o12_factory(p, i))
        best = min(best, prefix + min(o11, o12))
    return best


# ---------------------------------------------------------------------------
# rate-region containment check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsetCheckReport:
    samples: int
    counterexamples: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def rate_region_subset_check(p: SystemParams, samples: int,
                             seed: int) -> SubsetCheckReport:
    """Sample exponent points and verify the policy-comparison containments.

    Every point decodable under the keep-both policy or under the stop-both
    policy at any ACK round must be decodable under the mixed policy at
    some ACK round.  Keep-both is the ACK-at-round-L instantiation of the
    mixed policy, so keep-both within mixed holds by construction and only
    the stop-both containments are sampled.  Returns the list of violating
    samples, which must be empty.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    cap = _cap(p.beta)
    rng = np.random.default_rng(seed)
    g11 = rng.uniform(0.0, cap, samples)
    g21 = rng.uniform(0.0, cap, samples)

    in_policy_any = np.zeros(samples, dtype=bool)
    o11_masks = []
    for i in range(1, p.L + 1):
        o11_masks.append(region_o11_hk(p, i).member(g11, g21))
        o12 = region_o12_hk(p, i).member(g11, g21)
        in_policy_any |= ~(o11_masks[-1] | o12)

    bad = np.zeros(samples, dtype=bool)
    # the stop-both policy shares O11: post-ACK rounds are already
    # interference-free in the individual constraint
    for i, o11 in enumerate(o11_masks, 1):
        o12s = region_o12_stop(p, i).member(g11, g21)
        stop_ok = ~(o11 | o12s)
        bad |= stop_ok & ~in_policy_any

    idx = np.nonzero(bad)[0]
    ces = tuple(
        {"gamma11": float(g11[k]), "gamma21": float(g21[k])} for k in idx[:50]
    )
    return SubsetCheckReport(samples, ces)
