"""High-SNR outage regions and the exact exponent oracle.

Each outage event is written once, as a small expression tree over the
channel-gain exponents: affine terms in (gamma11, gamma21), ``pos_part``,
``maximum``, sums and scalar multiples, and rate constraints ``F < r``
joined by ``|`` and ``&``.  In cooperative events the coefficients are
affine in the listening fraction f; RX2 events read gamma22 in the first
coordinate.  Numpy membership and the oracle's candidate lines both come
from that one tree, giving an independent ground truth for every closed
form in :mod:`zicarq.analytic`.

Compilation.  The operating point (beta, b, the rates r1, r2, t2, and the
box side) enters a tree only through the constant column of its affine
pieces, and linearly, while the gamma coefficients come from the structure
alone (L, the round index, the f multipliers).  So each family's tree is
built once per structure and kept for the process, together with its level
lines, the pairs of lines that are not parallel, the denominators of the
vertex sums, and its membership test compiled to straight-line steps over
the stacked affine leaves; so are, per stack of families solved together,
the pairs' gamma coefficients and determinants at f = 1.  A region binds its point, box side included, when it is
built: its lines, the sizes of their terms and its leaves come from one
product of the constant columns with theta = (beta, b, r1, r2, t2, cap, 1),
which is >= 0, so |c| times theta is the size of a line's terms.  The
regions an oracle call needs at one point share one such product, and a
membership test evaluates every leaf in one broadcast.

Minimisation.  A diversity exponent is the infimum of the objective over
the open outage region, which is its minimum over the region's closure
(Zheng & Tse, IEEE Trans. IT 2003), save on a flat piece of F at level
r, which the closure test admits but the open region never nears: there
the oracle reads an exponent jump's lower side.  At fixed f an event is
a finite union / intersection of piecewise-linear sublevel sets, so the
linear objective gamma11 + gamma21 attains that minimum over the
box-limited closure at a vertex (El Gamal, Caire & Damen, IEEE Trans.
IT 2006).  The boundary of ``F < r`` turns only where two pieces both
equal ``r``, so every vertex is the intersection of two lines from a
finite set: the level lines ``piece = r`` of every affine piece, and the
four box edges.  The oracle intersects them pairwise, keeps the points
in the closure (``F <= r`` up to a rounding slack scaled to the size of
the level pieces at the point), and takes the smallest objective.  RX2
events are 1-D: the candidates are the piece roots and the box ends.  The
RX1 regions of a point are solved in one vertex pass and its RX2 regions
in one root pass: every region's candidates are computed together, each
region's program tests its own, and each minimum is bit for bit the one
the region gives alone.

Cooperative events add the relay-link cost u = 1 - r1*v with v = 1/f.
The gamma solve above is exact at each v, so only v is searched, with no
grid.  The search evaluates the two ends v = 1 and v = 1/r1 and keeps
cells of v between evaluated points.  In a cell whose two finite ends
have different optimal vertices it takes the exact v where those two
vertices' objectives (ratios of quadratics in f) cross, all such roots
of a round from one eigenvalue call per companion size and in one gamma
solve.  A root whose optimal vertex is neither end's splits its cell
there, and the two halves are searched again; a cell with an infinite end
is halved, down to the resolution of a 17-point grid.  The objective is
piecewise concave in v, so its minimum sits at such a kink or at an
endpoint.  That a cell holds at most the kinks its ends reveal is not
proved: two pieces can cross twice inside one cell (a branch-and-bound
certificate would close this).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .core import (COOP_SCHEMES, RATE_FLOOR, ParameterError, SchemeId,
                   SystemParams, check_round)

# Candidate vertices lie on the boundary ``F = r`` up to rounding; the
# closure test allows a few roundings of the largest level piece at the
# candidate, and the box test a few roundings of its side.
_SLACK = 4 * np.finfo(float).eps

# Search in v = 1/f: a cell with an infinite end is halved at most this
# many times (the resolution of a 17-point grid), and a search stops after
# this many rounds.
_HALVINGS = 4
_ROUNDS = 64

# Compiled families kept per process, keyed by structure only.
_FAMILIES = 256

# Largest gain exponent that membership reads: no box reaches it.
_GAMMA_MAX = 1e300

# Largest admissible beta: the rounding error of the cooperative minima
# grows in proportion to beta, and past this it exceeds 1e-12.
BETA_CEILING = 1e3


def _cap(beta: float) -> float:
    """Side of the search box [0, cap]^2; past max(1, beta) every bracket
    has clamped, so the box loses no minimum."""
    return max(1.0, beta) + 0.5


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------
#
# An affine piece is a (2, 9) array c: row d holds the coefficients of f**d
# on (gamma11, gamma21) and theta = (beta, b, r1, r2, t2, cap, 1).  Pieces
# and lines are stacked as (n, 2, 9); bound to one theta they are (n, 2, 3),
# on (gamma11, gamma21, 1).

_CAP = 5  # index of the box side in theta


def _unique(pieces: np.ndarray) -> np.ndarray:
    rows = sorted(set(map(tuple, pieces.reshape(len(pieces), -1).tolist())))
    return np.array(rows, dtype=float).reshape(-1, 2, 9)


def _bind(pieces: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Pieces at one operating point, over (gamma11, gamma21, 1)."""
    out = np.empty(pieces.shape[:-1] + (3,))
    out[..., :2] = pieces[..., :2]
    out[..., 2:] = pieces[..., 2:] @ theta[:, None]
    return out


def _theta(p: SystemParams) -> np.ndarray:
    """(beta, b, r1, r2, t2, cap, 1) at ``p``, every entry >= 0."""
    cap = _cap(p.beta)
    # past max(1, beta) every b term is 0 at gamma >= 0, so b binds at most
    # cap: a larger b would only swamp the closure slack
    return np.array([p.beta, min(p.b, cap), p.r1, p.r2, p.t2, cap, 1.0])


def _scale(k0: float, k1: float, pieces: np.ndarray) -> np.ndarray:
    """(k0 + k1*f) * pieces, refusing terms quadratic in f."""
    if k1 and pieces[:, 1].any():
        raise ValueError("coefficients must stay affine in f")
    out = k0 * pieces
    out[:, 1] += k1 * pieces[:, 0]
    return out


class _Expr:
    """A piecewise-linear expression: the affine pieces it can equal, and
    the node that computes it, ``op`` over ``args``: 'affine' (its one
    piece), 'max' and 'add' (of two expressions), or 'scale' (k0, k1, x),
    which is (k0 + k1*f) * x.  Arithmetic with numbers and other
    expressions builds trees."""

    def __init__(self, pieces, op, args=()):
        self.pieces = pieces
        self.op = op
        self.args = args

    def _is_affine(self) -> bool:
        return len(self.pieces) == 1

    def _is_scalar(self) -> bool:
        """A number or a multiple of f: free of gamma and of theta."""
        return self._is_affine() and not self.pieces[0, :, :-1].any()

    def __add__(self, other):
        other = _as_expr(other)
        if self._is_affine() and other._is_affine():
            return _affine(self.pieces[0] + other.pieces[0])
        return _Expr(_unique(self.pieces[:, None] + other.pieces[None]), "add", (self, other))

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
        k0, k1 = coef.pieces[0, :, -1]
        if x._is_affine():
            return _affine(_scale(k0, k1, x.pieces)[0])
        return _Expr(_scale(k0, k1, x.pieces), "scale", (k0, k1, x))

    __rmul__ = __mul__

    def __lt__(self, rate):
        rate = _as_expr(rate)
        if not rate._is_affine():
            raise TypeError("a rate must be affine")
        return _Event([self.pieces - rate.pieces], "lt", (self, rate))


def _affine(c) -> _Expr:
    return _Expr(np.asarray(c, dtype=float)[None], "affine")


def _as_expr(x) -> _Expr:
    if isinstance(x, _Expr):
        return x
    return _leaf(0, -1, x)


def _leaf(row: int, col: int, value: float = 1.0) -> _Expr:
    c = np.zeros((2, 9))
    c[row, col] = value
    return _affine(c)


def symbols() -> tuple[_Expr, _Expr, _Expr]:
    """The leaves (gamma11, gamma21, f); RX2 events use the first for gamma22."""
    return _leaf(0, 0), _leaf(0, 1), _leaf(1, -1)


def maximum(a, b) -> _Expr:
    """max(a, b) of expressions or numbers."""
    a, b = _as_expr(a), _as_expr(b)
    return _Expr(_unique(np.concatenate([a.pieces, b.pieces])), "max", (a, b))


def pos_part(x) -> _Expr:
    """max(x, 0) of an expression."""
    return maximum(x, 0.0)


# The steps of a compiled program over its values v, the listening
# fraction f and the slack s that widens every rate constraint.
_STEPS = {
    "max": lambda v, f, s, a, b: np.maximum(v[a], v[b]),
    "add": lambda v, f, s, a, b: v[a] + v[b],
    "scale": lambda v, f, s, k0, k1, x: (k0 + k1 * f) * v[x],
    "lt": lambda v, f, s, x, rate: v[x] < v[rate] + s,
    "or": lambda v, f, s, a, b: v[a] | v[b],
    "and": lambda v, f, s, a, b: v[a] & v[b],
}


class _Program:
    """A tree compiled to straight-line code: its affine leaves stacked as
    (n, 2, 9), then its other nodes as steps ``(op, *args)``, each after
    its arguments.  A node argument becomes the index of its value (leaf
    k is value k and step s is value n + s, so a shared subtree is one
    value); the numbers k0 and k1 of 'scale' stay numbers."""

    def __init__(self, root):
        order = {}

        def visit(node):
            if id(node) not in order:
                for arg in node.args:
                    if isinstance(arg, (_Expr, _Event)):
                        visit(arg)
                order[id(node)] = node

        visit(root)
        nodes = sorted(order.values(), key=lambda node: node.op != "affine")
        index = {id(node): k for k, node in enumerate(nodes)}
        n = sum(node.op == "affine" for node in nodes)
        self.leaves = np.array([node.pieces[0] for node in nodes[:n]])
        self.has_f = bool(self.leaves[:, 1].any())
        self.steps = [(_STEPS[node.op], *(index.get(id(arg), arg) for arg in node.args))
                      for node in nodes[n:]]

    def __call__(self, leaves, g11, g21, f, slack=0.0):
        """The root's value at ``leaves``, the stacked leaves bound to one
        theta (n, 2, 3), and at the g11/g21/f arrays."""
        # an infinite gain exponent reads as _GAMMA_MAX, far past every
        # box, so that a leaf's zero coefficient times it stays 0
        g11, g21 = np.minimum(g11, _GAMMA_MAX), np.minimum(g21, _GAMMA_MAX)
        f = np.asarray(f)
        ndim = max(g11.ndim, g21.ndim, f.ndim)
        a, b, c, a1, b1, c1 = leaves.reshape(-1, 6).T.reshape((6, -1) + (1,) * ndim)
        values = c + a * g11 + b * g21
        if self.has_f:
            values = values + f * (c1 + a1 * g11 + b1 * g21)
        values = list(values)
        for step, *args in self.steps:
            values.append(step(values, f, slack, *args))
        return values[-1][()]


_BOX = np.zeros((4, 2, 9))
_BOX[[0, 1], 0, 0] = 1.0
_BOX[[2, 3], 0, 1] = 1.0
_BOX[[1, 3], 0, 2 + _CAP] = -1.0


class _Event:
    """Rate constraints ``F < r`` joined by ``|`` (union) and ``&``
    (intersection): their level lines, and the node ``op`` over ``args``:
    'lt' (F, r), 'or' and 'and' (of two events).  What the oracle and the
    membership test need of the structure is compiled on first use and
    kept with the event."""

    def __init__(self, lines, op, args):
        self.lines = lines
        self.op = op
        self.args = args

    def __or__(self, other):
        return _Event(self.lines + other.lines, "or", (self, other))

    def __and__(self, other):
        return _Event(self.lines + other.lines, "and", (self, other))

    @cached_property
    def program(self) -> _Program:
        return _Program(self)

    @cached_property
    def candidates(self) -> np.ndarray:
        """The level lines that involve gamma, then the four box edges."""
        lines = _unique(np.concatenate(self.lines))
        return np.concatenate([lines[lines[:, :, :2].any(axis=(1, 2))], _BOX])

    @cached_property
    def pieces(self) -> np.ndarray:
        """What a region binds: the candidates, |candidates| of the level
        lines (the box edges excluded), and the program's leaves.  theta is
        >= 0, so the second block bound is the size of each line's terms."""
        lines = self.candidates
        return np.concatenate([lines, np.abs(lines[:-4]), self.program.leaves])

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs of candidate lines that are not parallel at every f."""
        gamma = self.candidates[:, :, :2]
        i, j = np.triu_indices(len(gamma), 1)
        # the determinant is quadratic in f: three zeros make it vanish identically
        at = gamma[:, 0] + np.array([0.0, 0.5, 1.0])[:, None, None] * gamma[:, 1]
        det = at[:, i, 0] * at[:, j, 1] - at[:, j, 0] * at[:, i, 1]
        keep = det.any(axis=0)
        return i[keep], j[keep]

    @cached_property
    def vertex_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """gamma11 + gamma21 at the vertex of every pair as num(f) / den(f),
        each a quadratic in f: num as (theta, pairs, 3), linear in theta,
        and den as (pairs, 3)."""
        lines = self.candidates
        (a_i, b_i, c_i), (a_j, b_j, c_j) = (
            (lines[k, :, 0], lines[k, :, 1], np.moveaxis(lines[k, :, 2:], 2, 0))
            for k in self.pairs)
        m = _poly_mul
        num = m(b_i, c_j) - m(b_j, c_i) + m(a_j, c_i) - m(a_i, c_j)
        return num, m(a_i, b_j) - m(a_j, b_i)


class OutageRegion:
    """One high-SNR outage event, held as rate constraints on expression trees.

    kind is 'rx2' (event over gamma22), 'rx1' (over gamma11/gamma21),
    or 'coop' (over gamma11/gamma21 and the listening fraction f).  rate
    is the event's active rate, r2 for 'rx2' and r1 otherwise, which the
    oracle keeps above its floor (and, for 'coop', the r1 of the
    relay-link cost).  theta binds the trees written with its parameters
    at the operating point ``p``, box side ``cap`` included.
    """

    def __init__(self, region_id, kind, event, p: SystemParams, bound=None):
        self.region_id = region_id
        self.kind = kind
        self.event = event
        self.rate = p.r2 if kind == "rx2" else p.r1
        self.cap = _cap(p.beta)
        # ``bound`` is theta and the event's pieces bound to it, when the
        # point's regions were bound together (see _at_point)
        if bound is None:
            theta = _theta(p)
            bound = theta, _bind(event.pieces, theta)
        self.theta, pieces = bound
        # the oracle's candidate lines at this point, and the size of every
        # level line's terms (|a|, |b|, and the sum of |c_k|*theta_k; the
        # box edges excluded), which bounds the rounding of a level value
        n = len(event.candidates)
        self.lines = pieces[:n]
        self.sizes = pieces[n:2 * n - 4]
        self.leaves = pieces[2 * n - 4:]

    def __repr__(self):
        return f"OutageRegion({self.region_id})"

    def member(self, g11, g21=0.0, f=1.0, slack=0.0):
        """Elementwise membership; ``slack`` widens every rate constraint.
        RX2 regions read gamma22 in ``g11``."""
        return self.event.program(self.leaves, g11, g21, f, slack)


# ---------------------------------------------------------------------------
# region factories (trees transcribe the defining inequalities verbatim)
# ---------------------------------------------------------------------------

# the leaves every family is written in; RX2 events read gamma22 in the
# first coordinate.  Each family below takes structure only and is cached
# per process; each ``region_*`` builder binds one at a point p.
_G11, _G21, _F = symbols()
_G22 = _G11
_BETA, _B, _R1, _R2, _T2 = (_leaf(0, col) for col in range(2, 7))


@lru_cache(maxsize=_FAMILIES)
def _rx2_hk_event(l: int):
    return (l * pos_part(1.0 - _G22) < _R2) | (l * pos_part(1.0 - _G22 - _B) < _R2 - _T2)


@lru_cache(maxsize=_FAMILIES)
def _o11_event(L: int, i: int):
    check_round(L, i)
    interfered = pos_part(1.0 - _G11 - pos_part(_BETA - _G21 - _B))
    return i * interfered + (L - i) * pos_part(1.0 - _G11) < _R1


@lru_cache(maxsize=_FAMILIES)
def _o12_event(L: int, i: int, stop: bool):
    check_round(L, i)
    joint = pos_part(maximum(1.0 - _G11, _BETA - _G21) - pos_part(_BETA - _G21 - _B))
    tail = pos_part(1.0 - _G11) if stop else \
        maximum(pos_part(1.0 - _G11), pos_part(_BETA - _G21))
    return i * joint + (L - i) * tail < _R1 + _T2


@lru_cache(maxsize=_FAMILIES)
def _rx1_cmo_event(l: int):
    own = l * pos_part(1.0 - _G11) < _R1
    joint = l * maximum(pos_part(1.0 - _G11), pos_part(_BETA - _G21)) < _R1 + _R2
    return own | joint


@lru_cache(maxsize=_FAMILIES)
def _coop_event(name: str):
    """Outage after a relayed second round: O1_COOP (individual rate) and
    O2_COOP (joint rate) under CMO decoding, O3_COOP under noise-treating
    decoding, and the dynamic decoder's O11_DD (both decoders fail the
    own-rate test; the CMO event lies within the noise-treating one) and
    O12_DD (CMO fails the sum-rate test and noise treating fails too)."""
    f = _F
    direct = pos_part(1.0 - _G11)
    both = maximum(direct, pos_part(_BETA - _G21))
    round1 = pos_part(1.0 - _G11 - pos_part(_BETA - _G21))
    o1 = (1.0 + f) * direct + (1.0 - f) * both < _R1
    o2 = (2.0 - f) * both + f * direct < _R1 + _R2
    o3 = round1 + f * direct + (1.0 - f) * both < _R1
    events = {"O1_COOP": o1, "O2_COOP": o2, "O3_COOP": o3,
              "O11_DD": o1 & o3, "O12_DD": o2 & o3}
    if name not in events:
        raise ParameterError(f"unknown cooperative event {name!r}; "
                             f"valid events: {', '.join(events)}")
    return events[name]


def _at_point(p: SystemParams, specs) -> list[OutageRegion]:
    """The OutageRegions of (region_id, kind, event) ``specs`` at ``p``,
    every event's pieces bound to p's theta in one product."""
    theta = _theta(p)
    pieces = _bind(np.concatenate([event.pieces for _, _, event in specs]), theta)
    regions, start = [], 0
    for region_id, kind, event in specs:
        stop = start + len(event.pieces)
        regions.append(OutageRegion(region_id, kind, event, p, (theta, pieces[start:stop])))
        start = stop
    return regions


def _rx2(l: int):
    return f"O_RX2_HK(l={l})", "rx2", _rx2_hk_event(l)


def _o11(L: int, i: int):
    return f"O11_HK(i={i})", "rx1", _o11_event(L, i)


def _o12(L: int, i: int, stop: bool):
    name = "O12_STOP" if stop else "O12_HK"
    return f"{name}(i={i})", "rx1", _o12_event(L, i, stop)


def _rx1_cmo(l: int):
    return f"O_RX1_CMO(l={l})", "rx1", _rx1_cmo_event(l)


def region_rx2_hk(p: SystemParams) -> OutageRegion:
    """RX2 outage under rate splitting after L rounds.  RX2 hears no
    interference, so at t2 = b = 0 this is also the CMO and Tian RX2
    outage."""
    return OutageRegion(*_rx2(p.L), p)


def region_o11_hk(p: SystemParams, i: int) -> OutageRegion:
    """RX1 individual-rate outage given TX2's ACK at round i (of L).  At
    L = 1 and b = 0 this is the single-round noise-treating (Tian)
    outage."""
    return OutageRegion(*_o11(p.L, i), p)


def region_o12_hk(p: SystemParams, i: int, stop: bool = False) -> OutageRegion:
    """RX1 joint-rate outage given TX2's ACK at round i (of L).  With
    ``stop``, TX2 stops both streams after its ACK: the common stream is
    gone, so the tail rounds contribute the direct link only."""
    return OutageRegion(*_o12(p.L, i, stop), p)


def region_rx1_cmo(p: SystemParams) -> OutageRegion:
    """RX1 outage under common-message-only decoding after L rounds: the
    own-rate test or the joint-rate test fails.  TX2 keeps sending after
    its ACK, so no ACK round enters the event."""
    return OutageRegion(*_rx1_cmo(p.L), p)


def region_coop(name: str, p: SystemParams) -> OutageRegion:
    """The cooperative event ``name`` at ``p``; ``_coop_event`` lists the five."""
    return OutageRegion(name, "coop", _coop_event(name), p)


# ---------------------------------------------------------------------------
# oracle internals
# ---------------------------------------------------------------------------

def _min_gamma(region, f):
    """Exact min of gamma11 + gamma21 over the region at each listening
    fraction in ``f`` (shape (n,)), and the index of the minimising pair
    (+inf where no vertex enters the region)."""
    lines, sizes, cap = region.lines, region.sizes, region.cap
    at = lines[:, 0] + f[:, None, None] * lines[:, 1]
    i, j = region.event.pairs
    a_i, b_i, c_i = at[:, i, 0], at[:, i, 1], at[:, i, 2]
    a_j, b_j, c_j = at[:, j, 0], at[:, j, 1], at[:, j, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        det = a_i * b_j - a_j * b_i
        x = (b_i * c_j - b_j * c_i) / det
        y = (a_j * c_i - a_i * c_j) / det
    lo, hi = -_SLACK * cap, cap * (1.0 + _SLACK)
    rows, cols = np.nonzero((x >= lo) & (x <= hi) & (y >= lo) & (y <= hi))
    g11 = np.clip(x[rows, cols], 0.0, cap)
    g21 = np.clip(y[rows, cols], 0.0, cap)
    # the largest level line's terms at each vertex, bounded column by column
    size = (sizes[:, 0] + f[:, None, None] * sizes[:, 1]).max(axis=1, initial=0.0)[rows]
    slack = _SLACK * (size[:, 0] * g11 + size[:, 1] * g21 + size[:, 2])
    inside = region.member(g11, g21, f[rows], slack=slack)
    obj = np.full(x.shape, np.inf)
    obj[rows[inside], cols[inside]] = g11[inside] + g21[inside]
    k = obj.argmin(axis=1)
    return obj[np.arange(len(f)), k], k


@lru_cache(maxsize=_FAMILIES)
def _vertex_pairs(events):
    """The pairs of a stack of events at f = 1, each event's lines numbered
    after those of the events before it: the lines (j, i) and (i, j) of
    every pair and the gamma coefficients (b_i, a_j) and (b_j, a_i) that
    multiply their constants in the vertex solve, each as a (2, pairs)
    array; the pair's determinant; the event it is of; and where each
    event's pairs start, the total last."""
    lines = np.cumsum([0] + [len(event.candidates) for event in events])
    i, j = (np.concatenate([event.pairs[k] + n for event, n in zip(events, lines)])
            for k in (0, 1))
    candidates = np.concatenate([event.candidates for event in events])
    at = candidates[:, 0, :2] + candidates[:, 1, :2]
    a_i, b_i, a_j, b_j = at[i, 0], at[i, 1], at[j, 0], at[j, 1]
    counts = [len(event.pairs[0]) for event in events]
    return (np.array([j, i]), np.array([i, j]), np.array([b_i, a_j]), np.array([b_j, a_i]),
            a_i * b_j - a_j * b_i, np.repeat(np.arange(len(events)), counts),
            np.cumsum([0] + counts))


def _each(regions, bounds, g11, g21, slack):
    """Membership at f = 1 of the candidates (g11, g21), where candidates
    bounds[r]:bounds[r + 1] are those of regions[r]: each region's program
    runs on its own slice."""
    inside = np.empty(len(g11), dtype=bool)
    for region, lo, hi in zip(regions, bounds[:-1].tolist(), bounds[1:].tolist()):
        if lo < hi:
            inside[lo:hi] = region.member(g11[lo:hi], g21[lo:hi], 1.0, slack[lo:hi])
    return inside


def _largest_sizes(regions, f):
    """The column-wise max over each region's level lines of their sizes
    at f, 0 where it has none, as (regions, 3): a row of zeros goes before
    each region's rows."""
    zero = np.zeros((1, 2, 3))
    sizes = np.concatenate([part for region in regions for part in (zero, region.sizes)])
    starts = accumulate((len(region.sizes) + 1 for region in regions[:-1]), initial=0)
    return np.maximum.reduceat(sizes[:, 0] + f * sizes[:, 1], list(starts))


def _min_rx1(regions) -> list[float]:
    """min gamma11 + gamma21 over each RX1 region, by vertex enumeration at
    f = 1, the vertices of every region in one pass: for each region
    ``_min_gamma(region, np.ones(1))``, bit for bit."""
    ji, ij, left, right, det, owner, starts = _vertex_pairs(
        tuple(region.event for region in regions))
    lines = np.concatenate([region.lines for region in regions])
    c = lines[:, 0, 2] + lines[:, 1, 2]
    # every pair's vertex (gamma11, gamma21), by Cramer's rule
    with np.errstate(divide="ignore", invalid="ignore"):
        xy = (left * c[ji] - right * c[ij]) / det
    cap = np.array([region.cap for region in regions])[owner]
    (k,) = np.nonzero(((xy >= -_SLACK * cap) & (xy <= cap * (1.0 + _SLACK))).all(axis=0))
    g11, g21 = np.clip(xy[:, k], 0.0, cap[k])
    size = _largest_sizes(regions, 1.0)[owner[k]]
    slack = _SLACK * (size[:, 0] * g11 + size[:, 1] * g21 + size[:, 2])
    inside = _each(regions, np.searchsorted(k, starts), g11, g21, slack)
    obj = np.full(len(det), np.inf)
    obj[k[inside]] = g11[inside] + g21[inside]
    return np.minimum.reduceat(obj, starts[:-1]).tolist()


def _poly_mul(p, q):
    """Products of polynomials in f (coefficients lowest order first, along
    the last axis), broadcast over the other axes."""
    shape = np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
    out = np.zeros(shape + (p.shape[-1] + q.shape[-1] - 1,))
    for d in range(p.shape[-1]):
        out[..., d:d + q.shape[-1]] += p[..., d:d + 1] * q
    return out


def _kinks(region, lo, hi):
    """The v in each cell where the vertex sums of the pairs optimal at its
    two ends are equal, and the index of its cell.  Cell c runs from lo[c]
    to hi[c], each end a triple (v, objective, optimal pair)."""
    (v_lo, _, k_lo), (v_hi, _, k_hi) = (np.array(ends).reshape(-1, 3).T for ends in (lo, hi))
    k_lo, k_hi = k_lo.astype(int), k_hi.astype(int)
    num, den = region.event.vertex_sums
    # each end's vertex-sum numerator times the other end's denominator
    left, right = _poly_mul(np.tensordot(region.theta, num[:, np.concatenate([k_lo, k_hi])], 1),
                            den[np.concatenate([k_hi, k_lo])]).reshape(2, len(v_lo), -1)
    gap = left - right
    scale = np.maximum(np.abs(left).max(axis=1), np.abs(right).max(axis=1))
    # a gap within 1e-12 of its terms is rounding: the two sums agree at every f
    (kept,) = np.nonzero(np.abs(gap).max(axis=1) > 1e-12 * scale)
    cells, out = [], []
    for c, f in zip(kept.tolist(), _roots(gap[kept, ::-1])):
        # a double root comes out slightly complex; a kept root is only a
        # candidate, whose gamma minimum is solved exactly like the ends'
        f = f.real[np.abs(f.imag) <= 1e-6]
        f = f[(f >= 1.0 / v_hi[c]) & (f <= 1.0 / v_lo[c])]
        cells += [c] * len(f)
        out.append(1.0 / f)
    return cells, np.concatenate(out) if out else np.empty(0)


def _roots(polys) -> list[np.ndarray]:
    """``np.roots`` of each row of ``polys`` (coefficients highest order
    first), bit for bit, with one ``np.linalg.eigvals`` call per companion
    matrix size.  Where a row's roots are all real but another's of its size
    are not, its roots come out complex with zero imaginary parts."""
    roots, sizes = [np.empty(0)] * len(polys), {}
    for row, p in enumerate(polys):
        nonzero = np.flatnonzero(p).tolist()
        if nonzero:
            # np.roots drops the leading and trailing zeros, takes the
            # eigenvalues of the rest's companion matrix, then appends a
            # zero root per trailing zero
            lo, hi = nonzero[0], nonzero[-1]
            top = -p[lo + 1:hi + 1] / p[lo]
            sizes.setdefault(hi - lo, []).append((row, len(p) - 1 - hi, top))
    for n, rows in sizes.items():
        found = np.empty((len(rows), 0))
        if n:
            companion = np.zeros((len(rows), n, n))
            companion[:, 0] = [top for _, _, top in rows]
            companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
            found = np.linalg.eigvals(companion)
        for (row, trailing, _), w in zip(rows, found):
            roots[row] = np.concatenate([w, np.zeros(trailing, w.dtype)]) if trailing else w
    return roots


def _min_coop(region: OutageRegion) -> float:
    """min gamma11 + gamma21 + u over a cooperative region, where the
    relay-link cost u = 1 - r1*v ties v = 1/f in [1, 1/r1] to the rate:
    an exact gamma solve at each v, searched in v only."""
    r1 = region.rate

    def cost(v):
        g, k = _min_gamma(region, 1.0 / v)
        return list(zip(v.tolist(), (g + (1.0 - r1 * v)).tolist(), k.tolist()))

    ends = cost(np.array([1.0, 1.0 / r1]))
    best = min(h for _, h, _ in ends)
    # a cell is its two ends (v, objective, optimal pair) and the halvings
    # it has left
    cells = [(*ends, _HALVINGS)]
    for _ in range(_ROUNDS):
        finite = [math.isfinite(lo[1] + hi[1]) for lo, hi, _ in cells]
        kink = [c for c, ok in zip(cells, finite) if ok and c[0][2] != c[1][2]]
        halve = [c for c, ok in zip(cells, finite) if not ok and c[2]]
        at, roots = _kinks(region, *zip(*[c[:2] for c in kink])) if kink else ([], [])
        mids = [0.5 * (lo[0] + hi[0]) for lo, hi, _ in halve]
        if not len(roots) + len(mids):
            break
        points = cost(np.concatenate([roots, mids]))
        best = min(best, *(h for _, h, _ in points))
        cells = []
        for c, (lo, hi, n) in enumerate(kink):
            seq = [lo, *sorted(p for p, j in zip(points, at) if j == c), hi]
            # a root whose optimal pair is neither end's reopens the cell on
            # both of its sides; the others settle it
            new = [False, *(p[2] not in (lo[2], hi[2]) for p in seq[1:-1]), False]
            cells += [(a, b, n) for a, b, x, y in zip(seq, seq[1:], new, new[1:]) if x or y]
        for (lo, hi, n), mid in zip(halve, points[len(roots):]):
            cells += [(lo, mid, n - 1), (mid, hi, n - 1)]
    return float(best)


@lru_cache(maxsize=_FAMILIES)
def _root_slots(events):
    """For a stack of RX2 events: the lines with a gamma22 term, each
    event's numbered after those of the events before it, and their
    coefficients; the event of each; and the candidates' layout, event
    after event a box end at 0, one at cap and a root per such line: where
    each root goes, the event of each candidate, and where each event's
    candidates start, the total last."""
    a = [event.candidates[:, 0, 0] for event in events]
    lines = np.flatnonzero(np.concatenate(a))
    counts = [np.count_nonzero(coef) for coef in a]
    starts = np.cumsum([0] + [2 + n for n in counts])
    slots = np.concatenate([start + 2 + np.arange(n) for start, n in zip(starts, counts)])
    event = np.arange(len(events))
    return (lines, np.concatenate(a)[lines], np.repeat(event, counts), slots,
            np.repeat(event, np.diff(starts)), starts)


def _min_rx2(regions) -> list[float]:
    """min gamma22 over each RX2 region: the smallest member among its
    piece roots and its box ends, the candidates of every region in one
    pass."""
    lines, a, owner, slots, cand_owner, starts = _root_slots(
        tuple(region.event for region in regions))
    roots = -np.concatenate([region.lines[:, 0, 2] for region in regions])[lines] / a
    caps = np.array([region.cap for region in regions])
    cand = np.zeros(starts[-1])
    cand[starts[:-1] + 1] = caps
    cand[slots] = roots
    # a root outside the open box is no candidate (an end already is)
    valid = np.ones(len(cand), dtype=bool)
    valid[slots] = (roots > 0.0) & (roots < caps[owner])
    size = _largest_sizes(regions, 0.0)[cand_owner]
    slack = _SLACK * (size[:, 0] * cand + size[:, 2])
    inside = _each(regions, starts, cand, np.zeros(len(cand)), slack)
    return np.minimum.reduceat(np.where(inside & valid, cand, np.inf), starts[:-1]).tolist()


def _check_domain(region: OutageRegion):
    if region.rate < RATE_FLOOR:
        raise ParameterError(
            f"{region.region_id}: active rate {region.rate} below the oracle's "
            f"rate floor {RATE_FLOOR} (zero-rate limits live in the "
            "closed forms)"
        )
    beta = region.theta[0]
    if beta > BETA_CEILING:
        raise ParameterError(
            f"{region.region_id}: beta {beta:g} above the oracle's ceiling "
            f"{BETA_CEILING:g} (its minima lose exactness past it)"
        )


# ---------------------------------------------------------------------------
# oracle surface
# ---------------------------------------------------------------------------

def _minima(rx1, rx2=()) -> tuple[list[float], list[float]]:
    """The minima over RX1 regions, in one vertex pass, and over RX2
    regions, in one root pass; every region's domain is checked first."""
    for region in (*rx1, *rx2):
        _check_domain(region)
    return _min_rx1(rx1) if rx1 else [], _min_rx2(rx2) if rx2 else []


def oracle_min_exponent(region: OutageRegion) -> float:
    """Exact minimum exponent over a non-cooperative region.

    Objective is gamma22 for RX2 regions, gamma11 + gamma21 otherwise.
    Returns +inf when no point within the search cap enters the region.
    """
    _check_domain(region)
    if region.kind == "coop":
        raise ValueError("use oracle_min_exponent_coop for listening-phase regions")
    return (_min_rx2 if region.kind == "rx2" else _min_rx1)([region])[0]


def oracle_min_exponent_coop(region: OutageRegion) -> float:
    """Minimum of gamma11 + gamma21 + u over a cooperative region, where
    the relay-link cost u = 1 - r1/f ties the listening fraction to the
    rate."""
    if region.kind != "coop":
        raise ValueError(f"{region.region_id} has no listening fraction")
    _check_domain(region)
    return _min_coop(region)


def oracle_rx1_hk(p: SystemParams, i: int, stop: bool = False) -> float:
    """RX1 exponent given TX2's ACK at round i (of L): the smaller of the
    individual-rate (O11) and joint-rate (O12) outage minima.  With
    ``stop``, TX2 stops both streams after its ACK."""
    return min(_minima(_at_point(p, [_o11(p.L, i), _o12(p.L, i, stop)]))[0])


def _hk(p: SystemParams, stop: bool, rx2_rounds: int):
    """RX1's exponent under rate splitting, RX1's term at each ACK round
    i = 1..L (as :func:`oracle_rx1_hk`), and RX2's minima after 1 to
    ``rx2_rounds`` rounds: one vertex pass over the 2L RX1 regions and one
    root pass over the RX2 ones."""
    L = p.L
    specs = [spec for i in range(1, L + 1) for spec in (_o11(L, i), _o12(L, i, stop))]
    regions = _at_point(p, specs + [_rx2(l) for l in range(1, rx2_rounds + 1)])
    rx1, rx2 = _minima(regions[:2 * L], regions[2 * L:])
    terms = [min(o11, o12) for o11, o12 in zip(rx1[::2], rx1[1::2])]
    # TX2 ACKs at round i after needing more than i - 1 rounds
    return min(prefix + term for prefix, term in zip([0.0, *rx2], terms)), terms, rx2


def oracle_d1_hk(p: SystemParams, stop: bool = False) -> float:
    """RX1 exponent under rate splitting from the outage regions alone.

    Minimises over the ACK round i of TX2: the exponent of TX2 needing
    more than i - 1 rounds plus :func:`oracle_rx1_hk` at i.
    """
    return _hk(p, stop, p.L - 1)[0]


def oracle_hk(p: SystemParams, stop: bool = False) -> tuple[float, float, list[float]]:
    """(d1, d2, terms) under rate splitting: :func:`oracle_d1_hk`, RX2's
    exponent after L rounds (the minimum over :func:`region_rx2_hk`), and
    RX1's term at each ACK round i (:func:`oracle_rx1_hk`, terms[i - 1]),
    from the one vertex pass and one root pass that d1 needs."""
    d1, terms, rx2 = _hk(p, stop, p.L)
    return d1, rx2[-1], terms


def oracle_d2_coop(p: SystemParams, scheme: SchemeId | str) -> float:
    """RX2 exponent under two-round cooperation: RX1 ACKed round 1 and TX2's
    own retransmission still failed, or RX1 NACKed (TX2 relayed) and RX2's
    single round was already in outage.  RX1's round-1 outage is that of
    the scheme's decoder; the dynamic decoder fails only when both do."""
    scheme = SchemeId(scheme)
    if scheme not in COOP_SCHEMES - {SchemeId.COOP_STATIC}:
        raise ParameterError(f"oracle_d2_coop covers coop-cmo, coop-tian and "
                             f"coop-dd, not {scheme.value}")
    round1 = []
    if scheme is not SchemeId.COOP_TIAN:
        round1.append(_rx1_cmo(1))
    if scheme is not SchemeId.COOP_CMO:
        round1.append(_o11(1, 1))
    regions = _at_point(p, round1 + [_rx2(1), _rx2(2)])
    rx1, (one, two) = _minima(regions[:-2], regions[-2:])
    return min(max(rx1) + one, two)
