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
the stacked affine leaves.  Per stack of events solved in one pass, the
layout of the pass is kept too, with the pairs' gamma coefficients and
determinants at f = 1; a pass at other f forms them from f.  A region
binds its point, box side included, when it is built: its lines, the
sizes of their terms and its leaves come from one product of the constant
columns with theta = (beta, b, r1, r2, t2, cap, 1), which is >= 0, so |c|
times theta is the size of a line's terms.  The regions an oracle call
needs at one point share one such product, and a membership test
evaluates every leaf in one broadcast.

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
the level pieces at the point), and takes the smallest objective.  An
RX2 event reads gamma22 in the first coordinate and has no gamma21 term,
so its level lines meet the edge gamma21 = 0 at their roots, and the
same enumeration minimises gamma22.  One vertex pass solves rows, each a
region at a listening fraction f: the regions of an oracle call at one
point, RX1 and RX2 together, or a cooperative region at each v of a
search round.  Every row's vertices are computed together, each run of
rows of one region is tested by its program in one call, and each row's
minimum is bit for bit the one it gives alone.

Cooperative events add the relay-link cost u = 1 - r1*v with v = 1/f.
The gamma solve above is exact at each v, so only v is searched, with no
grid.  The search evaluates the two ends v = 1 and v = 1/r1 and keeps
cells of v between evaluated points.  In a cell whose two finite ends
have different optimal vertices it takes the exact v where those two
vertices' objectives (ratios of quadratics in f) cross, all such roots
of a round from one eigenvalue call per companion size and in one vertex
pass.  A root whose optimal vertex is neither end's splits its cell
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
from itertools import groupby

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
        """What a region binds: the candidates, their sizes, and the
        program's leaves.  theta is >= 0, so a level line's |coefficients|
        bound are the size of its terms; a box edge's sizes are 0."""
        sizes = np.abs(self.candidates)
        sizes[-4:] = 0.0
        return np.concatenate([self.candidates, sizes, self.program.leaves])

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
        # line's terms (|a|, |b|, and the sum of |c_k|*theta_k; 0 for the
        # box edges), which bounds the rounding of a level value
        n = len(event.candidates)
        self.lines = pieces[:n]
        self.sizes = pieces[n:2 * n]
        self.leaves = pieces[2 * n:]

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
    interfered = pos_part(1.0 - _G11 - pos_part(_BETA - _G21 - _B))
    return i * interfered + (L - i) * pos_part(1.0 - _G11) < _R1


@lru_cache(maxsize=_FAMILIES)
def _o12_event(L: int, i: int, stop: bool):
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
    check_round(L, i)  # before the cache, which keys True as 1
    return f"O11_HK(i={i})", "rx1", _o11_event(L, i)


def _o12(L: int, i: int, stop: bool):
    check_round(L, i)
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

def _cramer(at, take):
    """Cramer's rule for the vertex of each pair (i, j) of the lines in
    ``at``, rows (a, b, c) of a*gamma11 + b*gamma21 + c = 0: the vertex is
    (left * (c_j, c_i) - right * (c_i, c_j)) / det with left = (b_i, a_j),
    right = (b_j, a_i) and det = a_i*b_j - a_j*b_i.  ``take`` holds the flat
    indices into ``at`` of left, right, (c_j, c_i) and (c_i, c_j), each
    (2, pairs); returns those four and det."""
    left, right, c_ji, c_ij = at.take(take)
    return left, right, c_ji, c_ij, right[0] * right[1] - left[0] * left[1]


@lru_cache(maxsize=_FAMILIES)
def _vertex_pairs(events):
    """The layout of a vertex pass over a stack of events, a row each, each
    event's lines numbered after those of the events before it: what
    _cramer takes of every pair; the row of every line and of every pair;
    where each row's lines and pairs start, the totals last; and the
    pairs' left, right and det at f = 1, which need no constant."""
    lines = np.cumsum([0] + [len(event.candidates) for event in events])
    ij = np.array([np.concatenate([event.pairs[k] + n for event, n in zip(events, lines)])
                   for k in (0, 1)])
    ji = ij[::-1]
    take = np.array([3 * ij + [[1], [0]], 3 * ji + [[1], [0]], 3 * ji + 2, 3 * ij + 2])
    counts = [len(event.pairs[0]) for event in events]
    rows = np.arange(len(events))
    candidates = np.concatenate([event.candidates for event in events])
    gamma = np.pad(candidates[:, 0, :2] + candidates[:, 1, :2], ((0, 0), (0, 1)))
    left, right, _, _, det = _cramer(gamma, take)
    return (take, np.repeat(rows, np.diff(lines)), lines, np.repeat(rows, counts),
            np.cumsum([0] + counts), (left, right, det))


def _vertex_minima(regions, f=None):
    """min gamma11 + gamma21 over each row, regions[r] at the listening
    fraction f[r] (every row at f = 1 where ``f`` is None), and the index
    of the minimising pair among the pairs of the row's event: +inf and 0
    where no vertex enters the region.  Every row's vertices are solved in
    one pass, and each row comes out bit for bit as it does alone.  RX2
    rows read gamma22 in gamma11; their level lines have no gamma21 term,
    so each meets the edge gamma21 = 0 at its root."""
    take, line_row, line_starts, row, starts, at_one = _vertex_pairs(
        tuple(region.event for region in regions))
    lines = np.concatenate([region.lines for region in regions])
    sizes = np.concatenate([region.sizes for region in regions])
    if f is None:
        lines, sizes = lines[:, 0] + lines[:, 1], sizes[:, 0] + sizes[:, 1]
        (left, right, det), (c_ji, c_ij) = at_one, lines.take(take[2:])
    else:
        f = np.asarray(f, dtype=float)
        lines = lines[:, 0] + f[line_row, None] * lines[:, 1]
        sizes = sizes[:, 0] + f[line_row, None] * sizes[:, 1]
        left, right, c_ji, c_ij, det = _cramer(lines, take)
    # every pair's vertex (gamma11, gamma21), by Cramer's rule
    with np.errstate(divide="ignore", invalid="ignore"):
        xy = (left * c_ji - right * c_ij) / det
    cap = np.array([region.cap for region in regions])[row]
    box = (xy >= -_SLACK * cap) & (xy <= cap * (1.0 + _SLACK))
    (k,) = np.nonzero(box[0] & box[1])
    g11, g21 = np.clip(xy.take(k, axis=1), 0.0, cap[k])
    # the largest line's terms at each vertex, column by column
    k_row = row[k]
    size = np.maximum.reduceat(sizes, line_starts[:-1])[k_row]
    slack = _SLACK * (size[:, 0] * g11 + size[:, 1] * g21 + size[:, 2])
    # each run of rows of one region tests its vertices in one program call
    inside = np.empty(len(k), dtype=bool)
    f = None if f is None else f[k_row]
    bounds, first = np.searchsorted(k, starts).tolist(), 0
    for region, run in groupby(regions):
        last = first + len(list(run))
        lo, hi = bounds[first], bounds[last]
        inside[lo:hi] = region.member(g11[lo:hi], g21[lo:hi], 1.0 if f is None else f[lo:hi],
                                      slack[lo:hi])
        first = last
    obj = np.full(len(row), np.inf)
    obj[k[inside]] = (g11 + g21)[inside]
    # the first pair of each row at its minimum
    at_min = obj == np.minimum.reduceat(obj, starts[:-1])[row]
    first = np.minimum.reduceat(np.where(at_min, np.arange(len(row)), len(row)), starts[:-1])
    return obj[first], first - starts[:-1]


# The benchmark's tracer (bench/tracing.py) wraps the oracle's solvers
# under these names; both are the one vertex pass.
_min_rx1 = _min_rx2 = _vertex_minima


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
        g, k = _vertex_minima([region] * len(v), 1.0 / v)
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

def _minima(regions) -> list[float]:
    """The minima over non-cooperative regions, in one vertex pass; every
    region's domain is checked first."""
    for region in regions:
        _check_domain(region)
    return _vertex_minima(regions)[0].tolist()


def oracle_min_exponent(region: OutageRegion) -> float:
    """Exact minimum exponent over a non-cooperative region.

    Objective is gamma22 for RX2 regions, gamma11 + gamma21 otherwise.
    Returns +inf when no point within the search cap enters the region.
    """
    _check_domain(region)
    if region.kind == "coop":
        raise ValueError("use oracle_min_exponent_coop for listening-phase regions")
    return _vertex_minima([region])[0].item()


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
    return min(_minima(_at_point(p, [_o11(p.L, i), _o12(p.L, i, stop)])))


def _hk(p: SystemParams, stop: bool, rx2_rounds: int):
    """RX1's exponent under rate splitting, RX1's term at each ACK round
    i = 1..L (as :func:`oracle_rx1_hk`), and RX2's minima after 1 to
    ``rx2_rounds`` rounds: one vertex pass over the 2L RX1 regions and the
    RX2 ones."""
    L = p.L
    specs = [spec for i in range(1, L + 1) for spec in (_o11(L, i), _o12(L, i, stop))]
    minima = _minima(_at_point(p, specs + [_rx2(l) for l in range(1, rx2_rounds + 1)]))
    rx1, rx2 = minima[:2 * L], minima[2 * L:]
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
    from the one vertex pass that d1 needs."""
    d1, terms, rx2 = _hk(p, stop, p.L)
    return d1, rx2[-1], terms


def oracle_cmo(p: SystemParams) -> tuple[float, float]:
    """(d1, d2) under common-message-only decoding: the minima over
    :func:`region_rx1_cmo` and :func:`region_rx2_hk`, in one vertex pass."""
    d1, d2 = _minima(_at_point(p, [_rx1_cmo(p.L), _rx2(p.L)]))
    return d1, d2


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
    *rx1, one, two = _minima(_at_point(p, round1 + [_rx2(1), _rx2(2)]))
    return min(max(rx1) + one, two)
