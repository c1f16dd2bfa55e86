"""High-SNR outage regions and the brute-force exponent oracle.

Each outage event is a predicate over channel-gain exponents
(gamma11, gamma21, gamma22, listening fraction f).  The oracle minimizes
the relevant exponent sum over a region by exhaustive search, giving an
independent ground truth for every closed form in :mod:`zicarq.analytic`.

Search strategy.  Every region here is upward closed: weakening any
channel (raising a gamma) can only keep the realization in outage.  The
inner gamma11 coordinate is therefore resolved exactly by bisection on
the membership predicate, while gamma21 (and the listening fraction for
cooperative regions) are swept on a grid with local refinement passes
that shrink the step tenfold around the incumbents.  The listening
fraction is swept uniformly in v = 1/f, which makes the relay-link cost
u = 1 - r1*v linear and keeps the sweep dense near f = r1 where the
objective is steepest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ExponentPoint, SystemParams, validate

# Regions are open sets written with strict inequalities; on a grid the
# infimum over the open set equals the one over its closure, so membership
# backs off the rate by a hair to dodge boundary ties.
STRICT_EPS = 1e-12

_BISECT_ITERS = 44


@dataclass(frozen=True)
class OracleConfig:
    """Search resolution for the exponent oracle.

    gamma_step    final grid resolution in the gamma coordinates
    gamma_cap     search cap; None derives max(1, beta) + 0.5 per region
    f_step        final resolution of the listening-fraction sweep
    refine_rounds refinement passes, each shrinking the step tenfold
    rate_floor    smallest admissible active rate (limits live in the
                  closed forms, not in the oracle)
    top_k         incumbents kept per pass for local refinement
    """

    gamma_step: float = 1e-3
    gamma_cap: float | None = None
    f_step: float = 1e-3
    refine_rounds: int = 2
    rate_floor: float = 1e-3
    top_k: int = 6

    def cap_for(self, beta: float) -> float:
        if self.gamma_cap is not None:
            if self.gamma_cap <= max(1.0, beta):
                raise ValueError("gamma_cap must exceed max(1, beta)")
            return self.gamma_cap
        return max(1.0, beta) + 0.5


def _pp(x):
    return np.maximum(x, 0.0)


class OutageRegion:
    """One high-SNR outage event as an explicit membership predicate.

    kind is 'rx2' (predicate over gamma22), 'rx1' (over gamma11/gamma21),
    or 'coop' (over gamma11/gamma21 and the listening fraction f).
    """

    def __init__(self, region_id, kind, mask, beta, active_rates):
        self.region_id = region_id
        self.kind = kind
        self.beta = beta
        self.active_rates = tuple(active_rates)
        self._mask = mask

    def __repr__(self):
        return f"OutageRegion({self.region_id})"

    def contains(self, pt: ExponentPoint) -> bool:
        pt.check()
        if self.kind == "rx2":
            return bool(self._mask(np.asarray([pt.gamma22]))[0])
        return bool(
            self._mask(
                np.asarray([pt.gamma11]),
                np.asarray([pt.gamma21]),
                np.asarray([pt.f]),
            )[0]
        )


def region_contains(region: OutageRegion, pt: ExponentPoint) -> bool:
    """Exact evaluation of the region's defining inequalities at a point."""
    return region.contains(pt)


# ---------------------------------------------------------------------------
# region factories (predicates transcribe the defining inequalities verbatim)
# ---------------------------------------------------------------------------

def region_rx2_hk(p: SystemParams, rounds: int | None = None) -> OutageRegion:
    """RX2 outage under rate splitting after ``rounds`` rounds."""
    l = p.L if rounds is None else rounds
    if l < 1:
        raise ValueError("rounds must be >= 1")
    r2, s2, b = p.r2, p.s2, p.b

    def mask(g22):
        return (l * _pp(1.0 - g22) < r2 - STRICT_EPS) | (
            l * _pp(1.0 - g22 - b) < s2 - STRICT_EPS
        )

    return OutageRegion(f"O_RX2_HK(l={l})", "rx2", mask, p.beta, (r2,))


def region_o11_hk(p: SystemParams, i: int) -> OutageRegion:
    """RX1 individual-rate outage given TX2's ACK at round i (of L)."""
    if not 1 <= i <= p.L:
        raise ValueError(f"round index i={i} outside 1..{p.L}")
    L, r1, beta, b = p.L, p.r1, p.beta, p.b

    def mask(g11, g21, f=None):
        interfered = _pp(1.0 - g11 - _pp(beta - g21 - b))
        return i * interfered + (L - i) * _pp(1.0 - g11) < r1 - STRICT_EPS

    return OutageRegion(f"O11_HK(i={i})", "rx1", mask, beta, (r1,))


def region_o12_hk(p: SystemParams, i: int) -> OutageRegion:
    """RX1 joint-rate outage given TX2's ACK at round i (of L)."""
    if not 1 <= i <= p.L:
        raise ValueError(f"round index i={i} outside 1..{p.L}")
    L, beta, b = p.L, p.beta, p.b
    rate = p.r1 + p.t2

    def mask(g11, g21, f=None):
        joint = _pp(np.maximum(1.0 - g11, beta - g21) - _pp(beta - g21 - b))
        tail = np.maximum(_pp(1.0 - g11), _pp(beta - g21))
        return i * joint + (L - i) * tail < rate - STRICT_EPS

    return OutageRegion(f"O12_HK(i={i})", "rx1", mask, beta, (p.r1,))


def region_o11_stop(p: SystemParams, i: int) -> OutageRegion:
    """Stop-both policy variant; identical to O11 (post-ACK rounds are
    already interference-free in the individual constraint)."""
    r = region_o11_hk(p, i)
    return OutageRegion(f"O11_STOP(i={i})", "rx1", r._mask, p.beta, (p.r1,))


def region_o12_stop(p: SystemParams, i: int) -> OutageRegion:
    """Stop-both policy variant of O12: after TX2's ACK the common stream
    is gone, so the tail rounds contribute the direct link only."""
    if not 1 <= i <= p.L:
        raise ValueError(f"round index i={i} outside 1..{p.L}")
    L, beta, b = p.L, p.beta, p.b
    rate = p.r1 + p.t2

    def mask(g11, g21, f=None):
        joint = _pp(np.maximum(1.0 - g11, beta - g21) - _pp(beta - g21 - b))
        return i * joint + (L - i) * _pp(1.0 - g11) < rate - STRICT_EPS

    return OutageRegion(f"O12_STOP(i={i})", "rx1", mask, beta, (p.r1,))


def region_rx1_cmo(p: SystemParams, rounds: int | None = None) -> OutageRegion:
    l = p.L if rounds is None else rounds
    if l < 1:
        raise ValueError("rounds must be >= 1")
    r1, r2, beta = p.r1, p.r2, p.beta

    def mask(g11, g21, f=None):
        own = l * _pp(1.0 - g11) < r1 - STRICT_EPS
        joint = l * np.maximum(_pp(1.0 - g11), _pp(beta - g21)) < r1 + r2 - STRICT_EPS
        return own | joint

    return OutageRegion(f"O_RX1_CMO(l={l})", "rx1", mask, beta, (r1,))


def region_rx2_cmo(p: SystemParams, rounds: int | None = None) -> OutageRegion:
    l = p.L if rounds is None else rounds
    if l < 1:
        raise ValueError("rounds must be >= 1")
    r2 = p.r2

    def mask(g22):
        return l * _pp(1.0 - g22) < r2 - STRICT_EPS

    return OutageRegion(f"O_RX2_CMO(l={l})", "rx2", mask, p.beta, (r2,))


def region_rx1_tian1(r1: float, beta: float) -> OutageRegion:
    """Single-round noise-treating outage at RX1."""

    def mask(g11, g21, f=None):
        return _pp(1.0 - g11 - _pp(beta - g21)) < r1 - STRICT_EPS

    return OutageRegion("O_RX1_TIAN(l=1)", "rx1", mask, beta, (r1,))


def region_o1_coop(r1: float, beta: float) -> OutageRegion:
    """Individual-rate outage after a relayed second round, CMO decoding."""

    def mask(g11, g21, f):
        direct = _pp(1.0 - g11)
        both = np.maximum(direct, _pp(beta - g21))
        return (1.0 + f) * direct + (1.0 - f) * both < r1 - STRICT_EPS

    return OutageRegion("O1_COOP", "coop", mask, beta, (r1,))


def region_o2_coop(r1: float, r2: float, beta: float) -> OutageRegion:
    """Joint-rate outage after a relayed second round, CMO decoding."""

    def mask(g11, g21, f):
        direct = _pp(1.0 - g11)
        both = np.maximum(direct, _pp(beta - g21))
        return (2.0 - f) * both + f * direct < r1 + r2 - STRICT_EPS

    return OutageRegion("O2_COOP", "coop", mask, beta, (r1,))


def region_o3_coop(r1: float, beta: float) -> OutageRegion:
    """Outage after a relayed second round with noise-treating decoding."""

    def mask(g11, g21, f):
        direct = _pp(1.0 - g11)
        both = np.maximum(direct, _pp(beta - g21))
        round1 = _pp(1.0 - g11 - _pp(beta - g21))
        return round1 + f * direct + (1.0 - f) * both < r1 - STRICT_EPS

    return OutageRegion("O3_COOP", "coop", mask, beta, (r1,))


def region_o11_dd(r1: float, beta: float) -> OutageRegion:
    """Dynamic decoder, individual event: both decoders fail the own-rate
    test (the CMO event is contained in the noise-treating one)."""

    def mask(g11, g21, f):
        direct = _pp(1.0 - g11)
        both = np.maximum(direct, _pp(beta - g21))
        tail = f * direct + (1.0 - f) * both
        o1 = direct + tail < r1 - STRICT_EPS
        o3 = _pp(1.0 - g11 - _pp(beta - g21)) + tail < r1 - STRICT_EPS
        return o1 & o3

    return OutageRegion("O11_DD", "coop", mask, beta, (r1,))


def region_o12_dd(r1: float, r2: float, beta: float) -> OutageRegion:
    """Dynamic decoder, joint event: CMO fails the sum-rate test and the
    noise-treating decoder fails as well."""

    def mask(g11, g21, f):
        direct = _pp(1.0 - g11)
        both = np.maximum(direct, _pp(beta - g21))
        tail = f * direct + (1.0 - f) * both
        o2 = both + tail < r1 + r2 - STRICT_EPS
        o3 = _pp(1.0 - g11 - _pp(beta - g21)) + tail < r1 - STRICT_EPS
        return o2 & o3

    return OutageRegion("O12_DD", "coop", mask, beta, (r1,))


_REGION_BUILDERS = {
    "O_RX2_HK": lambda p, i, rounds: region_rx2_hk(p, rounds),
    "O11_HK": lambda p, i, rounds: region_o11_hk(p, i),
    "O12_HK": lambda p, i, rounds: region_o12_hk(p, i),
    "O11_STOP": lambda p, i, rounds: region_o11_stop(p, i),
    "O12_STOP": lambda p, i, rounds: region_o12_stop(p, i),
    "O_RX1_CMO": lambda p, i, rounds: region_rx1_cmo(p, rounds),
    "O_RX2_CMO": lambda p, i, rounds: region_rx2_cmo(p, rounds),
    "O1_COOP": lambda p, i, rounds: region_o1_coop(p.r1, p.beta),
    "O2_COOP": lambda p, i, rounds: region_o2_coop(p.r1, p.r2, p.beta),
    "O3_COOP": lambda p, i, rounds: region_o3_coop(p.r1, p.beta),
    "O11_DD": lambda p, i, rounds: region_o11_dd(p.r1, p.beta),
    "O12_DD": lambda p, i, rounds: region_o12_dd(p.r1, p.r2, p.beta),
}


def make_region(region_id: str, params: SystemParams, *, i: int | None = None,
                rounds: int | None = None) -> OutageRegion:
    """Build a region by identifier; raises on an unknown region id."""
    validate(params)
    try:
        builder = _REGION_BUILDERS[region_id]
    except KeyError:
        known = ", ".join(sorted(_REGION_BUILDERS))
        raise ValueError(f"unknown region id {region_id!r} (known: {known})")
    if region_id in ("O11_HK", "O12_HK", "O11_STOP", "O12_STOP") and i is None:
        raise ValueError(f"{region_id} requires the ACK round index i")
    return builder(params, i, rounds)


# ---------------------------------------------------------------------------
# oracle internals
# ---------------------------------------------------------------------------

def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    n = int(math.ceil((hi - lo) / step)) + 1
    return np.linspace(lo, hi, max(n, 2))


def _bisect_g11(mask, g21, f, cap):
    """Smallest gamma11 that enters the region, per (gamma21, f) column.

    Membership is monotone nondecreasing in gamma11, so bisection is
    exact; columns outside the region even at the cap report +inf.
    """
    top = np.full_like(g21, cap)
    feasible = mask(top, g21, f)
    lo = np.zeros_like(g21)
    hi = np.full_like(g21, cap)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        inside = mask(mid, g21, f)
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    return np.where(feasible, hi, np.inf)


def _refine_axis(values: np.ndarray, objective: np.ndarray, step: float,
                 lo: float, hi: float, top_k: int) -> np.ndarray:
    """Candidate points for the next pass around the best incumbents."""
    order = np.argsort(objective, kind="stable")
    centers = []
    for idx in order:
        if not np.isfinite(objective[idx]):
            break
        c = values[idx]
        if all(abs(c - seen) > 0.5 * step for seen in centers):
            centers.append(c)
        if len(centers) >= top_k:
            break
    pts = [np.linspace(max(lo, c - 1.5 * step), min(hi, c + 1.5 * step), 31)
           for c in centers]
    if not pts:
        return np.array([])
    return np.unique(np.concatenate(pts))


def _min_rx1(region: OutageRegion, cfg: OracleConfig,
             history: list | None = None) -> float:
    """min gamma11 + gamma21 over an RX1 region (grid in gamma21,
    bisection in gamma11, tenfold refinement).

    ``history`` collects the incumbent after each pass; by construction
    it never increases.
    """
    cap = cfg.cap_for(region.beta)
    base = cfg.gamma_step * 10.0**cfg.refine_rounds / 2.0
    g21 = _grid(0.0, cap, base)
    best = math.inf
    step = base
    for level in range(cfg.refine_rounds + 1):
        g11 = _bisect_g11(region._mask, g21, None, cap)
        obj = g11 + g21
        best = min(best, float(np.min(obj)))
        if history is not None:
            history.append(best)
        if level == cfg.refine_rounds:
            break
        g21_next = _refine_axis(g21, obj, step, 0.0, cap, cfg.top_k)
        if g21_next.size == 0:
            break
        g21 = g21_next
        step /= 10.0
    return best


def _top_pairs(v, g, obj, vstep, gstep, top_k):
    """Best (v, gamma21) incumbents, deduplicated at the current step."""
    order = np.argsort(obj, kind="stable")
    pairs = []
    for idx in order[: 32 * top_k]:
        if not np.isfinite(obj[idx]):
            break
        cand = (float(v[idx]), float(g[idx]))
        if all(
            max(abs(cand[0] - pv) / vstep, abs(cand[1] - pg) / gstep) > 0.75
            for pv, pg in pairs
        ):
            pairs.append(cand)
        if len(pairs) >= top_k:
            break
    return pairs


def _min_coop(region: OutageRegion, r1: float, cfg: OracleConfig,
              history: list | None = None) -> float:
    """min gamma11 + gamma21 + u over a cooperative region, sweeping the
    listening fraction f in [r1, 1] through v = 1/f and adding the
    relay-link cost u = 1 - r1*v."""
    cap = cfg.cap_for(region.beta)
    v_hi = 1.0 / max(r1, cfg.rate_floor)
    gstep = cfg.gamma_step * 10.0**cfg.refine_rounds / 2.0
    vstep = cfg.f_step * 10.0**cfg.refine_rounds / 2.0
    V, G = np.meshgrid(_grid(1.0, v_hi, vstep), _grid(0.0, cap, gstep),
                       indexing="ij")
    Vf, Gf = V.ravel(), G.ravel()
    best = math.inf
    for level in range(cfg.refine_rounds + 1):
        f = 1.0 / Vf
        g11 = _bisect_g11(region._mask, Gf, f, cap)
        obj = g11 + Gf + (1.0 - r1 * Vf)
        best = min(best, float(np.min(obj)))
        if history is not None:
            history.append(best)
        if level == cfg.refine_rounds:
            break
        pairs = _top_pairs(Vf, Gf, obj, vstep, gstep, cfg.top_k)
        if not pairs:
            break
        vs, gs = [], []
        for vc, gc in pairs:
            vv = np.linspace(max(1.0, vc - 1.5 * vstep),
                             min(v_hi, vc + 1.5 * vstep), 31)
            gg = np.linspace(max(0.0, gc - 1.5 * gstep),
                             min(cap, gc + 1.5 * gstep), 31)
            VV, GG = np.meshgrid(vv, gg, indexing="ij")
            vs.append(VV.ravel())
            gs.append(GG.ravel())
        Vf = np.concatenate(vs)
        Gf = np.concatenate(gs)
        vstep /= 10.0
        gstep /= 10.0
    return best


def _min_rx2(region: OutageRegion, cfg: OracleConfig) -> float:
    """min gamma22 over an RX2 region; exact by bisection."""
    cap = cfg.cap_for(region.beta)
    if not bool(region._mask(np.asarray([cap]))[0]):
        return math.inf
    lo, hi = 0.0, cap
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if bool(region._mask(np.asarray([mid]))[0]):
            hi = mid
        else:
            lo = mid
    return hi


def _check_rates(region: OutageRegion, cfg: OracleConfig):
    for r in region.active_rates:
        if r < cfg.rate_floor:
            raise ValueError(
                f"{region.region_id}: active rate {r} below the oracle's "
                f"rate floor {cfg.rate_floor} (zero-rate limits live in the "
                "closed forms)"
            )


# ---------------------------------------------------------------------------
# oracle surface
# ---------------------------------------------------------------------------

def oracle_min_exponent(region: OutageRegion, cfg: OracleConfig | None = None) -> float:
    """Brute-force minimum exponent over a non-cooperative region.

    Objective is gamma22 for RX2 regions, gamma11 + gamma21 otherwise.
    Returns +inf when no point within the search cap enters the region.
    """
    cfg = cfg or OracleConfig()
    _check_rates(region, cfg)
    if region.kind == "rx2":
        return _min_rx2(region, cfg)
    if region.kind == "coop":
        raise ValueError("use oracle_min_exponent_coop for listening-phase regions")
    return _min_rx1(region, cfg)


def oracle_min_exponent_coop(region: OutageRegion, cfg: OracleConfig | None = None) -> float:
    """Brute-force minimum of gamma11 + gamma21 + u over a cooperative
    region, where the relay-link cost u = 1 - r1/f ties the listening
    fraction to the rate."""
    cfg = cfg or OracleConfig()
    if region.kind != "coop":
        raise ValueError(f"{region.region_id} has no listening fraction")
    _check_rates(region, cfg)
    r1 = region.active_rates[0]
    return _min_coop(region, r1, cfg)


def oracle_d1_hk(p: SystemParams, cfg: OracleConfig | None = None) -> float:
    """RX1 exponent under rate splitting from the outage regions alone.

    Sums over the ACK round of TX2: prefix exponent of reaching that round
    plus the dominant conditional outage exponent.
    """
    cfg = cfg or OracleConfig()
    validate(p)
    return _oracle_d1_decomposed(p, cfg, region_o12_hk)


def oracle_d1_hk_stop(p: SystemParams, cfg: OracleConfig | None = None) -> float:
    """Same decomposition for the policy where TX2 stops both streams
    after its own ACK (no closed form exists for this variant)."""
    cfg = cfg or OracleConfig()
    validate(p)
    return _oracle_d1_decomposed(p, cfg, region_o12_stop)


def _oracle_d1_decomposed(p: SystemParams, cfg: OracleConfig, o12_factory) -> float:
    if p.r1 < cfg.rate_floor or p.r2 < cfg.rate_floor:
        raise ValueError("oracle requires r1, r2 >= rate_floor")
    best = math.inf
    for i in range(1, p.L + 1):
        prefix = 0.0 if i == 1 else _min_rx2(region_rx2_hk(p, i - 1), cfg)
        o11 = _min_rx1(region_o11_hk(p, i), cfg)
        o12 = _min_rx1(o12_factory(p, i), cfg)
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


def rate_region_subset_check(p: SystemParams, samples: int, seed: int,
                             cfg: OracleConfig | None = None) -> SubsetCheckReport:
    """Sample exponent points and verify the policy-comparison containments.

    Every point decodable under the keep-both policy (the ACK-at-round-L
    instantiation) or under the stop-both policy at any ACK round must be
    decodable under the mixed policy at some ACK round.  Returns the list
    of violating samples, which must be empty.
    """
    cfg = cfg or OracleConfig()
    validate(p)
    if samples == 0:
        return SubsetCheckReport(0, ())
    cap = cfg.cap_for(p.beta)
    rng = np.random.default_rng(seed)
    g11 = rng.uniform(0.0, cap, samples)
    g21 = rng.uniform(0.0, cap, samples)

    in_policy_any = np.zeros(samples, dtype=bool)
    policy_masks = []
    for i in range(1, p.L + 1):
        o11 = region_o11_hk(p, i)._mask(g11, g21, None)
        o12 = region_o12_hk(p, i)._mask(g11, g21, None)
        policy_masks.append(~(o11 | o12))
        in_policy_any |= policy_masks[-1]

    bad = np.zeros(samples, dtype=bool)
    # keep-both rate region is the i=L instantiation of the policy region
    keep_ok = policy_masks[-1]
    bad |= keep_ok & ~in_policy_any
    for i in range(1, p.L + 1):
        o11s = region_o11_stop(p, i)._mask(g11, g21, None)
        o12s = region_o12_stop(p, i)._mask(g11, g21, None)
        stop_ok = ~(o11s | o12s)
        bad |= stop_ok & ~in_policy_any

    idx = np.nonzero(bad)[0]
    ces = tuple(
        {"gamma11": float(g11[k]), "gamma21": float(g21[k])} for k in idx[:50]
    )
    return SubsetCheckReport(samples, ces)
