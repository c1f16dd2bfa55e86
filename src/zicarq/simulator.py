"""Finite-SNR Monte Carlo of the ARQ protocols at mutual-information level.

Episodes draw one set of Rayleigh channel gains per message, accumulate
per-round mutual information, and run the feedback state machine of the
selected scheme.  Error means information outage when the protocol
terminates; no codewords are transmitted and feedback is error-free.

Randomness contract: the gains of trial ``t`` are a fixed function of
(master seed, stream, t) through a counter-based generator, so estimates
are bit-identical however trials are partitioned into blocks or workers.
Each trial consumes exactly four uniforms (one squared-magnitude per
link, drawn as Exp(1), matching |CN(0,1)|^2); phases never enter the
outage tests, so the episode kernels and ``run_episode`` take the squared
magnitudes (g11, g21, g22, g_relay) themselves.

The kernels test round 1 on the whole block and each later round only on
the trials still open, with the same elementwise tests as a per-round
pass over every trial, so the counts are those of that pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import COOP_SCHEMES, ParameterError, SchemeId, SystemParams

_MASK64 = (1 << 64) - 1
_DRAWS_PER_TRIAL = 4  # uniforms per episode: g11, g21, g22, g_relay
_Z95 = 1.959963984540054  # two-sided 95% standard normal quantile
# trials per vectorised block; estimates do not depend on it
_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo driver settings."""

    rho_db_grid: tuple[float, ...]
    trials: int
    T: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.T < 1:
            raise ParameterError("T must be >= 1")
        grid = self.rho_db_grid
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("rho_db_grid must be strictly increasing")

    def points(self):
        """(stream, rho_db, linear rho) for each point of the SNR grid.

        Point k of the grid draws from stream k, so points are independent
        yet individually reproducible.
        """
        for k, db in enumerate(self.rho_db_grid):
            try:
                rho = 10.0 ** (db / 10.0)
            except OverflowError:
                raise ParameterError(f"rho_db={db:g} overflows a float") from None
            yield k, db, rho


@dataclass(frozen=True)
class Counts:
    """Integer totals over n trials: RX1/RX2 errors and summed renewal time."""

    n: int
    k1: int
    k2: int
    zeta_sum: int


@dataclass(frozen=True)
class PointEstimate:
    rho_db: float
    p_out: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class OutageEstimate:
    p_out1: float
    p_out2: float
    ci1: tuple[float, float]
    ci2: tuple[float, float]


@dataclass(frozen=True)
class DiversityEstimate:
    """Log-log regression of outage probability against SNR."""

    slope: float
    stderr: float
    points: tuple[PointEstimate, ...]
    dropped_rho_db: tuple[float, ...] = ()


@dataclass(frozen=True)
class ThroughputEstimate:
    eta1: float
    eta2: float
    ratio1: float
    ratio2: float
    mean_zeta: float


# ---------------------------------------------------------------------------
# counter-based trial randomness
# ---------------------------------------------------------------------------

def _philox_at(seed: int, trial0: int, stream: int) -> np.random.Generator:
    bg = np.random.Philox(key=np.array([seed & _MASK64, stream & _MASK64],
                                       dtype=np.uint64))
    # advance() counts 128-bit counter blocks; one block yields 4 uint64
    # words = the 4 uniforms of one trial, so trial t starts at block t
    bg.advance(trial0)
    return np.random.Generator(bg)


def _trial_gains(seed: int, trial0: int, n: int, stream: int) -> np.ndarray:
    """|h|^2 draws for trials [trial0, trial0+n): shape (n, 4) Exp(1).

    Each uniform u maps to -log1p(-u), computed in place on the uniforms.
    """
    gen = _philox_at(seed, trial0, stream)
    u = gen.random((n, _DRAWS_PER_TRIAL))
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


# ---------------------------------------------------------------------------
# episode kernels (vectorized over trials)
# ---------------------------------------------------------------------------

def _episode_batch(scheme: SchemeId, p: SystemParams, rho: float,
                   g11, g21, g22, grelay, T: int):
    """Run one episode per array entry; returns (err1, err2, zeta) arrays."""
    if not rho > 1.0:
        raise ParameterError("rho must exceed 1 (linear scale)")
    if T < 1:
        raise ParameterError("T must be >= 1")
    if scheme in COOP_SCHEMES:
        if scheme is SchemeId.COOP_STATIC:
            raise ParameterError(
                "coop-static is an envelope of coop-cmo/coop-tian, not a protocol")
        if p.L != 2:
            raise ParameterError("cooperative schemes require L=2")
        return _episode_batch_coop(scheme, p, rho, g11, g21, g22, grelay, T)
    if scheme in (SchemeId.HK_KEEP, SchemeId.HK_STOP):
        raise ParameterError(f"scheme {scheme.value} is analysis-only")
    return _episode_batch_noncoop(scheme, p, rho, g11, g21, g22)


def _power(rho: float, exponent: float, name: str) -> float:
    try:
        return rho**exponent
    except OverflowError:
        raise ParameterError(f"rho**{name} overflows a float at rho={rho:g}, "
                             f"{name}={exponent:g}") from None


def _ack_rounds(L, ok1, ok, cols):
    """Round of each trial's first ACK, or L + 1 if none by round L.

    ``ok1`` is round 1's outcome over the whole block.  Rounds >= 2 test
    ``ok(l, *c)`` only on the trials still open, where ``c = cols(idx)``
    at their indices ``idx``, compressed as trials ACK.
    """
    ack = np.where(ok1, 1, L + 1)
    if L > 1:
        idx = np.flatnonzero(~ok1)
        c = cols(idx)
        for l in range(2, L + 1):
            hit = ok(l, *c)
            ack[idx[hit]] = l
            keep = ~hit
            idx, c = idx[keep], [x[keep] for x in c]
    return ack


def _episode_batch_noncoop(scheme, p, rho, g11, g21, g22):
    L = p.L
    lg = math.log2(rho)
    R1, R2, T2 = p.r1 * lg, p.r2 * lg, p.t2 * lg
    A = g11 * rho
    B = g21 * _power(rho, p.beta, "beta")
    C = g22 * rho
    m2 = [np.log2(1.0 + C)]
    if scheme is SchemeId.HK:
        div = 1.0 + _power(rho, p.b, "b")
        m2.append(np.log2(1.0 + C / div))

    def rx2_ok(l, m2_full, m2_priv=None):
        # hk: t2 <= r2, so the full-rate test covers the common stream's T2
        ok = l * m2_full >= R2
        return ok if m2_priv is None else ok & (l * m2_priv >= R2 - T2)

    ack2 = _ack_rounds(L, rx2_ok(1, *m2), rx2_ok, lambda i: [m[i] for m in m2])

    # RX1's round 1 always sees TX2's interference (i_eff = 1), so the
    # clean-round terms are computed only for the trials it leaves open
    if scheme is SchemeId.HK:
        Bn = B / div
        m1_int = np.log2(1.0 + A / (1.0 + Bn))
        m1s_int = np.log2(1.0 + (A + B) / (1.0 + Bn))
        ok1 = (m1_int >= R1) & (m1s_int >= R1 + T2)

        def rx1_ok(l, a2, m_int, ms_int, m_clean, ms_clean):
            i_eff = np.minimum(a2, l)
            c1 = i_eff * m_int + (l - i_eff) * m_clean
            c2 = i_eff * ms_int + (l - i_eff) * ms_clean
            return (c1 >= R1) & (c2 >= R1 + T2)

        def rx1_cols(i):
            Ai = A[i]
            return (ack2[i], m1_int[i], m1s_int[i], np.log2(1.0 + Ai),
                    np.log2(1.0 + Ai + B[i]))

    elif scheme is SchemeId.CMO:
        m1 = np.log2(1.0 + A)
        m1s = np.log2(1.0 + A + B)

        def rx1_ok(l, m, ms):
            # TX2 keeps sending the same message after its ACK, so both
            # joint constraints keep accumulating over every round
            return (l * m >= R1) & (l * ms >= R1 + R2)

        ok1 = rx1_ok(1, m1, m1s)

        def rx1_cols(i):
            return m1[i], m1s[i]

    else:  # tian
        m1_int = np.log2(1.0 + A / (1.0 + B))
        ok1 = m1_int >= R1

        def rx1_ok(l, a2, m_int, m_clean):
            # TX2 goes silent after its ACK: clean rounds afterwards
            i_eff = np.minimum(a2, l)
            return i_eff * m_int + (l - i_eff) * m_clean >= R1

        def rx1_cols(i):
            return ack2[i], m1_int[i], np.log2(1.0 + A[i])

    ack1 = _ack_rounds(L, ok1, rx1_ok, rx1_cols)
    return ack1 > L, ack2 > L, np.maximum(np.minimum(ack1, L), np.minimum(ack2, L))


def _episode_batch_coop(scheme, p, rho, g11, g21, g22, grelay, T):
    lg = math.log2(rho)
    R1, R2 = p.r1 * lg, p.r2 * lg
    A = g11 * rho
    B = g21 * _power(rho, p.beta, "beta")
    C = g22 * rho

    m1 = np.log2(1.0 + A)
    m1s = np.log2(1.0 + A + B)
    m1n = np.log2(1.0 + A / (1.0 + B))
    m2 = np.log2(1.0 + C)

    cmo_ok1 = (m1 >= R1) & (m1s >= R1 + R2)
    tian_ok1 = m1n >= R1
    if scheme is SchemeId.COOP_CMO:
        rx1_ack1 = cmo_ok1
    elif scheme is SchemeId.COOP_TIAN:
        rx1_ack1 = tian_ok1
    else:  # dynamic decoding: RX1 picks the better decoder per realization
        rx1_ack1 = cmo_ok1 | tian_ok1

    # the relayed round 2 runs only on the trials RX1 NACKed in round 1
    nack = np.flatnonzero(~rx1_ack1)
    m1, m1s, m1n = m1[nack], m1s[nack], m1n[nack]
    # listening threshold: symbols TX2 needs to decode TX1's message
    clog = np.log2(1.0 + grelay[nack] * rho)
    with np.errstate(divide="ignore", over="ignore"):
        need = np.where(clog > 0.0, np.ceil(T * R1 / clog), np.inf)
    f = np.minimum(float(T), need) / float(T)

    # accumulated information at RX1 by the end of the relayed round 2
    o1_bad = (1.0 + f) * m1 + (1.0 - f) * m1s < R1
    o2_bad = m1s + f * m1 + (1.0 - f) * m1s < R1 + R2
    o3_bad = m1n + f * m1 + (1.0 - f) * m1s < R1
    if scheme is SchemeId.COOP_CMO:
        err1_r2 = o1_bad | o2_bad
    elif scheme is SchemeId.COOP_TIAN:
        err1_r2 = o3_bad
    else:
        err1_r2 = o3_bad & (o1_bad | o2_bad)

    err1 = np.zeros_like(rx1_ack1)
    err1[nack] = err1_r2
    # TX2 retransmits its own message in round 2 only when RX1 ACKed;
    # after an RX1 NACK it relays instead, whatever its own feedback was
    rx2_ack1 = m2 >= R2
    err2 = np.where(rx1_ack1, 2.0 * m2 < R2, ~rx2_ack1)
    zeta = np.where(rx1_ack1 & rx2_ack1, 1, 2).astype(np.int64)
    return err1, err2, zeta


def run_episode(scheme: SchemeId | str, params: SystemParams, rho: float,
                gains, T: int = 1000) -> tuple[bool, bool, int]:
    """Run the protocol state machine for one message.

    ``gains`` holds the squared magnitudes (g11, g21, g22, g_relay); the
    result is (err1, err2, zeta).
    """
    arrs = [np.asarray([x], dtype=np.float64) for x in gains]
    err1, err2, zeta = _episode_batch(SchemeId(scheme), params, rho, *arrs, T=T)
    return bool(err1[0]), bool(err2[0]), int(zeta[0])


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval; always contains the point estimate."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    ph = successes / trials
    z2 = _Z95 * _Z95
    den = 1.0 + z2 / trials
    center = (ph + z2 / (2.0 * trials)) / den
    half = _Z95 * math.sqrt(ph * (1.0 - ph) / trials + z2 / (4.0 * trials * trials)) / den
    # rounding at the p=0/1 edges must not push the estimate outside
    return max(0.0, min(center - half, ph)), min(1.0, max(center + half, ph))


def run_trials(scheme: SchemeId | str, params: SystemParams, rho: float,
               trials: int, seed: int, *, stream: int = 0, T: int = 1000) -> Counts:
    """Run ``trials`` episodes at one SNR point and count their events.

    Aggregation uses integer event counts, so the result is independent
    of the partition of trials into vectorized blocks of ``_BLOCK``.
    """
    scheme = SchemeId(scheme)
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    k1 = k2 = zeta_sum = 0
    for done in range(0, trials, _BLOCK):
        n = min(_BLOCK, trials - done)
        g = _trial_gains(seed, done, n, stream)
        err1, err2, zeta = _episode_batch(scheme, params, rho,
                                          g[:, 0], g[:, 1], g[:, 2], g[:, 3], T)
        k1 += int(np.count_nonzero(err1))
        k2 += int(np.count_nonzero(err2))
        zeta_sum += int(np.sum(zeta))
    return Counts(trials, k1, k2, zeta_sum)


def estimate_outage(scheme: SchemeId | str, params: SystemParams, rho: float,
                    trials: int, seed: int, *, stream: int = 0,
                    T: int = 1000) -> OutageEstimate:
    """Empirical outage probabilities at one SNR point."""
    c = run_trials(scheme, params, rho, trials, seed, stream=stream, T=T)
    return OutageEstimate(c.k1 / c.n, c.k2 / c.n, wilson_interval(c.k1, c.n),
                          wilson_interval(c.k2, c.n))


def fit_loglog_slope(points: list[PointEstimate]):
    """Least-squares slope of -log10(p_out) vs log10(rho).

    Returns (slope, stderr, dropped) where dropped lists the SNR points
    with zero empirical outage (excluded rather than imputed), or None
    in place of the pair when fewer than two points are usable.
    """
    usable = [pt for pt in points if pt.p_out > 0.0]
    dropped = tuple(pt.rho_db for pt in points if pt.p_out == 0.0)
    if len(usable) < 2:
        return None, None, dropped
    x = np.array([pt.rho_db / 10.0 for pt in usable])  # log10(rho)
    y = np.array([-math.log10(pt.p_out) for pt in usable])
    n = len(x)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    rss = float(np.sum((y - intercept - slope * x) ** 2))
    stderr = math.sqrt(rss / (n - 2) / sxx) if n > 2 else math.inf
    return slope, stderr, dropped


def outage_points(scheme: SchemeId | str, params: SystemParams, cfg: SimConfig
                  ) -> tuple[tuple[PointEstimate, ...], tuple[PointEstimate, ...]]:
    """RX1 and RX2 outage estimates at every point of the SNR grid."""
    pts1, pts2 = [], []
    for k, db, rho in cfg.points():
        est = estimate_outage(scheme, params, rho, cfg.trials, cfg.seed,
                              stream=k, T=cfg.T)
        pts1.append(PointEstimate(db, est.p_out1, *est.ci1))
        pts2.append(PointEstimate(db, est.p_out2, *est.ci2))
    return tuple(pts1), tuple(pts2)


def estimate_diversity(scheme: SchemeId | str, params: SystemParams,
                       cfg: SimConfig) -> tuple[DiversityEstimate, DiversityEstimate]:
    """Slope estimates for RX1 and RX2 over the configured SNR grid."""
    out = []
    for pts in outage_points(scheme, params, cfg):
        slope, stderr, dropped = fit_loglog_slope(pts)
        if slope is None:
            raise ValueError("fewer than 2 usable points for the slope fit "
                             f"(dropped {dropped})")
        out.append(DiversityEstimate(slope, stderr, pts, dropped))
    return out[0], out[1]


def estimate_throughput(scheme: SchemeId | str, params: SystemParams, rho: float,
                        trials: int, seed: int, *, stream: int = 0,
                        T: int = 1000) -> ThroughputEstimate:
    """Empirical per-user throughput: first-block rate over mean renewal time."""
    c = run_trials(scheme, params, rho, trials, seed, stream=stream, T=T)
    mean_zeta = c.zeta_sum / c.n
    lg = math.log2(rho)
    R1, R2 = params.r1 * lg, params.r2 * lg
    return ThroughputEstimate(R1 / mean_zeta, R2 / mean_zeta,
                              1.0 / mean_zeta, 1.0 / mean_zeta, mean_zeta)
