"""Finite-SNR Monte Carlo of the ARQ protocols at mutual-information level.

Episodes draw one set of Rayleigh channel gains per message, accumulate
per-round mutual information, and run the feedback state machine of the
selected scheme.  Error means information outage when the protocol
terminates; no codewords are transmitted and feedback is error-free.

Randomness contract: the gains of trial ``t`` are a fixed function of
(master seed, stream, t) through a counter-based generator, so every
block of trials can be drawn on its own.  ``run_trials`` runs its blocks
concurrently on worker threads, one per usable CPU, and sums their
integer event counts, so estimates are bit-identical however trials are
partitioned into blocks and however the blocks are scheduled.
Each trial consumes exactly four uniforms (one squared-magnitude per
link, drawn as Exp(1), matching |CN(0,1)|^2); phases never enter the
outage tests, so the episode kernels and ``run_episode`` take the squared
magnitudes (g11, g21, g22, g_relay) themselves.

A scheme is a table of information tests per receiver, which ACKs a round
when all of its tests hold.  The kernels test round 1 on the whole block
and later rounds only on the trials still open, so the counts are those
of a per-round pass over every trial.  hk-keep and hk-stop have no table
and stay analysis-only.

TX2 listens a whole number of symbols of a fixed 1000-symbol round before
it relays: the listening fraction is f = min(1000, ceil(1000*R1/clog)) / 1000,
with clog = log2(1 + g_relay*rho) the relay link's information per symbol.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

import numpy as np

from .core import COOP_SCHEMES, ParameterError, SchemeId, SystemParams, check_rounds

_MASK64 = (1 << 64) - 1
_DRAWS_PER_TRIAL = 4  # uniforms per episode: g11, g21, g22, g_relay
_GAIN_MAX = 37.0  # a drawn gain -log1p(-u), u <= 1 - 2**-53, is at most 53 ln 2
_Z95 = 1.959963984540054  # two-sided 95% standard normal quantile
# trials per vectorised block; estimates do not depend on it
_BLOCK = 1 << 15
# worker threads for multi-block runs: numpy releases the GIL in the draw,
# the ufuncs and the gathers, and the blocks share no state
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None  # built on first multi-block run
_SYMBOLS = 1000  # symbols per round: the granularity of TX2's listening time


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo driver settings."""

    rho_db_grid: tuple[float, ...]
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
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
    """One receiver's outage points and their log-log slope fit, which
    leaves out the zero-outage points listed in ``dropped_rho_db``; slope
    and stderr are None when fewer than two points remain."""

    slope: float | None
    stderr: float | None
    dropped_rho_db: tuple[float, ...]
    points: tuple[PointEstimate, ...]


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

def _trial_gains(seed: int, trial0: int, n: int, stream: int) -> np.ndarray:
    """|h|^2 draws for trials [trial0, trial0+n): shape (n, 4) Exp(1).

    Each uniform u maps to -log1p(-u), computed in place on the uniforms.
    """
    bg = np.random.Philox(key=np.array([seed & _MASK64, stream & _MASK64],
                                       dtype=np.uint64))
    # advance() counts 128-bit counter blocks; one block yields 4 uint64
    # words = the 4 uniforms of one trial, so trial t starts at block t
    bg.advance(trial0)
    u = np.random.Generator(bg).random((n, _DRAWS_PER_TRIAL))
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


# ---------------------------------------------------------------------------
# episode kernels (vectorized over trials)
# ---------------------------------------------------------------------------

def _episode_batch(scheme: SchemeId, p: SystemParams, rho: float,
                   g11, g21, g22, grelay):
    """Run one episode per array entry; returns (err1, err2, zeta) arrays."""
    if not rho > 1.0:
        raise ParameterError("rho must exceed 1 (linear scale)")
    if scheme is SchemeId.COOP_STATIC:
        raise ParameterError(
            "coop-static is an envelope of coop-cmo/coop-tian, not a protocol")
    check_rounds(scheme, p)
    if scheme in (SchemeId.HK_KEEP, SchemeId.HK_STOP):
        raise ParameterError(f"scheme {scheme.value} is analysis-only")
    rho_beta = _power(rho, p.beta, "beta")
    _check_link_snr(rho, rho_beta, _GAIN_MAX)
    # both kernels' link: log2(rho), and the direct, cross and TX2 link SNRs
    link = (math.log2(rho), g11 * rho, g21 * rho_beta, g22 * rho)
    if scheme in COOP_SCHEMES:
        return _episode_batch_coop(scheme, p, rho, link, grelay)
    return _episode_batch_noncoop(scheme, p, rho, link)


def _power(rho: float, exponent: float, name: str) -> float:
    try:
        return rho**exponent
    except OverflowError:
        raise ParameterError(f"rho**{name} overflows a float at rho={rho:g}, "
                             f"{name}={exponent:g}") from None


def _check_link_snr(rho: float, rho_beta: float, gain: float):
    # the kernels form g * rho and g * rho**beta, and add the direct and cross SNRs
    if gain * rho + gain * rho_beta == math.inf:
        raise ParameterError(f"a link SNR overflows a float at rho={rho:g}")


def _ack_rounds(L, tests, ack2=None):
    """Round of each trial's first ACK, or L + 1 if none by round L.

    Round l ACKs when every test ``(x, clean, rate)`` holds: where TX2 never
    stops interfering (``clean`` None), ``l * x >= rate``; else, with i =
    min(ack2, l), ``i * x + (l - i) * clean(idx) >= rate``.  Round 1 runs on
    the whole block, later rounds only at the indices ``idx`` of open trials.
    """
    ok1 = reduce(and_, (x >= r for x, _, r in tests))
    # the smallest integer type that holds L + 1: int64 minimum/maximum
    # over a block cost several times as much
    ack = (L + 1) - L * ok1.astype(np.min_scalar_type(L + 1))
    if L > 1:
        idx = np.flatnonzero(~ok1)
        cols = [(x[idx], None if c is None else c(idx), r) for x, c, r in tests]
        a2 = (ack2[idx].astype(np.float64)
              if any(c is not None for _, c, _ in cols) else None)
        for l in range(2, L + 1):
            i = None if a2 is None else np.minimum(a2, l)
            hit = reduce(and_, (l * x >= r if c is None else i * x + (l - i) * c >= r
                                for x, c, r in cols))
            ack[idx[hit]] = l
            keep = ~hit
            idx, a2 = idx[keep], None if a2 is None else a2[keep]
            cols = [(x[keep], None if c is None else c[keep], r) for x, c, r in cols]
    return ack


def _episode_batch_noncoop(scheme, p, rho, link):
    L = p.L
    lg, A, B, C = link
    R1, R2, T2 = p.r1 * lg, p.r2 * lg, p.t2 * lg
    # hk: t2 <= r2, so the full-rate test covers the common stream's T2
    rx2 = [(np.log2(1.0 + C), None, R2)]
    if scheme is SchemeId.HK:
        div = 1.0 + _power(rho, p.b, "b")
        rx2.append((np.log2(1.0 + C / div), None, R2 - T2))
    ack2 = _ack_rounds(L, rx2)

    # RX1's round 1 is interfered for every trial, so its clean-round
    # information is computed only where round 1 leaves a trial open
    if scheme is SchemeId.HK:
        Bn = B / div
        rx1 = [(np.log2(1.0 + A / (1.0 + Bn)), lambda i: np.log2(1.0 + A[i]), R1),
               (np.log2(1.0 + (A + B) / (1.0 + Bn)),
                lambda i: np.log2(1.0 + A[i] + B[i]), R1 + T2)]
    elif scheme is SchemeId.CMO:
        # TX2 keeps sending the same message after its ACK, so both joint
        # constraints keep accumulating over every round
        rx1 = [(np.log2(1.0 + A), None, R1), (np.log2(1.0 + A + B), None, R1 + R2)]
    else:  # tian: TX2 goes silent after its ACK
        rx1 = [(np.log2(1.0 + A / (1.0 + B)), lambda i: np.log2(1.0 + A[i]), R1)]
    ack1 = _ack_rounds(L, rx1, ack2)
    return ack1 > L, ack2 > L, np.maximum(np.minimum(ack1, L), np.minimum(ack2, L))


# RX1's static decoders in each cooperative scheme; dynamic decoding runs both
_COOP_DECODERS = {SchemeId.COOP_CMO: ("cmo",), SchemeId.COOP_TIAN: ("tian",),
                  SchemeId.COOP_DD: ("cmo", "tian")}


def _relayed(x, f, m1, m1s):  # round 2: TX2 listens for a fraction f, then relays
    return x + f * m1 + (1.0 - f) * m1s


def _relayed_own(x, f, m1, m1s):  # the individual-rate test, whose x is m1
    return (1.0 + f) * x + (1.0 - f) * m1s


def _episode_batch_coop(scheme, p, rho, link, grelay):
    lg, A, B, C = link
    R1, R2 = p.r1 * lg, p.r2 * lg
    m1 = np.log2(1.0 + A)
    m1s = np.log2(1.0 + A + B)
    m2 = np.log2(1.0 + C)
    # each decoder's tests (round-1 information, relayed-round rule, rate)
    tests = {"cmo": lambda: [(m1, _relayed_own, R1), (m1s, _relayed, R1 + R2)],
             "tian": lambda: [(np.log2(1.0 + A / (1.0 + B)), _relayed, R1)]}
    decoders = [tests[name]() for name in _COOP_DECODERS[scheme]]
    # RX1 ACKs round 1 if any decoder passes all of its tests
    rx1_ack1 = reduce(or_, (reduce(and_, (x >= r for x, _, r in d)) for d in decoders))

    # the relayed round 2 runs only on the trials RX1 NACKed in round 1
    nack = np.flatnonzero(~rx1_ack1)
    m, ms = m1[nack], m1s[nack]
    # listening threshold: symbols TX2 needs to decode TX1's message
    clog = np.log2(1.0 + grelay[nack] * rho)
    with np.errstate(divide="ignore", over="ignore"):
        need = np.where(clog > 0.0, np.ceil(_SYMBOLS * R1 / clog), np.inf)
    f = np.minimum(_SYMBOLS, need) / _SYMBOLS

    # and errs after it only if every decoder fails one of its tests
    err1 = np.zeros_like(rx1_ack1)
    err1[nack] = reduce(and_, (reduce(or_, (rule(x[nack], f, m, ms) < r
                                           for x, rule, r in d)) for d in decoders))
    # TX2 retransmits its own message in round 2 only when RX1 ACKed;
    # after an RX1 NACK it relays instead, whatever its own feedback was
    rx2_ack1 = m2 >= R2
    err2 = (rx1_ack1 & (2.0 * m2 < R2)) | ~(rx1_ack1 | rx2_ack1)
    zeta = 2 - (rx1_ack1 & rx2_ack1).view(np.uint8)
    return err1, err2, zeta


def run_episode(scheme: SchemeId | str, params: SystemParams, rho: float,
                gains) -> tuple[bool, bool, int]:
    """Run the protocol state machine for one message.

    ``gains`` holds the squared magnitudes (g11, g21, g22, g_relay), whose
    link SNRs must not overflow a float; the result is (err1, err2, zeta).
    """
    _check_link_snr(rho, _power(rho, params.beta, "beta"), max(gains))
    arrs = [np.asarray([x], dtype=np.float64) for x in gains]
    err1, err2, zeta = _episode_batch(SchemeId(scheme), params, rho, *arrs)
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


def _block_pool():
    """The shared worker-thread pool, built on first use."""
    global _pool
    if _pool is None:
        # imported here: simulate/throughput runs of one block never pay for it
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="zicarq-mc")
    return _pool


def _forget_pool():
    global _pool
    _pool = None


# a forked child inherits the pool object but none of its threads
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_trials(scheme: SchemeId | str, params: SystemParams, rho: float,
               trials: int, seed: int, *, stream: int = 0) -> Counts:
    """Run ``trials`` episodes at one SNR point and count their events.

    Blocks of ``_BLOCK`` trials may run concurrently on worker threads.
    Aggregation sums integer event counts, so the result is independent
    of the partition into blocks and of the order the blocks finish in.
    """
    scheme = SchemeId(scheme)
    if trials < 1:
        raise ParameterError("trials must be >= 1")

    def block(done):
        n = min(_BLOCK, trials - done)
        g = _trial_gains(seed, done, n, stream)
        err1, err2, zeta = _episode_batch(scheme, params, rho,
                                          g[:, 0], g[:, 1], g[:, 2], g[:, 3])
        return (int(np.count_nonzero(err1)), int(np.count_nonzero(err2)),
                int(zeta.sum()))

    starts = range(0, trials, _BLOCK)
    run = map if len(starts) == 1 or _WORKERS == 1 else _block_pool().map
    k1, k2, zeta_sum = map(sum, zip(*run(block, starts)))
    return Counts(trials, k1, k2, zeta_sum)


def estimate_outage(scheme: SchemeId | str, params: SystemParams, rho: float,
                    trials: int, seed: int, *, stream: int = 0) -> OutageEstimate:
    """Empirical outage probabilities at one SNR point."""
    c = run_trials(scheme, params, rho, trials, seed, stream=stream)
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


def estimate_diversity(scheme: SchemeId | str, params: SystemParams,
                       cfg: SimConfig) -> tuple[DiversityEstimate, DiversityEstimate]:
    """RX1 and RX2 outage estimates at every point of the SNR grid, each
    with its slope fit; fewer than two usable points give None, not an error."""
    pts1, pts2 = [], []
    for k, db, rho in cfg.points():
        est = estimate_outage(scheme, params, rho, cfg.trials, cfg.seed, stream=k)
        pts1.append(PointEstimate(db, est.p_out1, *est.ci1))
        pts2.append(PointEstimate(db, est.p_out2, *est.ci2))
    return tuple(DiversityEstimate(*fit_loglog_slope(pts), tuple(pts))
                 for pts in (pts1, pts2))


def estimate_throughput(scheme: SchemeId | str, params: SystemParams, rho: float,
                        trials: int, seed: int, *, stream: int = 0) -> ThroughputEstimate:
    """Empirical per-user throughput: first-block rate over mean renewal time."""
    c = run_trials(scheme, params, rho, trials, seed, stream=stream)
    mean_zeta = c.zeta_sum / c.n
    lg = math.log2(rho)
    R1, R2 = params.r1 * lg, params.r2 * lg
    return ThroughputEstimate(R1 / mean_zeta, R2 / mean_zeta,
                              1.0 / mean_zeta, 1.0 / mean_zeta, mean_zeta)
