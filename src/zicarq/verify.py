"""Randomized agreement checks: at random operating points, each scheme's
closed forms (:mod:`zicarq.analytic`) against the oracle's minima over the
matching outage regions (:mod:`zicarq.regions`)."""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np

from . import analytic
from .core import COOP_SCHEMES, ParameterError, SchemeId, SystemParams
from .regions import (
    RATE_FLOOR,
    oracle_d1_hk,
    oracle_min_exponent,
    oracle_min_exponent_coop,
    region_coop,
    region_o11_hk,
    region_o12_hk,
    region_rx1_cmo,
    region_rx2_hk,
)

VERIFY_SCHEMES = ("hk", "cmo", "tian", "hk-keep", "coop-cmo", "coop-tian", "coop-dd",
                  "hk-stop")  # all draw from one rng, so new schemes go last


def sample_params(rng: np.random.Generator, scheme: SchemeId) -> SystemParams:
    """Random operating point for verification sweeps.

    Rates in [0.05, 0.95], beta in [0.2, 2], b in [0, 0.5], t2 <= r2 with
    the private rate kept above the oracle's floor; L in 1..4 for
    non-cooperative schemes, 2 under cooperation.  CMO, Tian and
    cooperative points have t2 = b = 0, where the rate-splitting regions
    are theirs.
    """
    r1 = float(rng.uniform(0.05, 0.95))
    r2 = float(rng.uniform(0.05, 0.95))
    beta = float(rng.uniform(0.2, 2.0))
    if scheme in COOP_SCHEMES:
        return SystemParams(r1=r1, r2=r2, t2=0.0, b=0.0, beta=beta, L=2)
    L = int(rng.integers(1, 5))
    if scheme in (SchemeId.TIAN, SchemeId.CMO):
        return SystemParams(r1=r1, r2=r2, t2=0.0, b=0.0, beta=beta, L=L)
    t2 = float(rng.uniform(0.0, r2))
    t2 = min(t2, r2 - RATE_FLOOR)  # keep the private stream's rate active
    t2 = max(t2, 0.0)
    b = float(rng.uniform(0.0, 0.5))
    return SystemParams(r1=r1, r2=r2, t2=t2, b=b, beta=beta, L=L)


def worst_gap(scheme: SchemeId, samples: int,
              rng: np.random.Generator) -> tuple[float, str]:
    """Largest |analytic - oracle| over ``samples`` random operating points,
    and where it occurred as ``check@{params}``."""
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    worst, where = -1.0, None
    for _ in range(samples):
        p = sample_params(rng, scheme)
        for name, ana, orc in _verify_checks(scheme, p):
            gap = abs(ana - orc)
            if gap > worst:
                worst, where = gap, (name, p)
    name, p = where
    return max(worst, 0.0), f"{name}@{asdict(p)}"


def _verify_checks(scheme: SchemeId, p: SystemParams):
    """Yield (check name, analytic value, oracle value) triples."""
    r1, r2, beta = p.r1, p.r2, p.beta
    if scheme is SchemeId.HK:
        yield "d1_hk", analytic.d1_hk(p), oracle_d1_hk(p)
        yield "d2_hk", analytic.d2_hk(p), oracle_min_exponent(region_rx2_hk(p))
    elif scheme is SchemeId.CMO:
        yield "d1_cmo", analytic.d1_cmo(p), oracle_min_exponent(region_rx1_cmo(p))
        yield "d2_cmo", analytic.d2_cmo(p), oracle_min_exponent(region_rx2_hk(p))
    elif scheme is SchemeId.TIAN:
        yield "d1_tian_general", analytic.d1_tian_general(p), oracle_d1_hk(p)
        # the single-term closed form equals its ACK-at-round-1 region pair
        first_term = min(oracle_min_exponent(region_o11_hk(p, 1)),
                         oracle_min_exponent(region_o12_hk(p, 1)))
        yield "d1_tian", analytic.d1_tian(p), first_term
        yield "d2_tian", analytic.d2_tian(p), oracle_min_exponent(region_rx2_hk(p))
    elif scheme is SchemeId.HK_KEEP:
        keep = min(oracle_min_exponent(region_o11_hk(p, p.L)),
                   oracle_min_exponent(region_o12_hk(p, p.L)))
        yield "d1_hk_keep", analytic.d1_hk_keep(p), keep
    elif scheme is SchemeId.HK_STOP:
        yield "d1_hk_stop", analytic.d1_hk_stop(p), oracle_d1_hk(p, stop=True)
    elif scheme is SchemeId.COOP_CMO:
        yield "d11c_cmo2", analytic.d11c_cmo2(r1, beta), \
            oracle_min_exponent_coop(region_coop("O1_COOP", p))
        yield "d12c_cmo2", analytic.d12c_cmo2(r1, r2, beta), \
            oracle_min_exponent_coop(region_coop("O2_COOP", p))
        yield "d2c_cmo2", analytic.d2c_cmo2(r1, r2, beta), \
            _coop_rx2_oracle(p, scheme)
    elif scheme is SchemeId.COOP_TIAN:
        yield "d1c_tian2", analytic.d1c_tian2(r1, beta), \
            oracle_min_exponent_coop(region_coop("O3_COOP", p))
        yield "d2c_tian2", analytic.d2c_tian2(r1, r2, beta), \
            _coop_rx2_oracle(p, scheme)
    elif scheme is SchemeId.COOP_DD:
        yield "d11c_dd2", analytic.d11c_cmo2(r1, beta), \
            oracle_min_exponent_coop(region_coop("O11_DD", p))
        yield "d12c_dd2", analytic.d12c_dd2(r1, r2, beta), \
            oracle_min_exponent_coop(region_coop("O12_DD", p))
        yield "d2c_dd2", analytic.d2c_dd2(r1, r2, beta), \
            _coop_rx2_oracle(p, scheme)
    else:
        raise ParameterError(f"scheme {scheme.value} has no verify checks")


def _coop_rx2_oracle(p: SystemParams, scheme: SchemeId) -> float:
    """RX2 exponent under cooperation, assembled from region minima only.

    Mirrors the dominant error-event split: either RX1 ACKed round 1 and
    TX2's own retransmission still failed, or RX1 NACKed (TX2 relayed) and
    RX2's single round was already in outage.  RX1's round-1 outage is that
    of the scheme's decoder; the dynamic decoder fails only when both do.
    """
    round1 = []
    if scheme is not SchemeId.COOP_TIAN:
        round1.append(region_rx1_cmo(p, rounds=1))
    if scheme is not SchemeId.COOP_CMO:
        round1.append(region_o11_hk(replace(p, L=1), 1))
    rx1_round1 = max(oracle_min_exponent(region) for region in round1)
    rx2_one = oracle_min_exponent(region_rx2_hk(p, rounds=1))
    rx2_two = oracle_min_exponent(region_rx2_hk(p, rounds=2))
    return min(rx1_round1 + rx2_one, rx2_two)
