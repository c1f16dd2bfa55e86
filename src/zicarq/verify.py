"""Randomized agreement checks: at random operating points, each scheme's
closed forms (:mod:`zicarq.analytic`) against their oracle twins from
:mod:`zicarq.regions`: ``oracle_hk`` (d1 and d2 of hk and tian, and RX1's
round-1 term for Tian's single-term form), ``oracle_cmo`` (d1 and d2 of
cmo), ``oracle_d1_hk`` (hk-stop), ``oracle_rx1_hk`` (round L for
hk-keep), ``oracle_d2_coop``, and minima over cooperative regions.  The
cooperative d1 of coop-cmo and coop-dd is checked piece by piece and as
the min of its two piece minima, which costs no oracle call.  This module
only samples the points and pairs the values."""

from __future__ import annotations

import numpy as np

from . import analytic
from .core import COOP_SCHEMES, RATE_FLOOR, ParameterError, SchemeId, SystemParams
from .regions import (
    oracle_cmo,
    oracle_d1_hk,
    oracle_d2_coop,
    oracle_hk,
    oracle_min_exponent_coop,
    oracle_rx1_hk,
    region_coop,
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
        for name, (ana, _), orc in _verify_checks(scheme, p):
            gap = abs(ana - orc)
            if gap > worst:
                worst, where = gap, (name, p)
    name, p = where
    return max(worst, 0.0), f"{name}@{vars(p)}"


def _verify_checks(scheme: SchemeId, p: SystemParams):
    """Yield (check name, analytic (value, label), oracle value) triples."""
    r1, r2, beta = p.r1, p.r2, p.beta

    def coop(name):
        return oracle_min_exponent_coop(region_coop(name, p))

    if scheme is SchemeId.HK:
        d1, d2, _ = oracle_hk(p)
        yield "d1_hk", analytic.d1_hk(p), d1
        yield "d2_hk", analytic.d2_hk(p), d2
    elif scheme is SchemeId.CMO:
        d1, d2 = oracle_cmo(p)
        yield "d1_cmo", analytic.d1_cmo(p), d1
        yield "d2_cmo", analytic.d2_cmo(p), d2
    elif scheme is SchemeId.TIAN:
        d1, d2, terms = oracle_hk(p)
        yield "d1_tian_general", analytic.d1_tian_general(p), d1
        # the single-term closed form is the ACK-at-round-1 term
        yield "d1_tian", analytic.d1_tian(p), terms[0]
        yield "d2_tian", analytic.d2_tian(p), d2
    elif scheme is SchemeId.HK_KEEP:
        yield "d1_hk_keep", analytic.d1_hk_keep(p), oracle_rx1_hk(p, p.L)
    elif scheme is SchemeId.HK_STOP:
        yield "d1_hk_stop", analytic.d1_hk_stop(p), oracle_d1_hk(p, stop=True)
    elif scheme is SchemeId.COOP_CMO:
        o11, o12 = coop("O1_COOP"), coop("O2_COOP")
        yield "d11c_cmo2", analytic.d11c_cmo2(r1, beta), o11
        yield "d12c_cmo2", analytic.d12c_cmo2(r1, r2, beta), o12
        yield "d1c_cmo2", analytic.d1c_cmo2(r1, r2, beta), min(o11, o12)
        yield "d2c_cmo2", analytic.d2c_cmo2(r1, r2, beta), oracle_d2_coop(p, scheme)
    elif scheme is SchemeId.COOP_TIAN:
        yield "d1c_tian2", analytic.d1c_tian2(r1, beta), coop("O3_COOP")
        yield "d2c_tian2", analytic.d2c_tian2(r1, r2, beta), oracle_d2_coop(p, scheme)
    elif scheme is SchemeId.COOP_DD:
        o11, o12 = coop("O11_DD"), coop("O12_DD")
        yield "d11c_dd2", analytic.d11c_cmo2(r1, beta), o11
        yield "d12c_dd2", analytic.d12c_dd2(r1, r2, beta), o12
        yield "d1c_dd2", analytic.d1c_dd2(r1, r2, beta), min(o11, o12)
        yield "d2c_dd2", analytic.d2c_dd2(r1, r2, beta), oracle_d2_coop(p, scheme)
    else:
        raise ParameterError(f"scheme {scheme.value} has no verify checks")

