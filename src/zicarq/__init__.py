"""Diversity-multiplexing-delay tradeoff toolkit for ARQ protocols over
the single-antenna Z-interference channel.

Three engines behind one CLI, and the cross-check between them:

* :mod:`zicarq.analytic`  closed-form diversity exponents per scheme,
* :mod:`zicarq.regions`   high-SNR outage regions and an exact
  exponent oracle that independently verifies every closed form,
* :mod:`zicarq.simulator` finite-SNR Monte Carlo of the actual protocols,
* :mod:`zicarq.verify`    the cross-check, not a fourth engine: closed
  forms against the oracle at random points.

Engines load on first use: ``import zicarq`` imports none of them, and
each name below imports its module, numpy with the oracle or the Monte
Carlo engine, when it is first read (``from zicarq import oracle_d1_hk``).
"""

import importlib

_EXPORTS = {
    "analytic": (
        "d1_cmo", "d1_hk", "d1_hk_keep", "d1_hk_stop", "d1_tian",
        "d1_tian_general", "d1c_cmo2", "d1c_dd2", "d1c_tian2", "d2_cmo", "d2_hk",
        "d2_tian", "d2c_cmo2", "d2c_dd2", "d2c_tian2", "d11_hk", "d11c_cmo2",
        "d12_hk", "d12_hk_stop", "d12c_cmo2", "d12c_dd2", "d_static_overall",
        "scheme_curve", "scheme_dmt"),
    "core": ("ParameterError", "SchemeId", "SystemParams", "ext_div", "pos_part",
             "validate"),
    "regions": ("OutageRegion", "oracle_d1_hk", "oracle_min_exponent",
                "oracle_min_exponent_coop"),
    "simulator": (
        "DiversityEstimate", "OutageEstimate", "SimConfig", "ThroughputEstimate",
        "estimate_diversity", "estimate_outage", "estimate_throughput",
        "run_episode"),
}
# exported name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
