"""Diversity-multiplexing-delay tradeoff toolkit for ARQ protocols over
the single-antenna Z-interference channel.

Three engines behind one CLI:

* :mod:`zicarq.analytic`  closed-form diversity exponents per scheme,
* :mod:`zicarq.regions`   high-SNR outage regions and an exact
  exponent oracle that independently verifies every closed form,
* :mod:`zicarq.simulator` finite-SNR Monte Carlo of the actual protocols,
* :mod:`zicarq.verify`    closed forms against the oracle at random points.
"""

from .analytic import (
    DmtResult,
    SchemeId,
    d1_cmo,
    d1_hk,
    d1_hk_keep,
    d1_tian,
    d1_tian_general,
    d1c_cmo2,
    d1c_dd2,
    d1c_tian2,
    d2_cmo,
    d2_hk,
    d2_tian,
    d2c_cmo2,
    d2c_dd2,
    d2c_tian2,
    d11_hk,
    d11c_cmo2,
    d12_hk,
    d12c_cmo2,
    d12c_dd2,
    d_static_overall,
    scheme_dmt,
)
from .core import (
    ExponentPoint,
    ParameterError,
    SystemParams,
    ext_div,
    pos_part,
    validate,
)
from .regions import (
    OutageRegion,
    oracle_d1_hk,
    oracle_d1_hk_stop,
    oracle_min_exponent,
    oracle_min_exponent_coop,
    rate_region_subset_check,
)
from .simulator import (
    DiversityEstimate,
    OutageEstimate,
    SimConfig,
    ThroughputEstimate,
    estimate_diversity,
    estimate_outage,
    estimate_throughput,
    run_episode,
)

__version__ = "0.1.0"
