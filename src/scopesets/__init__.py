"""Simultaneous coverage control for excursion sets over finite domains."""

from .domain import Domain, Field, IndexSet, hausdorff_distance, line_domain, load_field, save_field
from .dist import Rng
from .excursion import (
    Partition3,
    ScopeBands,
    ThresholdFamily,
    contour_regions,
    lower_excursion,
    partition3,
    roi_adapt,
    scb_scope_equivalence,
    scope_event,
    t_stat,
    upper_excursion,
)
from .preimage import (
    KPolicy,
    PreimageSets,
    ScopePartition,
    consistency_probe,
    oracle_preimage_sets,
    plugin_preimage_sets,
    resolve_k,
    scope_partition,
)
from .quantile import (
    QuantileEstimate,
    iid_exact_quantile,
    iid_quantile,
    mc_oracle_quantile,
    multiplier_bootstrap_quantile,
    storey_m0,
    storey_quantile,
)
from .scheffe import (
    LinearModelSpec,
    OlsFit,
    detect_nonzero_contrasts,
    extract_limit_cdf,
    ols_fit,
    scheffe_band,
    scheffe_zero_cdf,
    slice_max,
)
from .hypotests import (
    BandSpec,
    Calibration,
    TestDecision,
    bh,
    delta_eqv,
    delta_rel,
    et,
    grt,
    hommel,
    let_,
    lrt,
    t_pvalues,
)
from .insig import InsigReport, insig_report, iv_obs, iv_qhat
from .sim import (
    SandwichInstance,
    SimConfig,
    SimTableRow,
    model_mu,
    run_simulation,
    sandwich_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
