"""Insignificance values: post-hoc plausibility checks for discoveries.

An insignificance value IV(M, m) is the probability that at least m of M iid
null t-statistics clear a threshold.  Reported next to a discovery set, it
answers: how surprising would this many (or this tall) discoveries be if all
M locations were null?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .dist import binom_tail, t_cdf
from .domain import IndexSet
from .errors import ParameterError
from .hypotests import bh, hommel
from .preimage import KPolicy, scope_partition
from .quantile import storey_m0


@dataclass(frozen=True)
class InsigReport:
    """Threshold, discovery counts, and the insignificance-value grid."""

    q_hat: float
    k_used: float
    m_hat: int
    m0: int
    m1: int
    iv_qhat: dict
    iv_obs: dict
    min_discovery_height: float | None
    counts: dict
    discoveries: IndexSet
    alpha: float


def iv_qhat(M: int, m: int, q_hat: float, df: float) -> float:
    """P[at least m of M iid t-statistics exceed q_hat in absolute value]."""
    if not 1 <= m <= M:
        raise ParameterError(f"need 1 <= m <= M, got m={m}, M={M}")
    p = 2.0 * t_cdf(-q_hat, df)
    return binom_tail(M, min(1.0, max(0.0, p)), m)


def iv_obs(heights, discoveries: IndexSet, M: int, m: int, df: float) -> float | None:
    """Same tail probability at the smallest observed discovery height.

    ``heights`` are the standardized statistics sqrt(N)|mean|/sd per column.
    Returns None when there are no discoveries.
    """
    if len(discoveries) == 0:
        return None
    heights = np.asarray(heights, dtype=float)
    q_min = float(np.min(heights[discoveries.members]))
    return iv_qhat(M, m, q_min, df)


def insig_report(data, alpha: float, policy: KPolicy) -> InsigReport:
    """Full zero-threshold discovery analysis of an N x J sample.

    Pipeline: the plug-in partition at level 0 (``scope_partition``, on the two-sided law of
    its touch set), whose classes below and above zero are the discoveries, then the
    insignificance-value grid IV_J^obs, IV_J^qhat, IV_{J-m1}^qhat, IV_{m0}^qhat
    with N - 1 degrees of freedom.
    """
    part = scope_partition(data, 0.0, 0.0, alpha, policy)
    N, J = np.shape(data)
    df = N - 1
    heights = np.sqrt(N) * np.abs(part.mean) / part.sd
    discoveries = IndexSet.from_mask(part.below | part.above)
    m1 = len(discoveries)

    pvals = 2.0 * t_cdf(-heights, df)
    m0 = storey_m0(pvals)

    iv_q = {(M, 1): iv_qhat(M, 1, part.q_hat, df) for M in (J, J - m1, m0) if M >= 1}
    iv_o = {} if m1 == 0 else {(J, 1): iv_obs(heights, discoveries, J, 1, df)}

    counts = {"scope": m1, "hommel": len(hommel(pvals, alpha)), "bh": len(bh(pvals, alpha))}
    min_height = float(np.min(heights[discoveries.members])) if m1 else None
    return InsigReport(q_hat=part.q_hat, k_used=part.k, m_hat=part.m_hat, m0=m0, m1=m1,
                       iv_qhat=iv_q, iv_obs=iv_o, min_discovery_height=min_height,
                       counts=counts, discoveries=discoveries, alpha=alpha)


def write_insig_report(report: InsigReport, path, J: int) -> None:
    """One-row CSV mirroring the discovery-analysis table layout."""

    def pct(x):
        return "" if x is None else format(100.0 * x, ".1f")

    header = ["k", "q_hat", "iv_obs_J", "iv_qhat_J", "iv_qhat_J_minus_m1", "iv_qhat_m0",
              "n_scope", "n_hommel", "n_bh"]
    iv = (report.iv_obs.get((J, 1)), report.iv_qhat.get((J, 1)),
          report.iv_qhat.get((J - report.m1, 1)), report.iv_qhat.get((report.m0, 1)))
    row = [format(report.k_used, ".6g"), format(report.q_hat, ".6g"), *map(pct, iv),
           *(report.counts[name] for name in ("scope", "hommel", "bh"))]
    write_csv(path, header, [row])
