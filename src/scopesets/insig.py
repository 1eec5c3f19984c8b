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
from .preimage import KPolicy, resolve_k
from .quantile import column_summary, iid_quantile, storey_m0


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


def insig_report(
    data,
    alpha: float,
    policy: KPolicy,
    df: float | None = None,
    sided: str = "one_sided",
) -> InsigReport:
    """Full zero-threshold discovery analysis of an N x J sample.

    Pipeline: resolve the thickening factor, count the estimated null set,
    solve the critical value, collect discoveries on both sides of zero, and
    evaluate the insignificance-value grid
    IV_J^obs, IV_J^qhat, IV_{J-m1}^qhat, IV_{m0}^qhat.
    """
    mean, sd = column_summary(data)
    N, J = np.shape(data)
    if df is None:
        df = N - 1
    tstat = np.sqrt(N) * mean / sd

    k = resolve_k(policy, N, J, df)
    m_hat = int(np.count_nonzero(np.abs(tstat) <= k))
    est = iid_quantile(m_hat, alpha, df=df, sided=sided)
    q_hat = est.q

    lower = tstat < -q_hat
    upper = tstat > q_hat
    discoveries = IndexSet.from_mask(lower | upper)
    m1 = len(discoveries)
    heights = np.abs(tstat)

    pvals = 2.0 * t_cdf(-heights, N - 1)
    m0 = storey_m0(pvals)

    iv_q = {(J, 1): iv_qhat(J, 1, q_hat, df)}
    if J - m1 >= 1:
        iv_q[(J - m1, 1)] = iv_qhat(J - m1, 1, q_hat, df)
    if m0 >= 1:
        iv_q[(m0, 1)] = iv_qhat(m0, 1, q_hat, df)
    min_height = float(np.min(heights[discoveries.members])) if m1 else None
    iv_o = {} if min_height is None else {(J, 1): iv_qhat(J, 1, min_height, df)}

    counts = {
        "scope": m1,
        "hommel": len(hommel(pvals, alpha)),
        "bh": len(bh(pvals, alpha)),
    }
    return InsigReport(
        q_hat=q_hat,
        k_used=k,
        m_hat=m_hat,
        m0=m0,
        m1=m1,
        iv_qhat=iv_q,
        iv_obs=iv_o,
        min_discovery_height=min_height,
        counts=counts,
        discoveries=discoveries,
        alpha=alpha,
    )


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
