"""Distribution kernel: CDFs, quantiles and the random streams used by the solvers.

Only what the methodology needs is exposed: Student-t and chi-square CDFs,
normal, Student-t, chi-square and F quantiles, and binomial tails.
Evaluation is delegated to the scipy special functions (regularized
incomplete beta / gamma), which stay well inside the accuracy budgets
asserted by the test suite (t / chi-square 1e-10, quantiles 1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ParameterError


@dataclass(frozen=True)
class Rng:
    """Named, reproducible random stream (PCG64 behind a seed sequence).

    Child streams are derived through spawn keys, so parallel work can split
    off independent, platform-stable streams without sharing state.
    """

    seed: int
    spawn_key: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, index: int) -> "Rng":
        return Rng(self.seed, self.spawn_key + (int(index),))


def t_cdf(x, df):
    """Student-t CDF; ``df=inf`` falls back to the normal, ``df=1`` is the Cauchy closed form."""
    df = float(df)
    if not df > 0:
        raise ParameterError(f"t degrees of freedom must be > 0, got {df}")
    if np.isinf(df):
        return special.ndtr(x)
    if df == 1.0:  # stdtr errs by up to 2e-9 near 0 here; this is exact to rounding
        return np.arctan2(1.0, -np.asarray(x, dtype=float)) / np.pi
    return special.stdtr(df, x)


def chisq_cdf(x, k):
    """Chi-square CDF with k degrees of freedom (regularized lower gamma)."""
    if np.any(np.asarray(x) < 0):
        raise ParameterError("chi-square argument must be >= 0")
    if not k > 0:
        raise ParameterError(f"chi-square dof must be > 0, got {k}")
    return special.gammainc(k / 2.0, np.asarray(x) / 2.0)


def quantile(dist: str, p: float, *, df=None, k=None, d1=None, d2=None) -> float:
    """Inverse CDF for one of the supported families.

    The returned x satisfies |CDF(x) - p| <= 1e-9 on the interior.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError(f"quantile level must be in (0, 1), got {p}")
    if dist == "normal":
        return float(special.ndtri(p))
    if dist == "t":
        if df is None:
            raise ParameterError("t quantile needs df")
        df = float(df)
        if not df > 0:
            raise ParameterError(f"t degrees of freedom must be > 0, got {df}")
        return float(_t_quantile(p, df))
    if dist == "chisq":
        if k is None or not k > 0:
            raise ParameterError(f"chi-square dof must be > 0, got {k}")
        return float(2.0 * special.gammaincinv(k / 2.0, p))
    if dist == "f":
        if d1 is None or d2 is None or d1 <= 0 or d2 <= 0:
            raise ParameterError("F degrees of freedom must be positive")
        return float(special.fdtri(d1, d2, p))
    raise ParameterError(f"unknown distribution {dist!r}")


def _t_quantile(p, df):
    """Student-t inverse CDF, elementwise over levels in (0, 1); the caller checks ``df > 0``."""
    if df == np.inf:
        return special.ndtri(p)
    q = special.stdtrit(df, p)
    mid = abs(p - 0.5) < 1e-4  # stdtrit misses the root here; invert |2p-1| = I_y(1/2, df/2)
    if mid is False or not np.any(mid):  # a float level gives a plain bool: no numpy call
        return q
    p, q = np.asarray(p, dtype=float), np.array(q)
    q[mid] = np.copysign(_t_abs_quantile(np.abs(2.0 * p[mid] - 1.0), df), p[mid] - 0.5)
    return q


def _t_abs_quantile(c, df):
    """q >= 0 with 2F(q) - 1 = c for the t CDF F: sqrt(df y / (1 - y)) with y = I^-1_c(1/2, df/2),
    as 2F(q) - 1 = I_{q^2/(df + q^2)}(1/2, df/2) (A&S 26.7.1), or sqrt(2) erfinv(c) at df = inf;
    a small c keeps its relative digits, which 1/2 -+ c/2 would not."""
    if df == np.inf:
        return np.sqrt(2.0) * special.erfinv(c)
    y = special.betaincinv(0.5, df / 2.0, c)
    return np.sqrt(df * y / (1.0 - y))


def binom_tail(M: int, p: float, m: int) -> float:
    """Upper tail P[Bin(M, p) >= m], exact via the incomplete-beta identity."""
    if not 0 <= m <= M:
        raise ParameterError(f"need 0 <= m <= M, got m={m}, M={M}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"success probability must be in [0, 1], got {p}")
    if m == 0:
        return 1.0
    return float(special.betainc(m, M - m + 1, p))
