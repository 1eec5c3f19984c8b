"""Simultaneous inference for linear-model contrasts on the unit sphere.

For a Gaussian linear model the contrast process a -> a' beta_hat, indexed by
unit vectors a, admits closed forms for every quantity the excursion
machinery needs: the maximum of a linear functional over a sphere slice, the
chi-square law of the zero-level inclusion event, and the norm criterion for
detecting nonzero contrasts.  Monte-Carlo evaluators cover band levels other
than zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import Rng, chisq_cdf, quantile
from .errors import (
    InfeasibleSliceError,
    ParameterError,
    SingularDesignError,
)
from .quantile import _chunk_rows, _symmetric_block


@dataclass(frozen=True, eq=False)
class LinearModelSpec:
    """Population quantities of the contrast process.

    ``limit_matrix`` is the symmetric positive-definite scaling of the
    estimator covariance (tau^-2 times the inverse Gram matrix in the exact
    Gaussian model), ``xi`` the error scale and ``tau`` the rate factor.
    """

    K: int
    beta: np.ndarray
    xi: float
    limit_matrix: np.ndarray
    tau: float

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != (self.K,):
            raise ParameterError(f"beta must have length K={self.K}")
        lm = _checked_limit_matrix(self.limit_matrix, self.K)
        if not self.xi > 0:
            raise ParameterError("xi must be > 0")
        if not self.tau > 0:
            raise ParameterError("tau must be > 0")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "limit_matrix", lm)


def _checked_limit_matrix(m, K: int) -> np.ndarray:
    """``m`` as a float array, or ``ParameterError`` unless it is K x K, finite, symmetric and PD."""
    if np.shape(m) != (K, K):
        raise ParameterError(f"limit matrix must be {K} x {K}, got shape {np.shape(m)}")
    lm = _symmetric_block(m, np.arange(K), "limit matrix")
    if np.any(np.linalg.eigvalsh(lm) <= 0):
        raise ParameterError("limit matrix must be positive definite")
    return lm


@dataclass(frozen=True, eq=False)
class OlsFit:
    """Least-squares estimate with residual variance and degrees of freedom."""

    beta_hat: np.ndarray
    s2: float
    df_resid: int


def ols_fit(X, y) -> OlsFit:
    """Least squares through a QR factorization.

    Raises ``SingularDesignError`` for rank-deficient designs and when no
    residual degrees of freedom remain to estimate the error variance.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ParameterError("X must be N x K and y length N")
    N, K = X.shape
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    if np.any(diag <= np.finfo(float).eps * max(N, K) * (diag.max() if diag.size else 1.0)):
        raise SingularDesignError("design matrix is rank deficient")
    beta_hat = np.linalg.solve(r, q.T @ y)
    df_resid = N - K
    if df_resid <= 0:
        raise SingularDesignError("no residual degrees of freedom (N <= K)")
    resid = y - X @ beta_hat
    s2 = float(resid @ resid) / df_resid
    return OlsFit(beta_hat, s2, df_resid)


def _matrix_sqrt_inv(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v / np.sqrt(w)) @ v.T


def slice_max(w, a, l: float, sign: int = +1, absolute: bool = False) -> float:
    """Maximum of +-x'w over the sphere slice {||x|| = 1, a'x = l}.

    Closed form: the slice is a sphere of radius sqrt(1 - l^2/||a||^2) inside
    the affine hyperplane, so the maximum splits into the fixed component
    along a and the norm of w projected onto the hyperplane through zero.
    """
    w = np.asarray(w, dtype=float)
    a = np.asarray(a, dtype=float)
    na2 = float(a @ a)
    if na2 == 0.0:
        raise ParameterError("a must be nonzero")
    if l * l > na2 * (1.0 + 1e-12):
        raise InfeasibleSliceError(f"|l|={abs(l)} exceeds ||a||={np.sqrt(na2)}")
    along = l * float(a @ w) / na2
    w_perp = w - (float(a @ w) / na2) * a
    radius = np.sqrt(max(0.0, 1.0 - l * l / na2))
    if absolute:
        return abs(along) + radius * float(np.linalg.norm(w_perp))
    return sign * along + radius * float(np.linalg.norm(w_perp))


def scheffe_zero_cdf(q: float, K: int, beta_is_zero: bool) -> float:
    """Limit probability of the zero-level inclusion event at critical value q.

    Chi-square with K-1 degrees of freedom for a nonzero coefficient vector,
    K when it vanishes (the zero-contrast slice then fills the whole sphere).
    """
    if q < 0:
        raise ParameterError("q must be >= 0")
    return float(chisq_cdf(q * q, K - 1 + int(beta_is_zero)))


def detect_nonzero_contrasts(spec: LinearModelSpec, q: float, beta_hat=None) -> dict:
    """Nonzero-contrast detection via the norm criterion.

    The widened excursion sets on the sphere are nonempty exactly when
    ||limit_matrix^{-1/2} beta_hat|| > tau * xi * q; the maximizing contrast
    is proportional to limit_matrix^{-1} beta_hat.
    """
    if q < 0:
        raise ParameterError("q must be >= 0")
    b = np.asarray(spec.beta if beta_hat is None else beta_hat, dtype=float)
    root_inv = _matrix_sqrt_inv(spec.limit_matrix)
    stat = float(np.linalg.norm(root_inv @ b))
    threshold = spec.tau * spec.xi * q
    detected = stat > threshold
    if np.any(b != 0):
        direction = np.linalg.solve(spec.limit_matrix, b)
        direction = direction / np.linalg.norm(direction)
    else:
        direction = np.zeros_like(b)
    return {
        "detected": bool(detected),
        "stat": stat,
        "threshold": threshold,
        "upper_direction": direction,
        "lower_direction": -direction,
    }


def scheffe_band(a, fit: OlsFit, xtx, alpha: float) -> tuple[float, float]:
    """Simultaneous confidence interval for the contrast a' beta.

    Uses the F-based critical value with (p, N - p) degrees of freedom where
    p is the number of fitted coefficients; the interval half width scales
    with the estimated error s and the contrast leverage a' (X'X)^{-1} a.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    a = np.asarray(a, dtype=float)
    xtx = np.asarray(xtx, dtype=float)
    p = fit.beta_hat.size
    if a.shape != (p,) or xtx.shape != (p, p):
        raise ParameterError("contrast/Gram dimensions do not match the fit")
    if fit.df_resid <= 0:
        raise ParameterError("fit has no residual degrees of freedom")
    center = float(a @ fit.beta_hat)
    leverage = float(a @ np.linalg.solve(xtx, a))
    fq = quantile("f", 1.0 - alpha, d1=p, d2=fit.df_resid)
    half = np.sqrt(fit.s2 * fq * leverage * p)
    return center - half, center + half


def _slice_ratio_maxima(w: np.ndarray, root: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per row of ``w``, the largest over levels c of max x'w / ||root x|| on
    the slice {||x|| = 1, x_0 = c}, whose points are x = (c, rho u) with
    rho = sqrt(1 - c^2) and u a unit vector.

    Each (row, level) pair starts at the best of 512 fixed directions u, all
    scored by one matmul, then takes 60 projected-gradient steps along great
    circles; its step length grows by 1.5 after a gain and halves after a loss.
    """
    n, K = w.shape
    rho = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    grid = sphere_grid(K - 1, 512, Rng(0))
    pts = np.column_stack([np.repeat(c, 512), (rho[:, None, None] * grid).reshape(-1, K - 1)])
    pts /= np.linalg.norm(pts @ root.T, axis=1, keepdims=True)
    vals = (w @ pts.T).reshape(-1, 512)  # one row per (replicate, level)
    u = grid[vals.argmax(axis=1)]
    x0, r, wr = np.tile(c, n)[:, None], np.tile(rho, n)[:, None], np.repeat(w, c.size, axis=0)

    def ratio(u):
        """x'w / ||root x|| at x = (c, rho u), and its gradient in u."""
        x = np.hstack([x0, r * u])
        rx = x @ root.T
        norm = np.linalg.norm(rx, axis=1, keepdims=True)
        f = np.einsum("ij,ij->i", x, wr)[:, None] / norm
        return f, r * (wr - f * (rx @ root) / norm)[:, 1:] / norm

    f, grad = ratio(u)
    step = np.full_like(f, 0.1)
    for _ in range(60):
        tangent = grad - np.einsum("ij,ij->i", grad, u)[:, None] * u
        size = np.linalg.norm(tangent, axis=1, keepdims=True)
        trial = np.cos(step) * u + np.sin(step) * np.divide(
            tangent, size, out=np.zeros_like(tangent), where=size > 0)
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        f_trial, grad_trial = ratio(trial)
        up = f_trial > f
        u, f, grad = np.where(up, trial, u), np.where(up, f_trial, f), np.where(up, grad_trial, grad)
        step = np.where(up, 1.5 * step, 0.5 * step)
    return np.maximum(f[:, 0], vals.max(axis=1)).reshape(n, c.size).max(axis=1)


def extract_limit_cdf(
    q: float,
    K: int,
    Delta: float,
    beta_norm: float,
    reps: int,
    rng: Rng,
    mode: str = "single_level",
    limit_matrix=None,
) -> float:
    """Limit probability of level-Delta inclusion events on the sphere.

    ``single_level`` covers the one level +Delta; ``interval`` covers every
    level in [-Delta, Delta] simultaneously.  With an identity scaling matrix
    the slice maxima collapse to closed forms in one Gaussian coordinate plus
    an independent chi distributed radius.  A general ``limit_matrix`` takes
    all slice maxima in batches of replicates, so memory stays bounded in
    ``reps``: the best of 512 fixed slice directions, then 60
    projected-gradient ascent steps (``_slice_ratio_maxima``).  ``interval``
    mode is exact, as in the identity case: the supremum of x'w / ||root x||
    with w = root' eps is ||eps|| when the free maximiser M^-1 w lies in the
    cone |x_0| <= (Delta/||beta||) ||x||, else the larger slice maximum at
    +-Delta.  One sequential stream feeds both modes, so they see the same
    draws at one seed.  Whenever Delta exceeds ||beta|| the level sets are
    empty and the answer is 1 (single level) or the K-dof chi-square tail
    rule (interval).
    """
    if not (K >= 2 and reps >= 1 and Delta >= 0 and beta_norm >= 0) or np.isnan(q):
        raise ParameterError("need K >= 2, reps >= 1, Delta >= 0, beta_norm >= 0 and q not NaN; "
                             f"got K={K}, reps={reps}, Delta={Delta}, beta_norm={beta_norm}, q={q}")
    if mode not in ("single_level", "interval"):
        raise ParameterError(f"unknown mode {mode!r}")
    if limit_matrix is not None:  # any square root with root' root = the matrix will do
        root = np.linalg.cholesky(_checked_limit_matrix(limit_matrix, K)).T
    if Delta > beta_norm:
        return 1.0 if mode == "single_level" else float(chisq_cdf(q * q, K))
    if beta_norm == 0.0:
        raise ParameterError("beta_norm = 0 with Delta = 0 is the zero-level case; "
                             "use scheffe_zero_cdf")

    s = Delta / beta_norm
    gen = rng.generator()
    if limit_matrix is not None:
        c = np.array([s] if mode == "single_level" else [-s, s])
        rows = _chunk_rows(reps, 512 * c.size)
        count = 0
        for start in range(0, reps, rows):
            eps = gen.standard_normal((min(rows, reps - start), K))
            w = eps @ root  # root' eps per replicate: the matrix-square-root transform of the noise
            if mode == "interval":
                x = np.linalg.solve(root, eps.T).T  # M^-1 w, the free maximiser
                free = np.abs(x[:, 0]) <= s * np.linalg.norm(x, axis=1)
                count += int(np.count_nonzero(np.linalg.norm(eps[free], axis=1) <= q))
                w = w[~free]
            count += int(np.count_nonzero(_slice_ratio_maxima(w, root, c) <= q))
        return count / reps

    z = gen.standard_normal(reps)
    radial = np.linalg.norm(gen.standard_normal((reps, K - 1)), axis=1)
    if mode == "single_level":
        stats = s * z + np.sqrt(1.0 - s * s) * radial
    else:
        norm_eps = np.sqrt(z * z + radial * radial)
        inner = Delta * norm_eps < beta_norm * np.abs(z)
        stats = np.where(
            inner, s * np.abs(z) + np.sqrt(1.0 - s * s) * radial, norm_eps
        )
    return float(np.mean(stats <= q))


def sphere_grid(K: int, n: int, rng: Rng) -> np.ndarray:
    """n roughly uniform directions on the unit sphere in R^K."""
    g = rng.generator().standard_normal((n, K))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def zero_inclusion_event(spec: LinearModelSpec, beta_hat, q: float) -> bool:
    """Exact zero-level inclusion event for an estimate, via the half-space form.

    The event fails iff some direction u with u'b <= 0 has u'v > q ||u||,
    where v and b are the whitened estimate and target; the constrained
    maximum is ||v|| when v'b <= 0 and the norm of v projected off b
    otherwise.
    """
    root_inv = _matrix_sqrt_inv(spec.limit_matrix)
    scale = spec.tau * spec.xi
    v = root_inv @ np.asarray(beta_hat, dtype=float) / scale
    b = root_inv @ spec.beta / scale
    nb = np.linalg.norm(b)
    if nb == 0.0 or float(v @ b) <= 0.0:
        stat = float(np.linalg.norm(v))
    else:
        proj = v - (float(v @ b) / (nb * nb)) * b
        stat = float(np.linalg.norm(proj))
    return stat <= q
