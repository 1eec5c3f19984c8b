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
from .quantile import _check_alpha, _chunk_sizes, _symmetric_block


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
        lm = _checked_limit_matrix(self.limit_matrix, self.K)[0]
        if not self.xi > 0:
            raise ParameterError("xi must be > 0")
        if not self.tau > 0:
            raise ParameterError("tau must be > 0")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "limit_matrix", lm)


def _checked_limit_matrix(m, K: int) -> tuple[np.ndarray, np.ndarray]:
    """``m`` as a float array and its upper Cholesky factor R (R' R = m), or ``ParameterError``
    unless it is K x K, finite, symmetric and positive definite to working precision."""
    if np.shape(m) != (K, K):
        raise ParameterError(f"limit matrix must be {K} x {K}, got shape {np.shape(m)}")
    lm = _symmetric_block(m, np.arange(K), "limit matrix")
    try:
        return lm, np.linalg.cholesky(lm).T
    except np.linalg.LinAlgError:
        raise ParameterError("limit matrix must be positive definite") from None


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


def slice_max(w, a, l: float, sign: int = +1, absolute: bool = False) -> float | np.ndarray:
    """Maximum of +-x'w over the sphere slice {||x|| = 1, a'x = l}: a float for a vector ``w``,
    one per row for an (n, K) array; ``absolute`` takes the larger sign, so the larger level +-l.

    Closed form: the slice is a sphere of radius sqrt(1 - l^2/||a||^2) inside
    the affine hyperplane, so the maximum splits into the fixed component
    along a and the norm of w projected onto the hyperplane through zero.
    """
    w = np.asarray(w, dtype=float)
    a = np.asarray(a, dtype=float)
    na2 = float(a @ a)
    if not (na2 > 0.0 and l == l):
        raise ParameterError(f"a must be nonzero and l not NaN, got ||a||^2={na2}, l={l}")
    if l * l > na2 * (1.0 + 1e-12):
        raise InfeasibleSliceError(f"|l|={abs(l)} exceeds ||a||={np.sqrt(na2)}")
    aw = w @ a
    along = l * aw / na2
    w_perp = w - (aw / na2)[..., None] * a
    radius = np.sqrt(max(0.0, 1.0 - l * l / na2))
    top = (np.abs(along) if absolute else sign * along) + radius * np.linalg.norm(w_perp, axis=-1)
    return float(top) if w.ndim == 1 else top


def scheffe_zero_cdf(q: float, K: int, beta_is_zero: bool) -> float:
    """Limit probability of the zero-level inclusion event at critical value q.

    Chi-square with K-1 degrees of freedom for a nonzero coefficient vector,
    K when it vanishes (the zero-contrast slice then fills the whole sphere).
    """
    if not q >= 0:
        raise ParameterError(f"q must be >= 0, got {q}")
    return float(chisq_cdf(q * q, K - 1 + int(beta_is_zero)))


def detect_nonzero_contrasts(spec: LinearModelSpec, q: float, beta_hat=None) -> dict:
    """Nonzero-contrast detection via the norm criterion.

    The widened excursion sets on the sphere are nonempty exactly when
    ||limit_matrix^{-1/2} beta_hat|| > tau * xi * q; the maximizing contrast
    is proportional to limit_matrix^{-1} beta_hat.
    """
    if not q >= 0:
        raise ParameterError(f"q must be >= 0, got {q}")
    b = np.asarray(spec.beta if beta_hat is None else beta_hat, dtype=float)
    chol = np.linalg.cholesky(spec.limit_matrix)  # LinearModelSpec checked that it factors
    white = np.linalg.solve(chol, b)  # ||white|| = ||limit_matrix^{-1/2} b||
    stat = float(np.linalg.norm(white))
    threshold = spec.tau * spec.xi * q
    detected = stat > threshold
    if np.any(b != 0):
        direction = np.linalg.solve(chol.T, white)
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
    _check_alpha(alpha)
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


def _stationary_directions(w: np.ndarray, rinv: np.ndarray, c: float) -> np.ndarray:
    """Per row of ``w``, the u parts, unnormalised, of the stationary points of
    x'w / ||root x|| on the cone x'Qx = 0 for the level 0 < |c| < 1; ``rinv`` is root^-1.

    The ratio is scale-free, so its stationary points on the slice lie on that cone,
    Q = e_0 e_0' - c^2 I, at x = (M - gamma Q)^-1 w, M = root' root, for the roots of
    phi'(gamma), phi(gamma) = w'(M - gamma Q)^-1 w (Gander, Golub & von Matt 1989).
    One eigendecomposition gives V'MV = I and V'QV = diag(d), shared by all rows; with
    b = V'w and eta = 1/gamma the roots are the zeros of
    psi(eta) = sum_i b_i^2 d_i / (eta - d_i)^2, and so of the degree-(2K - 2) polynomial
    sum_i b_i^2 d_i prod_{j != i} (eta - d_j)^2: the eigenvalues of its companion
    matrix, polished by one Newton step on psi.  A root on a pole gives a non-finite
    direction.  In the hard case b_k = 0 the stationary point sits on the pole
    eta = d_k instead, and x_k solves x'Qx = 0 there; both signs of x_k join in.
    """
    K = w.shape[1]
    d, vecs = np.linalg.eigh(np.outer(rinv[0], rinv[0]) - c * c * rinv.T @ rinv)
    V = rinv @ vecs
    # row i: d_i prod_{j != i} (eta - d_j)^2, lowest power first after two zero pads
    poly = np.zeros((K, 2 * K + 1))
    poly[:, 2] = d
    for j, dj in enumerate(d):
        i = np.arange(K) != j
        poly[i, 2:] = dj * dj * poly[i, 2:] - 2 * dj * poly[i, 1:-1] + poly[i, :-2]
    b = w @ V
    coef = (b * b) @ poly[:, :1:-1]  # highest power first
    companion = np.eye(2 * K - 2, k=-1) + np.zeros((len(w), 1, 1))
    companion[:, 0] = -coef[:, 1:] / coef[:, :1]
    companion[~np.isfinite(companion)] = 0.0  # a zero leading term: any finite roots do
    eta = np.linalg.eigvals(companion).real[:, :, None]
    s = b[:, None, :] ** 2 * d / (eta - d) ** 2  # the terms of psi; psi' = -2 sum s / (eta - d)
    eta += s.sum(axis=2, keepdims=True) / (2 * s / (eta - d)).sum(axis=2, keepdims=True)
    gap = d[:, None] - d  # row k: the pole eta = d_k, where x = z + x_k e_k with z_k = 0
    np.fill_diagonal(gap, np.inf)
    z = b[:, None, :] / gap
    pole = np.sqrt(-(z * z * d).sum(axis=2) / d)[:, :, None] * np.eye(K)
    return np.concatenate([b[:, None, :] / (eta - d), z + pole, z - pole], axis=1) @ V[1:].T


def _slice_ratio_maxima(w: np.ndarray, root: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per row of ``w``, the largest over levels c of max x'w / ||root x|| on
    the slice {||x|| = 1, x_0 = c}, whose points are x = (c, rho u) with
    rho = sqrt(1 - c^2) and u a unit vector.

    The candidates for u are every stationary point (``_stationary_directions``)
    and u ~ M_rr^-1 w_r over the coordinates r != 0 (gamma = inf), the maximiser at
    c = 0, where the pencil degenerates.  Each is scored at both slice points
    (c, +-rho u), the - sign for stationary points on the cone's other nappe, so every
    value is the ratio at a point of the slice and the maximum is never overstated; a
    non-finite candidate scores NaN and drops out.  |c| = 1 is the one point
    (sign c, 0, ..., 0).
    """
    n, K = w.shape
    rinv = np.linalg.inv(root)
    best = np.full(n, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u_inf = np.linalg.solve((root.T @ root)[1:, 1:], w[:, 1:].T).T[:, None, :]
        for level in c:
            rho = np.sqrt(max(0.0, 1.0 - level * level))
            if rho == 0.0:
                u = np.zeros((n, 1, K - 1))
            else:
                u = np.concatenate([_stationary_directions(w, rinv, level), u_inf], axis=1)
                u /= np.abs(u).max(axis=2, keepdims=True)  # so the norm cannot overflow
                u /= np.linalg.norm(u, axis=2, keepdims=True)
            # x'w and root x at the slice points x = (c, +-rho u)
            along, across = level * w[:, :1], rho * (u @ w[:, 1:, None])[:, :, 0]
            top, side = level * root[:, 0], rho * u @ root[:, 1:].T
            for sign in (1.0, -1.0):
                f = (along + sign * across) / np.linalg.norm(top + sign * side, axis=2)
                best = np.fmax(best, np.fmax.reduce(f, axis=1))
    return best


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
    level in [-Delta, Delta] simultaneously.  One sequential stream feeds both
    modes and both scalings in batches of replicates eps, so memory stays
    bounded in ``reps`` and an identity ``limit_matrix`` sees the draws of None.
    With w = root' eps, x'w / ||root x|| = (root x)'eps / ||root x|| <= ||eps||
    for every x (Scheffe's bound), so a replicate with ||eps|| <= q is counted
    without its slice maximum.  In ``interval`` mode the supremum is ||eps||
    itself when the free maximiser M^-1 w lies in the cone
    |x_0| <= (Delta/||beta||) ||x||, else the larger slice maximum at +-Delta.
    The other rows take one: ``slice_max`` for the identity scaling (w = eps),
    else the best of the slice's stationary points (``_slice_ratio_maxima``).
    Whenever Delta exceeds ||beta|| the level sets are empty and the answer is
    1 (single level) or the K-dof chi-square tail rule (interval).
    """
    if not (K >= 2 and reps >= 1 and Delta >= 0 and beta_norm >= 0) or np.isnan(q):
        raise ParameterError("need K >= 2, reps >= 1, Delta >= 0, beta_norm >= 0 and q not NaN; "
                             f"got K={K}, reps={reps}, Delta={Delta}, beta_norm={beta_norm}, q={q}")
    if mode not in ("single_level", "interval"):
        raise ParameterError(f"unknown mode {mode!r}")
    root = None if limit_matrix is None else _checked_limit_matrix(limit_matrix, K)[1]
    if Delta > beta_norm:
        return 1.0 if mode == "single_level" else float(chisq_cdf(q * q, K))
    if beta_norm == 0.0:
        raise ParameterError("beta_norm = 0 with Delta = 0 is the zero-level case; "
                             "use scheffe_zero_cdf")

    s = Delta / beta_norm
    c = np.array([s] if mode == "single_level" else [-s, s])
    gen = rng.generator()
    # float values a row keeps alive: a few K for slice_max, about 30 K^2 for _slice_ratio_maxima
    sizes = _chunk_sizes(reps, 4 * K if root is None else 30 * K * K)

    def count_chunk(n):
        eps = gen.standard_normal((n, K))
        w = eps if root is None else eps @ root  # root' eps; any root with root' root = M will do
        r = np.linalg.norm(eps, axis=1)
        closed = r <= q  # x'w / ||root x|| <= ||eps|| (Scheffe)
        open_ = ~closed
        if mode == "interval":  # a free row's supremum is ||eps|| itself
            x = eps if root is None else np.linalg.solve(root, eps.T).T  # M^-1 w, free maximiser
            open_ &= np.abs(x[:, 0]) > s * (r if root is None else np.linalg.norm(x, axis=1))
        top = (slice_max(w[open_], np.eye(K)[0], s, absolute=mode == "interval") if root is None
               else _slice_ratio_maxima(w[open_], root, c))
        return int(np.count_nonzero(closed)) + int(np.count_nonzero(top <= q))

    # a chunk's arrays are freed when its call returns, before the next chunk draws
    return sum(map(count_chunk, sizes)) / reps
