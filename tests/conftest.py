"""Shared pytest hooks and helpers: collect acceptance-criterion outcomes and
print them as a summary section at the end of the run; measure the traced
memory peak of a block; reference functions that only the tests call, among
them the earlier band-test template that ``hypotests._band_test`` must match
bit for bit, the earlier step-up p-value layer that ``sim._t_pvalues`` must
match bit for bit, the earlier simulation loop whose tables ``simulate``
must reproduce byte for byte, and the earlier SCoPE kernel (field and band
checks, ``partition3``, ``contour_regions``, the inclusion event) whose results
and errors the excursion module must reproduce bit for bit."""

import functools
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
from scipy import special

from scopesets.dist import Rng, _t_quantile, quantile as dist_quantile, t_cdf
from scopesets.domain import IndexSet, same_domain
from scopesets.errors import DomainMismatchError, ParameterError, ThresholdOrderError
from scopesets.excursion import widened_excursions
from scopesets.hypotests import (Calibration, TestDecision, _solve_q, bh_reject_mask,
                                 hommel_reject_mask)
from scopesets.preimage import resolve_k
from scopesets.quantile import QuantileEstimate, _iid_table, _map_chunks
from scopesets.sim import (SimTableRow, _draw_tstats, _step_up_cuts, _t_pvalues, model_mu,
                           parse_method)

CRITERION_LINES = []


@contextmanager
def peak_traced_mb():
    """Measure the peak traced allocation of the block, in MB (1e6 bytes).

    numpy reports its array buffers to ``tracemalloc``, so the peak covers
    them.  Yields a namespace whose ``mb`` is set when the block exits.
    """
    peak = SimpleNamespace(mb=float("nan"))
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()


def normal_cdf(x):
    """Standard normal CDF."""
    return special.ndtr(x)


def f_cdf(x, d1, d2):
    """F-distribution CDF via the regularized incomplete beta."""
    if d1 <= 0 or d2 <= 0:
        raise ParameterError("F degrees of freedom must be positive")
    if np.any(np.asarray(x) < 0):
        raise ParameterError("F argument must be >= 0")
    return special.fdtr(d1, d2, x)


def zero_inclusion_event(spec, beta_hat, q: float) -> bool:
    """Exact zero-level inclusion event for an estimate, via the half-space form.

    The event fails iff some direction u with u'b <= 0 has u'v > q ||u||,
    where v and b are the whitened estimate and target; the constrained
    maximum is ||v|| when v'b <= 0 and the norm of v projected off b
    otherwise.
    """
    w, v = np.linalg.eigh(spec.limit_matrix)
    root_inv = (v / np.sqrt(w)) @ v.T
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


def _ref_gap(a, b):
    with np.errstate(invalid="ignore"):  # inf - inf is NaN before np.where replaces it
        return np.where(a == b, 0.0, np.subtract(a, b))


def _ref_moved(c, delta):
    return c + np.where(np.isinf(c), 0.0, delta)


def _ref_touch_masks(values, thresholds, tol):
    plus = np.zeros(np.shape(values), dtype=bool)
    minus = np.zeros(np.shape(values), dtype=bool)
    for c in thresholds:
        diff = _ref_gap(values, c)
        plus |= (diff >= 0) & (diff <= tol)
        minus |= (diff <= 0) & (-diff <= tol)
    return plus, minus


def _ref_delta_rel(mu, band):
    same_domain(mu, band.b_minus)
    d_minus = float(np.min(np.abs(_ref_gap(mu.values, band.b_minus.values))))
    d_plus = float(np.min(np.abs(_ref_gap(mu.values, band.b_plus.values))))
    return min(d_minus, d_plus), d_minus, d_plus


def _ref_delta_eqv(mu, band):
    same_domain(mu, band.b_minus)
    over = np.max(_ref_gap(mu.values, band.b_plus.values))
    under = np.max(_ref_gap(band.b_minus.values, mu.values))
    return float(max(over, under))


def reference_band_test(kind, mu_hat, band, bands, quantile, mu):
    """The band-test template as it was before it moved onto plain arrays, with its
    helpers of that time: each call builds both touch sides of each shifted edge
    and keeps one, and computes d through ``delta_rel`` / ``delta_eqv``."""
    if kind in ("eT", "leT") and not np.all(_ref_gap(band.b_plus.values, band.b_minus.values) > 0):
        raise ParameterError("equivalence testing needs inf(b_plus - b_minus) > 0")
    local = kind in ("lrT", "leT")
    reference = mu if mu is not None else mu_hat
    d = _ref_delta_rel(reference, band)[0] if local else _ref_delta_eqv(reference, band)
    first, second = (band.b_plus, band.b_minus) if kind == "leT" else (band.b_minus, band.b_plus)
    s = d if local else -d
    same_domain(mu_hat, first, second, bands.sigma)
    if quantile is None:
        est = QuantileEstimate(bands.q, "given", float("nan"))
    elif isinstance(quantile, QuantileEstimate):
        est = quantile
    elif not isinstance(quantile, Calibration):
        raise ParameterError("quantile must be None, a QuantileEstimate, or a Calibration")
    else:
        if mu is not None:
            ref, tol = mu.values, 0.0
        elif quantile.k is None:
            raise ParameterError("plug-in calibration needs k")
        elif not quantile.k > 0:
            raise ParameterError(f"k must be > 0, got {quantile.k}")
        else:
            ref, tol = mu_hat.values, quantile.k * bands.tau * bands.sigma.values
        neg = _ref_touch_masks(ref, (_ref_moved(first.values, s),), tol)[0]
        pos = _ref_touch_masks(ref, (_ref_moved(second.values, -s),), tol)[1]
        est = _solve_q(neg, pos, quantile, "lower" if kind == "eT" else "upper")
    w = est.q * bands.tau * bands.sigma.values
    below = mu_hat.values < _ref_moved(first.values, -w)
    above = mu_hat.values > _ref_moved(second.values, w)
    hits = below & above if kind == "leT" else below | above
    if kind == "eT":
        return TestDecision(kind, est, d, global_reject=not hits.any())
    return TestDecision(kind, est, d, global_reject=bool(hits.any()) if kind == "grT" else None,
                        rejected=IndexSet.from_mask(hits))


def _ref_step_up_cuts(df, alpha, J):
    k, m = np.triu_indices(J)
    tau = np.unique((k + 1) * alpha / (m + 1))[::-1]
    return -_t_quantile(tau / 2, df), np.concatenate([[1.0], (tau[:-1] + tau[1:]) / 2, [0.0]])


def reference_t_pvalues(tmat, df, alpha):
    """The step-up p-value layer as it was before the band was searched in ascending order:
    the band's values are looked up in the cut table in their own (unsorted) order."""
    J = tmat.shape[1]
    lo, hi, s75 = (dist_quantile("t", 1 - p / 2, df=df) for p in
                   (alpha * (1 + 1e-6), alpha * (1 - 1e-6) / max(2 * J, 1), 0.5))
    a = np.abs(tmat)
    near75 = np.abs(a - s75) <= 1e-6 * s75
    one = a < lo
    exact = ~(one | (a > hi)) | near75
    pv = one.astype(float)
    if np.count_nonzero(exact) >= J * (J + 1) // 2:
        cut, gap_p = _ref_step_up_cuts(df, alpha, J)
        band = a[exact]
        i = np.searchsorted(cut, band)
        near = np.minimum(np.abs(band - cut[np.maximum(i - 1, 0)]),
                          np.abs(band - cut[np.minimum(i, cut.size - 1)]))
        far = near > 1e-6 * (1.0 + band)
        pv[exact] = gap_p[i]
        exact[exact] = ~far
        exact |= near75
    pv[exact] = 2.0 * t_cdf(-a[exact], df)
    return pv, np.where(near75, pv >= 0.5, a <= s75)


def _ref_run_chunk(gen, nb, N, mu, methods, ks, q_tables, sided_list, baselines, alpha, cuts=None):
    J = mu.size
    is_null = mu == 0.0
    n_null = int(is_null.sum())
    tmat = _draw_tstats(gen, nb, N, mu)

    if baselines or any(kind == "storey" for kind, _, _ in methods):
        pv, p_half = _t_pvalues(tmat, N - 1, alpha, cuts)

    out = {}
    for kind, _policy, label in methods:
        if kind == "oracle":
            m_vec = np.full(nb, n_null)
        elif kind == "storey":
            m_vec = np.minimum(J, 2 * p_half.sum(axis=1))
        else:
            m_vec = (np.abs(tmat) <= ks[label]).sum(axis=1)
        for s in sided_list:
            lower, upper = widened_excursions(tmat, 0.0, 0.0, q_tables[s][m_vec][:, None])
            fd = (lower & (mu >= 0.0)).sum(axis=1) + (upper & (mu <= 0.0)).sum(axis=1)
            td = (lower & (mu < 0.0)).sum(axis=1) + (upper & (mu > 0.0)).sum(axis=1)
            out[(label, s)] = (int((fd == 0).sum()), float(fd.sum()), float(td.sum()))

    if "hommel" in baselines:
        rej = hommel_reject_mask(pv, alpha)
        out[("hommel", None)] = (0, float((rej & is_null).sum()), float((rej & ~is_null).sum()))
    if "bh" in baselines:
        rej = bh_reject_mask(pv, alpha)
        out[("bh", None)] = (0, float((rej & is_null).sum()), float((rej & ~is_null).sum()))
    return out


def reference_run_simulation(cfg):
    """The simulation loop as it was before it ran on one rule list: per-chunk dicts keyed by
    (label, sided), its own touch count ``|t| <= k`` and Storey count, totals summed per key."""
    mu = np.asarray(cfg.mu, dtype=float) if cfg.mu is not None else model_mu(cfg.model, cfg.J).values
    J = mu.size
    alpha = cfg.alpha
    n_null = int((mu == 0.0).sum())
    n_alt = J - n_null
    sided_list = ["two_sided", "one_sided"] if cfg.sided == "both" else [cfg.sided]
    methods = [parse_method(t) for t in cfg.methods]
    rows = []
    rng = Rng(cfg.seed)
    for ni, N in enumerate(cfg.N_list):
        df = N - 1
        q_tables = {s: _iid_table(J, alpha, df, s) for s in sided_list}
        cuts = functools.lru_cache(maxsize=1)(functools.partial(_step_up_cuts, df, alpha, J))
        ks = {label: resolve_k(policy, N, J, df)
              for kind, policy, label in methods if kind in ("log_kappa", "scb")}
        run = lambda gen, nb: _ref_run_chunk(gen, nb, N, mu, methods, ks, q_tables, sided_list,
                                             cfg.baselines, alpha, cuts)
        totals = {}
        for part in _map_chunks(run, cfg.reps, 4 * J, rng.child(ni)):
            for key, sums in part.items():
                totals[key] = tuple(x + y for x, y in zip(totals.get(key, (0, 0.0, 0.0)), sums))
        for kind, policy, label in methods:
            for s in sided_list:
                cov, fd, td = totals[(label, s)]
                name = label if len(sided_list) == 1 else f"{label}[{s}]"
                rows.append(SimTableRow(name, int(N), 100.0 * cov / cfg.reps, fd / cfg.reps,
                                        (td / cfg.reps) if n_alt else None))
        for b in cfg.baselines:
            _, fd, td = totals[(b, None)]
            rows.append(SimTableRow(b, int(N), None, (fd / cfg.reps) if n_null else None,
                                    (td / cfg.reps) if n_alt else None))
    return rows


def reference_field_values(domain, values):
    """``Field``'s checks as they were before the kernel dropped numpy's module reductions."""
    v = np.asarray(values, dtype=float)
    if v.shape != (domain.size,):
        raise DomainMismatchError(
            f"field length {v.shape} does not match domain size {domain.size}"
        )
    if np.any(np.isnan(v)):
        raise ParameterError("field values must not be NaN")
    return v.copy()


def reference_check_bands(q, tau, sigma):
    """``ScopeBands``' checks as they were: NaN q, tau <= 0, sigma not positive and finite."""
    if np.isnan(q):
        raise ParameterError("the critical value q must not be NaN")
    if not tau > 0:
        raise ParameterError(f"tau must be > 0, got {tau}")
    v = sigma.values
    if not (np.all(v > 0) and np.all(np.isfinite(v))):
        raise ParameterError("sigma must be strictly positive and finite")


def _ref_kernel_moved(c, delta):
    if isinstance(delta, float) and -np.inf < delta < np.inf:
        return c + delta
    return c + np.where(np.isinf(c), 0.0, delta)


def reference_widened_excursions(values, lower, upper, w):
    """The widened excursion masks as they were: every array shift through the infinity guard."""
    return values < _ref_kernel_moved(lower, -w), values > _ref_kernel_moved(upper, w)


def reference_inclusion_event(mu_hat, mu, lower_vals, upper_vals, w):
    """The batched inclusion event as it was, with ``np.any`` and an all-true start."""
    event = np.ones(np.shape(mu_hat)[:-1], dtype=bool)
    for c in lower_vals:
        event &= ~np.any((mu_hat < _ref_kernel_moved(c, -w)) & ~(mu < c), axis=-1)
    for c in upper_vals:
        event &= ~np.any((mu_hat > _ref_kernel_moved(c, w)) & ~(mu > c), axis=-1)
    return event


def reference_scope_event(mu_hat, mu, bands, fam):
    same_domain(mu_hat, mu, bands.sigma)
    lower = [c.values for c in fam.lower]
    upper = [c.values for c in fam.upper]
    return bool(reference_inclusion_event(mu_hat.values, mu.values, lower, upper,
                                          bands.half_width()))


def reference_partition3(mu_hat, b_minus, b_plus, bands):
    """``partition3`` as it was; returns the member arrays of its three classes."""
    same_domain(mu_hat, b_minus, b_plus, bands.sigma)
    if bands.q < 0:
        raise ParameterError("partition3 needs a nonnegative critical value")
    if np.any(b_minus.values > b_plus.values):
        raise ThresholdOrderError("b_minus must be <= b_plus pointwise")
    below, above = reference_widened_excursions(
        mu_hat.values, b_minus.values, b_plus.values, bands.half_width()
    )
    return tuple(np.flatnonzero(m) for m in (below, ~(below | above), above))


def reference_contour_regions(mu_hat, levels, bands):
    """``contour_regions`` as it was (it had no check on q); returns member arrays."""
    same_domain(mu_hat, bands.sigma)
    lev = np.asarray(levels, dtype=float).reshape(-1, 1)
    if not np.all(np.isfinite(lev)):
        raise ParameterError("contour levels must be finite")
    below, above = reference_widened_excursions(mu_hat.values, lev, lev, bands.half_width())
    return [np.flatnonzero(row) for row in ~(below | above)]


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
