import numpy as np
import pytest
from conftest import (f_cdf, normal_cdf, peak_traced_mb, reference_limit_matrix_cdf, sphere_grid,
                      zero_inclusion_event)
from hypothesis import example, given, settings, strategies as st

from scopesets import scheffe
from scopesets.dist import Rng, chisq_cdf, quantile
from scopesets.errors import InfeasibleSliceError, ParameterError, SingularDesignError
from scopesets.scheffe import (
    LinearModelSpec,
    _checked_limit_matrix,
    _slice_ratio_maxima,
    detect_nonzero_contrasts,
    extract_limit_cdf,
    ols_fit,
    scheffe_band,
    scheffe_zero_cdf,
    slice_max,
)


def make_spec(beta, xi=1.0, limit=None, tau=1.0):
    beta = np.asarray(beta, dtype=float)
    K = beta.size
    lm = np.eye(K) if limit is None else np.asarray(limit, dtype=float)
    return LinearModelSpec(K, beta, xi, lm, tau)


class TestOlsFit:
    def test_identity_design_has_no_residual_dof(self):
        X = np.eye(4)
        with pytest.raises(SingularDesignError):
            ols_fit(X, np.arange(4.0))

    def test_exact_fit(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(30, 3))
        beta = np.array([1.0, -2.0, 0.5])
        fit = ols_fit(X, X @ beta)
        np.testing.assert_allclose(fit.beta_hat, beta, atol=1e-10)
        assert fit.s2 == pytest.approx(0.0, abs=1e-18)
        assert fit.df_resid == 27

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        y = X @ np.array([0.3, -1.0, 2.0]) + rng.normal(size=50)
        fit = ols_fit(X, y)
        ref = np.linalg.inv(X.T @ X) @ X.T @ y
        np.testing.assert_allclose(fit.beta_hat, ref, atol=1e-8)
        resid = y - X @ ref
        assert fit.s2 == pytest.approx(resid @ resid / 47, rel=1e-10)

    def test_rank_deficient(self):
        X = np.ones((10, 2))
        with pytest.raises(SingularDesignError):
            ols_fit(X, np.arange(10.0))


@pytest.mark.parametrize("call", [
    lambda: scheffe_zero_cdf(np.nan, 3, False),
    lambda: detect_nonzero_contrasts(make_spec([1.0, 0.5, 0.0]), np.nan),
    lambda: slice_max(np.ones(3), np.array([1.0, 0.0, 0.0]), np.nan),
], ids=["scheffe_zero_cdf", "detect_nonzero_contrasts", "slice_max"])
def test_nan_level_or_critical_value_raises_parameter_error(call):
    # extract_limit_cdf's NaN q is in TestExtractLimitCdf::test_malformed_input_raises_parameter_error
    with pytest.raises(ParameterError):
        call()


class TestSliceMax:
    def test_degenerate_slice_is_single_point(self):
        a = np.array([2.0, 0.0, 0.0])
        w = np.array([1.0, 5.0, -3.0])
        # l = ||a||: only x = a/||a|| is feasible
        assert slice_max(w, a, 2.0) == pytest.approx(a @ w / 2.0)

    def test_equator_drops_aligned_coordinate(self):
        w = np.array([9.0, 3.0, 4.0])
        assert slice_max(w, np.array([1.0, 0.0, 0.0]), 0.0) == pytest.approx(5.0)

    def test_infeasible(self):
        with pytest.raises(InfeasibleSliceError):
            slice_max(np.ones(3), np.array([1.0, 0, 0]), 1.5)
        with pytest.raises(ParameterError):
            slice_max(np.ones(3), np.zeros(3), 0.0)

    def test_absolute_is_max_of_both_signs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            K = int(rng.integers(2, 6))
            w, a = rng.normal(size=K), rng.normal(size=K)
            l = float(rng.uniform(-1, 1)) * np.linalg.norm(a)
            both = max(slice_max(w, a, l, +1), slice_max(w, a, l, -1))
            assert slice_max(w, a, l, absolute=True) == pytest.approx(both)

    def test_dominates_sphere_samples(self):
        # closed form must upper-bound every feasible sample and be attained
        rng = np.random.default_rng(3)
        for _ in range(20):
            K = int(rng.integers(2, 6))
            w, a = rng.normal(size=K), rng.normal(size=K)
            na = np.linalg.norm(a)
            l = float(rng.uniform(-0.9, 0.9)) * na
            c = l / na**2
            basis = np.linalg.svd(np.eye(K) - np.outer(a, a) / na**2)[0][:, : K - 1]
            u = rng.normal(size=(100_000, K - 1))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            radius = np.sqrt(1 - l * l / na**2)
            pts = c * a + radius * u @ basis.T
            vals = pts @ w
            closed = slice_max(w, a, l)
            assert closed >= vals.max() - 1e-9
            assert closed - vals.max() <= 1e-2


class TestScheffeZeroCdf:
    def test_definitional_inverse(self):
        for K in (2, 4, 7):
            q = np.sqrt(quantile("chisq", 0.95, k=K - 1))
            assert scheffe_zero_cdf(q, K, beta_is_zero=False) == pytest.approx(0.95, abs=1e-10)

    def test_zero_vector_insignificance(self):
        q2 = quantile("chisq", 0.95, k=3)
        assert 1 - scheffe_zero_cdf(np.sqrt(q2), 4, beta_is_zero=True) == pytest.approx(
            0.1, abs=0.005
        )

    def test_at_zero(self):
        assert scheffe_zero_cdf(0.0, 3, beta_is_zero=False) == 0.0


class TestDetectNonzeroContrasts:
    def test_zero_estimate_never_detected(self):
        spec = make_spec([0.0, 0.0, 0.0])
        for q in (0.1, 1.0, 5.0):
            assert not detect_nonzero_contrasts(spec, q)["detected"]

    def test_zero_threshold_detects_anything(self):
        spec = make_spec([0.2, 0.0])
        assert detect_nonzero_contrasts(spec, 0.0)["detected"]

    def test_agrees_with_sphere_sweep(self):
        rng = np.random.default_rng(42)
        dirs_rng = Rng(0)
        for _ in range(30):
            K = int(rng.integers(2, 5))
            beta_hat = rng.normal(size=K)
            m = rng.normal(size=(K, K))
            lm = m @ m.T + 0.5 * np.eye(K)
            tau, xi = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 2.0))
            spec = make_spec(np.zeros(K), xi=xi, limit=lm, tau=tau)
            q = float(rng.uniform(0.2, 2.0))
            res = detect_nonzero_contrasts(spec, q, beta_hat=beta_hat)
            grid = sphere_grid(K, 100_000, dirs_rng)
            sigma = xi * np.sqrt(np.einsum("ij,jk,ik->i", grid, lm, grid))
            vals = np.abs(grid @ beta_hat) / sigma
            sweep_detected = bool(np.any(vals > tau * q))
            if not res["detected"]:
                assert not sweep_detected  # grid max is a lower bound
            elif res["stat"] > 1.02 * res["threshold"]:
                assert sweep_detected  # clear margin: the sweep must see it

    def test_reported_direction_attains_the_max(self):
        rng = np.random.default_rng(9)
        beta_hat = rng.normal(size=4)
        m = rng.normal(size=(4, 4))
        lm = m @ m.T + 0.3 * np.eye(4)
        spec = make_spec(np.zeros(4), limit=lm)
        res = detect_nonzero_contrasts(spec, 1.0, beta_hat=beta_hat)
        a = res["upper_direction"]
        val = (a @ beta_hat) / (spec.xi * np.sqrt(a @ lm @ a))
        assert val * spec.tau == pytest.approx(res["stat"] * spec.tau, rel=1e-9)


class TestScheffeBand:
    def test_zero_contrast(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(40, 3))
        fit = ols_fit(X, rng.normal(size=40))
        lo, hi = scheffe_band(np.zeros(3), fit, X.T @ X, 0.05)
        assert lo == 0.0 and hi == 0.0

    def test_width_scales_with_s(self):
        from scopesets.scheffe import OlsFit

        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        xtx = X.T @ X
        a = np.array([1.0, -1.0])
        f1 = OlsFit(np.array([0.0, 0.0]), 1.0, 38)
        f4 = OlsFit(np.array([0.0, 0.0]), 4.0, 38)
        w1 = np.diff(scheffe_band(a, f1, xtx, 0.05))[0]
        w4 = np.diff(scheffe_band(a, f4, xtx, 0.05))[0]
        assert w4 == pytest.approx(2.0 * w1, rel=1e-12)

    def test_two_parameter_case_matches_f_based_formula(self):
        # K = 1 contrast dimension: two fitted coefficients, F(2, N-2) law
        rng = np.random.default_rng(5)
        N = 50
        X = np.column_stack([np.ones(N), rng.normal(size=N)])
        y = 1.0 + 0.5 * X[:, 1] + rng.normal(size=N)
        fit = ols_fit(X, y)
        a = np.array([0.0, 1.0])
        lo, hi = scheffe_band(a, fit, X.T @ X, 0.05)

        def f_quantile_bisect(p, d1, d2):
            lo_, hi_ = 0.0, 1.0
            while f_cdf(hi_, d1, d2) < p:
                hi_ *= 2
            for _ in range(200):
                mid = (lo_ + hi_) / 2
                if f_cdf(mid, d1, d2) < p:
                    lo_ = mid
                else:
                    hi_ = mid
            return (lo_ + hi_) / 2

        fq = f_quantile_bisect(0.95, 2, N - 2)
        lev = a @ np.linalg.inv(X.T @ X) @ a
        half = np.sqrt(fit.s2 * fq * lev * 2)
        assert hi - lo == pytest.approx(2 * half, rel=1e-7)


class TestExtractLimitCdf:
    def test_level_above_norm_is_certain(self):
        for q in (0.0, 1.0, 10.0):
            assert extract_limit_cdf(q, 4, 2.0, 1.5, 1000, Rng(0)) == 1.0

    def test_interval_above_norm_is_chi_square(self):
        q = 1.7
        val = extract_limit_cdf(q, 4, 2.0, 1.5, 1000, Rng(0), mode="interval")
        assert val == pytest.approx(chisq_cdf(q * q, 4), abs=1e-12)

    def test_zero_level_matches_zero_law(self):
        reps = 200_000
        for q in (1.0, 2.0, 3.0):
            val = extract_limit_cdf(q, 4, 0.0, 1.0, reps, Rng(42))
            ref = scheffe_zero_cdf(q, 4, beta_is_zero=False)
            se = np.sqrt(ref * (1 - ref) / reps)
            assert abs(val - ref) <= 3 * se + 1e-12

    def test_level_at_norm_collapses_to_gaussian(self):
        reps = 200_000
        q = 1.1
        val = extract_limit_cdf(q, 5, 1.3, 1.3, reps, Rng(7))
        ref = normal_cdf(q)
        se = np.sqrt(ref * (1 - ref) / reps)
        assert abs(val - ref) <= 3 * se

    def test_interval_mode_bounded_by_single_level(self):
        # controlling every level in the interval is harder than one level
        q = 2.0
        single = extract_limit_cdf(q, 3, 0.5, 1.0, 100_000, Rng(3))
        interval = extract_limit_cdf(q, 3, 0.5, 1.0, 100_000, Rng(3), mode="interval")
        assert interval <= single + 0.01

    def test_identity_limit_matrix_matches_closed_form(self):
        reps = 3000
        q = 2.2
        val = extract_limit_cdf(q, 3, 0.6, 1.0, reps, Rng(5), limit_matrix=np.eye(3))
        ref = extract_limit_cdf(q, 3, 0.6, 1.0, 200_000, Rng(6))
        se = np.sqrt(max(ref * (1 - ref), 1e-12) / reps)
        assert abs(val - ref) <= 4 * se

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            extract_limit_cdf(1.0, 3, -0.1, 1.0, 1000, Rng(0))
        with pytest.raises(ParameterError):
            extract_limit_cdf(1.0, 3, 0.0, 0.0, 1000, Rng(0))

    @pytest.mark.parametrize(
        "q, K, Delta, reps, matrix",
        [
            pytest.param(2.0, 3, 0.5, 100, [[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]],
                         id="asymmetric"),
            pytest.param(2.0, 3, 0.5, 100, np.diag([1.0, -1.0, 1.0]), id="not_positive_definite"),
            pytest.param(2.0, 3, 0.5, 100, np.eye(4), id="wrong_shape"),
            pytest.param(2.0, 3, 0.5, 0, np.eye(3), id="zero_reps_with_matrix"),
            pytest.param(2.0, 3, 0.5, 0, None, id="zero_reps"),
            pytest.param(np.nan, 3, 0.5, 100, None, id="nan_q"),
            pytest.param(2.0, 3, np.nan, 100, None, id="nan_delta"),
            pytest.param(2.0, 1, 0.5, 100, None, id="K_1"),
        ],
    )
    def test_malformed_input_raises_parameter_error(self, q, K, Delta, reps, matrix):
        with pytest.raises(ParameterError):
            extract_limit_cdf(q, K, Delta, 1.0, reps, Rng(0), limit_matrix=matrix)

    @pytest.mark.parametrize("matrix", [[[2.0, 1.0], [0.0, 2.0]], np.diag([1.0, -1.0]), np.eye(3)],
                             ids=["asymmetric", "not_positive_definite", "wrong_shape"])
    def test_linear_model_spec_applies_the_same_matrix_check(self, matrix):
        with pytest.raises(ParameterError):
            LinearModelSpec(2, np.ones(2), 1.0, matrix, 1.0)

    def test_general_matrix_interval_never_above_single_level(self):
        # the interval statistic is the free maximum or the larger slice
        # maximum at +-Delta, and the draws are shared, so every replicate's
        # interval statistic bounds its single-level one
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4))
        lm = a @ a.T + 4 * np.eye(4)
        for q in (1.0, 2.0, 3.0):
            single = extract_limit_cdf(q, 4, 0.5, 1.0, 500, Rng(3), limit_matrix=lm)
            interval = extract_limit_cdf(q, 4, 0.5, 1.0, 500, Rng(3), mode="interval",
                                         limit_matrix=lm)
            assert interval <= single

    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_general_matrix_interval_never_below_a_dense_level_grid(self, K):
        # one replicate per seed: extract_limit_cdf reads 0 exactly when that
        # replicate's interval statistic exceeds q, here set just below the
        # largest slice maximum over 401 levels in [-Delta, Delta]
        rng = np.random.default_rng(60 + K)
        a = rng.standard_normal((K, K))
        lm = a @ a.T + K * np.eye(K)
        root = np.linalg.cholesky(lm).T
        w = np.vstack([Rng(seed).generator().standard_normal((1, K)) for seed in range(60)]) @ root
        levels = np.linspace(-0.5, 0.5, 401)
        dense = np.concatenate([_slice_ratio_maxima(part, root, levels) for part in np.split(w, 6)])
        for seed, stat in enumerate(dense):
            assert extract_limit_cdf(stat - 1e-9, K, 0.5, 1.0, 1, Rng(seed), mode="interval",
                                     limit_matrix=lm) == 0.0

    def test_identity_memory_flat_in_reps(self):
        # at K = 10 a chunk holds 1e5 rows, so 1e5 reps fill one chunk and 1e6 run ten; a
        # chunk's arrays are freed before the next one draws, so the peak is one chunk's
        # (a closed form over all replicates at once read 17 MB at 1e5 and 168 MB at 1e6)
        peaks = []
        for reps in (100_000, 1_000_000):
            with peak_traced_mb() as peak:
                val = extract_limit_cdf(2.0, 10, 0.5, 1.0, reps, Rng(2), mode="interval")
            peaks.append(peak.mb)
            assert 0.0 < val < 1.0
        assert peaks[1] < 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("mode", ["single_level", "interval"])
    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_identity_scaling_sees_the_draws_of_the_identity_matrix(self, K, mode):
        # one Rng feeds both scalings the same eps; the identity's row-wise closed form and the
        # stationary-point kernel at root = I agree to a few ulps of ||w||, so the counts match
        eps = Rng(K).generator().standard_normal((2000, K))
        for s in (0.0, 0.3, 0.9, 1.0):
            absolute = mode == "interval"
            rows = slice_max(eps, np.eye(K)[0], s, absolute=absolute)
            kernel = _slice_ratio_maxima(eps, np.eye(K), np.array([-s, s] if absolute else [s]))
            ulp = np.spacing(np.linalg.norm(eps, axis=1))
            assert np.all(np.abs(rows - kernel) <= 8 * ulp)
            one = slice_max(eps[7], np.eye(K)[0], s, absolute=absolute)  # a vector gives a float
            assert isinstance(one, float) and abs(one - rows[7]) <= 2 * ulp[7]
            for q in (0.5, 1.0, 2.0, 3.0):
                args = (q, K, 1.3 * s, 1.3, 2000, Rng(K))
                assert (extract_limit_cdf(*args, mode=mode)
                        == extract_limit_cdf(*args, mode=mode, limit_matrix=np.eye(K)))

    def test_general_matrix_memory_bounded_in_reps(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        lm = a @ a.T + 5 * np.eye(5)
        with peak_traced_mb() as peak:
            val = extract_limit_cdf(2.0, 5, 0.5, 1.0, 200_000, Rng(2), limit_matrix=lm)
        assert peak.mb < 200.0
        assert 0.0 < val < 1.0

    def test_near_singular_matrix_raises_parameter_error_or_runs(self):
        # eigvalsh reads some of these as positive definite while Cholesky
        # fails on them; that used to escape as a bare LinAlgError.  A matrix
        # that factors must also give a finite nonzero-contrast statistic.
        g = np.random.default_rng(11)
        rejected = 0
        for seed in range(60):
            q = np.linalg.qr(g.standard_normal((4, 4)))[0]
            lm = (q * np.r_[10 ** g.uniform(-19, -14), g.uniform(0.5, 2.0, 3)]) @ q.T
            lm = (lm + lm.T) / 2
            try:
                val = extract_limit_cdf(2.0, 4, 0.5, 1.0, 20, Rng(seed), limit_matrix=lm)
            except ParameterError:
                rejected += 1
                with pytest.raises(ParameterError):
                    LinearModelSpec(4, np.ones(4), 1.0, lm, 1.0)
            else:
                assert 0.0 <= val <= 1.0
                res = detect_nonzero_contrasts(LinearModelSpec(4, np.ones(4), 1.0, lm, 1.0), 2.0)
                assert np.isfinite(res["stat"]) and np.all(np.isfinite(res["upper_direction"]))
        assert rejected > 0


def slice_points(K, c):
    """Every point of the slice {||x|| = 1, x_0 = c} where it has at most two: K = 2 or |c| = 1."""
    rho = np.sqrt(1.0 - c * c)
    return np.array([[c, rho], [c, -rho]]) if K == 2 else np.eye(K)[:1] * c


def brute_slice_maxima(w, root, levels):
    """Per row of ``w``, the largest x'w / ||root x|| over the slice points at ``levels``."""
    pts = np.vstack([slice_points(w.shape[1], c) for c in levels])
    return ((w @ pts.T) / np.linalg.norm(pts @ root.T, axis=1)).max(axis=1)


@pytest.fixture
def no_singular_solve(monkeypatch):
    """Fail on any ``np.linalg.solve`` handed a singular matrix: it would fail the whole batch."""
    solve = np.linalg.solve

    def checked(a, b):
        assert np.all(np.linalg.matrix_rank(a) == a.shape[-1]), "singular matrix passed to solve"
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", checked)


@pytest.mark.usefixtures("no_singular_solve")
class TestDegenerateSlices:
    """K = 2 slices are two points and |c| = 1 slices one point: neither has a tangent space."""

    @pytest.mark.parametrize("K, levels", [(2, [0.3]), (2, [-0.6, 0.6]), (2, [0.0]), (2, [1.0]),
                                           (3, [1.0]), (5, [-1.0, 1.0])])
    def test_slice_maxima_are_the_best_point(self, K, levels):
        g = np.random.default_rng(K)
        a = g.standard_normal((K, K))
        root = np.linalg.cholesky(a @ a.T + K * np.eye(K)).T
        w = g.standard_normal((200, K)) @ root
        got = _slice_ratio_maxima(w, root, np.array(levels))
        # the kernel and the brute force round x'w / ||root x|| in different orders
        tol = 4 * np.finfo(float).eps * np.linalg.norm(w, axis=1)
        assert np.all(np.abs(got - brute_slice_maxima(w, root, levels)) <= tol)

    @pytest.mark.parametrize("mode", ["single_level", "interval"])
    @pytest.mark.parametrize("K, Delta", [(2, 0.5), (2, 1.3), (4, 1.3)])
    def test_general_matrix_cdf_matches_brute_force(self, K, Delta, mode):
        # beta_norm = 1.3, so Delta = 1.3 puts the level at |c| = 1
        g = np.random.default_rng(20 + K)
        a = g.standard_normal((K, K))
        lm = a @ a.T + K * np.eye(K)
        root = np.linalg.cholesky(lm).T
        reps, s = 200, Delta / 1.3
        eps = Rng(7).generator().standard_normal((reps, K))  # the one chunk extract_limit_cdf draws
        w = eps @ root
        if mode == "single_level":
            stats = brute_slice_maxima(w, root, [s])
        else:
            x = np.linalg.solve(root, eps.T).T
            free = np.abs(x[:, 0]) <= s * np.linalg.norm(x, axis=1)
            stats = np.where(free, np.linalg.norm(eps, axis=1),
                             brute_slice_maxima(w, root, [-s, s]))
        ordered = np.sort(stats)
        for j in (9, 49, 99, 149, 189):
            q = (ordered[j] + ordered[j + 1]) / 2
            assert extract_limit_cdf(q, K, Delta, 1.3, reps, Rng(7), mode=mode,
                                     limit_matrix=lm) == (j + 1) / reps


def limit_matrices(K, g):
    """A well-conditioned matrix, one of condition 40-150 and one with a near-zero eigenvalue
    (1e-19 to 1e-14, which Cholesky may or may not factor), all K x K."""
    a = g.standard_normal((K, K))
    yield a @ a.T + K * np.eye(K)
    for spectrum in (np.geomspace(1.0, g.uniform(40, 150), K),
                     np.r_[10 ** g.uniform(-19, -14), g.uniform(0.5, 2.0, K - 1)]):
        q = np.linalg.qr(g.standard_normal((K, K)))[0]
        lm = (q * spectrum) @ q.T
        yield (lm + lm.T) / 2


class TestScheffeCeiling:
    """x'w / ||root x|| <= ||eps|| on every slice, so a row with ||eps|| <= q is counted
    without the slice kernel; the count must stay the earlier loop's, bit for bit."""

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_matches_the_reference_loop_bit_for_bit(self, K):
        g = np.random.default_rng(500 + K)
        calls = rejected = 0
        for seed in range(2):
            for lm in limit_matrices(K, g):
                try:
                    _checked_limit_matrix(lm, K)
                except ParameterError:
                    rejected += 1
                    continue
                for mode in ("single_level", "interval"):
                    for frac in (0.0, 0.2, 0.5, 1.0):
                        for q in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, np.inf):
                            args = (q, K, 1.3 * frac, 1.3, 40, Rng(seed))
                            got = extract_limit_cdf(*args, mode=mode, limit_matrix=lm)
                            assert got == reference_limit_matrix_cdf(*args, mode, lm), (seed, mode,
                                                                                       frac, q)
                            calls += 1
        assert calls > 0 and rejected < 2  # a near-singular matrix that factors ran too

    @pytest.mark.parametrize("mode", ["single_level", "interval"])
    @pytest.mark.parametrize("K", [2, 4, 5])
    def test_only_open_rows_reach_the_kernel(self, monkeypatch, K, mode):
        seen = []

        def recorder(w, root, c):
            seen.append(w.copy())
            return _slice_ratio_maxima(w, root, c)

        monkeypatch.setattr(scheffe, "_slice_ratio_maxima", recorder)
        g = np.random.default_rng(70 + K)
        a = g.standard_normal((K, K))
        lm = a @ a.T + K * np.eye(K)
        root = _checked_limit_matrix(lm, K)[1]
        q, s, reps = 2.0, 0.5, 300
        extract_limit_cdf(q, K, s, 1.0, reps, Rng(9), mode=mode, limit_matrix=lm)
        eps = Rng(9).generator().standard_normal((reps, K))  # the one chunk of the call
        open_rows = np.linalg.norm(eps, axis=1) > q
        if mode == "interval":
            x = np.linalg.solve(root, eps.T).T
            open_rows &= np.abs(x[:, 0]) > s * np.linalg.norm(x, axis=1)
        assert len(seen) == 1 and 0 < len(seen[0]) < reps
        np.testing.assert_array_equal(seen[0], (eps @ root)[open_rows])

    @pytest.mark.parametrize("mode", ["single_level", "interval"])
    def test_all_closed_call_is_certain(self, mode):
        lm = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
        assert extract_limit_cdf(50.0, 3, 0.5, 1.0, 20, Rng(4), mode=mode, limit_matrix=lm) == 1.0

    @pytest.mark.parametrize("levels", [[0.0], [0.5], [-0.5, 0.5], [1.0]])
    @pytest.mark.parametrize("K", [2, 4])
    def test_empty_batch_gives_empty_maxima(self, K, levels):
        root = np.eye(K) + 0.3 * np.triu(np.ones((K, K)), 1)
        assert _slice_ratio_maxima(np.zeros((0, K)), root, np.array(levels)).shape == (0,)


class TestSliceRatioMaxima:
    @pytest.mark.parametrize("K", [4, 5])
    def test_never_below_a_dense_slice_grid(self, K):
        rng = np.random.default_rng(40 + K)
        a = rng.standard_normal((K, K))
        root = np.linalg.cholesky(a @ a.T + K * np.eye(K)).T
        w = rng.standard_normal((300, K)) @ root
        c = 0.5
        batched = _slice_ratio_maxima(w, root, np.array([c]))
        dense = np.full(w.shape[0], -np.inf)
        for chunk in np.array_split(sphere_grid(K - 1, 1_000_000, Rng(K)), 50):
            pts = np.column_stack([np.full(len(chunk), c), np.sqrt(1 - c * c) * chunk])
            pts /= np.linalg.norm(pts @ root.T, axis=1, keepdims=True)
            dense = np.maximum(dense, (pts @ w.T).max(axis=0))
        assert np.all(batched >= dense - 1e-9)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(-0.999, 0.999),
           st.floats(0.1, 10.0))
    @example(K=3, seed=0, frac=9.3e-83, beta_norm=1.0)  # a tiny level: the pencil nearly degenerates
    def test_identity_root_matches_closed_form(self, K, seed, frac, beta_norm):
        w = np.random.default_rng(seed).standard_normal((20, K))
        beta = np.zeros(K)
        beta[0] = beta_norm
        level = frac * beta_norm
        batched = _slice_ratio_maxima(w, np.eye(K), np.array([level / beta_norm]))
        closed = [slice_max(row, beta, level) for row in w]
        np.testing.assert_allclose(batched, closed, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("c", [0.0, 9.3e-83, -9.3e-83, 1e-160])
    @pytest.mark.parametrize("general", [True, False])
    def test_level_zero_is_the_free_maximum_over_the_rest(self, c, general):
        # at c = 0 the slice is the unit sphere of x_r, where x_r'w_r / ||root x|| peaks
        # at sqrt(w_r' M_rr^-1 w_r); a level below 1e-82 moves that by far less than
        # rounding, while its pencil has eigenvalues near c^2, which underflow when squared
        g = np.random.default_rng(70)
        a = g.standard_normal((4, 4))
        lm = a @ a.T + 0.5 * np.eye(4) if general else np.eye(4)
        root = np.linalg.cholesky(lm).T
        w = g.standard_normal((200, 4)) @ root
        exact = np.sqrt(np.einsum("ij,ij->i", w[:, 1:], np.linalg.solve(lm[1:, 1:], w[:, 1:].T).T))
        got = _slice_ratio_maxima(w, root, np.array([c]))
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("c", [0.3, -0.5, 0.8, 1e-8])
    def test_repeated_pencil_eigenvalues_match_closed_form(self, c):
        # M = diag(m0, m1, m1) repeats a pencil eigenvalue, so the polynomial has a
        # double root on a pole; on the slice ||root x||^2 = m0 c^2 + m1 rho^2 is constant
        m0, m1 = 2.5, 0.4
        root = np.diag(np.sqrt([m0, m1, m1]))
        w = np.random.default_rng(71).standard_normal((200, 3)) @ root
        rho = np.sqrt(1 - c * c)
        closed = (c * w[:, 0] + rho * np.linalg.norm(w[:, 1:], axis=1)) / np.sqrt(
            m0 * c * c + m1 * rho * rho)
        got = _slice_ratio_maxima(w, root, np.array([c]))
        np.testing.assert_allclose(got, closed, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("K", [3, 4])
    def test_negative_maxima_match_a_dense_slice_grid(self, K):
        # a large negative w_0 makes x'w < 0 on the whole slice at c = 0.8: the maximum is
        # then a stationary point whose polynomial root lies on the cone's other nappe
        g = np.random.default_rng(72 + K)
        a = g.standard_normal((K, K))
        root = np.linalg.cholesky(a @ a.T + K * np.eye(K)).T
        w = g.standard_normal((40, K))
        w[:, 0] = -10.0 - np.abs(w[:, 0])
        w = w @ root
        c = 0.8
        pts = np.column_stack([np.full(200_000, c),
                               np.sqrt(1 - c * c) * sphere_grid(K - 1, 200_000, Rng(K))])
        dense = (w @ pts.T / np.linalg.norm(pts @ root.T, axis=1)).max(axis=1)
        got = _slice_ratio_maxima(w, root, np.array([c]))
        assert np.all(dense < 0)
        assert np.all(got >= dense - 1e-12)
        assert np.all(got <= dense + 1e-3)

    def test_free_maximiser_on_the_cone(self):
        # w_0 = 0 with root = I puts the free maximiser M^-1 w on the cone x_0 = 0 of the
        # level c = 0: every coefficient of the polynomial is then exactly zero
        w = np.random.default_rng(73).standard_normal((50, 3))
        w[:, 0] = 0.0
        got = _slice_ratio_maxima(w, np.eye(3), np.array([0.0]))
        np.testing.assert_allclose(got, np.linalg.norm(w, axis=1), rtol=1e-15, atol=0)

    def test_ill_conditioned_rows_reach_the_polished_maximum(self):
        # at condition numbers 29-121 several local maxima compete on a slice: every
        # row must reach the BFGS-polished maximum of a dense grid, none a lower one
        rows = lower_basin = 0
        for K in (4, 5, 6):
            for seed in range(2):
                g = np.random.default_rng(1000 + 10 * K + seed)
                q = np.linalg.qr(g.standard_normal((K, K)))[0]
                lm = (q * np.geomspace(1.0, g.uniform(29, 121), K)) @ q.T
                root = np.linalg.cholesky((lm + lm.T) / 2).T
                w = g.standard_normal((25, K)) @ root
                fine = sphere_grid(K - 1, 20_000, Rng(1))
                for c in (0.0, 0.5):
                    got = _slice_ratio_maxima(w, root, np.array([c]))
                    best = polished_slice_maxima(w, root, c, fine)
                    rows += len(w)
                    lower_basin += int(np.count_nonzero(got < best - 1e-12))
        print(f"lower-basin rows: {lower_basin} of {rows}")
        assert lower_basin == 0

    @pytest.mark.parametrize("K, seed", [(4, 33), (5, 3), (6, 35)])
    def test_rows_with_a_higher_distant_maximum_reach_it(self, K, seed):
        # on these 100 rows a climb from the best of 512 fixed directions ended 0.005 (K = 4),
        # up to 0.18 (K = 5) and 0.22 (K = 6) short, in the basin of a lower maximum
        g = np.random.default_rng(2000 + 10 * K + seed)
        q = np.linalg.qr(g.standard_normal((K, K)))[0]
        lm = (q * np.geomspace(1.0, g.uniform(29, 121), K)) @ q.T
        root = np.linalg.cholesky((lm + lm.T) / 2).T
        w = g.standard_normal((100, K)) @ root
        got = _slice_ratio_maxima(w, root, np.array([0.5]))
        best = polished_slice_maxima(w, root, 0.5, sphere_grid(K - 1, 20_000, Rng(1)))
        assert np.all(got >= best - 1e-12)

    @pytest.mark.parametrize("scale", [0.0, 1e-8, 1e-5])
    @pytest.mark.parametrize("K", [3, 5])
    def test_hard_case_rows_reach_the_polished_maximum(self, K, scale):
        # b = V'w with V'MV = I and V'QV = diag(d), Q = e_0 e_0' - c^2 I: a (near) zero
        # b_k puts the stationary point on (next to) the pole eta = d_k, where the
        # polynomial's roots cannot reach it
        from scipy.linalg import eigh

        g = np.random.default_rng(90 + K)
        a = g.standard_normal((K, K))
        lm = a @ a.T + 0.5 * np.eye(K)
        root = np.linalg.cholesky(lm).T
        c = 0.5
        V = eigh(np.diag(np.r_[1 - c * c, np.full(K - 1, -c * c)]), lm)[1]
        b = g.standard_normal((30, K))
        b[:, -1] *= scale  # the one positive d
        w = b @ np.linalg.inv(V)
        got = _slice_ratio_maxima(w, root, np.array([c]))
        best = polished_slice_maxima(w, root, c, sphere_grid(K - 1, 20_000, Rng(1)))
        assert np.all(got >= best - 1e-12)


def polished_slice_maxima(w, root, c, grid):
    """Per row of ``w``, BFGS on v with u = v / ||v|| from the best direction of ``grid``, with
    the analytic gradient: a local maximum of x'w / ||root x|| on the slice x_0 = c."""
    from scipy.optimize import minimize

    rho = np.sqrt(1 - c * c)
    pts = np.column_stack([np.full(len(grid), c), rho * grid])
    pts /= np.linalg.norm(pts @ root.T, axis=1, keepdims=True)
    starts = grid[(w @ pts.T).argmax(axis=1)]

    def neg(v, row):
        u = v / np.sqrt(v @ v)
        x = np.concatenate([[c], rho * u])
        rx = root @ x
        n = np.sqrt(rx @ rx)
        f = (x @ row) / n
        grad = rho * (row - f * (root.T @ rx) / n)[1:] / n
        return -f, -(grad - (grad @ u) * u) / np.sqrt(v @ v)

    return np.array([-minimize(neg, u0, args=(row,), jac=True, method="BFGS",
                               options={"gtol": 1e-12}).fun for row, u0 in zip(w, starts)])


class TestZeroInclusionEvent:
    def test_sphere_grid_agrees_with_halfspace_form(self):
        rng = np.random.default_rng(42)
        grid_rng = Rng(1)
        n_checked = 0
        for _ in range(200):
            K = int(rng.integers(2, 5))
            beta = rng.normal(size=K) * rng.choice([0.0, 1.0])
            spec = make_spec(beta, xi=1.0, tau=0.05)
            beta_hat = beta + 0.05 * rng.normal(size=K)
            q = float(rng.uniform(0.5, 3.0))
            exact = zero_inclusion_event(spec, beta_hat, q)
            grid = sphere_grid(K, 20_000, grid_rng)
            mh = grid @ beta_hat
            mv = grid @ beta
            w = spec.tau * spec.xi * q * np.linalg.norm(grid, axis=1)
            viol = np.any(((mh > w) & (mv <= 0)) | ((mh < -w) & (mv >= 0)))
            grid_event = not viol
            # the grid can only miss violations, never invent them
            if exact:
                assert grid_event
            else:
                n_checked += 1
        assert n_checked > 20

    def test_grid_event_runs_through_finite_domain_machinery(self):
        # a direction grid turns the sphere problem into a finite-domain one;
        # the generic inclusion-event check must then agree with the
        # half-space closed form up to grid resolution
        from scopesets.domain import Domain, Field
        from scopesets.excursion import ScopeBands, ThresholdFamily, scope_event

        rng = np.random.default_rng(12)
        K = 3
        beta = np.array([0.8, 0.0, -0.4])
        spec = make_spec(beta, tau=0.1)
        grid = sphere_grid(K, 5000, Rng(4))
        dom = Domain(grid.shape[0])
        mu = Field(dom, grid @ beta)
        sigma = Field(dom, spec.xi * np.linalg.norm(grid, axis=1))
        zero = Field.constant(dom, 0.0)
        fam = ThresholdFamily.symmetric([zero])
        agree = 0
        for _ in range(100):
            beta_hat = beta + spec.tau * rng.normal(size=K)
            q = float(rng.uniform(0.3, 2.5))
            exact = zero_inclusion_event(spec, beta_hat, q)
            mu_hat = Field(dom, grid @ beta_hat)
            grid_event = scope_event(mu_hat, mu, ScopeBands(q, spec.tau, sigma), fam)
            if exact:
                assert grid_event  # the grid can only miss violations
            agree += grid_event == exact
        assert agree >= 95

    def test_coverage_law_smoke(self):
        # light version of the chi-square coverage check
        rng = np.random.default_rng(0)
        K, reps = 3, 2000
        q = np.sqrt(quantile("chisq", 0.9, k=K - 1))
        beta = np.array([0.7, 0.0, 0.0])
        spec = make_spec(beta, tau=1.0 / np.sqrt(2000))
        hits = 0
        for _ in range(reps):
            beta_hat = beta + spec.tau * rng.normal(size=K)
            hits += zero_inclusion_event(spec, beta_hat, q)
        ref = scheffe_zero_cdf(q, K, beta_is_zero=False)
        assert abs(hits / reps - ref) <= 0.025
