import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from conftest import f_cdf, normal_cdf, raises_exactly

from scopesets.dist import (
    Rng,
    _t_quantile,
    binom_tail,
    chisq_cdf,
    quantile,
    t_cdf,
)
from scopesets.errors import ParameterError


def normal_pdf(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def t_pdf(x, df):
    from scipy.special import gammaln

    c = np.exp(gammaln((df + 1) / 2) - gammaln(df / 2)) / np.sqrt(df * np.pi)
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def chisq_pdf(x, k):
    from scipy.special import gammaln

    return np.exp((k / 2 - 1) * np.log(x) - x / 2 - gammaln(k / 2) - (k / 2) * np.log(2))


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_against_quadrature(self):
        # adaptive quadrature of the density as an independent oracle
        for x in (-2.3, -1.0, 0.4, 1.6449, 3.1):
            ref = 0.5 + quad(normal_pdf, 0.0, x, epsabs=1e-14)[0]
            assert abs(normal_cdf(x) - ref) <= 1e-12
        assert normal_cdf(1.6449) == pytest.approx(0.95, abs=5e-5)

    def test_reflection_identity(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-5, 5, 100)
        np.testing.assert_allclose(normal_cdf(-x), 1.0 - normal_cdf(x), atol=1e-14)


class TestTCdf:
    def test_symmetry_at_zero(self):
        for df in (1, 5.5, 99):
            assert t_cdf(0.0, df) == pytest.approx(0.5, abs=1e-14)

    def test_against_quadrature(self):
        ref = 0.5 + quad(lambda u: t_pdf(u, 99), 0.0, 3.0, epsabs=1e-14)[0]
        assert abs(t_cdf(3.0, 99) - ref) <= 1e-10
        assert t_cdf(3.0, 99) == pytest.approx(0.99829, abs=5e-6)

    def test_normal_limit(self):
        assert t_cdf(1.0, 1e7) == pytest.approx(normal_cdf(1.0), abs=1e-5)
        assert t_cdf(1.0, np.inf) == normal_cdf(1.0)

    def test_cauchy_against_mpmath(self):
        # stdtr at df = 1 errs by up to 2.2e-9 here, near 0 and in the far left tail
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        x = np.concatenate([s * np.logspace(-12, 8, 201) for s in (1.0, -1.0)])
        ref = np.array([float(0.5 + mpmath.atan(mpmath.mpf(v)) / mpmath.pi) for v in x])
        assert np.all(np.abs(t_cdf(x, 1) - ref) <= 1e-15 * ref)
        assert (t_cdf(-np.inf, 1), t_cdf(0.0, 1), t_cdf(np.inf, 1)) == (0.0, 0.5, 1.0)

    def test_bad_df(self):
        with pytest.raises(ParameterError):
            t_cdf(1.0, 0.0)
        with pytest.raises(ParameterError):
            t_cdf(1.0, -3)


class TestChisqCdf:
    def test_at_zero(self):
        assert chisq_cdf(0.0, 4) == 0.0

    def test_exponential_closed_form(self):
        # two degrees of freedom is exponential with rate 1/2
        assert abs(chisq_cdf(2 * np.log(10), 2) - 0.9) <= 1e-12
        for x in (0.1, 1.0, 5.0):
            assert abs(chisq_cdf(x, 2) - (1 - np.exp(-x / 2))) <= 1e-12

    def test_against_quadrature(self):
        # 7.8147 is the 95% point with three degrees of freedom
        ref = quad(lambda u: chisq_pdf(u, 3), 0.0, 7.814727903251179, epsabs=1e-13)[0]
        assert abs(chisq_cdf(7.814727903251179, 3) - ref) <= 1e-10
        assert chisq_cdf(7.814727903251179, 3) == pytest.approx(0.95, abs=1e-9)

    def test_negative_argument(self):
        with pytest.raises(ParameterError):
            chisq_cdf(-0.5, 3)


class TestFCdf:
    def test_at_zero(self):
        assert f_cdf(0.0, 3, 7) == 0.0

    def test_t_squared_identity(self):
        rng = np.random.default_rng(42)
        for q in rng.uniform(0.1, 3.0, 20):
            lhs = f_cdf(q * q, 1, 99)
            rhs = 2 * t_cdf(q, 99) - 1
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_equal_dfs_median_at_one(self):
        assert f_cdf(1.0, 5, 5) == pytest.approx(0.5, abs=1e-12)

    def test_bad_dfs(self):
        with pytest.raises(ParameterError):
            f_cdf(1.0, 0, 5)


class TestQuantile:
    def test_normal_median(self):
        assert quantile("normal", 0.5) == 0.0

    def test_roundtrip(self):
        rng = np.random.default_rng(42)
        for p in rng.uniform(0.01, 0.99, 25):
            assert abs(normal_cdf(quantile("normal", p)) - p) <= 1e-9
            assert abs(t_cdf(quantile("t", p, df=7), 7) - p) <= 1e-9
            assert abs(chisq_cdf(quantile("chisq", p, k=3), 3) - p) <= 1e-9
            assert abs(f_cdf(quantile("f", p, d1=4, d2=9), 4, 9) - p) <= 1e-9

    def test_frozen_values_from_bisection_oracle(self):
        def bisect(cdf, p, lo, hi):
            for _ in range(200):
                mid = (lo + hi) / 2
                if cdf(mid) < p:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        ref = bisect(lambda x: chisq_cdf(x, 3), 0.95, 0.0, 50.0)
        assert quantile("chisq", 0.95, k=3) == pytest.approx(ref, abs=1e-9)
        assert quantile("chisq", 0.95, k=3) == pytest.approx(7.8147, abs=5e-5)
        ref = bisect(lambda x: t_cdf(x, 99), 0.95, 0.0, 50.0)
        assert quantile("t", 0.95, df=99) == pytest.approx(ref, abs=1e-9)
        assert quantile("t", 0.95, df=99) == pytest.approx(1.6604, abs=5e-5)

    @pytest.mark.parametrize("df", [1, 4, 6])
    @pytest.mark.parametrize("p", [0.500000005, 0.499999995])
    def test_t_roundtrip_near_the_median(self, df, p):
        # stdtrit returns 2.98e-8 (df=4) and 0.0 (df=6) here, CDF errors of 6.2e-9 and 5e-9;
        # at df = 1 the CDF itself is the Cauchy closed form (stdtr reads 0.5 + 4.7e-9 at 1e-8)
        assert abs(t_cdf(quantile("t", p, df=df), df) - p) <= 1e-9

    def test_t_levels_outside_the_median_window_are_stdtrit(self):
        # only levels within 1e-4 of 0.5 take the incomplete-beta inversion
        gaps = [m * 10.0**-k for k in (1, 2, 3) for m in (1, 2, 4.9)] + [1.0000001e-4]
        levels = [0.5 + s * g for g in gaps for s in (1, -1)] + [1e-300, 1e-12, 1 - 1e-12]
        for df in (0.05, 0.5, 1, 4, 6, 29, 499, 1e4, 1e9):
            for p in levels:
                assert quantile("t", p, df=df) == float(special.stdtrit(df, p)), (df, p)

    def test_out_of_range(self):
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ParameterError):
                quantile("normal", p)

    @pytest.mark.parametrize("df", [1, 4, 29, np.inf])
    def test_vector_t_quantile_is_the_scalar_one_bit_for_bit(self, df):
        # the grid straddles both edges of the incomplete-beta window |p - 0.5| < 1e-4
        near = 0.5 + np.concatenate([np.geomspace(1e-12, 3e-4, 60), -np.geomspace(1e-12, 3e-4, 60),
                                     [1e-4, -1e-4, 0.0]])
        levels = np.concatenate([near, np.linspace(1e-6, 1 - 1e-6, 301),
                                 [1e-300, 1e-12, 1 - 1e-12]])
        got = _t_quantile(levels, df)
        want = np.array([quantile("t", p, df=df) for p in levels])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestBinomTail:
    def test_edge_cases(self):
        assert binom_tail(10, 0.3, 0) == 1.0
        assert binom_tail(1, 0.37, 1) == pytest.approx(0.37, abs=1e-15)

    def test_product_oracle(self):
        p = 0.0034
        assert binom_tail(80, p, 1) == pytest.approx(1 - (1 - p) ** 80, abs=1e-12)
        assert binom_tail(80, p, 1) == pytest.approx(0.2385, abs=5e-4)

    def test_direct_summation_oracle(self):
        from math import comb

        rng = np.random.default_rng(42)
        for _ in range(50):
            M = int(rng.integers(1, 40))
            m = int(rng.integers(1, M + 1))
            p = float(rng.uniform(0.01, 0.99))
            ref = sum(comb(M, j) * p**j * (1 - p) ** (M - j) for j in range(m, M + 1))
            assert binom_tail(M, p, m) == pytest.approx(ref, abs=1e-12)

    def test_m_exceeds_M(self):
        with pytest.raises(ParameterError):
            binom_tail(5, 0.5, 6)


class TestSamplers:
    def test_empty(self):
        assert Rng(1).generator().standard_normal(0).size == 0

    def test_determinism(self):
        a = Rng(123).generator().standard_normal(50)
        b = Rng(123).generator().standard_normal(50)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            Rng(5).generator().standard_t(7, 20), Rng(5).generator().standard_t(7, 20)
        )

    def test_child_streams_differ(self):
        r = Rng(9)
        a = r.child(0).generator().standard_normal(100)
        b = r.child(1).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_clt_mean(self):
        x = Rng(2024).generator().standard_normal(10**6)
        assert abs(x.mean()) < 4e-3


BAD_INPUTS = {
    "chisq_cdf dof": (lambda: chisq_cdf(1.0, 0), "chi-square dof must be > 0, got 0"),
    "t quantile without df": (lambda: quantile("t", 0.5), "t quantile needs df"),
    "t quantile dof": (lambda: quantile("t", 0.5, df=-1),
                       "t degrees of freedom must be > 0, got -1.0"),
    "chisq quantile dof": (lambda: quantile("chisq", 0.5, k=None),
                           "chi-square dof must be > 0, got None"),
    "F quantile dof": (lambda: quantile("f", 0.5, d1=2, d2=0),
                       "F degrees of freedom must be positive"),
    "unknown family": (lambda: quantile("gamma", 0.5), "unknown distribution 'gamma'"),
    "binom_tail p": (lambda: binom_tail(5, 1.5, 2),
                     "success probability must be in [0, 1], got 1.5"),
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_bad_input_raises_naming_it(name):
    call, message = BAD_INPUTS[name]
    with raises_exactly(ParameterError, message):
        call()
