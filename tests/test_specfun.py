"""Special functions: Gamma tail/sampling, partitions and chain-rule
coefficients, and the complementary incomplete Beta test oracle. Oracles:
mpmath and scipy."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from helpers import comp_inc_beta, gamma_ccdf
from hetcov.specfun import (
    MAX_PARTITION_ORDER,
    Partition,
    faa_coefficient,
    integer_partitions,
    sample_gamma,
)


def beta_tail_mp(p: float, q: float, x: float) -> float:
    """High-precision complementary incomplete Beta via mpmath."""
    with mpmath.workdps(40):
        return float(mpmath.betainc(p, q, x1=x, x2=1, regularized=False))


class TestCompIncBeta:
    def test_complete_beta_at_zero(self):
        assert_allclose(comp_inc_beta(2.0, 3.0, 0.0), 1.0 / 12.0, rtol=1e-12)

    def test_empty_interval(self):
        assert comp_inc_beta(2.0, 3.0, 1.0) == 0.0
        assert comp_inc_beta(-0.5, 0.3, 1.0) == 0.0

    def test_uniform_integrand(self):
        assert_allclose(comp_inc_beta(1.0, 1.0, 0.5), 0.5, rtol=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(p=1.0, q=1.0, x=-0.1),
            dict(p=1.0, q=1.0, x=1.1),
            dict(p=1.0, q=0.0, x=0.5),
            dict(p=1.0, q=-2.0, x=0.5),
            dict(p=0.0, q=1.0, x=0.0),   # divergent at the origin
            dict(p=-1.0, q=1.0, x=0.0),
        ],
    )
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            comp_inc_beta(**bad)

    def test_against_mpmath_positive_p(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            p = float(rng.uniform(0.05, 6.0))
            q = float(rng.uniform(0.05, 6.0))
            x = float(rng.uniform(0.0, 0.999))
            assert_allclose(
                comp_inc_beta(p, q, x), beta_tail_mp(p, q, x), rtol=1e-8,
                err_msg=f"p={p}, q={q}, x={x}",
            )

    def test_against_mpmath_nonpositive_p(self):
        # The analytic engine feeds p = psi - i + 2/alpha, which dips below 0
        # for large i and small alpha; x > 0 keeps the integral finite.
        rng = np.random.default_rng(1)
        for _ in range(25):
            p = float(rng.uniform(-2.5, 0.0))
            q = float(rng.uniform(0.1, 4.0))
            x = float(rng.uniform(0.05, 0.95))
            assert_allclose(
                comp_inc_beta(p, q, x), beta_tail_mp(p, q, x), rtol=1e-8,
                err_msg=f"p={p}, q={q}, x={x}",
            )

    def test_additivity_with_head_integral(self):
        # tail(x) + head(x) = complete Beta, head by independent quadrature
        from scipy import integrate

        rng = np.random.default_rng(2)
        for _ in range(15):
            p = float(rng.uniform(0.3, 5.0))
            q = float(rng.uniform(0.3, 5.0))
            x = float(rng.uniform(0.05, 0.95))
            head, _ = integrate.quad(
                lambda t: t ** (p - 1.0) * (1.0 - t) ** (q - 1.0), 0.0, x,
                epsabs=0.0, epsrel=1e-11,
            )
            assert_allclose(
                comp_inc_beta(p, q, x) + head, special.beta(p, q), rtol=1e-8
            )


class TestGammaCcdf:
    def test_exponential_tail(self):
        assert_allclose(gamma_ccdf(1, 1.0, 2.0), math.exp(-2.0), rtol=1e-14)

    def test_shape_two(self):
        assert_allclose(gamma_ccdf(2, 1.0, 1.0), 2.0 / math.e, rtol=1e-14)

    def test_at_origin(self):
        assert gamma_ccdf(3, 2.0, 0.0) == 1.0

    def test_against_regularized_gamma(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            shape = int(rng.integers(1, 12))
            scale = float(rng.uniform(0.2, 5.0))
            z = float(rng.uniform(0.0, 8.0 * shape * scale))
            expected = float(special.gammaincc(shape, z / scale))
            assert abs(gamma_ccdf(shape, scale, z) - expected) <= 1e-12

    def test_monotone_and_bounded(self):
        grid = np.linspace(0.0, 30.0, 200)
        values = [gamma_ccdf(4, 1.5, z) for z in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_ccdf(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_ccdf(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_ccdf(2, 1.0, -0.1)
        with pytest.raises(ValueError):
            gamma_ccdf(2.5, 1.0, 1.0)


class TestSampleGamma:
    def test_unit_shape_moments(self):
        rng = np.random.default_rng(10)
        draws = sample_gamma(1, rng, size=1_000_000)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_shape_eight_moments(self):
        rng = np.random.default_rng(11)
        draws = sample_gamma(8, rng, size=400_000)
        assert abs(draws.mean() - 8.0) < 0.03
        assert abs(draws.var() - 8.0) < 0.2

    def test_matches_generator_gamma_distribution(self):
        # Kolmogorov-Smirnov against numpy's own Gamma sampler
        from scipy import stats

        rng = np.random.default_rng(12)
        ours = sample_gamma(5, rng, size=40_000)
        _, pvalue = stats.kstest(ours, stats.gamma(a=5).cdf)
        assert pvalue > 0.01

    def test_deterministic_for_fixed_seed(self):
        a = sample_gamma(3, np.random.default_rng(99), size=50)
        b = sample_gamma(3, np.random.default_rng(99), size=50)
        assert np.array_equal(a, b)

    def test_scalar_and_shaped_output(self):
        rng = np.random.default_rng(0)
        assert isinstance(sample_gamma(2, rng), float)
        assert sample_gamma(2, rng, size=7).shape == (7,)
        assert sample_gamma(2, rng, size=(3, 4)).shape == (3, 4)

    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_gamma(0, rng)
        with pytest.raises(ValueError):
            sample_gamma(2.5, rng)


# partition counts p(1)..p(12)
PARTITION_COUNTS = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)
# Bell numbers B_1..B_6
BELL_NUMBERS = (1, 2, 5, 15, 52, 203)


class TestPartitions:
    def test_counts(self):
        for k, expected in enumerate(PARTITION_COUNTS, start=1):
            assert len(integer_partitions(k)) == expected

    def test_k3_enumeration(self):
        got = {p.multiplicities for p in integer_partitions(3)}
        assert got == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}

    def test_k1(self):
        assert [p.multiplicities for p in integer_partitions(1)] == [(1,)]

    def test_each_partition_sums_to_k(self):
        for k in range(1, 10):
            for part in integer_partitions(k):
                assert part.order == k
                assert sum((j + 1) * m for j, m in enumerate(part.multiplicities)) == k

    def test_no_duplicates(self):
        for k in range(1, 12):
            parts = [p.multiplicities for p in integer_partitions(k)]
            assert len(parts) == len(set(parts))

    def test_bounds(self):
        with pytest.raises(ValueError):
            integer_partitions(0)
        with pytest.raises(ValueError):
            integer_partitions(MAX_PARTITION_ORDER + 1)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition(multiplicities=(1, 1))  # encodes 3 in a length-2 vector
        with pytest.raises(ValueError):
            Partition(multiplicities=())


class TestFaaCoefficient:
    def test_known_values(self):
        assert faa_coefficient(Partition((2, 0))) == 1
        assert faa_coefficient(Partition((0, 1))) == 1
        assert faa_coefficient(Partition((1, 1, 0))) == 3
        assert faa_coefficient(Partition((3, 0, 0))) == 1
        assert faa_coefficient(Partition((0, 0, 1))) == 1

    def test_exp_of_identity_is_exact(self):
        # f=exp, g(s)=s: only the all-singleton partition contributes, and
        # d^k/ds^k e^s = e^s must come out exactly, for every k <= 6.
        for k in range(1, 7):
            total = 0
            for part in integer_partitions(k):
                term = faa_coefficient(part)
                for j, m in enumerate(part.multiplicities, start=1):
                    if m and j > 1:
                        term = 0  # g^(j) = 0 beyond the first derivative
                total += term
            assert total == 1

    def test_all_ones_gives_bell_numbers(self):
        # complete Bell polynomial at (1,1,...,1) counts set partitions
        for k, expected in enumerate(BELL_NUMBERS, start=1):
            total = sum(faa_coefficient(p) for p in integer_partitions(k))
            assert total == expected

    def test_gaussian_series_is_exact(self):
        # f=exp, g(s)=s^2 at s=0: g''=2 and every other derivative vanishes,
        # so the chain-rule sum must equal d^k/ds^k e^(s^2)|_0 = k!/(k/2)!
        # for even k and 0 for odd k.
        for k in range(1, 9):
            total = 0
            for part in integer_partitions(k):
                term = faa_coefficient(part)
                for j, m in enumerate(part.multiplicities, start=1):
                    if m:
                        term = term * 2**m if j == 2 else 0
                total += term
            expected = math.factorial(k) // math.factorial(k // 2) if k % 2 == 0 else 0
            assert total == expected

    def test_coefficients_are_positive_integers(self):
        for k in range(1, 10):
            for part in integer_partitions(k):
                c = faa_coefficient(part)
                assert isinstance(c, int) and c >= 1
