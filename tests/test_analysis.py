"""Interference Laplace transform, its derivatives, conditional/overall
coverage, and the mean-rate integral."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special

from helpers import (
    EVENTS_BY_MODE,
    bell_sum_by_partitions,
    cluster_integral_cone,
    cluster_integral_quad,
    cluster_integral_sampled,
    cluster_kernel_mp,
    cluster_kernel_scalar,
    comp_inc_beta,
    coop_macro_joint_scalar,
    coverage_conditional_quad,
    gamma_ccdf,
    laplace_derivative,
    log_laplace_derivative,
    log_laplace_derivative_quad,
    radial_tail_direct,
    radial_tail_quad,
    random_laplace_context,
    random_scenario,
    single_coverage_quad,
    single_server_kernel_scalar,
)
from hetcov.analysis import (
    IntegrationFailure,
    LaplaceContext,
    _beta_tier_sum,
    _cluster_kernel,
    _coop_macro_joint,
    _erlang_mixture,
    _log_derivatives,
    _radial_tail_integral,
    _single_server_kernel,
    _tail_weights,
    _taylor_terms,
    coverage_conditional,
    coverage_overall,
    laplace_context,
    laplace_interference,
    laplace_interference_radial,
    mean_rate,
    serving_context,
)
from hetcov import analysis, association
from hetcov.association import AssociationEvent, assoc_prob_sbs_cluster
from hetcov.mcsim import coverage_from_batch, run_trials
from hetcov.model import MODES, STRATEGIES, Scenario, TierParams, default_scenario
from hetcov.specfun import MAX_PARTITION_ORDER

BELL_NUMBERS = [1, 1, 2, 5, 15, 52, 203, 877]


def cluster_scenario(k: int, order: int, psi: int) -> Scenario:
    """Reference scenario with a K-cell cluster whose small cells serve psi
    users each at fading order `order`."""
    base = default_scenario(cluster_size=k)
    return replace(base, small=replace(base.small, antennas=psi + order - 1, users=psi))


def random_cluster_distances(rng, n: int, k: int) -> np.ndarray:
    """n ascending K-vectors of distances. A third of them put the second
    server within 20% of the first, around the gap where the fold switches
    from partial fractions to re-expansion; another third within a
    log-uniform 1e-9 to 1e-1 of it, where partial fractions cancel most."""
    r = rng.uniform(1.0, 30.0, size=(n, k))
    if k > 1:
        m = n // 3
        r[:m, 1] = r[:m, 0] * (1.0 + rng.uniform(0.0, 0.2, m))
        r[m : 2 * m, 1] = r[m : 2 * m, 0] * (1.0 + 10.0 ** rng.uniform(-9.0, -1.0, m))
    return np.sort(r, axis=1)


def near_silent_scenario(noise: float = 0.0) -> Scenario:
    """Vanishing interferer densities: the Laplace transform degenerates to
    the pure-noise factor."""
    t = TierParams(density=1e-30, power=1.0, antennas=1, users=1)
    return Scenario(macro=t, small=t, noise=noise)


class TestLaplaceTransform:
    def test_unit_at_zero_argument(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            s = random_scenario(rng)
            ctx = LaplaceContext(s=0.0, d_macro=3.0, d_small=5.0, scenario=s)
            assert laplace_interference(ctx) == 1.0
            assert laplace_interference_radial(ctx) == 1.0

    def test_unit_at_vanishing_density(self):
        ctx = LaplaceContext(s=2.0, d_macro=1.0, d_small=1.0, scenario=near_silent_scenario())
        assert_allclose(laplace_interference(ctx), 1.0, atol=1e-12)

    def test_beta_form_matches_radial_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            ctx = random_laplace_context(rng)
            ref = laplace_interference_radial(ctx)
            assert_allclose(laplace_interference(ctx), ref, rtol=1e-6)

    def test_reference_geometry_against_radial(self):
        # macro serving at 10 m, unit threshold, reference densities/powers
        s = default_scenario()
        ctx = laplace_context(
            serving_context(AssociationEvent.MACRO, s, (10.0,)), s, threshold=1.0
        )
        assert_allclose(
            laplace_interference(ctx), laplace_interference_radial(ctx), rtol=1e-6
        )

    @pytest.mark.parametrize("psi", [1, 4, 8])
    @pytest.mark.parametrize("alpha", [2.05, 2.2, 3.0, 4.5, 6.0])
    def test_radial_oracle_on_the_domain_edges(self, alpha, psi):
        # alpha near 2 and far above it, no exclusion (d = 0) and far
        # exclusions, arguments over six decades; RuntimeWarnings are errors
        base = default_scenario()
        tiers = {
            name: replace(getattr(base, name), antennas=psi, users=psi, pathloss=alpha)
            for name in ("macro", "small")
        }
        scn = replace(base, **tiers)
        for d in (0.0, 0.5, 3.0, 30.0):
            for s in (1e-3, 1.0, 1e3):
                ctx = LaplaceContext(s=s, d_macro=d, d_small=d, scenario=scn)
                assert_allclose(
                    laplace_interference_radial(ctx), laplace_interference(ctx), rtol=1e-9,
                    err_msg=f"d={d}, s={s}",
                )

    def test_radial_oracle_is_gated(self, monkeypatch):
        ctx = LaplaceContext(s=1.0, d_macro=3.0, d_small=1.0, scenario=default_scenario())
        with monkeypatch.context() as m:
            m.setattr(association, "_MAX_PIECES", 1)
            with pytest.raises(IntegrationFailure, match="radial Laplace oracle"):
                laplace_interference_radial(ctx)
        monkeypatch.setattr(analysis, "_RADIAL_RTOL", 0.0)
        with pytest.raises(IntegrationFailure, match="radial Laplace oracle"):
            laplace_interference_radial(ctx)

    def test_decreasing_in_argument(self):
        s = default_scenario()
        vals = [
            laplace_interference(LaplaceContext(s=x, d_macro=5.0, d_small=2.0, scenario=s))
            for x in (0.0, 1.0, 10.0, 100.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_decreasing_in_density(self):
        base = default_scenario()
        vals = []
        for scale in (0.5, 1.0, 2.0, 4.0):
            s = replace(
                base,
                macro=replace(base.macro, density=base.macro.density * scale),
                small=replace(base.small, density=base.small.density * scale),
            )
            vals.append(
                laplace_interference(LaplaceContext(s=1.0, d_macro=5.0, d_small=2.0, scenario=s))
            )
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_context_validation(self):
        s = default_scenario()
        with pytest.raises(ValueError):
            LaplaceContext(s=-1.0, d_macro=1.0, d_small=1.0, scenario=s)
        with pytest.raises(ValueError):
            LaplaceContext(s=1.0, d_macro=-1.0, d_small=1.0, scenario=s)


class TestLaplaceDerivatives:
    def test_order_zero_is_the_function(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            ctx = random_laplace_context(rng)
            assert_allclose(laplace_derivative(ctx, 0), laplace_interference(ctx), rtol=1e-12)

    def test_pure_noise_derivatives(self):
        # all interference suppressed: d^k/ds^k e^(-s*N) = (-N)^k e^(-s*N)
        sc = near_silent_scenario(noise=1.0)
        for s in (0.4, 1.0, 2.3):
            ctx = LaplaceContext(s=s, d_macro=1.0, d_small=1.0, scenario=sc)
            for k in (1, 2, 3):
                expected = (-1.0) ** k * math.exp(-s)
                assert_allclose(laplace_derivative(ctx, k), expected, rtol=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 8:
            ctx = random_laplace_context(rng)
            if not 1e-4 < ctx.s < 1e4:  # keep the stencil inside float comfort
                continue

            def f(x):
                return laplace_derivative(replace(ctx, s=x), 0)

            s = ctx.s
            f0 = f(s)
            if f0 < 1e-300:  # subnormal range: differences carry no digits
                continue
            checked += 1
            # step ~ 1/|d log f/ds| so truncation stays flat across deep tails
            h0 = 1e-3 * s
            slope = (math.log(f(s + h0)) - math.log(f(s - h0))) / (2.0 * h0)
            h = 2e-3 * s / max(1.0, abs(slope) * s)
            stencils = {
                1: (f(s + h) - f(s - h)) / (2.0 * h),
                2: (f(s + h) - 2.0 * f0 + f(s - h)) / h**2,
                3: (f(s + 2 * h) - 2.0 * f(s + h) + 2.0 * f(s - h) - f(s - 2 * h))
                / (2.0 * h**3),
            }
            for k, fd in stencils.items():
                exact = laplace_derivative(ctx, k)
                assert_allclose(exact, fd, rtol=1e-4, atol=1e-12 * f0)

    def test_log_derivative_validation(self):
        ctx = LaplaceContext(s=1.0, d_macro=1.0, d_small=1.0, scenario=default_scenario())
        with pytest.raises(ValueError):
            log_laplace_derivative(ctx, 0)
        with pytest.raises(ValueError):
            laplace_derivative(ctx, -1)

    def test_vectorized_orders_match_scalar_and_quadrature(self):
        # _log_derivatives holds (-s)^j g^(j)/(j-1)! >= 0 for every order at
        # once; each entry must give the single-order function, and that the
        # quadrature form
        rng = np.random.default_rng(14)
        for noise in (0.0, 1e-3):
            for _ in range(10):
                ctx = random_laplace_context(
                    rng, random_scenario(rng, noise_choices=(noise,))
                )
                nmax = int(rng.integers(1, 9))
                scaled = _log_derivatives(ctx, nmax)
                assert np.all(scaled >= 0.0)
                for j in range(1, nmax + 1):
                    single = log_laplace_derivative(ctx, j)
                    g_j = scaled[j - 1] * math.factorial(j - 1) / (-ctx.s) ** j
                    assert_allclose(g_j, single, rtol=1e-14)
                    assert_allclose(single, log_laplace_derivative_quad(ctx, j), rtol=1e-8)


class TestDownwardBetaRecurrence:
    """Both incomplete-Beta series reach their lower orders from one betainc
    call at the top order by adding non-negative terms."""

    @pytest.mark.parametrize("alpha", [2.05, 6.0])
    def test_tier_sum_matches_term_sum(self, alpha):
        rng = np.random.default_rng(17)
        ws = [*rng.uniform(size=12), 0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0]
        for psi in range(1, 17):
            i = np.arange(1, psi + 1)
            q, p = i - 2.0 / alpha, psi - i + 2.0 / alpha
            got = _beta_tier_sum(psi, alpha, np.array(ws))
            assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
            for w, value in zip(ws, got):
                want = sum(
                    math.comb(psi, k) * comp_inc_beta(pk, qk, w)
                    for k, pk, qk in zip(i.tolist(), p.tolist(), q.tolist())
                )
                assert_allclose(value, want, rtol=1e-13, err_msg=f"psi={psi}, w={w}")
                assert_allclose(_beta_tier_sum(psi, alpha, w), value, rtol=1e-15)

    def test_radial_tail_matches_all_orders_betainc(self):
        rng = np.random.default_rng(18)
        v0 = np.r_[0.0, 1e-300, 1e300, 10.0 ** rng.uniform(-8.0, 8.0, 40)]
        for alpha in (2.05, 4.0, 6.0):
            for psi in range(1, 9):
                for nmax in (1, 2, 7, 16, 33, 60):
                    got = _radial_tail_integral(v0, psi, nmax, alpha)
                    assert got.shape == (len(v0), nmax)
                    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
                    # atol only admits values that underflow toward subnormals
                    assert_allclose(
                        got, radial_tail_direct(v0, psi, nmax, alpha), rtol=1e-12, atol=1e-290,
                        err_msg=f"alpha={alpha}, psi={psi}, nmax={nmax}",
                    )

    def test_no_order_gives_an_empty_axis(self):
        assert _radial_tail_integral(2.0, 3, 0, 4.0).shape == (0,)
        assert _radial_tail_integral(np.ones((4, 2)), 3, 0, 4.0).shape == (4, 2, 0)

    def test_one_betainc_call_per_invocation(self, monkeypatch):
        # one call at the top order, for a whole array of rows
        calls = []
        betainc = special.betainc

        def counting(a, b, x):
            calls.append(np.shape(a))
            return betainc(a, b, x)

        monkeypatch.setattr(analysis.special, "betainc", counting)
        w = np.linspace(0.0, 1.0, 50)
        _beta_tier_sum(8, 3.7, w)
        assert calls == [()]
        _radial_tail_integral(1.0 / w[1:], 8, 12, 3.7)
        assert calls == [(), ()]


class TestRadialTailClosedForm:
    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            alpha = float(rng.uniform(2.05, 6.0))
            psi = int(rng.integers(1, 9))
            n = int(rng.integers(1, MAX_PARTITION_ORDER + 1))
            v0 = float(10.0 ** rng.uniform(-6.0, 4.0))
            got = _radial_tail_integral(v0, psi, n, alpha)[n - 1]
            # atol only admits values that underflow toward subnormals
            assert_allclose(
                got, radial_tail_quad(v0, psi, n, alpha), rtol=1e-8, atol=1e-290,
                err_msg=f"alpha={alpha}, psi={psi}, n={n}, v0={v0}",
            )

    @pytest.mark.parametrize("v0", [0.0, 1e-300, 1e300])
    def test_domain_edges_stay_finite(self, v0):
        for alpha in (2.01, 4.0, 6.0):
            for psi in (1, 8):
                vals = _radial_tail_integral(v0, psi, 60, alpha)
                assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)


class TestBellAssembly:
    """The Taylor recurrence k t_k = sum_j y_j t_(k-j) behind every series:
    with y_j = x_j/(j-1)!, k! t_k is the complete Bell polynomial B_k(x)."""

    def test_identity_argument(self):
        # exp(x): t_k = 1/k!, so B_k(1, 0, 0, ...) = 1 for every k
        got = _taylor_terms([1.0] + [0.0] * 6, 8)
        assert list(got) == pytest.approx([1.0 / math.factorial(k) for k in range(8)])

    def test_all_ones_gives_bell_numbers(self):
        y = [1.0 / math.factorial(j - 1) for j in range(1, 8)]
        got = _taylor_terms(y, 8) * [math.factorial(k) for k in range(8)]
        assert list(got) == pytest.approx(BELL_NUMBERS)

    def test_recurrence_matches_partition_loop(self):
        # Both sides reach the same polynomial B_k(x) by different routes,
        # so they agree to the roundoff scale of the positive-term sum B_k(|x|).
        rng = np.random.default_rng(16)
        for k in range(MAX_PARTITION_ORDER + 1):
            scale = [1.0 / math.factorial(j) for j in range(max(1, k))]  # 1/(j-1)!
            for _ in range(3):
                g = rng.normal(scale=2.0, size=max(1, k))
                for x in (g, np.abs(g)):
                    want = bell_sum_by_partitions(x.tolist(), k)
                    bound = 1e-14 * bell_sum_by_partitions(np.abs(x).tolist(), k)
                    got = math.factorial(k) * _taylor_terms(x * scale, k + 1)[k]
                    assert abs(got - want) <= bound

    @pytest.mark.parametrize("psi", [1, 3, 8])
    def test_gamma_link_against_beta_cdf_to_order_60(self, psi):
        # A Gamma(m) link against one Gamma(psi) interferer at fixed gain c
        # covers with probability P[h > x g] = I_{1/(1+x)}(psi, m), x = T c.
        # Its Laplace transform (1 + x)^-psi has the scaled log-derivatives
        # y_j = psi u^j, u = x/(1+x).
        m = np.arange(1, 61)
        for x in np.logspace(-3.0, 3.0, 13):
            u = x / (1.0 + x)
            y = psi * u ** np.arange(1, 60)
            got = np.cumsum(_taylor_terms(y, 60)) * (1.0 + x) ** -psi
            assert_allclose(got, special.betainc(psi, m, 1.0 / (1.0 + x)), rtol=1e-12,
                            err_msg=f"x={x}")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=30))
    def test_engine_signs_give_nonnegative_terms(self, magnitudes):
        # the engine's y_j are non-negative, and so is every term they give
        assert np.all(_taylor_terms(magnitudes, len(magnitudes) + 1) >= 0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 9])
    def test_negative_power_binomials(self, m):
        # (1 - x)^(-m): G = m x, so y_1 = m, and t_k = C(m+k-1, k)
        got = _taylor_terms([float(m)] + [0.0] * 39, 40, m)
        assert_allclose(got, [math.comb(m + k - 1, k) for k in range(40)], rtol=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_shape_is_the_gamma_average_of_the_exponential(self, m):
        # E[exp(tau B(x))] = (1 - B(x))^(-m) for tau ~ Gamma(m, 1): the terms
        # of shape m at y_j = m b_j are the Gamma average of the exponential
        # series at y_j = tau b_j, which is a polynomial of degree n-1 in tau,
        # exact on n/2 generalized Gauss-Laguerre nodes
        rng = np.random.default_rng(m)
        n = 12
        b = rng.uniform(0.0, 2.0, size=(5, n - 1))
        nodes, weights = special.roots_genlaguerre(n // 2, m - 1)
        want = sum(
            w * _taylor_terms(tau * b, n) for tau, w in zip(nodes, weights)
        ) / math.factorial(m - 1)
        assert_allclose(_taylor_terms(m * b, n, m), want, rtol=1e-12)


def scale_case(name, index) -> Scenario:
    """A default scenario at cluster size `index`, or random draw `index`."""
    if name == "random":
        rng = np.random.default_rng(123)
        return [random_scenario(rng) for _ in range(index + 1)][-1]
    return default_scenario(name, cluster_size=index)


LOUD_NOISE = 1.0  # W, +30 dBm: moves the default cells' coverage by more than 1e-3
SCALE_CASES = [(name, k) for name in ("SISO", "SUBF", "SDMA") for k in (2, 3)]
SCALE_CASES += [("random", i) for i in range(10)]
NOISY_SCALE_CASES = [(name, k) for name in ("SISO", "SUBF", "SDMA") for k in (1, 2)]
NOISY_SCALE_CASES += [("random", i) for i in range(10)]


def scale_route_params():
    """(event, case, noise) cases of TestScaleAverage: every case at zero
    noise, and the K <= 2 cases at LOUD_NOISE for each event the
    numeric-scale oracle covers with noise (not the K >= 2 macro side)."""
    params = [
        pytest.param(event, case, 0.0, id="%s-%s-%d" % (event.value, *case))
        for event in AssociationEvent
        for case in SCALE_CASES
    ]
    for event in AssociationEvent:
        for case in NOISY_SCALE_CASES:
            k = scale_case(*case).cluster_size
            if event is AssociationEvent.MACRO_COOP and k >= 2:
                continue
            case_id = "%s-%s-%d-30dBm" % (event.value, *case)
            params.append(pytest.param(event, case, LOUD_NOISE, id=case_id))
    return params


class TestScaleAverage:
    """Coverage with the scale coordinate averaged by _scale_average, against
    the routes that integrate it numerically, at zero noise and with noise."""

    @pytest.mark.parametrize("event, case, noise", scale_route_params())
    def test_matches_quadrature_route(self, event, case, noise):
        s = replace(scale_case(*case), noise=noise)
        got = []
        for db in (-20.0, 0.0, 20.0, 40.0):
            t = 10.0 ** (db / 10.0)
            got.append(coverage_conditional(event, s, t))
            want = coverage_conditional_quad(event, s, t)
            assert abs(got[-1] - want) <= s.numerics.coverage_epsabs, (db, got[-1], want)
        assert all(b <= a for a, b in zip(got, got[1:])), got

    def test_loud_noise_moves_the_defaults(self):
        # the noisy cases above check a noise term, not only zero noise again
        for strategy in STRATEGIES:
            s = default_scenario(strategy)
            loud = replace(s, noise=LOUD_NOISE)
            for event in AssociationEvent:
                quiet_value = coverage_conditional(event, s, 1.0)
                moved = quiet_value - coverage_conditional(event, loud, 1.0)
                assert moved > 1e-3, (strategy, event, moved)


class TestHighFadingOrders:
    """SUBF with 20 and 32 macro antennas: fading orders above 16."""

    @pytest.mark.parametrize("mode", MODES)
    def test_more_macro_antennas_raise_coverage(self, mode):
        base = default_scenario("SUBF")
        covs = []
        for antennas in (16, 20, 32):
            sc = replace(base, macro=replace(base.macro, antennas=antennas))
            covs.append(coverage_overall(mode, sc, 1.0))
            if antennas > 16:
                mc = coverage_from_batch(run_trials(sc, mode, 4000, master_seed=0), 1.0)
                assert abs(covs[-1] - mc.value) < 0.03, (antennas, covs[-1], mc.value)
        assert covs[0] < covs[1] < covs[2], covs

    @pytest.mark.parametrize("mode", MODES)
    def test_200_macro_antennas(self, mode):
        # fading order 193: a series longer than the 170 terms whose 1/k!
        # fits a float
        base = default_scenario("SUBF")
        s64, s200 = (replace(base, macro=replace(base.macro, antennas=a)) for a in (64, 200))
        cov64, cov200 = coverage_overall(mode, s64, 1.0), coverage_overall(mode, s200, 1.0)
        assert cov64 < cov200 <= 1.0, (cov64, cov200)
        mc = coverage_from_batch(run_trials(s200, mode, 4000, master_seed=0), 1.0)
        assert abs(cov200 - mc.value) <= 0.03 + 2.0 * mc.ci_halfwidth, (cov200, mc)


class TestHighOrderClusters:
    """Random K=2 cells with small-tier fading orders 6 and 7."""

    @pytest.mark.parametrize("index", [23, 27])
    def test_random_scenario_evaluates_and_matches_monte_carlo(self, index):
        rng = np.random.default_rng(123)
        s = [random_scenario(rng) for _ in range(index + 1)][-1]
        covs = [coverage_overall("cooperative", s, 10.0 ** (db / 10.0)) for db in (-20, 0, 20, 40)]
        assert all(0.0 <= v <= 1.0 for v in covs), covs
        assert all(b < a for a, b in zip(covs, covs[1:])), covs
        mc = coverage_from_batch(run_trials(s, "cooperative", 4000, master_seed=0), 1.0)
        assert abs(covs[1] - mc.value) <= 0.03 + 2.0 * mc.ci_halfwidth, (covs[1], mc)


class TestGammaTailSeam:
    def test_matches_gamma_ccdf_without_interference(self):
        # with only noise the coverage kernel must be the Gamma(order,1) CCDF
        sc = near_silent_scenario(noise=1.0)
        for s in (0.3, 1.0, 2.5):
            ctx = LaplaceContext(s=s, d_macro=1.0, d_small=1.0, scenario=sc)
            for order in (1, 2, 3, 4):
                assert_allclose(
                    _tail_weights(ctx, order), gamma_ccdf(order, 1.0, s), rtol=1e-10
                )


class TestCoverageConditional:
    @pytest.mark.parametrize("event", [AssociationEvent.MACRO, AssociationEvent.SMALL])
    def test_extreme_thresholds(self, event):
        s = default_scenario()
        assert coverage_conditional(event, s, 1e-6) > 0.999
        assert coverage_conditional(event, s, 1e6) < 1e-3

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            coverage_conditional(AssociationEvent.MACRO, default_scenario(), 0.0)

    def test_decreasing_in_threshold(self):
        s = default_scenario()
        for event in (AssociationEvent.MACRO, AssociationEvent.SMALL):
            vals = [coverage_conditional(event, s, t) for t in (0.1, 0.5, 1.0, 4.0, 20.0)]
            assert all(b < a for a, b in zip(vals, vals[1:]))


class TestCoopMacroRoute:
    def test_low_threshold_recovers_event_probability(self):
        # as the threshold vanishes, joint P[covered & macro wins] -> P[macro wins]
        s = default_scenario()
        expected = 1.0 - assoc_prob_sbs_cluster(s)
        assert_allclose(_coop_macro_joint(s, 1e-9), expected, atol=1e-6)

    def test_single_competitor_matches_exclusion_route(self):
        # K=1: the macro side under cooperation is the noncooperative macro
        # event, whose conditional coverage is a closed-form finite sum; the
        # cone route must agree with it
        for strategy in STRATEGIES:
            s = default_scenario(strategy, cluster_size=1)
            for t in (0.3, 1.0, 5.0):
                via_cone = coverage_conditional(AssociationEvent.MACRO_COOP, s, t)
                closed_form = coverage_conditional(AssociationEvent.MACRO, s, t)
                assert abs(via_cone - closed_form) <= 1e-8, (strategy, t, via_cone, closed_form)

    def test_64_macro_antennas_decrease_and_match_oracle(self):
        # a long macro series (fading order 64) on the macro cooperative
        # cone: coverage falls with the threshold and matches the oracle
        base = default_scenario("SUBF")
        s = replace(base, macro=replace(base.macro, antennas=64), cluster_size=2)
        norm = 1.0 - assoc_prob_sbs_cluster(s)
        got = []
        for t in (0.1, 0.3, 1.0, 3.0, 10.0):
            got.append(coverage_conditional(AssociationEvent.MACRO_COOP, s, t))
            oracle = coop_macro_joint_scalar(s, t) / norm
            assert abs(got[-1] - oracle) <= s.numerics.coverage_epsabs, (t, got[-1], oracle)
        assert all(b < a for a, b in zip(got, got[1:])), got

    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            _coop_macro_joint(default_scenario(), 0.0)

    def test_summed_error_estimate_is_gated(self, monkeypatch):
        # an estimate past the gate raises instead of returning the value
        def loose(f, upper, epsabs, what, spike=None, panels=analysis._panel_integral):
            return panels(f, upper, epsabs, what, spike)[0], 1e-3

        monkeypatch.setattr(analysis, "_panel_integral", loose)
        with pytest.raises(IntegrationFailure, match="macro cooperative cone"):
            _coop_macro_joint(default_scenario(), 1.0)


class TestArrayKernels:
    """The array kernels against their one-geometry-per-call oracles."""

    CASES = [(k, order, psi) for k in (1, 2, 3) for order in (1, 2, 3, 4) for psi in (1, 8)]

    @pytest.mark.parametrize("k, order, psi", CASES)
    def test_erlang_mixture_matches_scalar(self, k, order, psi):
        # each row's weights reproduce prod_i (1 + a_i s)^(-order), summed
        # in mpmath so that only the weights' own rounding shows
        rng = np.random.default_rng(100 * k + 10 * order + psi)
        r = random_cluster_distances(rng, 60, k)
        gains = 2.5 * r ** -3.0
        seen = 0
        for rows, poles in _erlang_mixture(gains, order):
            for n, row in enumerate(rows.tolist()):
                for x in (0.01, 0.3, 1.0, 3.0, 30.0, 1e3):
                    s = mpmath.mpf(x) / gains[row].max()
                    exact = mpmath.fprod((1 + mpmath.mpf(a) * s) ** -order for a in gains[row])
                    mixture = mpmath.fsum(
                        mpmath.mpf(float(wl)) * (1 + mpmath.mpf(float(b[n])) * s) ** -l
                        for b, w in poles for l, wl in enumerate(w[n], start=1)
                    )
                    assert abs(mixture - exact) <= 1e-10, (gains[row], x)
                seen += 1
        assert seen == len(r)

    # "exact" in the ids names the cluster model checked, the exact Erlang mixture
    @pytest.mark.parametrize("k, order, psi", CASES, ids=["%d-%d-%d-exact" % c for c in CASES])
    def test_cluster_kernel_matches_scalar(self, k, order, psi):
        # against the mpmath partial fractions
        s = cluster_scenario(k, order, psi)
        rng = np.random.default_rng(1000 * k + 10 * order + psi)
        r = random_cluster_distances(rng, 80, k)
        for row, value in zip(r, _cluster_kernel(s, r, 1.0)):
            assert abs(value - cluster_kernel_mp(s, tuple(row), 1.0)) <= 1e-10, row

    @pytest.mark.parametrize("gap", [9e-9, 1.1e-8, 3e-8, 1e-7, 1e-6])
    def test_siso_kernel_at_near_equal_distances(self, gap):
        # partial fractions alone lose about 1e-16 / gap here
        s = default_scenario()
        r = np.array([[1.0, 1.0 + gap]])
        assert abs(_cluster_kernel(s, r, 1.0)[0] - cluster_kernel_mp(s, (1.0, 1.0 + gap), 1.0)) <= 1e-10

    @pytest.mark.parametrize("order", [5, 6, 7])
    def test_high_order_kernel_matches_oracle(self, order):
        s = cluster_scenario(2, order, 1)
        rng = np.random.default_rng(order)
        r = random_cluster_distances(rng, 30, 2)
        for row, value in zip(r, _cluster_kernel(s, r, 1.0)):
            assert abs(value - cluster_kernel_mp(s, tuple(row), 1.0)) <= 1e-9, row

    @pytest.mark.parametrize("k, order", [(2, 14), (2, 20), (3, 5), (3, 8)])
    def test_long_series_kernel_matches_oracle(self, k, order):
        # Close gains re-expand onto one pole as series of over 170 terms,
        # past the order where a 1/k! scaling overflows a float. The series
        # is longest where consecutive distance ratios near the edge of the
        # fold's switch gap; random rows in (1, 3) m ride along.
        s = cluster_scenario(k, order, 1)
        switch = 10.0 ** (-analysis._FOLD_DIGITS / (k * order - 1))
        edge = (1.0 - switch) ** (-1.0 / s.pathloss)
        ratio = 1.0 + (edge - 1.0) * np.array([0.1, 0.5, 0.9, 0.99, 0.999])
        r = np.concatenate([
            np.cumprod(np.column_stack([np.full(len(ratio), 1.5)] + [ratio] * (k - 1)), axis=1),
            np.sort(np.random.default_rng(order).uniform(1.0, 3.0, size=(8, k)), axis=1),
        ])
        mixture = _erlang_mixture(s.small.power * r ** -s.pathloss, order)
        assert max(w.shape[1] for _, poles in mixture for _, w in poles) > 170
        for row, value in zip(r, _cluster_kernel(s, r, 1.0)):
            assert abs(value - cluster_kernel_mp(s, tuple(row), 1.0)) <= 1e-10, row

    @pytest.mark.parametrize("order", [4], ids=["exact"])  # the id as above
    def test_certain_coverage_at_vanishing_distance(self, order):
        # servers so close that their power overflows, or the Laplace
        # argument underflows: the kernel is 1, not nan or an error
        s = cluster_scenario(2, order, 1)
        r = np.array([
            [0.0, 1.0], [1e-120, 2e-120], [2e-103, 1.0], [1e-60, 2e-60], [1e-60, 5.0],
            [1e-90, 1e9],
        ])
        for t in (1e-3, 1.0):
            assert_allclose(_cluster_kernel(s, r, t), 1.0, atol=1e-12)
        single = np.array([0.0, 1e-160, 1e-60])
        for event in (AssociationEvent.MACRO, AssociationEvent.SMALL):
            assert_allclose(_single_server_kernel(s, event, single, 1e-3), 1.0, atol=1e-12)

    @pytest.mark.parametrize("event", [AssociationEvent.MACRO, AssociationEvent.SMALL])
    @pytest.mark.parametrize("strategy", ["SISO", "SUBF", "SDMA"])
    def test_single_server_matches_scalar(self, strategy, event):
        s = default_scenario(strategy)
        r = np.concatenate([[0.0], np.geomspace(0.05, 80.0, 40)])
        for t in (0.1, 1.0, 30.0):
            expected = [single_server_kernel_scalar(s, event, x, t) for x in r]
            assert_allclose(_single_server_kernel(s, event, r, t), expected, rtol=1e-12, atol=1e-15)
            assert_allclose(
                coverage_conditional(event, s, t), single_coverage_quad(event, s, t), atol=1e-6
            )

    @pytest.mark.parametrize("strategy", ["SISO", "SUBF", "SDMA"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_coop_macro_joint_matches_scalar(self, strategy, k):
        s = default_scenario(strategy, cluster_size=k)
        for t in (0.1, 1.0, 10.0):
            assert_allclose(
                _coop_macro_joint(s, t), coop_macro_joint_scalar(s, t), rtol=0.0, atol=1e-7
            )

    @pytest.mark.parametrize("strategy", ["SISO", "SUBF", "SDMA"])
    def test_cooperative_coverage_matches_nested_quad(self, strategy):
        # 0 dB, against the nested-QUADPACK cone integral of the scalar kernel
        s = default_scenario(strategy)
        t = 1.0
        a = cluster_integral_quad(s)
        raw = cluster_integral_quad(
            s, h=lambda r: cluster_kernel_scalar(s, r, t),
            epsabs=0.5 * s.numerics.coverage_epsabs, spike=t ** (-2.0 / s.pathloss),
        )
        p_cluster = raw / a
        p_macro = coop_macro_joint_scalar(s, t) / (1.0 - a)
        assert_allclose(assoc_prob_sbs_cluster(s), a, atol=1e-9)
        assert_allclose(coverage_conditional(AssociationEvent.CLUSTER, s, t), p_cluster, atol=1e-6)
        assert_allclose(
            coverage_overall("cooperative", s, t), (1.0 - a) * p_macro + a * p_cluster, atol=1e-6
        )


class TestQuadratureWork:
    """Work per integral, counted rather than timed."""

    def test_cluster_coverage_kernel_rows(self, monkeypatch):
        # tanh-sinh's floor of 67 nodes per interval, nested, spent 34,068
        # kernel rows on this integral, and the adaptive cone ~8k; with the
        # scale t_K averaged in closed form, K=2 is one adaptive integral
        # over the shape z = t_1/t_2, 42 rows here
        s = default_scenario()
        a = assoc_prob_sbs_cluster(s)
        rows = []

        def counting(scenario, distances, threshold, rate=None, kernel=_cluster_kernel):
            rows.append(len(distances))
            return kernel(scenario, distances, threshold, rate)

        monkeypatch.setattr(analysis, "_cluster_kernel", counting)
        got = coverage_conditional(AssociationEvent.CLUSTER, s, 1.0)
        assert 0 < sum(rows) <= 100
        expected = cluster_integral_quad(
            s, h=lambda r: cluster_kernel_scalar(s, r, 1.0),
            epsabs=0.5 * s.numerics.coverage_epsabs, spike=1.0,  # T^(-2/alpha) at T = 1
        )
        assert_allclose(got, expected / a, atol=1e-6)

    def test_macro_cooperative_cone_rows(self, monkeypatch):
        # one round of 42 outer nodes, each inner level split where y_1 = 1
        # and at 10 and 100 times that z: 1,407 conditioned rows here
        s = default_scenario()
        rows = []

        def counting(scenario, threshold, cone_rows, weights=analysis._conditioned_weights):
            rows.append(len(cone_rows))
            return weights(scenario, threshold, cone_rows)

        monkeypatch.setattr(analysis, "_conditioned_weights", counting)
        got = _coop_macro_joint(s, 1.0)
        assert 0 < sum(rows) <= 2000
        assert_allclose(got, coop_macro_joint_scalar(s, 1.0), rtol=0.0, atol=1e-7)


class TestLargerClusters:
    """K > 2 through the same deterministic cone recursion as K <= 2."""

    def test_k3_values_do_not_depend_on_the_seed(self):
        values = []
        for seed in (0, 1):
            s = default_scenario(cluster_size=3, seed=seed)
            values.append((assoc_prob_sbs_cluster(s), coverage_overall("cooperative", s, 1.0)))
        assert values[0] == values[1]

    def test_siso_k3_matches_sampled_oracle(self):
        s = default_scenario(cluster_size=3)

        def kernel(r):
            return _cluster_kernel(s, r, 1.0)

        # coverage-level tolerance, spike at T^(-2/alpha) as coverage_conditional uses
        got = cluster_integral_cone(
            s, h=kernel, epsabs=0.5 * s.numerics.coverage_epsabs, spike=1.0
        )
        mean, stderr = cluster_integral_sampled(s, h=kernel, n=200_000)
        assert abs(got - mean) <= 4.0 * stderr

    def test_subf_k3_matches_monte_carlo(self):
        # K * fading order = 12, where merging near-equal gains broke down
        s = default_scenario("SUBF", cluster_size=3)
        got = coverage_overall("cooperative", s, 1.0)
        mc = coverage_from_batch(run_trials(s, "cooperative", 4000, master_seed=0), 1.0)
        assert abs(got - mc.value) <= 0.03 + 2.0 * mc.ci_halfwidth, (got, mc)

    def test_cooperative_coverage_is_a_decreasing_probability(self):
        s = default_scenario(cluster_size=3)
        vals = [coverage_overall("cooperative", s, t) for t in (0.1, 0.5, 1.0, 4.0, 20.0)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestCoverageOverall:
    def test_mixture_is_between_conditionals(self):
        s = default_scenario()
        for mode in ("noncooperative", "cooperative"):
            conds = [coverage_conditional(e, s, 1.0) for e in EVENTS_BY_MODE[mode]]
            overall = coverage_overall(mode, s, 1.0)
            assert min(conds) - 1e-9 <= overall <= max(conds) + 1e-9

    def test_decreasing_in_threshold(self):
        s = default_scenario()
        for mode in ("noncooperative", "cooperative"):
            vals = [coverage_overall(mode, s, t) for t in (0.25, 1.0, 4.0)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_density_scale_invariance(self):
        # zero noise: jointly scaling both densities rescales space only
        base = default_scenario()
        ref = {
            mode: coverage_overall(mode, base, 1.0)
            for mode in ("noncooperative", "cooperative")
        }
        for c in (0.25, 4.0):
            s = replace(
                base,
                macro=replace(base.macro, density=base.macro.density * c),
                small=replace(base.small, density=base.small.density * c),
            )
            for mode, expected in ref.items():
                assert_allclose(coverage_overall(mode, s, 1.0), expected, atol=1e-5)

    def test_cooperative_cone_integral_runs_once(self, monkeypatch):
        # coverage_overall and both cooperative conditionals need the cluster
        # association probability; its shape integral runs once for them
        real = association._shape_integral
        calls = []

        def counting(scenario, *args, **kwargs):
            calls.append(scenario)
            return real(scenario, *args, **kwargs)

        s = default_scenario()
        assoc_prob_sbs_cluster.cache_clear()
        monkeypatch.setattr(association, "_shape_integral", counting)
        try:
            coverage_overall("cooperative", s, 1.0)
        finally:
            assoc_prob_sbs_cluster.cache_clear()
        assert calls == [s]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("strategy", ["SISO", "SUBF", "SDMA"])
    def test_noise_continuity(self, strategy, k):
        # vanishing noise must give the interference-limited value, at every
        # cluster size: the noise enters only the scale average
        s0 = default_scenario(strategy, cluster_size=k)
        tiny = replace(s0, noise=1e-15)
        for mode in ("noncooperative", "cooperative"):
            assert_allclose(
                coverage_overall(mode, tiny, 1.0),
                coverage_overall(mode, s0, 1.0),
                atol=1e-6,
            )

    def test_noisy_cooperative_matches_monte_carlo(self):
        # +30 dBm moves the K=2 Monte Carlo value by far more than its
        # interval, so the check sees the noise term of the cooperative route
        s0 = default_scenario("SISO")
        loud = replace(s0, noise=LOUD_NOISE)
        quiet = coverage_from_batch(run_trials(s0, "cooperative", 4000, master_seed=0), 1.0)
        mc = coverage_from_batch(run_trials(loud, "cooperative", 4000, master_seed=0), 1.0)
        assert abs(mc.value - quiet.value) > 3.0 * mc.ci_halfwidth, (mc, quiet)
        got = coverage_overall("cooperative", loud, 1.0)
        assert abs(got - mc.value) <= 0.03 + 2.0 * mc.ci_halfwidth, (got, mc)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_noisy_cells_are_decreasing_probabilities(self, seed):
        s = random_scenario(
            np.random.default_rng(seed), cluster_sizes=(1, 2, 3),
            noise_choices=(0.0, 1e-15, LOUD_NOISE),
        )
        for mode in MODES:
            try:
                vals = [coverage_overall(mode, s, t) for t in (0.1, 1.0, 10.0)]
            except IntegrationFailure:
                continue
            assert all(0.0 <= v <= 1.0 for v in vals), (mode, vals)
            assert all(b <= a for a, b in zip(vals, vals[1:])), (mode, vals)


class TestMeanRate:
    def test_zero_coverage_gives_zero_rate(self):
        assert mean_rate("noncooperative", default_scenario(), coverage_fn=lambda t: 0.0) == 0.0

    def test_exponential_coverage_closed_form(self):
        # P[SINR > T] = e^-T  =>  E[ln(1+SINR)] = e * E1(1)
        expected = math.e * special.exp1(1.0) / math.log(2.0)
        got = mean_rate(
            "noncooperative", default_scenario(), coverage_fn=lambda t: math.exp(-t)
        )
        assert_allclose(got, expected, rtol=1e-6)

    def test_nondecaying_coverage_raises(self):
        with pytest.raises(IntegrationFailure):
            mean_rate("noncooperative", default_scenario(), coverage_fn=lambda t: 0.5)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            mean_rate("fullduplex", default_scenario())
