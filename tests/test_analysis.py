"""Interference Laplace transform, its derivatives, conditional/overall
coverage, and the mean-rate integral."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from helpers import (
    EVENTS_BY_MODE,
    bell_sum_by_partitions,
    log_laplace_derivative_quad,
    radial_tail_quad,
    random_laplace_context,
    random_scenario,
)
from hetcov.analysis import (
    CoverageQuery,
    IntegrationFailure,
    LaplaceContext,
    _bell_sum,
    _coop_macro_joint,
    _log_derivatives,
    _radial_tail_integral,
    _tail_weights,
    coverage,
    coverage_conditional,
    coverage_overall,
    laplace_context,
    laplace_derivative,
    laplace_interference,
    laplace_interference_radial,
    log_laplace_derivative,
    mean_rate,
    serving_context,
)
from hetcov.association import AssociationEvent, assoc_prob_sbs_cluster
from hetcov.model import Scenario, TierParams, default_scenario
from hetcov.specfun import MAX_PARTITION_ORDER, gamma_ccdf

BELL_NUMBERS = [1, 1, 2, 5, 15, 52, 203, 877]


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
        # _log_derivatives holds s^j g^(j) for every order at once; each entry
        # must equal the single-order function, and that the quadrature form
        rng = np.random.default_rng(14)
        for noise in (0.0, 1e-3):
            for _ in range(10):
                ctx = random_laplace_context(
                    rng, random_scenario(rng, noise_choices=(noise,))
                )
                nmax = int(rng.integers(1, 9))
                scaled = _log_derivatives(ctx, nmax)
                for j in range(1, nmax + 1):
                    single = log_laplace_derivative(ctx, j)
                    assert_allclose(scaled[j - 1] / ctx.s**j, single, rtol=1e-14)
                    assert_allclose(single, log_laplace_derivative_quad(ctx, j), rtol=1e-8)


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
                vals = _radial_tail_integral(v0, psi, MAX_PARTITION_ORDER, alpha)
                assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)


class TestBellAssembly:
    def test_identity_argument(self):
        # B_k(1, 0, 0, ...) = 1 for every k
        for k in range(7):
            assert _bell_sum([1.0] + [0.0] * max(0, k - 1), k) == pytest.approx(1.0)

    def test_all_ones_gives_bell_numbers(self):
        for k, expected in enumerate(BELL_NUMBERS):
            assert _bell_sum([1.0] * max(1, k), k) == pytest.approx(expected)

    def test_table_matches_partition_loop(self):
        rng = np.random.default_rng(16)
        for k in range(MAX_PARTITION_ORDER + 1):
            for _ in range(3):
                g = rng.normal(scale=2.0, size=max(1, k)).tolist()
                assert _bell_sum(g, k) == bell_sum_by_partitions(g, k)


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
        # K=1 has an exact single-exclusion formulation; the scaled-cone
        # route must agree with it
        s = default_scenario(cluster_size=1)
        norm = 1.0 - assoc_prob_sbs_cluster(s)
        for t in (0.3, 1.0, 5.0):
            via_cone = _coop_macro_joint(s, t) / norm
            via_exclusion = coverage_conditional(AssociationEvent.MACRO_COOP, s, t)
            assert_allclose(via_cone, via_exclusion, atol=5e-6)

    def test_requires_zero_noise_and_positive_threshold(self):
        s = default_scenario()
        with pytest.raises(ValueError):
            _coop_macro_joint(replace(s, noise=1e-9), 1.0)
        with pytest.raises(ValueError):
            _coop_macro_joint(s, 0.0)


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

    def test_noise_continuity_single_competitor(self):
        s0 = default_scenario(cluster_size=1)
        tiny = replace(s0, noise=1e-15)
        for mode in ("noncooperative", "cooperative"):
            assert_allclose(
                coverage_overall(mode, tiny, 1.0),
                coverage_overall(mode, s0, 1.0),
                atol=1e-6,
            )

    def test_query_dispatch(self):
        s = default_scenario()
        q_all = CoverageQuery(threshold=1.0, mode="noncooperative")
        assert coverage(q_all, s) == pytest.approx(
            coverage_overall("noncooperative", s, 1.0), abs=1e-12
        )
        q_one = CoverageQuery(
            threshold=1.0, mode="noncooperative", event=AssociationEvent.MACRO
        )
        assert coverage(q_one, s) == pytest.approx(
            coverage_conditional(AssociationEvent.MACRO, s, 1.0), abs=1e-12
        )

    def test_query_validation(self):
        with pytest.raises(ValueError):
            CoverageQuery(threshold=-1.0, mode="noncooperative")
        with pytest.raises(ValueError):
            CoverageQuery(threshold=1.0, mode="sometimes")
        with pytest.raises(ValueError):
            CoverageQuery(
                threshold=1.0, mode="noncooperative", event=AssociationEvent.CLUSTER
            )


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
