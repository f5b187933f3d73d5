"""Cell selection, exclusion radii, association probabilities, and
serving-distance densities."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, special

from helpers import cluster_integral_cone, mbs_win_prob_quad, random_scenario
from hetcov import association, quadrature
from hetcov.association import (
    AssociationEvent,
    IntegrationFailure,
    OrderedDistances,
    _small_side_wins,
    assoc_prob_sbs_cluster,
    assoc_prob_sbs_single,
    association_probabilities,
    exclusion_radius_mbs,
    mbs_win_prob,
    ordered_distance_pdf,
    select_tier,
    serving_distance_pdf,
)
from hetcov.model import MODES, NONCOOPERATIVE, Scenario, TierParams, default_scenario, hat_ratios
from hetcov.quadrature import _cone_integral, _gauss_kronrod, _panel_edges

# Reference-scenario association probabilities, frozen from the closed form
# 1/(1 + advantage^(2/alpha)/density_ratio) and from two independent
# evaluations of the cluster cone integral (they agree to 6e-11).
A_SMALL_SINGLE = 0.4628778430699444
A_SMALL_CLUSTER_K2 = 0.5208549511288645


def symmetric_scenario(**kwargs) -> Scenario:
    t = TierParams(density=0.02, power=2.0, antennas=1, users=1)
    return Scenario(macro=t, small=t, **kwargs)


class TestSelectTier:
    def test_nearer_wins_under_equal_bias(self):
        s = symmetric_scenario()
        assert select_tier(s, "noncooperative", 100.0, (50.0,)) is AssociationEvent.SMALL
        assert select_tier(s, "noncooperative", 50.0, (100.0,)) is AssociationEvent.MACRO

    def test_cluster_sum_beats_stronger_macro(self):
        # power ratio 0.1, alpha 3: 200^-3 = 1.25e-7 on the macro side vs
        # 0.1*(100^-3 + 120^-3) = 1.579e-7 summed over the pair
        s = Scenario(
            macro=TierParams(density=0.01, power=10.0, antennas=1, users=1),
            small=TierParams(density=0.04, power=1.0, antennas=1, users=1),
            cluster_size=2,
        )
        assert select_tier(s, "cooperative", 200.0, (100.0, 120.0)) is AssociationEvent.CLUSTER
        # the nearest small cell alone would lose the same comparison
        assert select_tier(s, "noncooperative", 200.0, (100.0, 120.0)) is AssociationEvent.MACRO

    def test_tie_goes_to_macro(self):
        s = symmetric_scenario()
        assert select_tier(s, "noncooperative", 80.0, (80.0,)) is AssociationEvent.MACRO
        s2 = symmetric_scenario(cluster_size=1)
        assert select_tier(s2, "cooperative", 80.0, (80.0,)) is AssociationEvent.MACRO_COOP

    def test_invariant_under_joint_power_scaling(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = random_scenario(rng)
            mode = "cooperative" if rng.random() < 0.5 else "noncooperative"
            r_m = float(rng.uniform(5.0, 300.0))
            r_s = np.sort(rng.uniform(2.0, 300.0, size=s.cluster_size))
            scaled = replace(
                s,
                macro=replace(s.macro, power=s.macro.power * 37.0),
                small=replace(s.small, power=s.small.power * 37.0),
            )
            assert select_tier(s, mode, r_m, r_s) is select_tier(scaled, mode, r_m, r_s)

    def test_input_validation(self):
        s = symmetric_scenario(cluster_size=2)
        with pytest.raises(ValueError):
            select_tier(s, "duplex", 10.0, (5.0,))
        with pytest.raises(ValueError):
            select_tier(s, "noncooperative", 0.0, (5.0,))
        with pytest.raises(ValueError):
            select_tier(s, "cooperative", 10.0, (5.0,))  # needs 2 distances
        with pytest.raises(ValueError):
            OrderedDistances((3.0, 2.0))
        with pytest.raises(ValueError):
            OrderedDistances((0.0, 2.0))


class TestVectorizedSelection:
    """_small_side_wins is select_tier's rule over rows of path gains, the
    one rule that the MC trials and the distance sampler both apply."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_select_tier(self, mode, k):
        # 10^4 geometries: 100 in each of 100 random scenarios
        rng = np.random.default_rng(60 + 10 * k + MODES.index(mode))
        small_event = AssociationEvent.SMALL if mode == NONCOOPERATIVE else AssociationEvent.CLUSTER
        wins_seen = 0
        for _ in range(100):
            s = random_scenario(rng, cluster_sizes=(k,))
            alpha = s.pathloss
            r_m = rng.uniform(5.0, 300.0, size=100)
            r_s = np.sort(rng.uniform(2.0, 300.0, size=(100, k)), axis=1)
            wins = _small_side_wins(s, mode, r_m ** (-alpha), r_s ** (-alpha))
            expected = [select_tier(s, mode, float(a), b) is small_event for a, b in zip(r_m, r_s)]
            assert wins.tolist() == expected
            wins_seen += int(wins.sum())
        # both sides win often, so the agreement is not vacuous
        assert 1000 < wins_seen < 9000

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_ties_go_macro(self, mode, k):
        # alpha 4 and distances of 2 m make every gain 2^-4 exactly; unit
        # small power against a macro power of 1 (nearest small BS) or k (the
        # cluster) ties the biased powers exactly
        def tier(power, density):
            return TierParams(
                density=density, power=power, antennas=1, users=1, pathloss=4.0, bias=1.0
            )

        s = Scenario(
            macro=tier(1.0 if mode == NONCOOPERATIVE else float(k), 0.01),
            small=tier(1.0, 0.04),
            cluster_size=k,
        )
        r_s = np.full(k, 2.0)
        assert select_tier(s, mode, 2.0, r_s).macro_serving
        assert not _small_side_wins(s, mode, np.array([2.0**-4]), (r_s**-4.0)[None, :])[0]
        # the small side one ulp nearer wins under both
        r_s[0] = np.nextafter(2.0, 0.0)
        assert not select_tier(s, mode, 2.0, r_s).macro_serving
        assert _small_side_wins(s, mode, np.array([2.0**-4]), (r_s**-4.0)[None, :])[0]


class TestExclusionRadius:
    def test_symmetric_single(self):
        s = symmetric_scenario()
        assert_allclose(exclusion_radius_mbs(s, (100.0,)), 100.0, rtol=1e-12)

    def test_gain_ratio_eight(self):
        # small side 8x stronger per unit distance: macro must be inside half
        s = Scenario(
            macro=TierParams(density=0.01, power=1.0, antennas=1, users=1),
            small=TierParams(density=0.04, power=8.0, antennas=1, users=1),
        )
        assert_allclose(exclusion_radius_mbs(s, (100.0,)), 50.0, rtol=1e-12)

    def test_degenerate_equal_pair(self):
        s = symmetric_scenario(cluster_size=2)
        expected = (2.0e-6) ** (-1.0 / 3.0)  # = 79.370052...
        assert_allclose(exclusion_radius_mbs(s, (100.0, 100.0)), expected, rtol=1e-12)
        assert_allclose(expected, 79.37005259840998, rtol=1e-12)

    def test_consistent_with_select_tier(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_scenario(rng)
            r_s = np.sort(rng.uniform(2.0, 200.0, size=s.cluster_size))
            d = exclusion_radius_mbs(s, r_s)
            assert (
                select_tier(s, "cooperative", d * 1.001, r_s) is AssociationEvent.CLUSTER
            )
            assert (
                select_tier(s, "cooperative", d * 0.999, r_s)
                is AssociationEvent.MACRO_COOP
            )


class TestSingleAssociation:
    def test_symmetric_half(self):
        assert_allclose(assoc_prob_sbs_single(symmetric_scenario()), 0.5, rtol=1e-12)

    def test_density_four_to_one(self):
        s = Scenario(
            macro=TierParams(density=0.01, power=1.0, antennas=1, users=1),
            small=TierParams(density=0.04, power=1.0, antennas=1, users=1),
        )
        assert_allclose(assoc_prob_sbs_single(s), 0.8, rtol=1e-12)

    def test_reference_value(self):
        s = default_scenario()
        assert_allclose(assoc_prob_sbs_single(s), A_SMALL_SINGLE, rtol=1e-12)
        # cross-check against the defining expression
        h = hat_ratios(s)
        direct = 1.0 / (1.0 + h.macro_advantage ** (2.0 / 3.0) / h.density)
        assert_allclose(assoc_prob_sbs_single(s), direct, rtol=1e-14)

    def test_monotone_in_density_and_gain(self):
        base = default_scenario()
        probs = [
            assoc_prob_sbs_single(
                replace(base, small=replace(base.small, density=d))
            )
            for d in (0.01, 0.02, 0.04, 0.08, 0.16)
        ]
        assert all(b > a for a, b in zip(probs, probs[1:]))
        probs = [
            assoc_prob_sbs_single(replace(base, small=replace(base.small, power=p)))
            for p in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b > a for a, b in zip(probs, probs[1:]))


class TestOrderedDistancePdf:
    def test_nearest_neighbor_reduction(self):
        s = default_scenario()
        lam = s.small.density
        for r in (1.0, 3.0, 7.0):
            expected = 2.0 * math.pi * lam * r * math.exp(-lam * math.pi * r * r)
            assert_allclose(ordered_distance_pdf(s, (r,)), expected, rtol=1e-12)

    def test_unit_plugin(self):
        s = replace(
            default_scenario(),
            small=replace(default_scenario().small, density=1.0 / math.pi),
        )
        assert_allclose(ordered_distance_pdf(s, (1.0,)), 2.0 / math.e, rtol=1e-12)

    def test_off_cone_is_zero(self):
        s = default_scenario()
        assert ordered_distance_pdf(s, (5.0, 3.0)) == 0.0
        assert ordered_distance_pdf(s, (-1.0,)) == 0.0

    def test_k1_normalization(self):
        s = default_scenario()
        val, _ = integrate.quad(lambda r: ordered_distance_pdf(s, (r,)), 0.0, 60.0)
        assert abs(val - 1.0) <= 1e-6

    def test_k2_normalization(self):
        s = default_scenario()
        val, _ = integrate.dblquad(
            lambda r1, r2: ordered_distance_pdf(s, (r1, r2)),
            0.0, 40.0, 0.0, lambda r2: r2, epsabs=1e-6,
        )
        assert abs(val - 1.0) <= 1e-4


class TestClusterAssociation:
    def test_symmetric_single_is_half(self):
        s = symmetric_scenario(cluster_size=1)
        assert abs(assoc_prob_sbs_cluster(s) - 0.5) <= 1e-6

    def test_k1_matches_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = random_scenario(rng, cluster_sizes=(1,))
            assert abs(assoc_prob_sbs_cluster(s) - assoc_prob_sbs_single(s)) <= 1e-4

    def test_reference_k2_value(self):
        assert_allclose(
            assoc_prob_sbs_cluster(default_scenario()), A_SMALL_CLUSTER_K2, rtol=1e-8
        )

    def test_cluster_grows_attachment(self):
        k1 = assoc_prob_sbs_cluster(default_scenario(cluster_size=1))
        k2 = assoc_prob_sbs_cluster(default_scenario(cluster_size=2))
        assert k2 > k1 + 0.01

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            s = random_scenario(rng)
            for mode in ("noncooperative", "cooperative"):
                probs = association_probabilities(s, mode)
                assert_allclose(sum(probs.values()), 1.0, rtol=1e-10)
                assert all(0.0 < p < 1.0 for p in probs.values())

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            association_probabilities(default_scenario(), "both")

    def test_k1_unresolved_integrand_raises(self):
        # the one-level cone rule's error estimate is checked, as deeper ones are
        with pytest.raises(IntegrationFailure):
            _cone_integral(
                1, lambda t, key: np.sin(1e6 * t[:, 0]) ** 2, 30.0, 1e-10, "unresolved"
            )

    def test_shape_integral_matches_full_cone(self):
        # integrating the scale t_K out in closed form leaves the shape only;
        # the full-cone oracle cuts t_K, so it may sit below by its tail mass
        rng = np.random.default_rng(123)
        cells = [default_scenario(cluster_size=k) for k in (1, 2, 3)]
        cells += [random_scenario(rng, cluster_sizes=(1, 2, 3)) for _ in range(8)]
        for s in cells:
            diff = assoc_prob_sbs_cluster(s) - cluster_integral_cone(s)
            assert -1e-9 <= diff <= 1e-8, (s.cluster_size, diff)


class TestGaussKronrod:
    """The adaptive G10/K21 integrator behind every coverage and cone integral."""

    def test_exact_on_polynomials_on_one_piece(self):
        # K21 integrates degree 3*10 + 1 = 31 exactly; one round, no bisection
        degrees = np.arange(32.0)
        calls = []

        def monomials(x, d):
            calls.append(x.shape)
            return x ** d

        val, err = _gauss_kronrod(monomials, -1.0, 2.0, np.inf, "poly", args=(degrees,))
        exact = (2.0 ** (degrees + 1) - (-1.0) ** (degrees + 1)) / (degrees + 1)
        assert calls == [(32, 21)]
        assert_allclose(val, exact, rtol=1e-13)

    @pytest.mark.parametrize("epsabs", [1e-6, 1e-8])
    @pytest.mark.parametrize(
        "f, exact", [(np.sqrt, 2.0 / 3.0), (lambda x: x ** -0.5, 2.0)], ids=["sqrt", "rsqrt"]
    )
    def test_endpoint_singularities_converge(self, f, exact, epsabs):
        val, err = _gauss_kronrod(f, 0.0, 1.0, epsabs, "singular")
        true_err = abs(float(val) - exact)
        assert true_err <= epsabs
        assert err >= true_err

    def test_interval_array_with_broadcast_args(self):
        # (n, 3) intervals, one decay rate per row: each matches its own call
        rng = np.random.default_rng(9)
        edges = np.sort(rng.uniform(0.0, 5.0, size=(6, 4)), axis=1)
        lo, hi = edges[:, :-1], edges[:, 1:]
        rate = rng.uniform(0.5, 20.0, size=(6, 1))

        def f(x, c):
            return np.exp(-c * x) * np.cos(3.0 * x)

        val, err = _gauss_kronrod(f, lo, hi, 1e-9, "batch", args=(rate,))
        assert val.shape == err.shape == (6, 3)
        for i, j in np.ndindex(lo.shape):
            one, one_err = _gauss_kronrod(f, lo[i, j], hi[i, j], 1e-9, "one", args=(rate[i, 0],))
            assert_allclose(val[i, j], one, rtol=1e-14, atol=1e-16)
            assert_allclose(err[i, j], one_err, rtol=1e-12, atol=1e-18)

        def antiderivative(x, c=rate):
            return np.exp(-c * x) * (3.0 * np.sin(3.0 * x) - c * np.cos(3.0 * x)) / (c * c + 9.0)

        assert_allclose(val, antiderivative(hi) - antiderivative(lo), rtol=0, atol=1e-9)

    def test_non_finite_value_raises(self):
        with pytest.raises(IntegrationFailure, match="non-finite"):
            _gauss_kronrod(lambda x: np.where(x > 0.7, np.nan, x), 0.0, 1.0, 1e-6, "nan")

    def test_piece_budget_raises_at_once(self):
        start = time.perf_counter()
        with pytest.raises(IntegrationFailure, match="pieces"):
            _gauss_kronrod(lambda x: np.sin(1e6 * x) ** 2, 0.0, 1.0, 1e-6, "budget")
        assert time.perf_counter() - start < 1.0


class TestConeIntegral:
    """E[f] over the first k arrival times of a unit-rate Poisson process."""

    @pytest.mark.parametrize("spike", [None, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_poisson_arrival_moments(self, k, spike):
        upper, epsabs = 40.0, 1e-10
        # every f below is at most t_k, whose mass beyond upper is k*Q(k+1, upper)
        tail = k * special.gammaincc(k + 1, upper)
        cases = [
            (lambda t, key: np.ones(len(t)), 1.0),
            (lambda t, key: np.exp(-2.5 * t[:, 0]), 1.0 / 3.5),
        ]
        cases += [(lambda t, key, i=i: t[:, i - 1], float(i)) for i in range(1, k + 1)]
        for f, exact in cases:
            val, err = _cone_integral(k, f, upper, epsabs, "moment", spike)
            assert abs(val - exact) <= tail + epsabs
            assert err <= 100.0 * epsabs

    def test_entries_keep_their_own_pieces_and_errors(self):
        # two entries integrated together give what each gives alone; the
        # rough entry's inner levels err about 1.4 times as much as the
        # smooth one's, so a maximum shared across entries would show
        def f(t, key):
            return np.where(key == 0, np.exp(-2.5 * t[:, 0]), np.sin(20.0 * t[:, 0]) ** 2)

        upper, spike = np.array([40.0, 30.0]), np.array([0.5, 3.0])
        val, err = _cone_integral(2, f, upper, 1e-10, "entries", spike)
        for e in (0, 1):
            one_val, one_err = _cone_integral(
                2, lambda t, key: f(t, np.full(len(t), e)), upper[e], 1e-10, "one", spike[e]
            )
            assert_allclose(val[e], one_val, rtol=1e-14, atol=0.0)
            assert_allclose(err[e], one_err, rtol=1e-12, atol=0.0)

    def test_panel_edges_pad_with_empty_panels(self):
        # hints past upper move to upper: every row keeps its own panels,
        # and the empty ones pad the rows to one width
        edges = _panel_edges(np.array([1.0, 1.0, 50.0]), np.array([0.05, 2.0, 0.05]))
        assert_allclose(edges, [
            [0.0, 0.005, 0.05, 0.5, 1.0, 1.0],
            [0.0, 0.2, 1.0, 1.0, 1.0, 1.0],
            [0.0, 0.005, 0.05, 0.5, 5.0, 50.0],
        ])
        assert _panel_edges(3.0, None).tolist() == [0.0, 3.0]


class TestMbsWinProb:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = random_scenario(rng, cluster_sizes=(1,))
            beta = hat_ratios(s).macro_advantage
            alpha = s.pathloss
            r = float(rng.uniform(1.0, 50.0))
            expected = math.exp(
                -s.small.density * math.pi * beta ** (-2.0 / alpha) * r * r
            )
            assert_allclose(mbs_win_prob(s, r), expected, rtol=1e-10)

    @pytest.mark.parametrize("k", [2, 3])
    def test_consistent_with_cluster_probability(self, k):
        # averaging the win probability over the nearest-macro distance must
        # reproduce the complement of the cluster association probability,
        # two independent deterministic paths; u = sqrt(tau) = sqrt(pi*lam_m)*r
        s = default_scenario(cluster_size=k)
        lam_m = s.macro.density

        def integrand(u):
            return 2.0 * u * math.exp(-u * u) * mbs_win_prob(s, u / math.sqrt(math.pi * lam_m))

        val, _ = integrate.quad(integrand, 0.0, math.sqrt(40.0), epsabs=1e-8, limit=200)
        assert abs(val - (1.0 - assoc_prob_sbs_cluster(s))) <= 2e-6

    def test_monotone_in_distance(self):
        s = default_scenario()
        grid = [mbs_win_prob(s, r) for r in (1.0, 3.0, 6.0, 12.0, 24.0)]
        assert all(b < a for a, b in zip(grid, grid[1:]))
        assert all(0.0 <= v <= 1.0 for v in grid)
        # a farther macro BS, or one more small BS in the cluster sum, can
        # only hurt the macro side; K + 1 may exceed K by two gates of 1e-8
        rng = np.random.default_rng(31)
        radii = (0.3, 1.0, 3.0, 6.0, 12.0, 24.0)
        for _ in range(10):
            s = random_scenario(rng)
            grids = [
                [mbs_win_prob(replace(s, cluster_size=k), r) for r in radii] for k in (1, 2, 3)
            ]
            for k, grid in enumerate(grids, start=1):
                assert all(0.0 <= v <= 1.0 for v in grid), (k, grid)
                assert all(b <= a for a, b in zip(grid, grid[1:])), (k, grid)
            for fewer, more in zip(grids, grids[1:]):
                assert all(m <= f + 2e-8 for f, m in zip(fewer, more)), (fewer, more)

    @pytest.mark.parametrize("strategy", ["SISO", "SUBF", "SDMA"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_nested_quadrature(self, k, strategy):
        # the Gamma-tail shape integral against QUADPACK over the ordered
        # shape; at r = 0.01 m the tail falls from (K-1)! only near z_1 = 0
        s = default_scenario(strategy, cluster_size=k)
        for r in (0.01, 0.3, 1.0, 3.0, 6.0, 12.0, 24.0):
            assert abs(mbs_win_prob(s, r) - mbs_win_prob_quad(s, r)) <= 1e-10, r

    def test_domain(self):
        with pytest.raises(ValueError):
            mbs_win_prob(default_scenario(), 0.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_tail_vanishes_where_nearest_shape_underflows(self, k, monkeypatch):
        # z_1 = 0 or 1e-300 sends x to inf: the tail must be 0, not NaN,
        # and RuntimeWarnings are errors under the test settings
        rows = np.array([[0.0] * (k - 1) + [1.0], [1e-300] + [0.5] * (k - 2) + [1.0]])
        monkeypatch.setattr(
            association, "_shape_integral", lambda scenario, f, *args: f(rows, None, None)
        )
        assert mbs_win_prob(default_scenario(cluster_size=k), 1.0).tolist() == [0.0, 0.0]

    def test_k2_quadrature_error_is_gated(self, monkeypatch):
        # an error estimate past the cone-integral gate raises, as there
        real = quadrature._gauss_kronrod

        def unconverged(*args, **kwargs):
            val, err = real(*args, **kwargs)
            return val, err + 1e-3

        monkeypatch.setattr(quadrature, "_gauss_kronrod", unconverged)
        with pytest.raises(IntegrationFailure, match="macro win probability"):
            mbs_win_prob(default_scenario(), 5.0)


class TestServingDistancePdfs:
    @pytest.mark.parametrize(
        "event",
        [AssociationEvent.MACRO, AssociationEvent.SMALL, AssociationEvent.MACRO_COOP],
    )
    def test_single_distance_normalization(self, event):
        s = default_scenario()
        pdf = serving_distance_pdf(event, s)
        val, _ = integrate.quad(pdf, 0.0, 80.0, epsabs=1e-9, limit=300)
        assert abs(val - 1.0) <= 1e-6

    def test_cluster_normalization_k2(self):
        s = default_scenario()
        pdf = serving_distance_pdf(AssociationEvent.CLUSTER, s)
        val, _ = integrate.dblquad(
            lambda r1, r2: pdf((r1, r2)), 0.0, 40.0, 0.0, lambda r2: r2, epsabs=1e-6
        )
        assert abs(val - 1.0) <= 1e-4

    def test_symmetric_small_reduction(self):
        # equal tiers: serving-small density is 4*pi*lam*r*exp(-2*pi*lam*r^2)
        s = symmetric_scenario()
        lam = s.small.density
        pdf = serving_distance_pdf(AssociationEvent.SMALL, s)
        for r in (1.0, 4.0, 9.0):
            expected = 4.0 * math.pi * lam * r * math.exp(-2.0 * math.pi * lam * r * r)
            assert_allclose(pdf(r), expected, rtol=1e-10)

    def test_zero_below_origin(self):
        s = default_scenario()
        for event in (
            AssociationEvent.MACRO,
            AssociationEvent.SMALL,
            AssociationEvent.MACRO_COOP,
        ):
            assert serving_distance_pdf(event, s)(-1.0) == 0.0
        assert serving_distance_pdf(AssociationEvent.CLUSTER, s)((3.0, 2.0)) == 0.0

    def test_cluster_pdf_arity_checked(self):
        s = default_scenario()
        pdf = serving_distance_pdf(AssociationEvent.CLUSTER, s)
        with pytest.raises(ValueError):
            pdf((1.0,))
