"""Cell selection, exclusion radii, association probabilities, and
serving-distance densities."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from helpers import random_scenario
from hetcov.association import (
    AssociationEvent,
    OrderedDistances,
    _cluster_integral,
    assoc_prob_sbs_cluster,
    assoc_prob_sbs_single,
    association_probabilities,
    exclusion_radius_mbs,
    mbs_win_prob,
    ordered_distance_pdf,
    select_tier,
    serving_distance_pdf,
)
from hetcov.model import Scenario, TierParams, default_scenario, hat_ratios

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

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_k1_unresolved_integrand_raises(self):
        # the K=1 quadrature's error estimate is checked, as K=2's is
        s = default_scenario(cluster_size=1)
        with pytest.raises(RuntimeError):
            _cluster_integral(s, h=lambda r: math.sin(1e6 * r[0]) ** 2)


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

    def test_k2_consistent_with_cluster_probability(self):
        # averaging the win probability over the nearest-macro distance must
        # reproduce the complement of the cluster association probability
        s = default_scenario()
        lam_m = s.macro.density

        def integrand(tau):
            r = math.sqrt(tau / (math.pi * lam_m))
            return math.exp(-tau) * mbs_win_prob(s, r)

        val, _ = integrate.quad(integrand, 0.0, 40.0, epsabs=1e-9, limit=300)
        assert abs(val - (1.0 - assoc_prob_sbs_cluster(s))) <= 2e-6

    def test_monotone_in_distance(self):
        s = default_scenario()
        grid = [mbs_win_prob(s, r) for r in (1.0, 3.0, 6.0, 12.0, 24.0)]
        assert all(b < a for a, b in zip(grid, grid[1:]))
        assert all(0.0 <= v <= 1.0 for v in grid)

    def test_domain(self):
        with pytest.raises(ValueError):
            mbs_win_prob(default_scenario(), 0.0)


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
