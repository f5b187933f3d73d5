"""Monte Carlo engine: arrival-time geometry and its point budget, the tail
interference beyond the last arrivals, single-trial SINR arithmetic, batch
statistics, and determinism."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from helpers import gamma_ccdf
from hetcov import mcsim
from hetcov.association import AssociationEvent, assoc_prob_sbs_single
from hetcov.mcsim import (
    EVENT_CODES,
    NetworkRealization,
    TrialBatch,
    association_from_batch,
    coverage_from_batch,
    empirical_association,
    point_counts,
    rate_from_batch,
    run_modes,
    run_trials,
    sample_network,
    simulate_trial,
    tail_interference,
)
from hetcov.model import MODES, Scenario, TierParams, default_scenario


def siso_scenario(p_macro=1.0, p_small=0.1, cluster_size=1, noise=0.0) -> Scenario:
    return Scenario(
        macro=TierParams(density=0.01, power=p_macro, antennas=1, users=1),
        small=TierParams(density=0.04, power=p_small, antennas=1, users=1),
        cluster_size=cluster_size,
        noise=noise,
    )


def disk_tail(s: Scenario, macro_last: float, small_last: float) -> float:
    """2*pi*lambda*p*psi*R^(2-alpha)/(alpha-2), summed over both tiers."""
    alpha = s.pathloss
    total = 0.0
    for tier, radius in ((s.macro, macro_last), (s.small, small_last)):
        total += 2.0 * math.pi * tier.density * tier.power * tier.users * radius ** (2.0 - alpha)
    return total / (alpha - 2.0)


def small_budget(monkeypatch, target_small: float, min_expected: float = 1.0) -> None:
    """Shrink the per-trial point budget so geometry tests run many trials."""
    monkeypatch.setattr(mcsim, "TARGET_SMALL", target_small)
    monkeypatch.setattr(mcsim, "MIN_EXPECTED", min_expected)


class GammaQueue:
    """Drop-in for sample_gamma that replays scripted values and records the
    (shape, size) of every draw, pinning the draw-order contract."""

    def __init__(self, values, calls=None):
        self.values = [np.asarray(v, dtype=float) for v in values]
        self.calls = [] if calls is None else calls

    def __call__(self, shape, rng, size=None):
        self.calls.append((shape, size))
        out = self.values.pop(0)
        assert size == len(out), f"expected draw of size {size}, scripted {len(out)}"
        return out


class ExpStub:
    """Generator stand-in that logs the size of every exponential draw and
    answers it with ``value`` (a real draw when None); Gamma draws are real."""

    def __init__(self, value=None, log=None):
        self.rng = np.random.default_rng(0)
        self.value = value
        self.log = [] if log is None else log

    def standard_exponential(self, size):
        self.log.append(("exp", size))
        if self.value is None:
            return self.rng.standard_exponential(size)
        return np.full(size, self.value)

    def standard_gamma(self, shape, size=None):
        return self.rng.standard_gamma(shape, size)


class TestWindows:
    """The simulated window is the disk holding a trial's arrivals; the point
    budget sets its mean area A, and so the count of BSs drawn per tier."""

    def test_default_window_targets_small_tier_count(self):
        assert point_counts(default_scenario()) == (1250, 5000)

    def test_default_window_floors_macro_count(self):
        s = Scenario(
            macro=TierParams(density=1e-5, power=1.0, antennas=1, users=1),
            small=TierParams(density=0.04, power=1.0, antennas=1, users=1),
        )
        n_macro, n_small = point_counts(s)
        assert n_macro == 200
        assert abs(n_small - 800_000) <= 1

    def test_small_count_covers_the_cluster(self, monkeypatch):
        small_budget(monkeypatch, 1.0)
        s = siso_scenario(cluster_size=8)
        assert point_counts(s) == (1, 8)
        net = sample_network(s, np.random.default_rng(0))
        assert len(net.small) == 8


class TestFarField:
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 3.7])
    def test_matches_polar_oracle(self, alpha):
        # radial integral of the mean tier power beyond each tier's last BS
        def beyond(tier, radius):
            val, _ = integrate.quad(
                lambda r: r ** (1.0 - alpha), radius, np.inf, epsabs=0.0, epsrel=1e-12
            )
            return 2.0 * math.pi * tier.density * tier.power * tier.users * val

        s = Scenario(
            macro=TierParams(density=0.01, power=2.0, antennas=2, users=2, pathloss=alpha),
            small=TierParams(density=0.04, power=0.5, antennas=4, users=3, pathloss=alpha),
        )
        net = NetworkRealization(macro=np.array([20.0, 137.0]), small=np.array([5.0, 61.0]))
        expected = beyond(s.macro, 137.0) + beyond(s.small, 61.0)
        assert_allclose(tail_interference(s, net), expected, rtol=1e-9)

    def test_decays_with_window_size(self):
        s = default_scenario()
        near = NetworkRealization(macro=np.array([100.0]), small=np.array([100.0]))
        far = NetworkRealization(macro=np.array([200.0]), small=np.array([200.0]))
        assert tail_interference(s, far) < tail_interference(s, near)


class TestPointProcess:
    def test_poisson_count_mean(self, monkeypatch):
        # the arrivals inside a fixed disk of mean count 100 are Poisson(100)
        small_budget(monkeypatch, 400.0)
        s = siso_scenario()
        rho = math.sqrt(100.0 / (math.pi * s.small.density))
        rng = np.random.default_rng(21)
        counts = np.array(
            [np.count_nonzero(sample_network(s, rng).small <= rho) for _ in range(5000)]
        )
        assert abs(counts.mean() - 100.0) < 1.0
        assert abs(counts.var() - 100.0) < 10.0

    def test_deterministic_for_fixed_stream(self):
        s = default_scenario()
        a = sample_network(s, np.random.Generator(np.random.Philox(key=9)))
        b = sample_network(s, np.random.Generator(np.random.Philox(key=9)))
        assert np.array_equal(a.macro, b.macro)
        assert np.array_equal(a.small, b.small)

    def test_sample_network_sorted_and_positive(self):
        net = sample_network(default_scenario(), np.random.default_rng(5))
        assert (len(net.macro), len(net.small)) == point_counts(default_scenario())
        for tier in (net.macro, net.small):
            assert tier[0] > 0.0
            assert np.all(np.diff(tier) >= 0.0)

    def test_nearest_small_distance_distribution(self, monkeypatch):
        # KS test of the nearest small-BS distance against 1 - exp(-lam*pi*r^2)
        small_budget(monkeypatch, 20.0)
        s = default_scenario(cluster_size=1)
        rng = np.random.default_rng(22)
        nearest = np.array([sample_network(s, rng).small[0] for _ in range(20_000)])
        lam = s.small.density
        ks = stats.kstest(nearest, lambda r: 1.0 - np.exp(-lam * math.pi * r**2))
        assert ks.pvalue > 0.01

    @pytest.mark.parametrize("k", [2, 3])
    def test_kth_small_distance_distribution(self, monkeypatch, k):
        # pi*lambda*r_k^2 of the k-th nearest small BS is Gamma(k, 1)
        small_budget(monkeypatch, 20.0)
        s = default_scenario(cluster_size=k)
        rng = np.random.default_rng(23 + k)
        kth = np.array([sample_network(s, rng).small[k - 1] for _ in range(20_000)])
        ks = stats.kstest(math.pi * s.small.density * kth**2, stats.gamma(a=k).cdf)
        assert ks.pvalue > 0.01

    def test_zero_arrival_never_reaches_select_tier(self, monkeypatch):
        # every exponential draw exactly 0: all BSs would sit on the user
        seen = []

        def spy(scenario, mode, mbs_distance, sbs_distances):
            seen.append((mbs_distance, np.asarray(sbs_distances)))
            return real(scenario, mode, mbs_distance, sbs_distances)

        real = mcsim.select_tier
        monkeypatch.setattr(mcsim, "select_tier", spy)
        s = default_scenario()
        for mode in ("noncooperative", "cooperative"):
            out = simulate_trial(s, mode, ExpStub(value=0.0))
            assert math.isfinite(out.sinr) and out.sinr > 0.0
        assert len(seen) == 2
        for mbs, sbs in seen:
            assert mbs > 0.0 and np.all(sbs > 0.0)


class TestSingleTrial:
    def test_macro_served_sinr_arithmetic(self, monkeypatch):
        # one macro at 100 m (h=2) over one small interferer at 200 m (g=1),
        # plus the mean of both tiers beyond those last BSs
        queue = GammaQueue([[2.0], [7.0], [9.0], [1.0]])
        monkeypatch.setattr(mcsim, "sample_gamma", queue)
        s = siso_scenario()
        net = NetworkRealization(macro=np.array([100.0]), small=np.array([200.0]))
        out = simulate_trial(s, "noncooperative", np.random.default_rng(0), net=net)
        assert out.event is AssociationEvent.MACRO
        assert out.serving_distances == (100.0,)
        expected = (1.0 * 2.0 * 100.0**-3) / (0.1 * 1.0 * 200.0**-3 + disk_tail(s, 100.0, 200.0))
        assert_allclose(out.sinr, expected, rtol=1e-12)
        # draw-order contract: desired macro, desired small, interferers
        assert queue.calls == [(1, 1), (1, 1), (1, 1), (1, 1)]

    @pytest.mark.parametrize("mode", ["noncooperative", "cooperative"])
    def test_draw_order(self, monkeypatch, mode):
        # macro arrivals, small arrivals, serving fading (macro, then the
        # cluster), interferer fading (macro, then small), in either mode
        small_budget(monkeypatch, 8.0, 2.0)
        log = []
        queue = GammaQueue([[1.0], [1.0, 1.0], [1.0] * 2, [1.0] * 8], calls=log)
        monkeypatch.setattr(mcsim, "sample_gamma", queue)
        simulate_trial(siso_scenario(cluster_size=2), mode, ExpStub(log=log))
        assert log == [("exp", 2), ("exp", 8), (1, 1), (1, 2), (1, 2), (1, 8)]

    def test_noise_only_sinr(self, monkeypatch):
        # interferers and the tail beyond them sit 1e15 m out: SINR = p * h *
        # r^-alpha / noise = 1 up to their ~1e-13 relative share
        queue = GammaQueue([[1.0], [1.0], [1.0, 1.0], [1.0]])
        monkeypatch.setattr(mcsim, "sample_gamma", queue)
        noise = 1.0 * 1.0 * 10.0 ** (-3.0)
        s = siso_scenario(noise=noise)
        net = NetworkRealization(macro=np.array([10.0, 1e15]), small=np.array([1e15]))
        out = simulate_trial(s, "noncooperative", np.random.default_rng(0), net=net)
        interference = 1.0 * 1e15**-3 + 0.1 * 1e15**-3 + disk_tail(s, 1e15, 1e15)
        assert_allclose(out.sinr, noise / (interference + noise), rtol=1e-12)
        assert_allclose(out.sinr, 1.0, rtol=1e-12)

    def test_cluster_sums_desired_power(self, monkeypatch):
        # two serving small BSs at 50 m, h = 3 each, p_s = 0.1, noise 1e-6:
        # desired = 0.1 * (3 + 3) * 50^-3 = 4.8e-6, so SINR is about 4.8
        queue = GammaQueue([[9.9], [3.0, 3.0], [1.0], [5.0, 5.0, 5.0]])
        monkeypatch.setattr(mcsim, "sample_gamma", queue)
        s = siso_scenario(cluster_size=2, noise=1e-6)
        net = NetworkRealization(macro=np.array([1e9]), small=np.array([50.0, 50.0, 1e15]))
        out = simulate_trial(s, "cooperative", np.random.default_rng(0), net=net)
        assert out.event is AssociationEvent.CLUSTER
        assert out.serving_distances == (50.0, 50.0)
        interference = 1.0 * 1e9**-3 + 0.1 * 5.0 * 1e15**-3 + disk_tail(s, 1e9, 1e15)
        assert_allclose(out.sinr, 4.8e-6 / (interference + 1e-6), rtol=1e-12)
        assert queue.calls == [(1, 1), (1, 2), (1, 1), (1, 3)]

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            simulate_trial(siso_scenario(), "hybrid", np.random.default_rng(0))

    def test_fixed_geometry_fading_distribution(self):
        # noise-dominated single macro link with an 8-antenna beamformer:
        # SINR / scale must be Gamma(8, 1); check mean and CCDF points
        s = Scenario(
            macro=TierParams(density=0.01, power=1.0, antennas=8, users=1),
            small=TierParams(density=0.04, power=0.1, antennas=4, users=1),
            noise=1e-9,
        )
        net = NetworkRealization(macro=np.array([40.0, 1e15]), small=np.array([1e15]))
        rng = np.random.default_rng(77)
        scale = 1.0 * 40.0 ** (-3.0) / 1e-9
        draws = np.array(
            [
                simulate_trial(s, "noncooperative", rng, net=net).sinr
                for _ in range(35_000)
            ]
        ) / scale
        assert abs(draws.mean() - 8.0) < 0.1
        for u in (4.0, 8.0, 12.0):
            empirical = float(np.mean(draws > u))
            assert abs(empirical - gamma_ccdf(8, 1.0, u)) < 0.01


class TestBatchStatistics:
    def test_batch_validation(self):
        with pytest.raises(ValueError):
            TrialBatch(events=np.zeros(2, dtype=np.int8), sinr=np.zeros(3))
        with pytest.raises(ValueError):
            TrialBatch(events=np.zeros(0, dtype=np.int8), sinr=np.zeros(0))

    def test_coverage_from_batch(self):
        batch = TrialBatch(
            events=np.zeros(4, dtype=np.int8), sinr=np.array([0.5, 2.0, 3.0, 0.1])
        )
        res = coverage_from_batch(batch, 1.0)
        assert res.value == 0.5
        assert res.trials == 4
        assert res.method == "mc"

    def test_rate_from_batch(self):
        batch = TrialBatch(events=np.zeros(3, dtype=np.int8), sinr=np.full(3, 3.0))
        res = rate_from_batch(batch)
        assert_allclose(res.value, 2.0, rtol=1e-12)
        assert res.ci_halfwidth == 0.0

    def test_association_from_batch_counts(self):
        codes = np.array(
            [EVENT_CODES[AssociationEvent.MACRO]] * 3
            + [EVENT_CODES[AssociationEvent.SMALL]] * 1,
            dtype=np.int8,
        )
        out = association_from_batch(TrialBatch(events=codes, sinr=np.ones(4)))
        assert out[AssociationEvent.MACRO].value == 0.75
        assert out[AssociationEvent.SMALL].value == 0.25
        assert out[AssociationEvent.CLUSTER].value == 0.0


class TestRunTrials:
    def test_worker_count_does_not_change_results(self):
        s = default_scenario()
        ref = run_trials(s, "cooperative", 300, master_seed=42, workers=1)
        for workers in (4, 8):
            alt = run_trials(s, "cooperative", 300, master_seed=42, workers=workers)
            assert np.array_equal(ref.events, alt.events)
            assert np.array_equal(ref.sinr, alt.sinr)

    def test_validation(self):
        s = default_scenario()
        with pytest.raises(ValueError):
            run_trials(s, "noncooperative", 0, master_seed=1)
        with pytest.raises(ValueError):
            run_trials(s, "noncooperative", 10, master_seed=1, workers=0)

    def test_extreme_thresholds(self):
        batch = run_trials(default_scenario(), "noncooperative", 400, master_seed=3)
        assert coverage_from_batch(batch, 1e-9).value >= 0.999
        assert coverage_from_batch(batch, 1e9).value <= 0.001

    def test_association_matches_analytic(self):
        s = default_scenario()
        batch = run_trials(s, "noncooperative", 2500, master_seed=8)
        freq = association_from_batch(batch)
        expected = assoc_prob_sbs_single(s)
        res = freq[AssociationEvent.SMALL]
        assert abs(res.value - expected) <= 4.0 * res.ci_halfwidth / 1.96
        assert freq[AssociationEvent.CLUSTER].value == 0.0
        total = sum(r.value for r in freq.values())
        assert_allclose(total, 1.0, rtol=1e-12)

    def test_window_size_does_not_shift_coverage(self, monkeypatch):
        # doubling the point budget doubles the window's mean area; the tail
        # pedestal must absorb the truncation difference
        s = default_scenario()
        a = coverage_from_batch(run_trials(s, "noncooperative", 3000, master_seed=5), 1.0)
        monkeypatch.setattr(mcsim, "TARGET_SMALL", 2.0 * mcsim.TARGET_SMALL)
        assert point_counts(s) == (2500, 10_000)
        b = coverage_from_batch(run_trials(s, "noncooperative", 3000, master_seed=6), 1.0)
        assert abs(a.value - b.value) <= a.ci_halfwidth + b.ci_halfwidth

    def test_joint_density_scaling_invariance(self):
        # zero noise: multiplying both densities by 4 only rescales space
        base = default_scenario()
        scaled = Scenario(
            macro=TierParams(
                density=4 * base.macro.density, power=base.macro.power,
                antennas=base.macro.antennas, users=base.macro.users,
            ),
            small=TierParams(
                density=4 * base.small.density, power=base.small.power,
                antennas=base.small.antennas, users=base.small.users,
            ),
            cluster_size=base.cluster_size,
        )
        a = coverage_from_batch(run_trials(base, "cooperative", 2500, master_seed=9), 1.0)
        b = coverage_from_batch(run_trials(scaled, "cooperative", 2500, master_seed=10), 1.0)
        assert abs(a.value - b.value) <= a.ci_halfwidth + b.ci_halfwidth


class TestRunModes:
    """One draw per trial serves every mode: run_modes equals per-mode runs."""

    @pytest.mark.parametrize("noise", [0.0, 1e-13])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("strategy", ["SISO", "SUBF", "SDMA"])
    def test_matches_per_mode_runs(self, strategy, k, noise):
        s = default_scenario(strategy=strategy, cluster_size=k, noise=noise)
        trials, seed = 12, 7
        base = np.random.Philox(key=seed)
        for mode in MODES:
            # one fresh stream per trial and mode: the draws are not shared
            single = [
                simulate_trial(s, mode, np.random.Generator(base.jumped(i)))
                for i in range(trials)
            ]
            events = np.array([EVENT_CODES[o.event] for o in single], dtype=np.int8)
            sinr = np.array([o.sinr for o in single])
            ref = run_trials(s, mode, trials, master_seed=seed)
            assert ref.events.tobytes() == events.tobytes()
            assert ref.sinr.tobytes() == sinr.tobytes()
            for workers in (1, 2):
                both = run_modes(s, MODES, trials, master_seed=seed, workers=workers)
                assert list(both) == list(MODES)
                assert both[mode].events.tobytes() == ref.events.tobytes()
                assert both[mode].sinr.tobytes() == ref.sinr.tobytes()

    def test_one_draw_per_trial(self, monkeypatch):
        calls = []
        real = mcsim.sample_gamma

        def spy(shape, rng, size=None):
            calls.append(size)
            return real(shape, rng, size)

        monkeypatch.setattr(mcsim, "sample_gamma", spy)
        small_budget(monkeypatch, 8.0, 2.0)
        out = run_modes(siso_scenario(cluster_size=2), MODES, 5, master_seed=3)
        assert set(out) == set(MODES)
        # serving macro, serving cluster, macro and small interferers
        assert calls == [1, 2, 2, 8] * 5

    def test_validation(self):
        s = default_scenario()
        with pytest.raises(ValueError):
            run_modes(s, ("noncooperative", "hybrid"), 10, master_seed=1)
        with pytest.raises(ValueError):
            run_modes(s, (), 10, master_seed=1)
        with pytest.raises(ValueError):
            run_trials(s, "hybrid", 10, master_seed=1)


class TestEmpiricalAssociation:
    def test_distance_method_matches_analytic(self):
        s = default_scenario()
        expected = assoc_prob_sbs_single(s)
        freq = empirical_association(s, "noncooperative", 100_000, master_seed=12)
        res = freq[AssociationEvent.SMALL]
        assert res.method == "mc-distance"
        se = res.ci_halfwidth / 1.96
        assert abs(res.value - expected) <= 3.0 * se

    def test_trials_agree_with_distance_method(self):
        s = default_scenario()
        a = empirical_association(s, "cooperative", 50_000, master_seed=13)
        b = association_from_batch(run_trials(s, "cooperative", 1500, master_seed=13))
        pa = a[AssociationEvent.CLUSTER]
        pb = b[AssociationEvent.CLUSTER]
        se = math.hypot(pa.ci_halfwidth, pb.ci_halfwidth) / 1.96
        assert abs(pa.value - pb.value) <= 3.5 * se

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trial_count_validation(self, trials):
        # as run_modes: a ValueError, not a ZeroDivisionError from the frequencies
        with pytest.raises(ValueError, match="trials"):
            empirical_association(default_scenario(), "noncooperative", trials, master_seed=1)
