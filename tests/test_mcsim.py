"""Monte Carlo engine: arrival-time geometry and its point budget, the tail
interference beyond the last arrivals and the coverage error it admits,
single-trial SINR arithmetic, batch statistics, counter-addressed block
streams, and determinism across workers and trial counts. Every trial runs
through the engine's block path, _draw then _evaluate; a fixed geometry is
drawn from a stream stub whose arrival gaps rebuild it."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from helpers import gamma_ccdf, run_modes_scalar
from hetcov import mcsim
from hetcov.association import AssociationEvent, assoc_prob_sbs_single
from hetcov.mcsim import (
    EVENT_CODES,
    EVENT_ORDER,
    TrialBatch,
    coverage_from_batch,
    empirical_association,
    point_counts,
    rate_from_batch,
    run_modes,
    run_trials,
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


def small_budget(monkeypatch, count: int) -> None:
    """Loosen the far-field error so that a tier with alpha 3 and psi 1 lists
    ``count`` BSs (there sigma / mean = 1 / (2n)): geometry tests run many trials."""
    monkeypatch.setattr(mcsim, "FAR_FIELD_ERROR", 1.0 / (2.0 * count))


def fixed_counts(monkeypatch, n_macro: int, n_small: int) -> None:
    """Pin the arrivals per tier, so that draw-order tests tell the tiers apart."""
    monkeypatch.setattr(mcsim, "point_counts", lambda scenario: (n_macro, n_small))


def with_pathloss(s: Scenario, alpha: float) -> Scenario:
    return replace(
        s, macro=replace(s.macro, pathloss=alpha), small=replace(s.small, pathloss=alpha)
    )


def far_field_ratio(tier: TierParams, n: int) -> float:
    """sigma(R_n) over the tier's mean interference beyond 1 / sqrt(pi lambda),
    each from its Campbell integral in the tier's own density and power."""
    alpha, psi, lam, p = tier.pathloss, tier.users, tier.density, tier.power
    r_n = math.sqrt(n / (math.pi * lam))
    var, _ = integrate.quad(
        lambda r: 2 * math.pi * lam * p**2 * psi * (psi + 1) * r ** (1 - 2 * alpha),
        r_n, np.inf, epsabs=0.0, epsrel=1e-12,
    )
    mean, _ = integrate.quad(
        lambda r: 2 * math.pi * lam * p * psi * r ** (1 - alpha),
        1.0 / math.sqrt(math.pi * lam), np.inf, epsabs=0.0, epsrel=1e-12,
    )
    return math.sqrt(var) / mean


class GammaQueue:
    """Drop-in for sample_gamma that replays scripted values, one row per
    trial of the block, and records the (shape, size) of every draw,
    pinning the draw-order contract."""

    def __init__(self, values, calls=None):
        self.values = [np.asarray(v, dtype=float) for v in values]
        self.calls = [] if calls is None else calls

    def __call__(self, shape, rng, size=None):
        self.calls.append((shape, size))
        out = self.values.pop(0)
        rows, n = size
        assert n == len(out), f"expected rows of size {n}, scripted {len(out)}"
        return np.tile(out, (rows, 1))


class ArrivalStub:
    """Generator stand-in whose exponential draws are the arrival gaps
    diff(pi * lambda * r^2) of fixed distances, in every row of the block,
    macro then small, so _draw rebuilds those distances; it logs the size
    of each. Gamma draws come from ``rng``."""

    def __init__(self, s: Scenario, macro, small, rng=None, log=None):
        self.gaps = [
            np.diff(math.pi * tier.density * np.square(np.asarray(r, dtype=float)), prepend=0.0)
            for tier, r in ((s.macro, macro), (s.small, small))
        ]
        self.rng = rng
        self.log = [] if log is None else log
        self.draws = 0

    def standard_exponential(self, size):
        self.log.append(("exp", size))
        gaps = self.gaps[self.draws % 2]
        self.draws += 1
        rows, n = size
        assert n == len(gaps), f"expected {len(gaps)} arrivals, asked for {n}"
        return np.tile(gaps, (rows, 1))

    def standard_gamma(self, shape, size=None):
        return self.rng.standard_gamma(shape, size)


def draw_fixed(s: Scenario, macro, small, trials=1, rng=None, log=None):
    """``trials`` trials at fixed distances in one block: _draw on an
    ArrivalStub, the fading from ``rng`` (or a patched sample_gamma)."""
    stub = ArrivalStub(s, macro, small, rng, log)
    return mcsim._draw(s, stub, trials, (len(macro), len(small)), mcsim._serving_orders(s))


def fixed_trial(s: Scenario, mode: str, macro, small):
    """Association event and SINR of one trial at fixed distances."""
    codes, sinr = mcsim._evaluate(s, mode, draw_fixed(s, macro, small))
    return EVENT_ORDER[codes[0]], float(sinr[0])


def block_draws(s: Scenario, stream, trials: int):
    """The _Draws of trials 0 .. trials - 1, block b from ``stream(b)``, as
    run_modes draws them; the last block is cut to the trials asked for."""
    counts = point_counts(s)
    orders = mcsim._serving_orders(s)
    rows = mcsim.STREAM_BLOCK
    for b in range(-(-trials // rows)):
        draws = mcsim._draw(s, stream(b), rows, counts, orders)
        yield mcsim._Draws(*(field[: trials - b * rows] for field in draws))


class TestWindows:
    """The simulated window is the disk holding a trial's arrivals; the
    far-field bound sets the count of BSs drawn per tier."""

    def test_default_window_targets_small_tier_count(self):
        # alpha 3, psi 1: sigma(R_n) / mean = n^-1 / 2, so each tier lists
        # 1 / (2 FAR_FIELD_ERROR) BSs
        n = math.ceil(1.0 / (2.0 * mcsim.FAR_FIELD_ERROR))
        assert point_counts(default_scenario()) == (n, n)
        assert 2 * n <= 2500

    @pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("users", [1, 8])
    def test_count_is_the_fewest_meeting_the_bound(self, alpha, users):
        # the closed-form inversion against the two Campbell integrals, in a
        # tier whose density and power are far from the defaults'
        tier = TierParams(density=3e-3, power=7.5, antennas=users, users=users, pathloss=alpha)
        s = Scenario(macro=tier, small=replace(tier, density=0.2, power=0.05))
        n_macro, n_small = point_counts(s)
        assert n_macro == n_small > 1
        assert far_field_ratio(tier, n_macro) <= mcsim.FAR_FIELD_ERROR * (1 + 1e-9)
        assert far_field_ratio(tier, n_macro - 1) > mcsim.FAR_FIELD_ERROR

    def test_default_window_floors_macro_count(self):
        # near alpha = 2 the far field's mean dwarfs its spread and the bound
        # needs no listed BS; the macro tier still lists its nearest one, and
        # the counts ignore the densities
        s = with_pathloss(
            Scenario(
                macro=TierParams(density=1e-5, power=1.0, antennas=1, users=1),
                small=TierParams(density=0.04, power=1.0, antennas=1, users=1),
            ),
            2.0001,
        )
        assert point_counts(s) == (1, 1)

    def test_small_count_covers_the_cluster(self, monkeypatch):
        small_budget(monkeypatch, 1)
        s = siso_scenario(cluster_size=8)
        assert point_counts(s) == (1, 8)
        rng = np.random.default_rng(0)
        (draws,) = block_draws(s, lambda i: rng, 1)
        assert draws.small.shape == draws.h_small.shape == (1, 8)


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
        expected = beyond(s.macro, 137.0) + beyond(s.small, 61.0)
        tail = mcsim._tail_mean(s, np.array([137.0]), np.array([61.0]))
        assert_allclose(tail[0], expected, rtol=1e-9)

    def test_decays_with_window_size(self):
        s = default_scenario()
        near, far = mcsim._tail_mean(s, np.array([100.0, 200.0]), np.array([100.0, 200.0]))
        assert far < near


class TestFarFieldBudget:
    """The coverage error the budget admits, by prefix pairing: per trial one
    realization four times the budget's length and its fading, evaluated on
    the full list and on the budget's prefix plus its tail mean. Both read
    the same draws, so a flipped coverage indicator is the far field's doing.
    The long list leaves out its own far field, at most half the budget's
    spread (at alpha 2.05), so the measured flips understate the flips
    against an unbounded list by at most about 12%."""

    TRIALS = 4000
    THRESHOLDS_DB = (-5.0, 0.0, 5.0)

    @pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 4.0])
    def test_flip_fraction_below_stated_error(self, alpha):
        s = with_pathloss(default_scenario(), alpha)
        n_macro, n_small = point_counts(s)
        long_counts = (4 * n_macro, 4 * n_small)
        orders = mcsim._serving_orders(s)
        thresholds = 10.0 ** (np.array(self.THRESHOLDS_DB) / 10.0)
        stream = mcsim._BlockStreams(0)
        blocks = -(-self.TRIALS // mcsim.STREAM_BLOCK)
        flips = np.zeros((len(MODES), len(thresholds)), dtype=int)
        for b in range(blocks):
            full = mcsim._draw(s, stream(b), mcsim.STREAM_BLOCK, long_counts, orders)
            prefix = full._replace(
                macro=full.macro[:, :n_macro],
                small=full.small[:, :n_small],
                gain_macro=full.gain_macro[:, :n_macro],
                gain_small=full.gain_small[:, :n_small],
                faded_macro=full.faded_macro[:, :n_macro],
                faded_small=full.faded_small[:, :n_small],
                tail=mcsim._tail_mean(s, full.macro[:, n_macro - 1], full.small[:, n_small - 1]),
            )
            for j, mode in enumerate(MODES):
                long_sinr = mcsim._evaluate(s, mode, full)[1][:, None]
                budget_sinr = mcsim._evaluate(s, mode, prefix)[1][:, None]
                flips[j] += ((long_sinr > thresholds) != (budget_sinr > thresholds)).sum(axis=0)
        assert flips.max() / (blocks * mcsim.STREAM_BLOCK) < mcsim.FAR_FIELD_ERROR, flips


class TestPointProcess:
    def test_poisson_count_mean(self, monkeypatch):
        # the arrivals inside a fixed disk of mean count 100 are Poisson(100)
        small_budget(monkeypatch, 400)
        s = siso_scenario()
        rho = math.sqrt(100.0 / (math.pi * s.small.density))
        rng = np.random.default_rng(21)
        counts = np.concatenate(
            [np.count_nonzero(d.small <= rho, axis=1) for d in block_draws(s, lambda i: rng, 5000)]
        )
        assert abs(counts.mean() - 100.0) < 1.0
        assert abs(counts.var() - 100.0) < 10.0

    def test_deterministic_for_fixed_stream(self):
        s = default_scenario()
        a, b = (
            mcsim._draw(
                s, mcsim._BlockStreams(9)(0), 3, point_counts(s), mcsim._serving_orders(s)
            )
            for _ in range(2)
        )
        for field, x, y in zip(a._fields, a, b):
            assert np.array_equal(x, y), field

    def test_arrival_distances_sorted_and_positive(self):
        s = default_scenario()
        rng = np.random.default_rng(5)
        (draws,) = block_draws(s, lambda i: rng, 1)
        assert (draws.macro.shape[1], draws.small.shape[1]) == point_counts(s)
        for tier in (draws.macro[0], draws.small[0]):
            assert tier[0] > 0.0
            assert np.all(np.diff(tier) >= 0.0)

    def test_nearest_small_distance_distribution(self, monkeypatch):
        # KS test of the nearest small-BS distance against 1 - exp(-lam*pi*r^2)
        small_budget(monkeypatch, 20)
        s = default_scenario(cluster_size=1)
        rng = np.random.default_rng(22)
        nearest = np.concatenate(
            [d.small[:, 0].copy() for d in block_draws(s, lambda i: rng, 20_000)]
        )
        lam = s.small.density
        ks = stats.kstest(nearest, lambda r: 1.0 - np.exp(-lam * math.pi * r**2))
        assert ks.pvalue > 0.01

    @pytest.mark.parametrize("k", [2, 3])
    def test_kth_small_distance_distribution(self, monkeypatch, k):
        # pi*lambda*r_k^2 of the k-th nearest small BS is Gamma(k, 1)
        small_budget(monkeypatch, 20)
        s = default_scenario(cluster_size=k)
        rng = np.random.default_rng(23 + k)
        kth = np.concatenate(
            [d.small[:, k - 1].copy() for d in block_draws(s, lambda i: rng, 20_000)]
        )
        ks = stats.kstest(math.pi * s.small.density * kth**2, stats.gamma(a=k).cdf)
        assert ks.pvalue > 0.01

    def test_zero_arrival_never_reaches_select_tier(self, monkeypatch):
        # every exponential draw exactly 0: all BSs would sit on the user,
        # with infinite path gains in the selection rule
        seen = []

        def spy(scenario, mode, macro_gain, small_gains):
            seen.append((macro_gain.copy(), small_gains.copy()))
            return real(scenario, mode, macro_gain, small_gains)

        real = mcsim._small_side_wins
        monkeypatch.setattr(mcsim, "_small_side_wins", spy)
        s = default_scenario()
        n_macro, n_small = point_counts(s)
        draws = draw_fixed(s, np.zeros(n_macro), np.zeros(n_small), rng=np.random.default_rng(0))
        for mode in ("noncooperative", "cooperative"):
            sinr = mcsim._evaluate(s, mode, draws)[1][0]
            assert math.isfinite(sinr) and sinr > 0.0
        assert len(seen) == 2
        for macro, small in seen:
            for gains in (macro, small):
                assert np.all(np.isfinite(gains)) and np.all(gains > 0.0)


class TestSingleTrial:
    def test_macro_served_sinr_arithmetic(self, monkeypatch):
        # one macro at 100 m (h=2) over one small interferer at 200 m (g=1),
        # plus the mean of both tiers beyond those last BSs
        queue = GammaQueue([[2.0], [7.0], [9.0], [1.0]])
        monkeypatch.setattr(mcsim, "sample_gamma", queue)
        s = siso_scenario()
        event, sinr = fixed_trial(s, "noncooperative", [100.0], [200.0])
        assert event is AssociationEvent.MACRO
        expected = (1.0 * 2.0 * 100.0**-3) / (0.1 * 1.0 * 200.0**-3 + disk_tail(s, 100.0, 200.0))
        assert_allclose(sinr, expected, rtol=1e-12)
        # draw-order contract: desired macro, desired small, interferers
        assert queue.calls == [(1, (1, 1)), (1, (1, 1)), (1, (1, 1)), (1, (1, 1))]

    @pytest.mark.parametrize("mode", ["noncooperative", "cooperative"])
    def test_draw_order(self, monkeypatch, mode):
        # macro arrivals, small arrivals, serving fading (macro, then the
        # cluster), interferer fading (macro, then small); evaluating either
        # mode draws nothing more
        log = []
        queue = GammaQueue([[1.0], [1.0, 1.0], [1.0] * 2, [1.0] * 8], calls=log)
        monkeypatch.setattr(mcsim, "sample_gamma", queue)
        s = siso_scenario(cluster_size=2)
        draws = draw_fixed(s, [1.0, 2.0], np.arange(1.0, 9.0), log=log)
        mcsim._evaluate(s, mode, draws)
        assert log == [
            ("exp", (1, 2)), ("exp", (1, 8)), (1, (1, 1)), (1, (1, 2)), (1, (1, 2)), (1, (1, 8))
        ]

    def test_noise_only_sinr(self, monkeypatch):
        # interferers and the tail beyond them sit 1e15 m out: SINR = p * h *
        # r^-alpha / noise = 1 up to their ~1e-13 relative share
        queue = GammaQueue([[1.0], [1.0], [1.0, 1.0], [1.0]])
        monkeypatch.setattr(mcsim, "sample_gamma", queue)
        noise = 1.0 * 1.0 * 10.0 ** (-3.0)
        s = siso_scenario(noise=noise)
        _, sinr = fixed_trial(s, "noncooperative", [10.0, 1e15], [1e15])
        interference = 1.0 * 1e15**-3 + 0.1 * 1e15**-3 + disk_tail(s, 1e15, 1e15)
        assert_allclose(sinr, noise / (interference + noise), rtol=1e-12)
        assert_allclose(sinr, 1.0, rtol=1e-12)

    def test_cluster_sums_desired_power(self, monkeypatch):
        # two serving small BSs at 50 m, h = 3 each, p_s = 0.1, noise 1e-6:
        # desired = 0.1 * (3 + 3) * 50^-3 = 4.8e-6, so SINR is about 4.8
        queue = GammaQueue([[9.9], [3.0, 3.0], [1.0], [5.0, 5.0, 5.0]])
        monkeypatch.setattr(mcsim, "sample_gamma", queue)
        s = siso_scenario(cluster_size=2, noise=1e-6)
        event, sinr = fixed_trial(s, "cooperative", [1e9], [50.0, 50.0, 1e15])
        assert event is AssociationEvent.CLUSTER
        interference = 1.0 * 1e9**-3 + 0.1 * 5.0 * 1e15**-3 + disk_tail(s, 1e9, 1e15)
        assert_allclose(sinr, 4.8e-6 / (interference + 1e-6), rtol=1e-12)
        assert queue.calls == [(1, (1, 1)), (1, (1, 2)), (1, (1, 1)), (1, (1, 3))]

    def test_fixed_geometry_fading_distribution(self):
        # noise-dominated single macro link with an 8-antenna beamformer:
        # SINR / scale must be Gamma(8, 1); check mean and CCDF points
        s = Scenario(
            macro=TierParams(density=0.01, power=1.0, antennas=8, users=1),
            small=TierParams(density=0.04, power=0.1, antennas=4, users=1),
            noise=1e-9,
        )
        rng = np.random.default_rng(77)
        scale = 1.0 * 40.0 ** (-3.0) / 1e-9
        # one block of trials whose fading all comes from one generator
        fixed = draw_fixed(s, [40.0, 1e15], [1e15], trials=35_000, rng=rng)
        draws = mcsim._evaluate(s, "noncooperative", fixed)[1] / scale
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coverage_from_batch_rejects_non_finite_threshold(self, bad):
        batch = TrialBatch(events=np.zeros(2, dtype=np.int8), sinr=np.array([0.5, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            coverage_from_batch(batch, bad)

    def test_rate_from_batch(self):
        batch = TrialBatch(events=np.zeros(3, dtype=np.int8), sinr=np.full(3, 3.0))
        res = rate_from_batch(batch)
        assert_allclose(res.value, 2.0, rtol=1e-12)
        assert res.ci_halfwidth == 0.0

    def test_rate_from_one_trial_raises(self):
        # one trial has no sample spread, so no half-width
        batch = TrialBatch(events=np.zeros(1, dtype=np.int8), sinr=np.full(1, 3.0))
        with pytest.raises(ValueError, match="at least 2 trials"):
            rate_from_batch(batch)

    def test_event_frequencies_counts(self):
        codes = np.array(
            [EVENT_CODES[AssociationEvent.MACRO]] * 3
            + [EVENT_CODES[AssociationEvent.SMALL]] * 1,
            dtype=np.int8,
        )
        out = mcsim._event_frequencies(codes, "mc")
        assert out[AssociationEvent.MACRO].value == 0.75
        assert out[AssociationEvent.SMALL].value == 0.25
        assert out[AssociationEvent.CLUSTER].value == 0.0


class TestRunTrials:
    def test_worker_count_does_not_change_results(self):
        # more threads than cores, switching often: each owns its Philox and
        # blocks, so no interleaving may leak into another's trials
        s = default_scenario()
        ref = run_trials(s, "cooperative", 300, master_seed=42, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (4, 8):
                alt = run_trials(s, "cooperative", 300, master_seed=42, workers=workers)
                assert np.array_equal(ref.events, alt.events)
                assert np.array_equal(ref.sinr, alt.sinr)
        finally:
            sys.setswitchinterval(interval)

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
        freq = mcsim._event_frequencies(batch.events, "mc")
        expected = assoc_prob_sbs_single(s)
        res = freq[AssociationEvent.SMALL]
        assert abs(res.value - expected) <= 4.0 * res.ci_halfwidth / 1.96
        assert freq[AssociationEvent.CLUSTER].value == 0.0
        total = sum(r.value for r in freq.values())
        assert_allclose(total, 1.0, rtol=1e-12)

    def test_window_size_does_not_shift_coverage(self, monkeypatch):
        # halving the far-field error at least doubles the point budget, and
        # so the window's mean area; the tail pedestal must absorb the
        # truncation difference
        s = default_scenario()
        a = coverage_from_batch(run_trials(s, "noncooperative", 3000, master_seed=5), 1.0)
        before = point_counts(s)
        monkeypatch.setattr(mcsim, "FAR_FIELD_ERROR", 0.5 * mcsim.FAR_FIELD_ERROR)
        assert all(n >= 2 * m for n, m in zip(point_counts(s), before))
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
        # the scalar oracle draws each block from its own jumped stream and
        # evaluates each trial alone; alpha 2.05 and 4 list other counts of
        # BSs, and the trial count is no multiple of the block
        seed = 7
        trials = 2 * mcsim.STREAM_BLOCK + 3
        for alpha in (3.0, 2.05, 4.0):
            s = with_pathloss(
                default_scenario(strategy=strategy, cluster_size=k, noise=noise), alpha
            )
            expected = run_modes_scalar(s, MODES, trials, seed, point_counts(s))
            for mode in MODES:
                ref = run_trials(s, mode, trials, master_seed=seed)
                assert ref.events.tobytes() == expected[mode][0].tobytes()
                assert ref.sinr.tobytes() == expected[mode][1].tobytes()
            for workers in (1, 2, 3):
                both = run_modes(s, MODES, trials, master_seed=seed, workers=workers)
                assert list(both) == list(MODES)
                for mode in MODES:
                    assert both[mode].events.tobytes() == expected[mode][0].tobytes()
                    assert both[mode].sinr.tobytes() == expected[mode][1].tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_trial_does_not_depend_on_trial_count_or_split(self, workers):
        # a block draws all of its rows even when it is the last, partial
        # one, and threads split the trials at block edges: a run of n trials
        # is the first n trials of a longer run
        rows = mcsim.STREAM_BLOCK
        s = default_scenario(cluster_size=2)
        for mode in MODES:
            ref = run_trials(s, mode, 3 * rows, master_seed=11)
            for n in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
                out = run_trials(s, mode, n, master_seed=11, workers=workers)
                assert out.events.tobytes() == ref.events[:n].tobytes(), (mode, n)
                assert out.sinr.tobytes() == ref.sinr[:n].tobytes(), (mode, n)

    def test_one_draw_per_trial(self, monkeypatch):
        calls = []
        real = mcsim.sample_gamma

        def spy(shape, rng, size=None):
            calls.append(size)
            return real(shape, rng, size)

        monkeypatch.setattr(mcsim, "sample_gamma", spy)
        fixed_counts(monkeypatch, 2, 8)
        rows = mcsim.STREAM_BLOCK
        out = run_modes(siso_scenario(cluster_size=2), MODES, rows + 5, master_seed=3)
        assert set(out) == set(MODES)
        # serving macro, serving cluster, macro and small interferers, one
        # draw of each per block; the partial second block draws whole
        assert calls == [(rows, 1), (rows, 2), (rows, 2), (rows, 8)] * 2

    def test_more_workers_than_trials(self):
        # 8 workers on 3 blocks: three ranges run at once, five are empty
        s = default_scenario(cluster_size=2)
        trials = 3 * mcsim.STREAM_BLOCK
        ref = run_modes(s, MODES, trials, master_seed=4, workers=1)
        out = run_modes(s, MODES, trials, master_seed=4, workers=8)
        for mode in MODES:
            assert out[mode].events.tobytes() == ref[mode].events.tobytes()
            assert out[mode].sinr.tobytes() == ref[mode].sinr.tobytes()

    def test_validation(self):
        s = default_scenario()
        with pytest.raises(ValueError, match="mode must be one of"):
            run_modes(s, ("noncooperative", "hybrid"), 10, master_seed=1)
        with pytest.raises(ValueError):
            run_modes(s, (), 10, master_seed=1)
        with pytest.raises(ValueError, match="mode must be one of"):
            run_trials(s, "hybrid", 10, master_seed=1)


class TestTrialStreams:
    """Block b's stream, which its trials share, is selected by setting a
    reused Philox's counter; it must be the stream of
    Philox(key=seed).jumped(b), draw for draw. This rests on numpy's Philox
    state layout, so a change there fails here."""

    @pytest.mark.parametrize("seed", [0, 2**63 - 1])
    def test_counter_addresses_the_jumped_stream(self, seed):
        stream = mcsim._BlockStreams(seed)
        # revisiting block 1 after the others shows no draw leaks across
        # blocks; the odd uint32 count leaves half a 64-bit word buffered
        for b in (0, 1, 4095, 2**40, 1):
            ref = np.random.Generator(np.random.Philox(key=seed).jumped(b))
            rng = stream(b)
            for draw in (
                lambda g: g.standard_exponential(5),
                lambda g: g.standard_gamma(1, 3),
                lambda g: g.standard_gamma(4, 1001),
                lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
                lambda g: g.standard_exponential(2),
            ):
                assert draw(rng).tobytes() == draw(ref).tobytes()


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
        batch = run_trials(s, "cooperative", 1500, master_seed=13)
        b = mcsim._event_frequencies(batch.events, "mc")
        pa = a[AssociationEvent.CLUSTER]
        pb = b[AssociationEvent.CLUSTER]
        se = math.hypot(pa.ci_halfwidth, pb.ci_halfwidth) / 1.96
        assert abs(pa.value - pb.value) <= 3.5 * se

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trial_count_validation(self, trials):
        # as run_modes: a ValueError, not a ZeroDivisionError from the frequencies
        with pytest.raises(ValueError, match="trials"):
            empirical_association(default_scenario(), "noncooperative", trials, master_seed=1)
