"""Monte Carlo engine: direct simulation of the two-tier network.

Each trial builds both base-station tiers around the user from the ordered
arrival times of a Poisson process: the squared distances of a PPP of
density lambda, in ascending order, are cumsum(Exp(1)) / (pi * lambda). A
fixed number of arrivals per tier covers a disk; the BSs beyond the last
arrival contribute their exact conditional mean interference. That mean
stands in for a random far field, the engine's one approximation, and the
arrival counts are set so that its spread admits a coverage error of at most
FAR_FIELD_ERROR (point_counts): 500 macro and 500 small BSs per trial in the
default scenario. A trial is two steps: a mode-free draw of the network and
of per-link Gamma fading, then, per mode, the serving side by the same
biased-power rule the analytic engine integrates over, and the resulting
association event and SINR.

Trials run only in blocks, through run_modes (run_trials is one mode of
it): there is no one-trial API. Each trial of a block makes its draws into
one row of the block's arrays (_Block.draw); everything after the draws
(distances, path gains, selection, desired power, interference, SINR) runs
once per block on 2-D arrays (_evaluate), with each trial's arithmetic that
of a scalar evaluation of the trial alone, so no result depends on the
block it fell in. BLOCK_BYTES bounds a block's memory.

Determinism contract: trial i always consumes the stream
``Philox(master_seed).jumped(i)``, selected by setting one reused Philox's
counter (_TrialStreams), and results land in trial-indexed arrays, so every
statistic is bit-identical for any worker count. Every mode of trial i reads
the same draws, so ``run_modes(..., MODES, ...)`` equals the per-mode
``run_trials`` byte for byte while drawing each trial once.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .association import AssociationEvent, _small_side_wins
from .model import (
    COOPERATIVE,
    MODES,
    MetricResult,
    NONCOOPERATIVE,
    Scenario,
    derive_tier,
)
from .specfun import sample_gamma

# Stable event <-> int8 coding for result arrays.
EVENT_ORDER = (
    AssociationEvent.MACRO,
    AssociationEvent.SMALL,
    AssociationEvent.MACRO_COOP,
    AssociationEvent.CLUSTER,
)
EVENT_CODES = {event: code for code, event in enumerate(EVENT_ORDER)}

# Coverage error the point budget admits. Past a tier's last listed BS, at
# radius R, the engine replaces the tier's far field by its conditional mean
# (_tail_mean). By Campbell's theorem the far field's variance about
# that mean is sigma^2(R) = 2 pi lambda p^2 psi (psi+1) R^(2-2 alpha) / (2 alpha-2).
# point_counts lists the fewest BSs n for which sigma at the budget radius
# R_n = sqrt(n / (pi lambda)) is at most FAR_FIELD_ERROR times the tier's mean
# interference beyond its typical nearest distance 1 / sqrt(pi lambda). To
# first order, a trial's coverage indicator then flips only if its SINR lies
# within about that relative error of the threshold, so the share of trials
# whose indicator differs from an unbounded list's, and with it the bias of
# any MC coverage value, stays below FAR_FIELD_ERROR at every threshold.
# TestFarFieldBudget checks this by prefix pairing at alpha 2.05 to 4. It is
# a tenth of the 95% half-width of a 10^4-trial coverage estimate near 0.5.
FAR_FIELD_ERROR = 1e-3
# Memory budget of one block of trials, bytes. run_modes draws its trials
# into blocks and evaluates a block at a time; a block's per-point arrays
# are the arrival gaps (turned in place into distances), the path gains and
# the interferer fading (turned in place into faded powers), 24 bytes per
# listed BS. So a block holds BLOCK_BYTES / (24 (n_macro + n_small)) trials,
# 10 in the default scenario, and each worker thread holds one block. On a
# 2-core Xeon, the benchmark's MC pass ran 10-15% slower at half this budget
# and no faster at twice it, where peak RSS grew by another megabyte.
BLOCK_BYTES = 2**18
_BYTES_PER_POINT = 24
# Floor on a unit-rate arrival time. An exponential draw can be exactly 0,
# which would put a BS on the user; at this floor r^-alpha stays finite.
_MIN_ARRIVAL = 2.0**-53


def _far_field_count(alpha: float, psi: int) -> int:
    """Fewest BSs of a tier whose far field meets FAR_FIELD_ERROR.

    The ratio of sigma(R_n) to the tier's mean interference beyond its
    typical nearest distance is scale-free,
    c * n^(-(alpha-1)/2) with c = ((alpha-2) / (2 psi)) sqrt(psi (psi+1) / (alpha-1)),
    so the count is the ceiling of (c / FAR_FIELD_ERROR)^(2 / (alpha-1)),
    at least 1 however close alpha is to 2.
    """
    c = (alpha - 2.0) / (2.0 * psi) * math.sqrt(psi * (psi + 1.0) / (alpha - 1.0))
    return math.ceil((c / FAR_FIELD_ERROR) ** (2.0 / (alpha - 1.0)))


def point_counts(scenario: Scenario) -> tuple[int, int]:
    """Arrivals drawn per trial, (macro, small), from the far-field bound.

    Each tier lists the fewest BSs whose far field admits a coverage error of
    at most FAR_FIELD_ERROR. The count depends only on the path-loss exponent
    and the tier's interferer fading order psi (its users), never on
    densities, powers, trials or workers: 500 per tier in the default
    scenario (alpha 3, psi 1, where n = 1 / (2 FAR_FIELD_ERROR)). The small
    count never falls below the cluster size, so every mode finds the
    serving distances it needs.
    """
    alpha = scenario.pathloss
    n_macro = _far_field_count(alpha, scenario.macro.users)
    n_small = _far_field_count(alpha, scenario.small.users)
    return n_macro, max(n_small, scenario.cluster_size)


def _arrival_distances(density: float, gaps: np.ndarray) -> np.ndarray:
    """Distances to a PPP's nearest points from unit-rate arrival gaps.

    Works along the last axis, one trial per row, and in place: returns
    ``gaps`` turned into distances, ascending per row.
    """
    t = np.cumsum(gaps, axis=-1, out=gaps)
    np.maximum(t, _MIN_ARRIVAL, out=t)
    t *= 1.0 / (math.pi * density)
    return np.sqrt(t, out=t)


def _tail_mean(scenario: Scenario, macro_last: np.ndarray, small_last: np.ndarray) -> np.ndarray:
    """Mean interference from the BSs beyond each tier's last listed
    distance, watts, per trial.

    Given a tier's last arrival at R, the rest of the tier is a PPP outside
    the disk of radius R, so its interference has the exact conditional mean
    2*pi*lambda*p*psi * int_R^inf r^(1-alpha) dr
    = 2*pi*lambda*p*psi * R^(2-alpha) / (alpha-2).
    Those BSs are many weak contributors whose sum self-averages, so the
    mean stands in for it; without it, simulated SINRs are biased high. The
    sum's spread about the mean has variance
    2*pi*lambda*p^2*psi*(psi+1) * R^(2-2*alpha) / (2*alpha-2), which
    point_counts holds to a coverage error of at most FAR_FIELD_ERROR.

    Raises each distance to 2 - alpha with Python's float power: numpy's
    vectorized power differs from it in the last bit of about 5% of values.
    """
    alpha = scenario.pathloss
    total = 0.0
    for tier, last in ((scenario.macro, macro_last), (scenario.small, small_last)):
        powers = np.array([r ** (2.0 - alpha) for r in last.tolist()])
        total = total + tier.density * tier.power * tier.users * powers
    return 2.0 * math.pi * total / (alpha - 2.0)


class _Draws(NamedTuple):
    """A block of trials' draws, one row per trial, before any mode picks a
    serving side."""

    macro: np.ndarray  # m, ascending per row, (trials, n_macro)
    small: np.ndarray  # m, ascending per row, (trials, n_small)
    h_macro: np.ndarray  # serving fading of the nearest macro BS, (trials, 1)
    h_small: np.ndarray  # serving fading of the K nearest small BSs, (trials, K)
    gain_macro: np.ndarray  # r^-alpha per listed macro BS
    gain_small: np.ndarray  # r^-alpha per listed small BS
    faded_macro: np.ndarray  # interferer fading times gain, per macro BS
    faded_small: np.ndarray  # interferer fading times gain, per small BS
    tail: np.ndarray  # _tail_mean per trial, watts


def _serving_orders(scenario: Scenario) -> tuple[int, int]:
    """Serving-link fading orders (macro, small)."""
    return (
        derive_tier(scenario.macro).fading_order,
        derive_tier(scenario.small).fading_order,
    )


class _Block:
    """Buffers for the draws of up to ``rows`` trials, one row per trial.

    A worker allocates one block and refills it for each block of its
    trials, so its memory is bounded by BLOCK_BYTES, not by the trial count.
    """

    def __init__(self, rows: int, counts: tuple[int, int], cluster_size: int):
        n_macro, n_small = counts
        self.macro = np.empty((rows, n_macro))  # arrival gaps, then distances
        self.small = np.empty((rows, n_small))
        self.h_macro = np.empty((rows, 1))
        self.h_small = np.empty((rows, cluster_size))
        self.g_macro = np.empty((rows, n_macro))  # fading, then faded powers
        self.g_small = np.empty((rows, n_small))

    def draw(
        self,
        scenario: Scenario,
        stream: Callable[[int], np.random.Generator],
        trials: range,
        orders: tuple[int, int],
    ) -> _Draws:
        """Draw ``trials`` into the leading rows, then derive their gains.

        ``stream(i)`` is trial i's generator, used before the next trial's
        is asked for. Each trial draws, in this order: macro arrivals, small
        arrivals, serving fading (the nearest macro BS, then the K nearest
        small BSs), then interferer fading for every listed BS (macro, then
        small). ``orders`` are the serving fading orders (_serving_orders).
        Every distance comes from its trial's arrivals: fixed distances r are
        drawn by a stream whose exponential draws are diff(pi * lambda * r^2).
        """
        n = len(trials)
        k = self.h_small.shape[1]
        n_macro, n_small = self.macro.shape[1], self.small.shape[1]
        g_macro, g_small = self.g_macro[:n], self.g_small[:n]
        for j, i in enumerate(trials):
            rng = stream(i)
            self.macro[j] = rng.standard_exponential(n_macro)
            self.small[j] = rng.standard_exponential(n_small)
            self.h_macro[j] = sample_gamma(orders[0], rng, size=1)
            self.h_small[j] = sample_gamma(orders[1], rng, size=k)
            g_macro[j] = sample_gamma(scenario.macro.users, rng, size=n_macro)
            g_small[j] = sample_gamma(scenario.small.users, rng, size=n_small)
        macro = _arrival_distances(scenario.macro.density, self.macro[:n])
        small = _arrival_distances(scenario.small.density, self.small[:n])
        alpha = scenario.pathloss
        gain_macro = macro ** (-alpha)
        gain_small = small ** (-alpha)
        return _Draws(
            macro=macro,
            small=small,
            h_macro=self.h_macro[:n],
            h_small=self.h_small[:n],
            gain_macro=gain_macro,
            gain_small=gain_small,
            faded_macro=np.multiply(g_macro, gain_macro, out=g_macro),
            faded_small=np.multiply(g_small, gain_small, out=g_small),
            tail=_tail_mean(scenario, macro[:, -1], small[:, -1]),
        )


def _event_codes(mode: str, small_wins: np.ndarray) -> np.ndarray:
    """int8 EVENT_CODES of the mode's small-side and macro-side events."""
    if mode == NONCOOPERATIVE:
        small, macro = AssociationEvent.SMALL, AssociationEvent.MACRO
    else:
        small, macro = AssociationEvent.CLUSTER, AssociationEvent.MACRO_COOP
    return np.where(small_wins, EVENT_CODES[small], EVENT_CODES[macro]).astype(np.int8)


def _evaluate(scenario: Scenario, mode: str, d: _Draws) -> tuple[np.ndarray, np.ndarray]:
    """Event codes and SINR of one mode on a block of draws, per trial.

    Draws nothing, so every mode evaluated on the same draws sees the same
    networks and channels. Each trial's arithmetic is that of a scalar
    evaluation, operation for operation, so a trial's result does not
    depend on its block.
    """
    k = scenario.cluster_size if mode == COOPERATIVE else 1
    small_wins = _small_side_wins(scenario, mode, d.gain_macro[:, 0], d.gain_small)

    # Desired power: non-coherent sum of Gamma(delta)-faded serving links,
    # the nearest macro BS's or the k nearest small BSs'.
    desired = np.where(
        small_wins,
        scenario.small.power * np.vecdot(d.h_small[:, :k], d.gain_small[:, :k]),
        scenario.macro.power * (d.h_macro[:, 0] * d.gain_macro[:, 0]),
    )

    # Interference: Gamma(psi)-faded power from every other listed BS, plus
    # the mean of the BSs beyond the last ones.
    macro_rest = np.where(
        small_wins, d.faded_macro.sum(axis=1), d.faded_macro[:, 1:].sum(axis=1)
    )
    small_rest = np.where(
        small_wins, d.faded_small[:, k:].sum(axis=1), d.faded_small.sum(axis=1)
    )
    interference = (
        scenario.macro.power * macro_rest + scenario.small.power * small_rest + d.tail
    )
    return _event_codes(mode, small_wins), desired / (interference + scenario.noise)


@dataclass(frozen=True)
class TrialBatch:
    """Trial-indexed results of one simulation run."""

    events: np.ndarray  # int8 EVENT_CODES, one per trial
    sinr: np.ndarray  # float64, one per trial

    def __post_init__(self):
        if len(self.events) != len(self.sinr) or len(self.events) == 0:
            raise ValueError("events and sinr must be equal-length and nonempty")

    @property
    def trials(self) -> int:
        return len(self.events)


class _TrialStreams:
    """Trial i's generator, on the stream of Philox(key=master_seed).jumped(i).

    Philox is counter-based: jumped(i) is the generator keyed by master_seed
    whose 256-bit counter reads [0, 0, i, 0] and whose output buffer is
    empty. Setting one reused Philox to that state selects stream i without
    building a generator: a microsecond or two, where jumped takes some
    thirty, as it first seeds a throwaway Philox from OS entropy. The
    generator returned for trial i is valid until trial i + 1 is asked for.
    For i < 2^64.
    """

    def __init__(self, master_seed: int):
        self._bit_generator = np.random.Philox(key=master_seed)
        self._state = self._bit_generator.state
        self._rng = np.random.Generator(self._bit_generator)

    def __call__(self, i: int) -> np.random.Generator:
        self._state["state"]["counter"][2] = i
        self._bit_generator.state = self._state
        return self._rng


def _block_trials(counts: tuple[int, int]) -> int:
    """Trials per block: as many as BLOCK_BYTES holds, at least one."""
    return max(1, BLOCK_BYTES // (_BYTES_PER_POINT * (counts[0] + counts[1])))


def run_modes(
    scenario: Scenario,
    modes: tuple[str, ...],
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> dict[str, TrialBatch]:
    """Simulate ``trials`` trials once and evaluate each for every mode.

    Trial i draws from the stream of ``Philox(master_seed).jumped(i)``
    whatever the modes, addressed by its counter (_TrialStreams). Trials
    are drawn one by one into a block (_Block) and evaluated a block at a
    time on 2-D arrays, with each trial's arithmetic that of a scalar
    evaluation. So ``run_modes(s, modes, ...)[mode]`` is byte-identical to
    ``run_trials(s, mode, ...)``, and to itself for any ``workers`` or
    block size. Each worker thread owns its blocks and its Philox; the
    threads share CPython's GIL, so more of them give little speed-up.
    """
    modes = tuple(dict.fromkeys(modes))
    if not modes:
        raise ValueError("modes must be nonempty")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    orders = _serving_orders(scenario)
    counts = point_counts(scenario)
    per_block = _block_trials(counts)
    columns = [
        (mode, np.empty(trials, dtype=np.int8), np.empty(trials, dtype=np.float64))
        for mode in modes
    ]

    def run_range(start: int, stop: int) -> None:
        stream = _TrialStreams(master_seed)
        block = _Block(min(per_block, stop - start), counts, scenario.cluster_size)
        for first in range(start, stop, per_block):
            last = min(first + per_block, stop)
            draws = block.draw(scenario, stream, range(first, last), orders)
            for mode, events, sinr in columns:
                events[first:last], sinr[first:last] = _evaluate(scenario, mode, draws)

    if workers == 1:
        run_range(0, trials)
    else:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(run_range, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:])
                if b > a
            ]
            for f in futures:
                f.result()
    return {mode: TrialBatch(events=events, sinr=sinr) for mode, events, sinr in columns}


def run_trials(
    scenario: Scenario,
    mode: str,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> TrialBatch:
    """Simulate ``trials`` trials of one mode: ``run_modes`` with that mode
    alone, so the batch equals that mode's entry of ``run_modes(scenario,
    MODES, ...)`` byte for byte."""
    return run_modes(scenario, (mode,), trials, master_seed, workers)[mode]


def coverage_from_batch(batch: TrialBatch, threshold: float) -> MetricResult:
    """Empirical P[SINR > threshold] with a 95% binomial CI halfwidth.

    Raises ValueError for a NaN or infinite threshold.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    n = batch.trials
    p = float(np.count_nonzero(batch.sinr > threshold)) / n
    half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return MetricResult(value=p, method="mc", ci_halfwidth=half, trials=n)


def rate_from_batch(batch: TrialBatch) -> MetricResult:
    """Empirical mean spectral efficiency log2(1 + SINR), bit/s/Hz, 95% CI.

    Raises ValueError for a one-trial batch, whose sample spread is undefined.
    """
    n = batch.trials
    if n < 2:
        raise ValueError(f"a rate confidence interval needs at least 2 trials, got {n}")
    rate = np.log2(1.0 + batch.sinr)
    half = 1.96 * float(rate.std(ddof=1)) / math.sqrt(n)
    return MetricResult(value=float(rate.mean()), method="mc", ci_halfwidth=half, trials=n)


def _event_frequencies(codes: np.ndarray, method: str) -> dict[AssociationEvent, MetricResult]:
    """Frequency of each event among the int8 event codes, 95% binomial CIs."""
    n = len(codes)
    out = {}
    for event in EVENT_ORDER:
        p = float(np.count_nonzero(codes == EVENT_CODES[event])) / n
        half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)
        out[event] = MetricResult(value=p, method=method, ci_halfwidth=half, trials=n)
    return out


def _association_by_distance(
    scenario: Scenario, mode: str, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized association sampling from exact nearest-distance laws.

    Only the nearest macro distance and the K nearest small distances enter
    the selection, so they are drawn directly, from the same arrival-time
    construction the trials use, and judged by the trials' selection rule
    (association._small_side_wins). Returns the int8 event code per trial.
    """
    k = scenario.cluster_size if mode == COOPERATIVE else 1
    lam_m = scenario.macro.density
    lam_s = scenario.small.density
    alpha = scenario.pathloss

    r_macro = np.sqrt(rng.standard_exponential(trials) / (math.pi * lam_m))
    arrivals = np.cumsum(rng.standard_exponential((trials, k)), axis=1)
    r_small = np.sqrt(arrivals / (math.pi * lam_s))
    wins = _small_side_wins(scenario, mode, r_macro ** (-alpha), r_small ** (-alpha))
    return _event_codes(mode, wins)


def empirical_association(
    scenario: Scenario, mode: str, trials: int, master_seed: int
) -> dict[AssociationEvent, MetricResult]:
    """Association frequencies by simulation of the selection inputs alone."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = np.random.Generator(np.random.Philox(key=master_seed))
    codes = _association_by_distance(scenario, mode, trials, rng)
    return _event_frequencies(codes, "mc-distance")
