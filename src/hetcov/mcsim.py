"""Monte Carlo engine: direct simulation of the two-tier network.

Each trial builds both base-station tiers around the user from the ordered
arrival times of a Poisson process: the squared distances of a PPP of
density lambda, in ascending order, are cumsum(Exp(1)) / (pi * lambda). A
fixed number of arrivals per tier covers a disk; the BSs beyond the last
arrival contribute their exact conditional mean interference. A trial is
two steps: a mode-free draw of the network and of per-link Gamma fading,
then, per mode, the serving side by the same biased-power rule the analytic
engine integrates over, and the resulting association event and SINR.

Determinism contract: trial i always consumes the stream
``Philox(master_seed).jumped(i)``, and results land in trial-indexed arrays,
so every statistic is bit-identical for any worker count. Every mode of
trial i reads the same draws, so ``run_modes(..., MODES, ...)`` equals the
per-mode ``run_trials`` byte for byte while drawing each trial once.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .association import AssociationEvent, _biased_gain, select_tier
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

# Point budget: a trial's arrivals cover the area holding TARGET_SMALL
# expected small BSs, or MIN_EXPECTED expected macro BSs if that is larger.
TARGET_SMALL = 5_000.0
MIN_EXPECTED = 200.0
# Floor on a unit-rate arrival time. An exponential draw can be exactly 0,
# which would put a BS on the user; at this floor r^-alpha stays finite.
_MIN_ARRIVAL = 2.0**-53


def point_counts(scenario: Scenario) -> tuple[int, int]:
    """Arrivals drawn per trial, (macro, small): ceil(lambda * A) per tier.

    Written in the density ratio, so that the tier which sets the area A
    gets its target count exactly. The small count never falls below the
    cluster size, so every mode finds the serving distances it needs.
    """
    ratio = scenario.small.density / scenario.macro.density
    n_macro = math.ceil(max(TARGET_SMALL / ratio, MIN_EXPECTED))
    n_small = math.ceil(max(TARGET_SMALL, MIN_EXPECTED * ratio))
    return n_macro, max(n_small, scenario.cluster_size)


def _arrival_distances(density: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Distances to the n nearest points of a PPP of the given density, ascending."""
    t = np.cumsum(rng.standard_exponential(n))
    np.maximum(t, _MIN_ARRIVAL, out=t)
    t *= 1.0 / (math.pi * density)
    return np.sqrt(t, out=t)


@dataclass(frozen=True)
class NetworkRealization:
    """Distances from the user to each tier's nearest BSs, ascending per tier.

    Every BS of a tier beyond its last listed distance is treated as the
    Poisson process outside that disk (see tail_interference).
    """

    macro: np.ndarray  # m, sorted ascending
    small: np.ndarray  # m, sorted ascending

    def __post_init__(self):
        if len(self.macro) < 1 or len(self.small) < 1:
            raise ValueError("both tiers must be nonempty")


def sample_network(
    scenario: Scenario,
    rng: np.random.Generator,
    counts: tuple[int, int] | None = None,
) -> NetworkRealization:
    """Draw both tiers' nearest BSs from their arrival times: macro, then small.

    ``counts`` is the arrivals per tier, point_counts(scenario) when None.
    """
    n_macro, n_small = point_counts(scenario) if counts is None else counts
    return NetworkRealization(
        macro=_arrival_distances(scenario.macro.density, n_macro, rng),
        small=_arrival_distances(scenario.small.density, n_small, rng),
    )


def tail_interference(scenario: Scenario, net: NetworkRealization) -> float:
    """Mean interference from the BSs beyond each tier's last distance, watts.

    Given a tier's last arrival at R, the rest of the tier is a PPP outside
    the disk of radius R, so its interference has the exact conditional mean
    2*pi*lambda*p*psi * int_R^inf r^(1-alpha) dr
    = 2*pi*lambda*p*psi * R^(2-alpha) / (alpha-2).
    Those BSs are many weak contributors whose sum self-averages, so the
    mean stands in for it; without it, simulated SINRs are biased high.
    """
    alpha = scenario.pathloss
    total = 0.0
    for tier, r in ((scenario.macro, net.macro), (scenario.small, net.small)):
        total += tier.density * tier.power * tier.users * float(r[-1]) ** (2.0 - alpha)
    return 2.0 * math.pi * total / (alpha - 2.0)


@dataclass(frozen=True)
class TrialOutcome:
    """One simulated trial: who served, from where, and at what SINR."""

    event: AssociationEvent
    sinr: float
    serving_distances: tuple[float, ...]  # m, ascending


class _TrialDraws(NamedTuple):
    """Everything one trial draws, before any mode picks a serving side."""

    net: NetworkRealization
    h_macro: np.ndarray  # serving fading of the nearest macro BS, shape (1,)
    h_small: np.ndarray  # serving fading of the K nearest small BSs
    gain_macro: np.ndarray  # r^-alpha per listed macro BS
    gain_small: np.ndarray  # r^-alpha per listed small BS
    faded_macro: np.ndarray  # interferer fading times gain, per macro BS
    faded_small: np.ndarray  # interferer fading times gain, per small BS
    tail: float  # tail_interference, watts


def _serving_orders(scenario: Scenario) -> tuple[int, int]:
    """Serving-link fading orders (macro, small)."""
    return (
        derive_tier(scenario.macro).fading_order,
        derive_tier(scenario.small).fading_order,
    )


def _draw_trial(
    scenario: Scenario,
    rng: np.random.Generator,
    orders: tuple[int, int],
    counts: tuple[int, int] | None = None,
    net: NetworkRealization | None = None,
) -> _TrialDraws:
    """Draw one trial's network and fading; mode-free.

    The draw sequence is macro arrivals, small arrivals, serving fading
    (the nearest macro BS, then the K nearest small BSs), then interferer
    fading for every listed BS (macro, then small). ``orders`` are the
    serving fading orders (_serving_orders); ``counts`` the arrivals per
    tier (point_counts); ``net`` injects a fixed realization instead.
    """
    if net is None:
        net = sample_network(scenario, rng, counts)
    alpha = scenario.pathloss
    h_macro = sample_gamma(orders[0], rng, size=1)
    h_small = sample_gamma(orders[1], rng, size=scenario.cluster_size)
    g_macro = sample_gamma(scenario.macro.users, rng, size=len(net.macro))
    g_small = sample_gamma(scenario.small.users, rng, size=len(net.small))
    gain_macro = net.macro ** (-alpha)
    gain_small = net.small ** (-alpha)
    return _TrialDraws(
        net=net,
        h_macro=h_macro,
        h_small=h_small,
        gain_macro=gain_macro,
        gain_small=gain_small,
        faded_macro=g_macro * gain_macro,
        faded_small=g_small * gain_small,
        tail=tail_interference(scenario, net),
    )


def _evaluate_trial(
    scenario: Scenario, mode: str, draws: _TrialDraws
) -> tuple[AssociationEvent, float, np.ndarray]:
    """Association event, SINR and serving distances of one mode on a draw.

    Draws nothing, so every mode evaluated on the same draws sees the
    same network and channels.
    """
    net = draws.net
    k = scenario.cluster_size if mode == COOPERATIVE else 1
    event = select_tier(scenario, mode, float(net.macro[0]), net.small[:k])

    # Desired power: non-coherent sum of Gamma(delta)-faded serving links.
    if event.macro_serving:
        macro_served, small_served = 1, 0
        serving = net.macro[:1]
        desired = scenario.macro.power * float(draws.h_macro[0] * draws.gain_macro[0])
    else:
        macro_served = 0
        small_served = k if event is AssociationEvent.CLUSTER else 1
        serving = net.small[:small_served]
        desired = scenario.small.power * float(
            np.dot(draws.h_small[:small_served], draws.gain_small[:small_served])
        )

    # Interference: Gamma(psi)-faded power from every other listed BS, plus
    # the mean of the BSs beyond the last ones.
    interference = (
        scenario.macro.power * float(draws.faded_macro[macro_served:].sum())
        + scenario.small.power * float(draws.faded_small[small_served:].sum())
        + draws.tail
    )
    return event, desired / (interference + scenario.noise), serving


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def simulate_trial(
    scenario: Scenario,
    mode: str,
    rng: np.random.Generator,
    net: NetworkRealization | None = None,
) -> TrialOutcome:
    """Run one association + fading trial for the user at the origin.

    _draw_trial, then _evaluate_trial. The draw sequence is mode-independent
    (see _draw_trial), so runs sharing a seed see identical networks and
    channels across modes (common random numbers), and mode comparisons are
    paired rather than independent.

    ``net`` injects a fixed realization instead of sampling one.
    """
    _check_mode(mode)
    draws = _draw_trial(scenario, rng, _serving_orders(scenario), net=net)
    event, sinr, serving = _evaluate_trial(scenario, mode, draws)
    return TrialOutcome(
        event=event, sinr=sinr, serving_distances=tuple(float(r) for r in serving)
    )


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


def run_modes(
    scenario: Scenario,
    modes: tuple[str, ...],
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> dict[str, TrialBatch]:
    """Simulate ``trials`` trials once and evaluate each for every mode.

    Trial i draws from ``Philox(master_seed).jumped(i)`` whatever the modes,
    so ``run_modes(s, modes, ...)[mode]`` is byte-identical to
    ``run_trials(s, mode, ...)``, and to itself for any ``workers``. The
    workers are threads that share CPython's GIL, so more of them give no
    speed-up.
    """
    modes = tuple(dict.fromkeys(modes))
    if not modes:
        raise ValueError("modes must be nonempty")
    for mode in modes:
        _check_mode(mode)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    base = np.random.Philox(key=master_seed)
    orders = _serving_orders(scenario)
    counts = point_counts(scenario)
    columns = [
        (mode, np.empty(trials, dtype=np.int8), np.empty(trials, dtype=np.float64))
        for mode in modes
    ]

    def run_range(start: int, stop: int) -> None:
        for i in range(start, stop):
            rng = np.random.Generator(base.jumped(i))
            draws = _draw_trial(scenario, rng, orders, counts)
            for mode, events, sinr in columns:
                event, value, _ = _evaluate_trial(scenario, mode, draws)
                events[i] = EVENT_CODES[event]
                sinr[i] = value

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
    """Simulate ``trials`` trials of one mode: ``run_modes`` with that mode alone.

    Every mode of trial i reads the same draws, so the batch equals the
    matching entry of ``run_modes(scenario, MODES, ...)`` byte for byte.
    """
    return run_modes(scenario, (mode,), trials, master_seed, workers)[mode]


def coverage_from_batch(batch: TrialBatch, threshold: float) -> MetricResult:
    """Empirical P[SINR > threshold] with a 95% binomial CI halfwidth."""
    n = batch.trials
    p = float(np.count_nonzero(batch.sinr > threshold)) / n
    half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return MetricResult(value=p, method="mc", ci_halfwidth=half, trials=n)


def rate_from_batch(batch: TrialBatch) -> MetricResult:
    """Empirical mean spectral efficiency log2(1 + SINR), bit/s/Hz, 95% CI."""
    rate = np.log2(1.0 + batch.sinr)
    n = batch.trials
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


def association_from_batch(batch: TrialBatch) -> dict[AssociationEvent, MetricResult]:
    """Empirical association frequency per event, 95% binomial CIs."""
    return _event_frequencies(batch.events, "mc")


def _association_by_distance(
    scenario: Scenario, mode: str, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized association sampling from exact nearest-distance laws.

    Only the nearest macro distance and the K nearest small distances enter
    the selection, so they are drawn directly, from the same arrival-time
    construction the trials use. Returns the int8 event code per trial.
    """
    k = scenario.cluster_size if mode == COOPERATIVE else 1
    lam_m = scenario.macro.density
    lam_s = scenario.small.density
    alpha = scenario.pathloss

    r_macro = np.sqrt(rng.standard_exponential(trials) / (math.pi * lam_m))
    arrivals = np.cumsum(rng.standard_exponential((trials, k)), axis=1)
    r_small = np.sqrt(arrivals / (math.pi * lam_s))

    # Same biased-power rule select_tier applies, vectorized over trials.
    macro_power = _biased_gain(scenario.macro) * r_macro ** (-alpha)
    if mode == NONCOOPERATIVE:
        small_power = _biased_gain(scenario.small) * r_small[:, 0] ** (-alpha)
        win = small_power > macro_power
        codes = np.where(
            win, EVENT_CODES[AssociationEvent.SMALL], EVENT_CODES[AssociationEvent.MACRO]
        )
    else:
        small_power = _biased_gain(scenario.small) * (r_small ** (-alpha)).sum(axis=1)
        win = small_power > macro_power
        codes = np.where(
            win,
            EVENT_CODES[AssociationEvent.CLUSTER],
            EVENT_CODES[AssociationEvent.MACRO_COOP],
        )
    return codes.astype(np.int8)


def empirical_association(
    scenario: Scenario, mode: str, trials: int, master_seed: int
) -> dict[AssociationEvent, MetricResult]:
    """Association frequencies by simulation of the selection inputs alone."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = np.random.Generator(np.random.Philox(key=master_seed))
    codes = _association_by_distance(scenario, mode, trials, rng)
    return _event_frequencies(codes, "mc-distance")
