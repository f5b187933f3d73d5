"""Cell selection, exclusion radii, association probabilities, and
serving-distance PDFs for the four association events.

Internally the small-tier geometry is handled in arrival coordinates
t_i = lambda_s * pi * r_i^2: the ordered distances of a homogeneous PPP map
to the arrival times of a unit-rate Poisson process, which makes every
association integral dimensionless in (density ratio, power advantage,
pathloss, K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy import integrate

from .model import (
    COOPERATIVE,
    MODES,
    NONCOOPERATIVE,
    Scenario,
    TierParams,
    derive_tier,
    hat_ratios,
)


class AssociationEvent(Enum):
    """Who serves the typical user."""

    MACRO = "macro"            # noncooperative: nearest macro BS
    SMALL = "small"            # noncooperative: nearest small BS
    MACRO_COOP = "macro_coop"  # cooperative: macro BS beats the cluster
    CLUSTER = "cluster"        # cooperative: K nearest small BSs jointly

    @property
    def cooperative(self) -> bool:
        return self in (AssociationEvent.MACRO_COOP, AssociationEvent.CLUSTER)

    @property
    def macro_serving(self) -> bool:
        return self in (AssociationEvent.MACRO, AssociationEvent.MACRO_COOP)


@dataclass(frozen=True)
class OrderedDistances:
    """Distances to the K nearest small BSs, ascending, meters."""

    r: tuple[float, ...]

    def __post_init__(self):
        if len(self.r) < 1:
            raise ValueError("need at least one distance")
        if self.r[0] <= 0.0:
            raise ValueError(f"distances must be positive, got {self.r[0]}")
        if any(b < a for a, b in zip(self.r, self.r[1:])):
            raise ValueError(f"distances must be ascending, got {self.r}")

    def __len__(self) -> int:
        return len(self.r)


def _biased_gain(t: TierParams) -> float:
    """B * fading_order * power: the biased mean received power at unit distance."""
    d = derive_tier(t)
    return d.bias * d.fading_order * t.power


def _as_ordered(sbs_distances) -> OrderedDistances:
    if isinstance(sbs_distances, OrderedDistances):
        return sbs_distances
    return OrderedDistances(tuple(float(v) for v in np.atleast_1d(sbs_distances)))


def select_tier(
    scenario: Scenario, mode: str, mbs_distance: float, sbs_distances
) -> AssociationEvent:
    """Pick the serving side by biased mean received power; ties go macro.

    Noncooperative mode weighs only the nearest small BS; cooperative mode
    weighs the power sum over the K = cluster_size nearest. sbs_distances
    must supply at least the distances the mode consumes.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mbs_distance <= 0.0:
        raise ValueError(f"mbs_distance must be positive, got {mbs_distance}")
    r = _as_ordered(sbs_distances)
    alpha = scenario.pathloss
    macro_power = _biased_gain(scenario.macro) * mbs_distance ** (-alpha)
    if mode == NONCOOPERATIVE:
        small_power = _biased_gain(scenario.small) * r.r[0] ** (-alpha)
        return AssociationEvent.SMALL if small_power > macro_power else AssociationEvent.MACRO
    k = scenario.cluster_size
    if len(r) < k:
        raise ValueError(f"cooperative mode needs {k} distances, got {len(r)}")
    small_power = _biased_gain(scenario.small) * sum(ri ** (-alpha) for ri in r.r[:k])
    return AssociationEvent.CLUSTER if small_power > macro_power else AssociationEvent.MACRO_COOP


def exclusion_radius_mbs(scenario: Scenario, sbs_distances) -> float:
    """Nearest-macro distance beyond which the cluster wins the selection.

    The cluster event requires the nearest macro BS farther than
    (sum of small-to-macro biased power ratios times r_i^(-alpha))^(-1/alpha).
    """
    r = _as_ordered(sbs_distances)
    k = scenario.cluster_size
    if len(r) < k:
        raise ValueError(f"need {k} distances, got {len(r)}")
    alpha = scenario.pathloss
    gain_ratio = _biased_gain(scenario.small) / _biased_gain(scenario.macro)
    power_sum = gain_ratio * sum(ri ** (-alpha) for ri in r.r[:k])
    return power_sum ** (-1.0 / alpha)


def assoc_prob_sbs_single(scenario: Scenario) -> float:
    """Probability the noncooperative user attaches to the small tier."""
    h = hat_ratios(scenario)
    alpha = scenario.pathloss
    return 1.0 / (1.0 + h.macro_advantage ** (2.0 / alpha) / h.density)


def _cone_coeff(scenario: Scenario) -> float:
    """Coefficient c with lambda_m*pi*eta^(2/alpha) = c * (sum t_i^(-alpha/2))^(-2/alpha)."""
    h = hat_ratios(scenario)
    return h.macro_advantage ** (2.0 / scenario.pathloss) / h.density


@lru_cache(maxsize=32)
def _arrival_samples(k: int, n: int, seed: int) -> np.ndarray:
    """Cached (n, k) matrix of the first k unit-rate Poisson arrival times."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_exponential((n, k)).cumsum(axis=1)


def _spike_hints(scale: float | None, upper: float) -> list | None:
    """Break-point hints bracketing an integrand feature of width ~scale.

    Deep-tail thresholds concentrate all coverage mass in a region far
    narrower than the integration range; adaptive quadrature's initial grid
    can step straight over it. Hinting a few decades around the feature
    forces panel boundaries there. scale=None means no feature to hint.
    """
    if scale is None:
        return None
    pts = [scale * f for f in (0.1, 1.0, 10.0, 100.0) if 0.0 < scale * f < upper]
    return pts or None


def _cluster_integral(
    scenario: Scenario, h=None, epsabs: float | None = None, spike: float | None = None
) -> float:
    """Integral of h(r_1..r_K) * exp(-lambda_m*pi*eta^(2/alpha)) * f(r) over
    the ordered cone, where f is the joint PDF of the K nearest small-BS
    distances. h=None means h=1, giving the cluster association probability.

    Quadrature in arrival coordinates for K <= 2; for K > 2 the expectation
    is taken over a cached deterministic sample of arrival vectors. spike
    hints the arrival coordinate where h concentrates (a coverage kernel at
    a deep-tail threshold is a narrow peak the initial grid would miss).
    """
    num = scenario.numerics
    if epsabs is None:
        epsabs = num.quad_epsabs
    k = scenario.cluster_size
    alpha = scenario.pathloss
    c = _cone_coeff(scenario)
    lam_s = scenario.small.density

    def radius(t):
        return np.sqrt(t / (math.pi * lam_s))

    if k <= 2:
        if k == 1:
            def integrand(t1):
                w = math.exp(-c * t1 - t1)
                return w if h is None else w * h((radius(t1),))
        else:
            def integrand(t2):
                t2_half = t2 ** (-alpha / 2.0)

                def over_z(z):
                    t1 = t2 * z
                    if t1 <= 1e-60:  # nearest point on top of the user
                        eta_term = 0.0
                    else:
                        eta_term = (t1 ** (-alpha / 2.0) + t2_half) ** (-2.0 / alpha)
                    w = math.exp(-c * eta_term)
                    return w if h is None else w * h((radius(t1), radius(t2)))

                z_hints = None
                if spike is not None and spike < t2:
                    z_hints = [z for z in (spike / t2, min(10.0 * spike / t2, 0.5)) if z < 1.0]
                val, _ = integrate.quad(
                    over_z, 0.0, 1.0, epsabs=epsabs, limit=100, points=z_hints
                )
                return t2 * math.exp(-t2) * val

        tmax = -math.log(num.tail_mass) + 5.0
        val, err = integrate.quad(
            integrand, 0.0, tmax, epsabs=epsabs, limit=200, points=_spike_hints(spike, tmax)
        )
        if err > max(epsabs * 100.0, 1e-6):
            raise RuntimeError(
                f"cluster cone integral did not converge: estimate {val}, error {err}"
            )
        return val

    t = _arrival_samples(k, num.cluster_samples, scenario.seed)
    eta_term = (t ** (-alpha / 2.0)).sum(axis=1) ** (-2.0 / alpha)
    w = np.exp(-c * eta_term)
    if h is None:
        return float(w.mean())
    rows = radius(t)
    vals = np.fromiter((h(tuple(row)) for row in rows), dtype=float, count=len(rows))
    return float((w * vals).mean())


def assoc_prob_sbs_cluster(scenario: Scenario) -> float:
    """Probability the cooperative user attaches to the K-nearest-SBS cluster."""
    return _cluster_integral(scenario)


def association_probabilities(scenario: Scenario, mode: str) -> dict[AssociationEvent, float]:
    """Event probabilities for the requested mode (they sum to 1)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == NONCOOPERATIVE:
        a = assoc_prob_sbs_single(scenario)
        return {AssociationEvent.MACRO: 1.0 - a, AssociationEvent.SMALL: a}
    a = assoc_prob_sbs_cluster(scenario)
    return {AssociationEvent.MACRO_COOP: 1.0 - a, AssociationEvent.CLUSTER: a}


def ordered_distance_pdf(scenario: Scenario, r) -> float:
    """Joint PDF of the K nearest small-BS distances at the point r.

    (2*pi*lambda_s)^K * exp(-lambda_s*pi*r_K^2) * prod r_i on the ordered
    cone; the largest distance carries the exponent. Returns 0 off the cone.
    """
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    if rr[0] <= 0.0 or np.any(np.diff(rr) < 0.0):
        return 0.0
    lam = scenario.small.density
    k = len(rr)
    return float(
        (2.0 * math.pi * lam) ** k * np.exp(-lam * math.pi * rr[-1] ** 2) * np.prod(rr)
    )


def mbs_win_prob(scenario: Scenario, mbs_distance: float) -> float:
    """P[the macro BS at mbs_distance beats the small-cell cluster].

    The cluster loses when sum_i r_i^(-alpha) < beta * r_m^(-alpha) with
    beta the macro power advantage; in arrival coordinates this is a
    condition on sum t_i^(-alpha/2).
    """
    if mbs_distance <= 0.0:
        raise ValueError(f"mbs_distance must be positive, got {mbs_distance}")
    alpha = scenario.pathloss
    k = scenario.cluster_size
    beta = hat_ratios(scenario).macro_advantage
    tau = scenario.small.density * math.pi * mbs_distance ** 2
    bound = beta * tau ** (-alpha / 2.0)  # threshold on sum t_i^(-alpha/2)
    if k == 1:
        return math.exp(-bound ** (-2.0 / alpha))
    if k == 2:
        lo = bound ** (-2.0 / alpha)          # below this t1 alone overshoots
        knee = (2.0 / bound) ** (2.0 / alpha)  # beyond this t2 > t1 suffices

        def integrand(t1):
            slack = bound - t1 ** (-alpha / 2.0)
            if slack <= 0.0:  # the nearest SBS alone already beats the MBS
                return 0.0
            return math.exp(-max(t1, slack ** (-2.0 / alpha)))

        val, _ = integrate.quad(
            integrand, lo, knee, epsabs=scenario.numerics.quad_epsabs, limit=200
        )
        return val + math.exp(-knee)
    t = _arrival_samples(k, scenario.numerics.cluster_samples, scenario.seed)
    s = np.sort((t ** (-alpha / 2.0)).sum(axis=1))
    return float(np.searchsorted(s, bound, side="left") / len(s))


def serving_distance_pdf(event: AssociationEvent, scenario: Scenario):
    """Density of the serving distance(s) conditioned on the event.

    Returns a callable over a scalar distance for the three single-server
    events, or over a K-vector of ascending distances for the cluster event.
    """
    alpha = scenario.pathloss
    h = hat_ratios(scenario)
    beta = h.macro_advantage
    lam_m, lam_s = scenario.macro.density, scenario.small.density

    if event is AssociationEvent.MACRO:
        mix = lam_m + lam_s * beta ** (-2.0 / alpha)
        norm = 1.0 - assoc_prob_sbs_single(scenario)

        def pdf_macro(r: float) -> float:
            if r <= 0.0:
                return 0.0
            return 2.0 * math.pi * lam_m * r * math.exp(-math.pi * r * r * mix) / norm

        return pdf_macro

    if event is AssociationEvent.SMALL:
        mix = lam_s + lam_m * beta ** (2.0 / alpha)
        norm = assoc_prob_sbs_single(scenario)

        def pdf_small(r: float) -> float:
            if r <= 0.0:
                return 0.0
            return 2.0 * math.pi * lam_s * r * math.exp(-math.pi * r * r * mix) / norm

        return pdf_small

    if event is AssociationEvent.MACRO_COOP:
        norm = 1.0 - assoc_prob_sbs_cluster(scenario)

        def pdf_macro_coop(r: float) -> float:
            if r <= 0.0:
                return 0.0
            nearest = 2.0 * math.pi * lam_m * r * math.exp(-lam_m * math.pi * r * r)
            return nearest * mbs_win_prob(scenario, r) / norm

        return pdf_macro_coop

    if event is AssociationEvent.CLUSTER:
        norm = assoc_prob_sbs_cluster(scenario)
        coeff = _cone_coeff(scenario)
        lam_pi = lam_s * math.pi

        def pdf_cluster(r) -> float:
            rr = np.atleast_1d(np.asarray(r, dtype=float))
            if len(rr) != scenario.cluster_size:
                raise ValueError(
                    f"expected {scenario.cluster_size} distances, got {len(rr)}"
                )
            base = ordered_distance_pdf(scenario, rr)
            if base == 0.0:
                return 0.0
            t_term = ((lam_pi * rr * rr) ** (-alpha / 2.0)).sum() ** (-2.0 / alpha)
            return math.exp(-coeff * t_term) * base / norm

        return pdf_cluster

    raise ValueError(f"unknown event {event!r}")
