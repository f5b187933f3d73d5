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

from .model import (
    COOPERATIVE,
    MODES,
    NONCOOPERATIVE,
    Scenario,
    TierParams,
    derive_tier,
    hat_ratios,
)
from .quadrature import IntegrationFailure, _cone_integral  # noqa: F401 (re-exported)


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


def _small_side_wins(
    scenario: Scenario, mode: str, macro_gain: np.ndarray, small_gains: np.ndarray
) -> np.ndarray:
    """select_tier's biased-power rule over rows of path gains r^(-alpha).

    macro_gain holds the nearest macro BS's gain per row; small_gains the
    small BSs' gains, nearest first, one row each and at least as many
    columns as the mode consumes. True where the small side (the nearest
    small BS, or the cluster) wins; ties go macro. Unchecked: the callers
    validate the mode and draw positive distances.
    """
    macro_power = _biased_gain(scenario.macro) * macro_gain
    if mode == NONCOOPERATIVE:
        small = small_gains[:, 0]
    else:
        small = small_gains[:, : scenario.cluster_size].sum(axis=1)
    return _biased_gain(scenario.small) * small > macro_power


def exclusion_radius_mbs(scenario: Scenario, sbs_distances) -> float:
    """Nearest-macro distance beyond which the cluster wins the selection.

    The cluster event requires the nearest macro BS farther than
    (sum of small-to-macro biased power ratios times r_i^(-alpha))^(-1/alpha).
    """
    r = _as_ordered(sbs_distances)
    k = scenario.cluster_size
    if len(r) < k:
        raise ValueError(f"need {k} distances, got {len(r)}")
    return float(_cluster_exclusion(scenario, np.array(r.r[:k])))


def _cluster_exclusion(scenario: Scenario, r: np.ndarray):
    """exclusion_radius_mbs over the last axis of r, K distances per row, unchecked."""
    alpha = scenario.pathloss
    gain_ratio = _biased_gain(scenario.small) / _biased_gain(scenario.macro)
    return (gain_ratio * (r ** (-alpha)).sum(axis=-1)) ** (-1.0 / alpha)


def assoc_prob_sbs_single(scenario: Scenario) -> float:
    """Probability the noncooperative user attaches to the small tier."""
    h = hat_ratios(scenario)
    alpha = scenario.pathloss
    return 1.0 / (1.0 + h.macro_advantage ** (2.0 / alpha) / h.density)


def _cone_coeff(scenario: Scenario) -> float:
    """Coefficient c with lambda_m*pi*eta^(2/alpha) = c * (sum t_i^(-alpha/2))^(-2/alpha)."""
    h = hat_ratios(scenario)
    return h.macro_advantage ** (2.0 / scenario.pathloss) / h.density


def _shape_integral(scenario: Scenario, f, epsabs: float, what: str, spike=None, at=None):
    """Unit-weight integral of f(t, rate, key) over the shape
    z = (t_1..t_(K-1))/t_K of the K nearest arrivals, 0 < z_1 < ... < 1.

    With t_K as the scale, the cone weight e^(-t_K - c eta(t)) dt is
    t_K^(K-1) e^(-t_K (1 + c eta(z, 1))) dt_K dz, so f takes an (n, K) array
    of rows t = (z, 1), the rates 1 + c*eta(t) at them and each row's entry.
    One _cone_integral over the K-1 shape coordinates, each entry's error
    estimate checked against its gate; K = 1 has no shape and gives f at
    t = (1,). spike hints the shape coordinate where f concentrates: a float
    gives one integral, a 1-D array one per entry, named in a failure
    message by `at`. assoc_prob_sbs_cluster and mbs_win_prob are the
    association integrals on it; the cluster coverage of the analysis module
    is the third.
    """
    k, alpha = scenario.cluster_size, scenario.pathloss
    c = _cone_coeff(scenario)

    def over_shape(z, key):
        t = np.column_stack([z, np.ones(len(z))])
        with np.errstate(divide="ignore"):
            eta = (t ** (-alpha / 2.0)).sum(axis=1) ** (-2.0 / alpha)
        return f(t, 1.0 + c * eta, key)

    if k == 1:
        n = np.size(spike)
        val = over_shape(np.empty((n, 0)), np.arange(n)).reshape(np.shape(spike))
    else:
        val = _cone_integral(k - 1, over_shape, 1.0, epsabs, what, spike, rate=0.0, at=at)[0]
    return val if val.ndim else float(val)


@lru_cache(maxsize=32)
def assoc_prob_sbs_cluster(scenario: Scenario) -> float:
    """Probability the cooperative user attaches to the K-nearest-SBS cluster.

    E[exp(-lambda_m*pi*eta^(2/alpha))] over the K nearest arrivals, whose
    scale t_K integrates out to (K-1)! (1 + c*eta(z, 1))^(-K), a
    _shape_integral. Cached per scenario: coverage_overall and both
    cooperative conditionals need it for the same scenario.
    """
    k = scenario.cluster_size

    def integrand(t, rate, key):
        return math.factorial(k - 1) * rate ** -k

    epsabs = scenario.numerics.quad_epsabs
    return _shape_integral(scenario, integrand, epsabs, "cluster association")


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
    beta the macro power advantage; in arrival coordinates this is
    sum_i t_i^(-alpha/2) < lo^(-alpha/2), where lo = beta^(-2/alpha) * tau
    is the arrival coordinate at which one small BS alone matches the macro
    BS at tau = lambda_s*pi*r_m^2. At shape t = (z, 1) the macro BS wins
    iff the scale t_K exceeds x = lo * (sum_i t_i^(-alpha/2))^(2/alpha), so
    the scale integrates out to the Gamma(K) tail
    (K-1)! Q(K, x) = e^(-x) sum_{j<K} x^j (K-1)!/j!, a _shape_integral;
    K = 1 gives exp(-lo).
    """
    if mbs_distance <= 0.0:
        raise ValueError(f"mbs_distance must be positive, got {mbs_distance}")
    alpha = scenario.pathloss
    k = scenario.cluster_size
    beta = hat_ratios(scenario).macro_advantage
    lo = beta ** (-2.0 / alpha) * scenario.small.density * math.pi * mbs_distance ** 2

    def gamma_tail(t, rate, key):
        with np.errstate(divide="ignore", over="ignore"):
            x = lo * (t ** (-alpha / 2.0)).sum(axis=1) ** (2.0 / alpha)
        # x = inf where z_1 underflows; past x ~ 745 every term is 0 anyway,
        # and a finite x keeps 0 * x from giving NaN
        x = np.minimum(x, np.finfo(float).max)
        term = math.factorial(k - 1) * np.exp(-x)
        total = term
        for j in range(1, k):
            term = term * x / j
            total = total + term
        return total

    # the tail falls short of (K-1)! by about (lo/z_1)^K/K, a power of z_1
    # that reaches well past z_1 = lo, so the hints sit a decade further out
    return _shape_integral(
        scenario, gamma_tail, scenario.numerics.quad_epsabs, "macro win probability", 10.0 * lo
    )


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
