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


class IntegrationFailure(RuntimeError):
    """An adaptive quadrature could not meet its tolerance."""


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


# Multiples of the spike scale where _panel_edges places its hints.
_HINT_FACTORS = np.array([0.1, 1.0, 10.0, 100.0])


def _panel_edges(upper, spike):
    """Panel edges over (0, upper), split at break-point hints bracketing an
    integrand feature of width ~spike, per entry of upper and spike (floats
    or 1-D arrays, broadcast): shape + (6,), or + (2,) for spike=None.

    Deep-tail thresholds concentrate all coverage mass in a region far
    narrower than the integration range; adaptive quadrature's initial grid
    can step straight over it. Hints at 0.1, 1, 10 and 100 times spike force
    panel boundaries there. A hint past upper moves to upper, and one of a
    zero spike sits at 0: either leaves an empty panel, which _gauss_kronrod
    skips, so every entry keeps its own panels whatever the other entries'
    hints.
    """
    upper = np.asarray(upper, dtype=float)
    if spike is None:
        return np.stack([np.zeros_like(upper), upper], axis=-1)
    edges = np.empty(np.broadcast(upper, spike).shape + (6,))
    edges[..., 0] = 0.0
    np.minimum(np.multiply.outer(spike, _HINT_FACTORS), upper[..., None], out=edges[..., 1:5])
    edges[..., 5] = upper
    return edges


# Points per integrand call, and outer rows per inner-level call of a cone
# integral. Each outer row brings 21 nodes for each of up to four pieces of
# its inner level, so 128 rows make at most ~10.8k inner nodes: the 105
# outer nodes of one threshold's first outer round fit one call, and a batch
# of thresholds makes calls of that size, so that one call's intermediates
# do not set the process's peak memory.
_CHUNK = 4096
_LEVEL_ROWS = 128

# QUADPACK's qk21 rule (Piessens et al., 1983): the 21 Kronrod nodes on
# [-1, 1] and their weights, mirrored from the nonnegative half, and the
# 10-point Gauss weights, which sit on the odd-indexed nodes.
_GK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_K21_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_G10_HALF = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.r_[_GK_HALF, -_GK_HALF[-2::-1]]
_K21 = np.r_[_K21_HALF, _K21_HALF[-2::-1]]
_G10 = np.zeros(21)
_G10[1:10:2], _G10[11::2] = _G10_HALF, _G10_HALF[::-1]
_K21_G10 = _K21 - _G10
# Most pieces one interval may be cut into (QUADPACK's `limit`).
_MAX_PIECES = 200


def _chunked(f, *arrays, size: int = _CHUNK) -> np.ndarray:
    """f over the leading axis of the arrays, at most size entries per call."""
    n = len(arrays[0])
    if n <= size:
        return f(*arrays)
    return np.concatenate([f(*(a[i:i + size] for a in arrays)) for i in range(0, n, size)])


def _check_quadrature(val, err, epsabs: float, what: str, at=None):
    """Raise unless the error estimate of a cone integral meets its gate, for
    every entry of val and err (floats or arrays). `at` names the entries in
    the message: the thresholds of a batch of coverage integrals."""
    bad = np.flatnonzero(np.asarray(err) > max(epsabs * 100.0, 1e-6))
    if bad.size:
        val, err = np.broadcast_arrays(val, err)
        names = [""] * val.size if at is None else [f" at threshold {t}" for t in np.ravel(at)]
        raise IntegrationFailure(f"{what} did not converge" + "; ".join(
            f"{names[i]}: estimate {val.flat[i]}, error {err.flat[i]}" for i in bad
        ))


def _gauss_kronrod(f, a, b, epsabs: float, what: str, args=()):
    """Vectorized adaptive Gauss-Kronrod (G10/K21) quadrature of f over the
    intervals (a, b), arrays of any shape with args broadcast against them.

    Each round evaluates every live piece of every interval in one call,
    f(x, *args) with x an (n, 21) array of nodes and each arg an (n, 1)
    column, and returns (n, 21) values or (n, 21, ...) vectors. A piece's
    error estimate is the largest component of |K21 - G10|. A piece whose error
    exceeds its share of epsabs is bisected, each half taking half the
    share, until every piece meets its share or the interval's summed error
    meets epsabs. Returns per-interval integrals and error estimates; a
    non-finite integrand value, or an interval that would need more than
    _MAX_PIECES pieces, raises.
    """
    a, b, *args = np.broadcast_arrays(a, b, *args)
    shape = a.shape
    lo, hi = a.astype(float).ravel(), b.astype(float).ravel()
    args = [x.ravel() for x in args]
    n = lo.size
    owner = np.flatnonzero(hi > lo)  # an empty interval adds nothing
    lo, hi, share = lo[owner], hi[owner], np.full(owner.size, float(epsabs))
    val, err, pieces = np.zeros(n), np.zeros(n), np.ones(n, dtype=np.int64)
    while owner.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = f(mid[:, None] + half[:, None] * _GK_NODES, *(x[owner, None] for x in args))
        if not np.isfinite(fx).all():
            raise IntegrationFailure(f"{what}: non-finite integrand value")
        if fx.ndim == 2:  # one value per node
            kronrod, piece_err = half * (fx @ _K21), half * np.abs(fx @ _K21_G10)
        else:  # vectors: nodes last, after the trailing axes
            fx = np.moveaxis(fx, 1, -1)
            kronrod = half.reshape((-1,) + (1,) * (fx.ndim - 2)) * (fx @ _K21)
            piece_err = half * np.abs(fx @ _K21_G10).reshape(len(half), -1).max(axis=1)
        if val.shape[1:] != kronrod.shape[1:]:  # the first round fixes the trailing axes
            val = np.zeros((n,) + kronrod.shape[1:])
        # the summed test ends an interval whose error is set by an integrable
        # endpoint singularity: there a piece's error falls slower than its share
        total_err = err + np.bincount(owner, piece_err, minlength=n)
        done = (piece_err <= share) | (total_err[owner] <= epsabs)
        if val.ndim == 1:
            val += np.bincount(owner[done], kronrod[done], minlength=n)
        else:
            gained = np.zeros_like(val)  # summed per interval first, as bincount would
            np.add.at(gained, owner[done], kronrod[done])
            val += gained
        err += np.bincount(owner[done], piece_err[done], minlength=n)
        if done.all():
            break
        split = ~done
        owner, lo, mid, hi, share = (x[split] for x in (owner, lo, mid, hi, share))
        pieces += np.bincount(owner, minlength=n)
        over = pieces > _MAX_PIECES
        if over.any():
            raise IntegrationFailure(
                f"{what} did not converge within {_MAX_PIECES} pieces on "
                f"{int(over.sum())} of {n} intervals: error estimate "
                f"{total_err[over][:3].tolist()}"
            )
        owner, share = np.concatenate([owner, owner]), np.concatenate([share, share]) / 2.0
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return val.reshape(shape + val.shape[1:]), err.reshape(shape)


def _panel_integral(f, upper, epsabs: float, what: str, spike=None):
    """(integral, error estimate) of f over (0, upper) by adaptive
    Gauss-Kronrod on panels split at the spike hints (_panel_edges), one pair
    per entry of upper and spike (floats or 1-D arrays, broadcast). f(x, key)
    maps a 1-D array of nodes, at most _CHUNK of them per call, and the
    index of each node's entry, to their values."""
    edges = _panel_edges(upper, spike)
    lo, hi = edges[..., :-1], edges[..., 1:]
    key = np.arange(lo.size // lo.shape[-1]).repeat(lo.shape[-1]).reshape(lo.shape)

    def over_panels(x, key):
        return _chunked(f, x.ravel(), key.repeat(x.shape[-1], axis=-1).ravel()).reshape(x.shape)

    val, err = _gauss_kronrod(over_panels, lo, hi, epsabs, what, args=(key,))
    return val.sum(axis=-1), err.sum(axis=-1)


def _cone_levels(f, z_edges, epsabs: float, what: str, inner_err: list):
    """level(i, outer, key): the integral of f over t_1..t_i given the rows
    `outer` of (t_(i+1), ...) and the entry `key` of each row. Level i runs
    z_i = t_i/t_(i+1) over the pieces between the edges
    z_edges(i, outer, key), one row per outer row, as one batched
    _gauss_kronrod call per _LEVEL_ROWS outer rows, and carries the Jacobian
    t_(i+1). f(rows, key) maps
    an (n, m) array of rows and their entries to n values or n rows of
    values, at most _CHUNK rows per call. inner_err[i][e] keeps the largest
    error of level i over the rows of entry e, so that an entry's gate does
    not depend on the entries integrated beside it."""

    def level(i, outer, key):
        if i == 0:
            return f(outer, key)
        return _chunked(lambda o, k: one_level(i, o, k), outer, key, size=_LEVEL_ROWS)

    def one_level(i, outer, key):
        t_next = outer[:, 0]
        edges = z_edges(i, outer, key)

        def over_z(z, row):
            tail = np.broadcast_to(outer[row], z.shape + outer.shape[1:])
            rows = np.concatenate([(z * t_next[row])[..., None], tail], axis=-1)
            values = _chunked(
                lambda r, k: level(i - 1, r, k),
                rows.reshape(-1, rows.shape[-1]), key[row].repeat(z.shape[-1], axis=-1).ravel(),
            )
            return values.reshape(z.shape + values.shape[1:])

        val, err = _gauss_kronrod(
            over_z, edges[:, :-1], edges[:, 1:], epsabs, f"{what} (inner)",
            args=(np.arange(len(t_next))[:, None],),
        )
        np.maximum.at(inner_err[i], key, err.sum(axis=-1))
        val = val.sum(axis=1)
        return t_next.reshape((-1,) + (1,) * (val.ndim - 1)) * val

    return level


def _cone_integral(
    k: int, f, upper, epsabs: float, what: str, spike=None, rate: float = 1.0
):
    """(integral, error estimate) of E[f(t_1..t_k)] over the first k arrival
    times of a unit-rate Poisson process: f(t) * exp(-t_k) over the ordered
    cone 0 < t_1 < ... < t_k < upper. A rate other than 1 weights by
    exp(-rate * t_k) instead; rate = 0 integrates f alone. f(t, key) maps an
    (n, k) array of ascending rows and the entry of each row to n values, at
    most _CHUNK rows per call.

    upper and spike are floats or 1-D arrays, broadcast: one integral per
    entry, each on its own pieces and with its own error estimate, as if
    integrated alone. t_k runs outermost on the panels of _panel_integral.
    Each inner level i = k-1..1 runs z_i = t_i/t_(i+1) over (0, 1), split at
    z = spike/t_(i+1) and 10*spike/t_(i+1) (_cone_levels). The error is the
    outer estimate plus the largest error of each inner level: the weights
    an inner level's result is integrated against over the rest of the cone
    integrate to at most 1. spike hints the arrival coordinate where f
    concentrates (a coverage kernel at a deep-tail threshold is a narrow
    peak the first round would miss).
    """
    shape = np.broadcast(upper, 0.0 if spike is None else spike).shape
    inner_err = [np.zeros(math.prod(shape)) for _ in range(k)]
    spikes = None if spike is None else np.broadcast_to(spike, shape).ravel()

    def z_edges(i, outer, key):
        t_next = outer[:, 0]
        z_hints = np.empty((len(t_next), 0))
        if spike is not None:
            s = spikes[key]
            with np.errstate(divide="ignore"):
                z_hints = np.sort([
                    np.minimum(s / t_next, 1.0),
                    np.where(s < t_next, np.minimum(10.0 * s / t_next, 0.5), 1.0),
                ], axis=0).T
        return np.column_stack([np.zeros_like(t_next), z_hints, np.ones_like(t_next)])

    level = _cone_levels(f, z_edges, epsabs, what, inner_err)
    val, err = _panel_integral(
        lambda t_k, key: np.exp(-rate * t_k) * level(k - 1, t_k[:, None], key),
        upper, epsabs, what, spike,
    )
    return val, err + sum(inner_err).reshape(shape)


def _shape_integral(scenario: Scenario, f, epsabs: float, what: str, spike=None, at=None):
    """Unit-weight integral of f(t, rate, key) over the shape
    z = (t_1..t_(K-1))/t_K of the K nearest arrivals, 0 < z_1 < ... < 1.

    With t_K as the scale, the cone weight e^(-t_K - c eta(t)) dt is
    t_K^(K-1) e^(-t_K (1 + c eta(z, 1))) dt_K dz, so f takes an (n, K) array
    of rows t = (z, 1), the rates 1 + c*eta(t) at them and each row's entry.
    One _cone_integral over the K-1 shape coordinates, each entry's error
    estimate checked against the gate; K = 1 has no shape and gives f at
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
        val, err = _cone_integral(k - 1, over_shape, 1.0, epsabs, what, spike, rate=0.0)
        _check_quadrature(val, err, epsabs, what, at)
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
