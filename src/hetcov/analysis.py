"""Analytic engine: interference Laplace transform and derivatives, coverage
probabilities conditioned on each association event, overall coverage, and
mean achievable rate.

Coverage of a Gamma(delta, 1)-faded link is the finite sum
sum_{k<delta} (-s)^k/k! * d^k/ds^k [e^(-sN) L_I(s)] averaged over the
serving distance. Each term is e^(-sN) L_I(s) times the k-th Taylor
coefficient of exp(sum_j y_j x^j / j), where y_j = (-s)^j g^(j)(s)/(j-1)!
are the scaled log-Laplace derivatives, g = -sN + log L_I. Every y_j is
non-negative, so one positive-term recurrence builds every series. One
incomplete-Beta ladder per tier gives every y_j of the interference, and
log L_I follows from y_1 by integrating the exponent by parts (_log_laplace).

The serving geometry splits into a scale coordinate (tau = pi*mix*r^2 for
one server, the farthest small-cell arrival t_K under cooperation) and
shape coordinates (the ratios t_i/t_K, and for the macro side under
cooperation rho = (r_m/r_K)^2). log L_I and every y_j of the
interference are linear in the scale; the noise term sN grows like
scale^(alpha/2), and it enters only through the scale average. With zero
noise, the Gamma moment-generating function averages the scale out in
closed form: the series becomes the coefficients of (1 - B(x)/D)^(-m), from
the same recurrence, and the single-server events are finite sums. With
noise, the same average runs as one adaptive integral over the whole scale
range. The cooperative events integrate the average over the shape
coordinates on the one adaptive Gauss-Kronrod rule of the quadrature
module, so every event has one route at every noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import special

from .association import (
    AssociationEvent,
    OrderedDistances,
    _cluster_exclusion,
    _shape_integral,
    assoc_prob_sbs_cluster,
    assoc_prob_sbs_single,
    exclusion_radius_mbs,
)
from .model import (
    MODES,
    NONCOOPERATIVE,
    Scenario,
    derive_tier,
    hat_ratios,
)
from .quadrature import IntegrationFailure, _gauss_kronrod, _nested_integral

_FOLD_DIGITS = 4.0    # split weights of the cluster fold stay near 10^_FOLD_DIGITS
_RADIAL_EPSABS = 1e-13  # per integral of laplace_interference_radial, integrands in (0, 1]
_RADIAL_RTOL = 1e-10    # its gate: summed error estimate over the exponent


@dataclass(frozen=True)
class LaplaceContext:
    """Argument bundle for the interference Laplace transform.

    s         Laplace argument, m^alpha / W (typically T * r^alpha / p)
    d_macro   closest possible macro interferer, m
    d_small   closest possible small interferer, m

    The three may be floats or broadcastable 1-D arrays, one entry per
    serving geometry; the functions taking a context then return one value
    (or one row of values) per geometry.
    """

    s: float | np.ndarray
    d_macro: float | np.ndarray
    d_small: float | np.ndarray
    scenario: Scenario

    def __post_init__(self):
        if np.less(self.s, 0.0).any():
            raise ValueError(f"s must be >= 0, got {self.s}")
        if np.less(self.d_macro, 0.0).any() or np.less(self.d_small, 0.0).any():
            raise ValueError("exclusion distances must be >= 0")

    def tiers(self):
        """(density, per-user power, interference fading shape, exclusion) per tier."""
        sc = self.scenario
        return (
            (sc.macro.density, sc.macro.power, sc.macro.users, self.d_macro),
            (sc.small.density, sc.small.power, sc.small.users, self.d_small),
        )


@dataclass(frozen=True)
class ServingContext:
    """One association event with its serving distance(s) and the exclusion
    radii it implies for the two interferer tiers."""

    event: AssociationEvent
    distances: tuple[float, ...]
    d_macro: float
    d_small: float


def serving_context(event: AssociationEvent, scenario: Scenario, serving) -> ServingContext:
    """Exclusion radii implied by serving the user from `serving` distance(s).

    Events pin interferers as follows (beta = macro power advantage):
    macro at r: macro beyond r, small beyond beta^(-1/alpha) r; small at r:
    small beyond r, macro beyond beta^(1/alpha) r; cluster at r_1..r_K:
    small beyond r_K, macro beyond the cluster exclusion radius; macro under
    cooperation reuses the single-small exclusion beta^(-1/alpha) r, which
    is exact for K = 1 only. Coverage does not use it: _coop_macro_joint
    conditions on the K losing small BSs at every K.
    """
    r = tuple(float(v) for v in np.atleast_1d(serving))
    if event is AssociationEvent.CLUSTER:
        if len(r) != scenario.cluster_size:
            raise ValueError(f"expected {scenario.cluster_size} distances, got {len(r)}")
        d_m = exclusion_radius_mbs(scenario, OrderedDistances(r))
        return ServingContext(event, r, d_macro=d_m, d_small=r[-1])
    if len(r) != 1:
        raise ValueError(f"event {event} takes one serving distance, got {len(r)}")
    d_macro, d_small = _single_exclusions(event, scenario, r[0])
    return ServingContext(event, r, d_macro=d_macro, d_small=d_small)


def _single_exclusions(event: AssociationEvent, scenario: Scenario, r):
    """(d_macro, d_small) of a single-server event serving from r, a float or
    an array of distances."""
    alpha = scenario.pathloss
    beta = hat_ratios(scenario).macro_advantage
    if event.macro_serving:
        return r, beta ** (-1.0 / alpha) * r
    return beta ** (1.0 / alpha) * r, r


def laplace_context(sctx: ServingContext, scenario: Scenario, threshold: float) -> LaplaceContext:
    """Laplace argument for a threshold at this serving geometry.

    Single-server events use s = T * r^alpha / p_serve; the cluster event
    uses the summed-gain argument s = T / (p_s * sum r_i^(-alpha)), the
    least of its per-link arguments T / (p_s r_i^(-alpha)); _cluster_kernel
    reads s = 0 there as certain coverage. Raises ValueError unless the
    threshold is finite and positive.
    """
    if not 0.0 < threshold < math.inf:  # False for NaN too
        what = "positive" if math.isfinite(threshold) else "finite"
        raise ValueError(f"threshold must be {what}, got {threshold!r}")
    alpha = scenario.pathloss
    if sctx.event is AssociationEvent.CLUSTER:
        gain = scenario.small.power * sum(r ** (-alpha) for r in sctx.distances)
        s = threshold / gain
    else:
        p = scenario.macro.power if sctx.event.macro_serving else scenario.small.power
        s = threshold * sctx.distances[0] ** alpha / p
    return LaplaceContext(s=s, d_macro=sctx.d_macro, d_small=sctx.d_small, scenario=scenario)


# ---------------------------------------------------------------------------
# Laplace transform of the interference


def _frozen(*arrays) -> tuple:
    """Make cached arrays read-only, since every caller shares them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=256)
def _tail_constants(psi: int, nmax: int, alpha: float):
    """Orders n = 1..nmax: Beta parameters a_n = n - 2/alpha, the scales
    B(a_n, b)/alpha with b = psi + 2/alpha, those times the weights
    (psi)_n/(n-1)! of the n-th scaled log-Laplace derivative y_n (they grow
    like n^psi, so fit a float at any order), and for n < nmax the
    log-coefficients -log(a_n B(a_n, b)) = log(Gamma(a_n+b)/(Gamma(a_n+1) Gamma(b)))
    of the downward step of DLMF 8.17(iv),
    I_u(a_n, b) = I_u(a_n+1, b) + u^(a_n) (1-u)^b / (a_n B(a_n, b))."""
    n = np.arange(1, nmax + 1)
    a, b = n - 2.0 / alpha, psi + 2.0 / alpha
    log_coeff = -np.log(a[:-1]) - special.betaln(a[:-1], b)
    scale = special.beta(a, b) / alpha
    weights = np.cumprod((psi + n - 1.0) / np.maximum(n - 1.0, 1.0))
    return _frozen(a, scale, weights * scale, log_coeff)


def _beta_ladder(u0, psi: int, nmax: int, alpha: float) -> np.ndarray:
    """I_u0(a_n, b) for n = 1..nmax >= 1, a_n = n - 2/alpha, b = psi + 2/alpha,
    along a new last axis (one row per entry of an array u0).

    One betainc call gives the top order nmax; the downward recurrence of
    DLMF 8.17(iv), I_u(a_n, b) = I_u(a_n+1, b) + u^(a_n) (1-u)^b / (a_n B(a_n, b)),
    gives every lower order by adding one non-negative term per step.
    """
    a, _, _, log_coeff = _tail_constants(psi, nmax, alpha)
    b = psi + 2.0 / alpha
    top = special.betainc(a[-1], b, u0)[..., None]
    if nmax == 1:  # no order below the top
        return top
    u0 = u0[..., None]
    steps = special.xlogy(a[:-1], u0)
    steps += special.xlog1py(b, -u0)
    steps += log_coeff
    orders = np.concatenate([np.exp(steps, out=steps), top], axis=-1)
    # I_n = I_nmax + steps n..nmax-1, accumulated from the top order down
    np.cumsum(orders[..., ::-1], axis=-1, out=orders[..., ::-1])
    return orders


def _log_laplace(ctx: LaplaceContext, nmax: int):
    """(log L_I(s), y_1..y_nmax) of the interference: a float and one row, or
    one entry and one row per entry of an array context, with
    y_n = (-s)^n/(n-1)! * d^n/ds^n log L_I(s) >= 0.

    A tier with u0 = s p/(s p + d^alpha) adds y_n = 2*pi*lambda*(s p)^(2/alpha)
    * (psi)_n/(n-1)! * B(a_n, b)/alpha * I_u0(a_n, b), all orders from one
    _beta_ladder at the top order max(nmax, 1). Integrating its exponent
    2*pi*lambda * int_d^inf (1 - (1 + s p u^-alpha)^-psi) u du by parts gives
    its log L_I = pi*lambda*d^2 (1 - (1 - u0)^psi) - (alpha/2) y_1; 0 at s = 0.
    """
    alpha = ctx.scenario.pathloss
    top = max(nmax, 1)
    log_l = y = 0.0
    for lam, p, psi, d in ctx.tiers():
        sp = ctx.s * p
        reach = sp + np.power(d, alpha)
        u0 = sp / np.where(reach > 0.0, reach, 1.0)  # 1 at d = 0, 0 at s = 0
        y_tier = (
            (2.0 * math.pi * lam * np.power(sp, 2.0 / alpha))[..., None]
            * _tail_constants(psi, top, alpha)[2] * _beta_ladder(u0, psi, top, alpha)
        )
        # 1 - (1 - u0)^psi; the clamp keeps log1p finite at u0 = 1 (d = 0)
        kept = -np.expm1(psi * np.log1p(-np.minimum(u0, 1.0 - 2.0**-53)))
        log_l = log_l + math.pi * lam * np.square(d) * kept - 0.5 * alpha * y_tier[..., 0]
        y = y + y_tier
    return log_l, y[..., :nmax]


def laplace_interference(ctx: LaplaceContext):
    """Laplace transform of total interference power at the given exclusions:
    a float for a float context, one value per entry of an array context."""
    value = np.exp(_log_laplace(ctx, 1)[0])
    return float(value) if np.ndim(value) == 0 else value


def laplace_interference_radial(ctx: LaplaceContext) -> float:
    """Independent radial-quadrature evaluation of the Laplace transform.

    Each tier adds lambda * int_d^inf (1-(1+s p u^-alpha)^-psi) u du to the
    exponent of L_I = exp(-2*pi*sum). In t = (u/scale)^-alpha, with
    scale = (s p)^(1/alpha), that is
    scale^2/alpha * int_0^t0 (1-(1+t)^-psi) t^(-1-2/alpha) dt, t0 = (d/scale)^-alpha.
    Two substitutions leave bounded integrands:
    - inner part, t < min(t0, 1): t = y^m with m = alpha/(alpha-2) turns
      t^(-2/alpha) dt into m dy, so the integrand is m (1-(1+t)^-psi)/t,
      psi at t = 0; y runs to min(t0, 1)^(1/m), stretched onto (0, 1);
    - tail, 1 < t < t0: t = y^(-alpha/2) maps it onto y in ((d/scale)^2, 1)
      with the integrand (alpha/2)(1-(1+t)^-psi); d = 0 is t0 = inf.
    Each integrand is scaled into (0, 1] and runs on the adaptive
    Gauss-Kronrod rule of the quadrature module. The exponent's summed error
    estimate must stay within _RADIAL_RTOL of it, or IntegrationFailure is
    raised. It takes one geometry: an array context raises ValueError.
    Slower than the incomplete-Beta form of laplace_interference; used for
    cross-validation.
    """
    if any(np.ndim(x) for x in (ctx.s, ctx.d_macro, ctx.d_small)):
        raise ValueError("laplace_interference_radial takes one geometry, not an array context")
    s = ctx.s
    if s == 0.0:
        return 1.0
    alpha = ctx.scenario.pathloss
    m, half_alpha = alpha / (alpha - 2.0), alpha / 2.0
    lam, p, psi, d = (np.array(col, dtype=float) for col in zip(*ctx.tiers()))
    scale2 = (s * p) ** (2.0 / alpha)
    v0 = d / np.sqrt(scale2)  # t0 = v0^-alpha
    top = np.maximum(v0, 1.0) ** (2.0 - alpha)  # min(t0, 1)^(1/m)

    def inner(x, psi, top):
        # (1-(1+t)^-psi)/(psi t) at t = (x top)^m; below the smallest normal
        # t it equals 1 to double precision
        t = np.maximum((x * top) ** m, np.finfo(float).tiny)
        return -np.expm1(-psi * np.log1p(t)) / (psi * t)

    def tail(y, psi):
        w = y ** half_alpha  # 1/t
        return 1.0 - (w / (1.0 + w)) ** psi

    what = "radial Laplace oracle"
    inner_val, inner_est = _gauss_kronrod(inner, 0.0, 1.0, _RADIAL_EPSABS, what, args=(psi, top))
    tail_val, tail_est = _gauss_kronrod(
        tail, np.minimum(v0, 1.0) ** 2, 1.0, _RADIAL_EPSABS, what, args=(psi,)
    )
    weight = 2.0 * math.pi * lam * scale2 / alpha
    exponent = float(weight @ (m * psi * top * inner_val + half_alpha * tail_val))
    err = float(weight @ (m * psi * top * inner_est + half_alpha * tail_est))
    if not err <= _RADIAL_RTOL * exponent:
        raise IntegrationFailure(f"{what} did not converge: exponent {exponent}, error {err}")
    return math.exp(-exponent)


def _taylor_terms(y, n: int, shape: float = math.inf, first=1.0) -> np.ndarray:
    """Taylor coefficients t_0..t_(n-1) of first * (1 - G(x)/shape)^(-shape),
    G(x) = sum_j y_j x^j / j, along the last axis, from y_1, y_2, ... along
    the last axis of y. The default shape = inf gives exp(G).

    With F = (1 - G/m)^(-m), F' (1 - G/m) = G' F gives t_0 = first and
    k t_k = sum_{j=1..k} y_j (1 + (k-j)/(m j)) t_(k-j) (Knuth, TAOCP Vol. 2,
    4.7). For non-negative y every term is non-negative, so the sum cannot
    cancel, and it needs no binomial, factorial or sign. A small `first`
    keeps terms in float range where the coefficients of F alone overflow.
    """
    y = np.asarray(y, dtype=float)
    t = np.empty(y.shape[:-1] + (n,))
    t[..., 0] = first
    j = np.arange(1.0, n)
    for k in range(1, n):
        y_k = y[..., :k]
        if shape != math.inf:
            y_k = y_k * (1.0 + (k - j[:k]) / (shape * j[:k]))
        t[..., k] = np.einsum("...j,...j->...", y_k, t[..., k - 1 :: -1]) / k
    return t


def _laplace_series(ctx: LaplaceContext, order: int) -> np.ndarray:
    """Terms (-s)^k/k! * d^k/ds^k[e^(-sN) L_I(s)] for k = 0..order-1, along
    the last axis.

    Their sum is the coverage of a Gamma(order,1)-faded link at this
    geometry. Around s, e^(-sN) L_I(s - s x) = e^(-sN) L_I(s) exp(G(x)),
    G(x) = sum_j y_j x^j / j over the scaled log-derivatives y_j, so term k
    is e^(-sN) L_I(s) times the k-th Taylor coefficient of exp(G).
    """
    log_l, y = _log_laplace(ctx, order - 1)
    kappa = ctx.s * ctx.scenario.noise
    base = np.exp(log_l - kappa)
    if not base.any():
        return np.zeros(np.shape(base) + (order,))
    y[..., :1] += np.asarray(kappa)[..., None]  # the noise's y_1
    return base[..., None] * _taylor_terms(y, order)


def _scale_average(poles, shape: int, rate, at=None) -> np.ndarray:
    """Weighted Laplace series integrated over a scale tau with weight
    tau^(m-1) e^(-rate tau), m = shape, one value per row: the sum over
    poles (ctx, w) of sum_k w[:, k] times term k of the _laplace_series at
    ctx's geometry (tau = 1, an array context) scaled by sqrt(tau).

    The scaling multiplies log L_I and every y_j of the interference by tau
    and the noise term sN by tau^(alpha/2): term k at scale tau is
    e^(-tau A - kappa tau^(alpha/2)) times the k-th Taylor coefficient of
    exp(tau B(x) + kappa tau^(alpha/2) x), with A = -log L_I,
    B(x) = sum_j y_j x^j / j and kappa = sN at tau = 1. At zero noise the
    Gamma moment-generating function gives (m-1)! D^(-m) (1 - B/D)^(-m),
    D = rate + A: the _taylor_terms of shape m at y_j * m/D. With noise,
    _gauss_kronrod covers all of (0, inf) in v = u/(1+u),
    u = 2 D' tau / (m + width - 1), D' the least rate + A + kappa^(2/alpha)
    over the poles, so u = 1 sits mid-mass of the terms (Gamma densities in
    D' tau of shape up to m + width - 1). Its integrand, the Gamma(m, rate)
    density times the series over their value sum_poles w[:, 0] at tau = 0,
    is bounded, so one absolute tolerance, a tenth of coverage_epsabs, holds
    for every row, or IntegrationFailure is raised, naming the rows'
    thresholds `at`. Each series starts from its weight, so no term
    overflows at large tau.
    """
    scenario = poles[0][0].scenario
    series = []
    for ctx, w in poles:
        log_l, y = _log_laplace(ctx, w.shape[1] - 1)  # the noise scales apart
        series.append((rate - log_l, y, ctx.s * scenario.noise, w))
    if scenario.noise == 0.0:
        return sum(
            math.factorial(shape - 1) * d ** -shape
            * (w * _taylor_terms(y * (shape / d)[:, None], w.shape[1], shape)).sum(axis=1)
            for d, y, _, w in series
        )

    alpha = scenario.pathloss
    n = len(series[0][0])
    rate = np.broadcast_to(rate, (n,))
    gamma_norm = math.factorial(shape - 1) * rate ** -shape
    at_zero = sum(w[:, 0] for *_, w in series)
    at_zero = np.where(at_zero != 0.0, np.abs(at_zero), 1.0)
    width = max(w.shape[1] for *_, w in series)
    u_per_tau = np.min([d + kappa ** (2.0 / alpha) for d, _, kappa, _ in series], axis=0)
    u_per_tau *= 2.0 / (shape + width - 1)
    log_norm = -np.log(gamma_norm * u_per_tau * at_zero)

    def integrand(v, row):
        tau = v / (1.0 - v) / u_per_tau[row]
        noise = tau ** (alpha / 2.0)
        log_weight = log_norm[row] + special.xlogy(shape - 1, tau) - 2.0 * np.log1p(-v)
        total = 0.0
        for d, y, kappa, w in series:
            y_tau = tau[..., None] * y[row]
            y_tau[..., :1] += (kappa[row] * noise)[..., None]
            first = np.exp(log_weight - d[row] * tau - kappa[row] * noise)
            total = total + (w[row] * _taylor_terms(y_tau, w.shape[1], first=first)).sum(axis=-1)
        return total

    # _gauss_kronrod returns no interval error above its epsabs, so a gate
    # here could never fire; the estimate is dropped until a bound carries it
    val, _ = _gauss_kronrod(
        integrand, 0.0, np.ones(n), 0.1 * scenario.numerics.coverage_epsabs, "scale average",
        args=(np.arange(n),), at=at,
    )
    return val * gamma_norm * at_zero


# ---------------------------------------------------------------------------
# Coverage kernels (probability of exceeding the threshold at fixed geometry)


def _tail_weights(ctx: LaplaceContext, order: int):
    """sum_{k<order} (-s)^k/k! * d^k/ds^k[e^(-sN) L_I(s)], the coverage of a
    Gamma(order,1)-faded link at this geometry (one value per geometry).
    Every series term is non-negative; rounding can only push the sum past 1."""
    return np.minimum(_laplace_series(ctx, order).sum(axis=-1), 1.0)


def _single_server_kernel(
    scenario: Scenario, event: AssociationEvent, r, threshold, rate=None
) -> np.ndarray:
    """Conditional coverage given a single serving BS, at each distance of
    the 1-D array r and its threshold (a float, or one per distance). Given
    rate, each value is instead the kernel at distance sqrt(u) r integrated
    over u with weight e^(-rate u), the _scale_average of shape 1."""
    r = np.asarray(r, dtype=float)
    tier = scenario.macro if event.macro_serving else scenario.small
    # laplace_context's single-server argument s = T * r^alpha / p_serve
    s = threshold * np.maximum(r, 0.0) ** scenario.pathloss / tier.power
    # s = 0 (a server at, or numerically at, zero distance): the series is
    # its k = 0 term L_I(0) = 1, certain coverage
    live = s > 0.0
    out = np.ones(r.shape) if rate is None else np.full(r.shape, 1.0 / rate)
    d_macro, d_small = _single_exclusions(event, scenario, r[live])
    ctx = LaplaceContext(s=s[live], d_macro=d_macro, d_small=d_small, scenario=scenario)
    order = derive_tier(tier).fading_order
    if rate is None:
        out[live] = _tail_weights(ctx, order)
    else:
        at = np.full(r.shape, threshold)[live]
        out[live] = _scale_average([(ctx, np.ones((len(ctx.s), order)))], 1, rate, at)
    return out


def _split_far(b, w, a, order: int):
    """Two-pole partial fractions of sum_l w[:, l-1] (1 + b s)^(-l) times
    (1 + a s)^(-order): the weights left on b, and those on a (orders
    1..order). With q = a/b and rho = q/(1-q), b's order i takes
    sum_(l>=i) w_l c_(l-i), c_n = (1-q)^(-order) (-rho)^n C(order+n-1, n),
    and a's order i takes sum_l w_l (-rho)^l (1-q)^(i-order) C(l+order-i-1, order-i).
    """
    rest = 1.0 - a / b
    n, i = np.arange(w.shape[1] + 1), np.arange(1, order + 1)
    powers = (a / b / -rest)[:, None] ** n  # (-rho)^0..(-rho)^width
    c = rest[:, None] ** -order * powers[:, :-1] * special.comb(order - 1 + n[:-1], n[:-1])
    old = np.einsum("nl,nli->ni", w, np.tril(c[:, np.subtract.outer(n[:-1], n[:-1])]))
    binomials = special.comb(n[1:, None] + order - i - 1, order - i)
    return old, (w * powers[:, 1:]) @ binomials * rest[:, None] ** (i - order)


def _reexpand_close(b, w, a, order: int):
    """Weights on a of sum_l w[:, l-1] (1 + b s)^(-l) times (1 + a s)^(-order),
    each (1 + b s)^(-l) re-expanded as the negative binomial mixture
    sum_k q^l C(l+k-1, k) (1-q)^k (1 + a s)^(-(l+k)), q = a/b <= 1.

    Term k+1 is term k times (1-q)(l+k)/(k+1), a ratio falling in k, so
    stopping before term k drops at most its mass over
    1 - (1-q)(width+k)/(k+1): the series stops once that is under 1e-12 in
    every row.
    """
    rest = 1.0 - a / b
    width = w.shape[1]
    l = np.arange(1.0, width + 1)[:, None]
    terms = [w.T * (a / b) ** l]  # terms[k][l-1], with the rows along the last axis
    while True:
        k = len(terms)
        terms.append(terms[-1] * rest * ((l + k - 1.0) / k))
        ratio = rest * ((width + k) / (k + 1.0))
        if np.all((ratio < 1.0) & (np.abs(terms[-1]).sum(axis=0) < 1e-12 * (1.0 - ratio))):
            break
    out = np.zeros((order + width + k - 1, len(w)))
    for j, term in enumerate(terms[:-1]):
        out[order + j : order + j + width] += term
    return out.T


def _erlang_mixture(gains, order: int) -> list:
    """Exact mixture form of prod_i (1 + a_i s)^(-order), row by row over an
    (n, K) array of gains.

    Sorted descending, the gains fall into runs, each gain within the
    switch gap 10^(-_FOLD_DIGITS/(n_tot-1)), n_tot = K * order, of the one
    before; split weights grow like gap^-(n_tot - 1). The fold starts from
    weight 1 at order `order` on a_1 and multiplies in (1 + a_j s)^(-order)
    for the first gain of each run, then for the others, so that no
    partial-fraction split (_split_far) meets a pole that a close gain has
    widened (_reexpand_close, non-negative weights).

    Rows are grouped by this pattern, at most 2^(K-1) of them. Returns
    [(rows, [(b, w), ...])], one entry per pattern: its row indices and, per
    pole, gains b of shape (len(rows),) and weights w of shape
    (len(rows), width), the product being sum_poles sum_l w[:, l-1] (1 + b s)^(-l).
    """
    a = np.sort(np.asarray(gains, dtype=float), axis=1)[:, ::-1]
    k = a.shape[1]
    switch = 10.0 ** (-_FOLD_DIGITS / (k * order - 1)) if k * order > 1 else 0.0
    close = 1.0 - a[:, 1:] / a[:, :-1] < switch
    pattern = (close.astype(np.int64) << np.arange(k - 1)).sum(axis=1)
    out = []
    for code in np.unique(pattern).tolist():
        rows = np.flatnonzero(pattern == code)
        run = np.cumsum([0] + [not code >> j & 1 for j in range(k - 1)])
        first = [j for j in range(k) if j == 0 or run[j] > run[j - 1]]
        poles = [(a[rows, j], np.zeros((len(rows), order))) for j in first]
        poles[0][1][:, -1] = 1.0
        for j in first[1:] + [j for j in range(k) if j not in first]:
            aj = a[rows, j]
            new = poles[run[j]][1] if j in first else _reexpand_close(*poles[run[j]], aj, order)
            for i, (b, w) in enumerate(poles):
                if i != run[j]:
                    old, share = _split_far(b, w, aj, order)
                    poles[i] = (b, old)
                    new[:, :order] += share
            poles[run[j]] = (aj, new)
        out.append((rows, poles))
    return out


def _cluster_kernel(scenario: Scenario, distances, threshold, rate=None) -> np.ndarray:
    """Conditional coverage given the cluster serves from these distances,
    one value per row of an (n, K) array of ascending distances and its
    threshold (a float, or one per row).

    The non-coherent power sum of Gamma-faded links folds into an exact
    Erlang mixture (_erlang_mixture). Given an array rate, each value is
    instead the kernel at distances sqrt(u) r integrated over u with weight
    u^(K-1) e^(-rate u): the _scale_average of shape K over the poles, since
    the fold's weights depend only on gain ratios.
    """
    r = np.asarray(distances, dtype=float)
    threshold = np.zeros(len(r)) + threshold  # one per row
    k = scenario.cluster_size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        path_gain = r ** (-scenario.pathloss)
        # laplace_context's summed-gain argument s = T / (p_s sum r_i^-alpha),
        # the least of the Laplace arguments the mixture uses
        s = threshold / (scenario.small.power * path_gain.sum(axis=1))
    # s = 0 (a server at, or numerically at, zero distance): the series is
    # its k = 0 term L_I(0) = 1, certain coverage; its scale integral is the
    # weight's, (K-1)! rate^(-K)
    weight = np.ones(len(r)) if rate is None else math.factorial(k - 1) * rate ** -k
    live = s > 0.0
    if not live.any():
        return weight
    order = derive_tier(scenario.small).fading_order
    r, gains, threshold = r[live], scenario.small.power * path_gain[live], threshold[live]
    d_macro, d_small = _cluster_exclusion(scenario, r), r[:, -1]
    if rate is not None:
        rate = rate[live]
    total = np.zeros(len(r))
    for rows, poles in _erlang_mixture(gains, order):
        # sum_l w_l sum_{k<l} (...) = sum_k (sum_{l>k} w_l) (...): each pole's
        # series terms weighted by cum[:, k] = sum_{l>k} w_l
        series = [
            (
                LaplaceContext(
                    s=threshold[rows] / b, d_macro=d_macro[rows], d_small=d_small[rows],
                    scenario=scenario,
                ),
                np.cumsum(weights[:, ::-1], axis=1)[:, ::-1],
            )
            for b, weights in poles
        ]
        if rate is None:
            total[rows] = sum(
                (cum * _laplace_series(ctx, cum.shape[1])).sum(axis=1) for ctx, cum in series
            )
        else:
            total[rows] = _scale_average(series, k, rate[rows], threshold[rows])
    out = weight.copy()
    out[live] = np.clip(total, 0.0, weight[live])  # rounding only
    return out


# ---------------------------------------------------------------------------
# Macro coverage under cooperation: exact scaled-cone route


def _conditioned_weights(scenario: Scenario, threshold, rows) -> np.ndarray:
    """Weights of the macro-served fields' terms 0..kmax, one row per cone
    row (w_1..w_K, rho) of the K losing small BSs and its threshold (a
    float, or one per row).

    The loser at w_i = t_i/t_K has y_i = T p_hat (rho/w_i)^(alpha/2) at
    every scale: it contributes the factor (1 + y_i)^(-psi_s) and adds
    psi_s * u_i^j, u_i = y_i/(1 + y_i), to the log-series C. The coverage
    sum up to order kmax weights the fields' term j by the partial sum of
    exp(C) up to kmax - j.
    """
    sc = scenario
    kmax = derive_tier(sc.macro).fading_order - 1
    y = (
        np.asarray(threshold)[..., None] * hat_ratios(sc).power
        * (rows[:, -1:] / rows[:, :-1]) ** (sc.pathloss / 2.0)
    )
    u = y / (1.0 + y)
    # u_i^j for j = 1..kmax as cumulative products along the order axis
    repeated = np.broadcast_to(u[..., None], u.shape + (kmax,))
    c_tot = sc.small.users * np.cumprod(repeated, axis=-1).sum(axis=1)
    partial = np.cumsum(_taylor_terms(c_tot, kmax + 1), axis=1)[:, ::-1]
    return np.exp(-sc.small.users * np.log1p(y).sum(axis=1))[:, None] * partial


def _coop_macro_joint(scenario: Scenario, threshold):
    """P[SINR > threshold and the macro side wins] under cooperation, at a
    float threshold or at each entry of a 1-D array of them.

    With t_K, the K-th small-tier arrival, as the scale, the losers' shape
    w_i = t_i/t_K and rho = (r_m/r_K)^2 = lhat*tau/t_K (tau = pi*lambda_m*r_m^2),
    the weight e^(-tau - t_K) becomes t_K^K e^(-(1 + rho/lhat) t_K) dt_K dw drho/lhat.
    The macro side wins where sum_i (w_i/rho)^(-alpha/2) <= beta: rho runs
    over (0, (beta/K)^(2/alpha)], and the budget left bounds each w_i from
    below. The losers are scale-free (_conditioned_weights); the two tier
    fields are the geometry at t_K = 1, macro beyond r_m = sqrt(rho/(pi*lambda_s))
    and small beyond r_K = (pi*lambda_s)^(-1/2), scaled by sqrt(t_K).

    One _nested_integral: rho runs outermost, hinted where y_K = 1. Per
    node of rho, the inner levels z_i = w_i/w_(i+1), from the budget bound
    to 1 and split where y_i = 1 and at 10 and 100 times that z, sum the
    losers' weights into moments; one _scale_average of shape K+1 and rate
    1 + rho/lhat averages out t_K. Each threshold's rows carry it through
    every level, on its own pieces and knees, and its error meets its own
    gate. K = 1 has no inner level.
    """
    sc = scenario
    thresholds = _thresholds(threshold)
    alpha, big_k = sc.pathloss, sc.cluster_size
    ratios = hat_ratios(sc)
    beta, lhat = ratios.macro_advantage, ratios.density
    x_scale = (thresholds * ratios.power) ** (2.0 / alpha)  # y_i = 1 at w_i = rho * x_scale
    r_k = (math.pi * sc.small.density) ** -0.5

    def z_edges(i, outer, key):
        # rows (w_(i+1)..w_K, rho); some w_1 < ... < w_i fit the budget
        # sum_(j<=i) w_j^(-alpha/2) <= b only above w_i = (b/i)^(-2/alpha)
        rho, w_next = outer[:, -1], outer[:, 0]
        budget = beta * rho ** (-alpha / 2.0) - (outer[:, :-1] ** (-alpha / 2.0)).sum(axis=1)
        with np.errstate(divide="ignore"):
            lo = np.minimum((np.maximum(budget, 0.0) / i) ** (-2.0 / alpha) / w_next, 1.0)
        knee = rho * x_scale[key] / w_next  # y_i = 1
        hints = [np.clip(f * knee, lo, 1.0) for f in (1.0, 10.0, 100.0)]
        return np.column_stack([lo, *hints, np.ones_like(lo)])

    def over_rho(rho, key, inner):
        moments = inner(np.column_stack([np.ones_like(rho), rho]), key)
        r_m, at = r_k * np.sqrt(rho), thresholds[key]
        ctx = LaplaceContext(
            s=at * r_m ** alpha / sc.macro.power, d_macro=r_m, d_small=r_k, scenario=sc
        )
        return _scale_average([(ctx, moments)], big_k + 1, 1.0 + rho / lhat, at) / lhat

    val = _nested_integral(
        big_k - 1, lambda rows, key: _conditioned_weights(sc, thresholds[key], rows), z_edges,
        over_rho, (beta / big_k) ** (2.0 / alpha), 0.5 * sc.numerics.coverage_epsabs,
        "macro cooperative cone", 1.0 / x_scale, thresholds,
    )[0]
    return val if np.ndim(threshold) else float(val[0])


# ---------------------------------------------------------------------------
# Conditional and overall coverage


def _thresholds(threshold) -> np.ndarray:
    """The thresholds of a coverage call as a 1-D array, one entry for a
    float. Raises ValueError unless each is finite and positive."""
    t = np.asarray(threshold, dtype=float)
    if t.ndim > 1 or t.size == 0:
        raise ValueError(f"threshold must be a float or a nonempty 1-D array, got {threshold!r}")
    t = t.reshape(-1)
    if not all(0.0 < x < math.inf for x in t.tolist()):  # False for NaN too
        if not np.isfinite(t).all():
            raise ValueError(f"threshold must be finite, got {threshold!r}")
        raise ValueError(f"threshold must be positive, got {threshold!r}")
    return t


def coverage_conditional(event: AssociationEvent, scenario: Scenario, threshold):
    """P[SINR > threshold | association event], a float at a float
    threshold, or one value per entry of a 1-D array of thresholds.

    Averages the fixed-geometry coverage kernel over the serving-distance
    density of the event. Each event splits its serving geometry into a
    scale coordinate (tau = pi*mix*r^2 for one server, the farthest
    small-tier arrival t_K under cooperation) and shape coordinates (none;
    the ratios t_i/t_K for the cluster; rho = (r_m/r_K)^2 and the K losers'
    ratios for the macro side under cooperation, _coop_macro_joint, at
    every K). _scale_average integrates the scale out, in closed form at
    zero noise and by adaptive quadrature with noise: the single-server
    events are one scale average, and the cooperative events integrate it
    over the shape coordinates. Every event takes this one route at every
    noise level.

    All thresholds are evaluated together: each kernel row carries its
    threshold, and each threshold's integrals keep their own pieces, spike
    hints and error gates, so a value does not depend on the thresholds
    evaluated beside it. A float is the batch of one. Raises ValueError
    unless every threshold is finite and positive.
    """
    t = _thresholds(threshold)
    alpha = scenario.pathloss
    lam_m, lam_s = scenario.macro.density, scenario.small.density

    if event is AssociationEvent.CLUSTER:
        # the kernel at the distances of t_K = 1 with rate 1 + c eta(z, 1)
        # integrates out t_K at shape z; coverage concentrates at arrival
        # coordinates of order T^(-2/alpha)
        def kernel(rows, rate, key):
            return _cluster_kernel(scenario, np.sqrt(rows / (math.pi * lam_s)), t[key], rate=rate)

        raw = _shape_integral(
            scenario, kernel, scenario.numerics.coverage_epsabs * 0.5, "cluster shape integral",
            t ** (-2.0 / alpha), at=t,
        )
        p = raw / assoc_prob_sbs_cluster(scenario)
    elif event is AssociationEvent.MACRO_COOP:
        p = _coop_macro_joint(scenario, t) / (1.0 - assoc_prob_sbs_cluster(scenario))
    else:
        # one server; tau = 1 at r = mix^(-1/2)
        beta = hat_ratios(scenario).macro_advantage
        if event.macro_serving:
            mix = math.pi * (lam_m + lam_s * beta ** (-2.0 / alpha))
        else:
            mix = math.pi * (lam_s + lam_m * beta ** (2.0 / alpha))
        p = _single_server_kernel(scenario, event, np.full(len(t), mix ** -0.5), t, rate=1.0)
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    return p if np.ndim(threshold) else float(p[0])


def coverage_overall(mode: str, scenario: Scenario, threshold):
    """P[SINR > threshold], mixing the mode's two events by their weights:
    a float at a float threshold, or one value per entry of a 1-D array of
    thresholds, all evaluated together (coverage_conditional)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == NONCOOPERATIVE:
        a = assoc_prob_sbs_single(scenario)
        p_macro = coverage_conditional(AssociationEvent.MACRO, scenario, threshold)
        p_small = coverage_conditional(AssociationEvent.SMALL, scenario, threshold)
    else:
        a = assoc_prob_sbs_cluster(scenario)
        p_macro = coverage_conditional(AssociationEvent.MACRO_COOP, scenario, threshold)
        p_small = coverage_conditional(AssociationEvent.CLUSTER, scenario, threshold)
    return (1.0 - a) * p_macro + a * p_small


# ---------------------------------------------------------------------------
# Mean rate


def mean_rate(mode: str, scenario: Scenario, coverage_fn=None) -> float:
    """Mean achievable rate E[log2(1 + SINR)] in bit/s/Hz.

    Uses E[ln(1+SINR)] = int_0^inf P[SINR > e^v - 1] dv, which compactifies
    the threshold tail exponentially: interference-limited coverage decays
    like T^(-2/alpha), i.e. exp(-2v/alpha) in v. The integrand is smooth and
    monotone, so fixed composite Gauss-Legendre panels converge fast while
    keeping the (expensive) coverage evaluations bounded; the truncated tail
    is restored from the algebraic decay law. Probes at v = 4, 7, ... fix
    the truncation one threshold at a time; then one call evaluates all 40
    nodes. coverage_fn maps a float threshold to a float and a 1-D array of
    thresholds to an array (a float return broadcasts); it can be injected
    for testing. The default is this mode's overall coverage at tolerances
    matched to the rate error budget.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    alpha = scenario.pathloss
    if coverage_fn is None:
        # Coverage error ~1e-4 per node stays well under the rate tolerance.
        relaxed = replace(
            scenario,
            numerics=replace(
                scenario.numerics,
                coverage_epsabs=max(1e-4, scenario.numerics.coverage_epsabs),
                quad_epsabs=max(1e-8, scenario.numerics.quad_epsabs),
            ),
        )

        def coverage_fn(threshold):
            return coverage_overall(mode, relaxed, threshold)

    v_max = 4.0
    tail_cov = coverage_fn(math.expm1(v_max))
    while tail_cov > 1e-4:
        v_max += 3.0
        if v_max > 40.0:
            raise IntegrationFailure("coverage tail does not decay; rate integral diverges")
        tail_cov = coverage_fn(math.expm1(v_max))

    # Two panels, denser where the integrand bends; 20-node GL per panel.
    nodes, weights = np.polynomial.legendre.leggauss(20)
    split = min(3.0, 0.5 * v_max)
    panels = [(0.5 * (hi + lo), 0.5 * (hi - lo)) for lo, hi in ((0.0, split), (split, v_max))]
    v = np.concatenate([mid + half * nodes for mid, half in panels])
    cov = np.broadcast_to(coverage_fn(np.expm1(v)), v.shape).reshape(len(panels), -1)
    total = 0.0
    for (_, half), values in zip(panels, cov):
        total += half * sum(w * c for w, c in zip(weights, values))
    # Residual mass of the exp(-2v/alpha) tail beyond v_max.
    total += tail_cov * alpha / 2.0
    return max(total, 0.0) / math.log(2.0)
