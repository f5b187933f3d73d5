"""Analytic engine: interference Laplace transform and derivatives, coverage
probabilities conditioned on each association event, overall coverage, and
mean achievable rate.

Coverage of a Gamma(delta, 1)-faded link is the finite sum
sum_{k<delta} (-s)^k/k! * d^k/ds^k [e^(-sN) L_I(s)] averaged over the
serving distance. Each term is e^(-sN) L_I(s) times the k-th Taylor
coefficient of exp(sum_j y_j x^j / j), where y_j = (-s)^j g^(j)(s)/(j-1)!
are the scaled log-Laplace derivatives, g = -sN + log L_I. Every y_j is
non-negative, so one positive-term recurrence builds every series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .association import (
    AssociationEvent,
    IntegrationFailure,
    OrderedDistances,
    _chunked,
    _cluster_exclusion,
    _cluster_integral,
    _panel_integral,
    assoc_prob_sbs_cluster,
    assoc_prob_sbs_single,
    exclusion_radius_mbs,
    mbs_win_prob,
)
from .model import (
    MODES,
    NONCOOPERATIVE,
    Scenario,
    derive_tier,
    hat_ratios,
)

_FOLD_DIGITS = 4.0    # split weights of the cluster fold stay near 10^_FOLD_DIGITS


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
    cooperation reuses the single-small surrogate beta^(-1/alpha) r (exact
    for K=1).
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
    uses the mean-matched surrogate s = T / (p_s * sum r_i^(-alpha)).
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
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
def _beta_tier_weights(psi: int, alpha: float):
    """Constants of `_beta_tier_sum` over i = 1..psi: the Beta parameters
    (q_i, p_i) = (i-2/alpha, psi-i+2/alpha), for i < psi the log-coefficients
    log(W_1 + ... + W_i) - log(q_i * B(q_i, p_i)) of the unrolled recurrence,
    and the total weight sum_i W_i, with W_i = C(psi,i) * B(p_i, q_i).

    1/(q_i B(q_i, p_i)) = Gamma(psi)/(Gamma(q_i+1) Gamma(p_i)) is the
    coefficient of the downward step of DLMF 8.17(iv),
    I_x(q_i, p_i) = I_x(q_i+1, p_i-1) + x^(q_i) (1-x)^(p_i-1) / (q_i B(q_i, p_i)).
    """
    i = np.arange(1, psi + 1)
    q, p = i - 2.0 / alpha, psi - i + 2.0 / alpha
    cum_weights = np.cumsum(special.comb(psi, i, exact=False) * special.beta(p, q))
    log_coeff = np.log(cum_weights[:-1] / q[:-1]) - special.betaln(q[:-1], p[:-1])
    return (*_frozen(q, p, log_coeff), float(cum_weights[-1]))


def _beta_tier_sum(psi: int, alpha: float, w):
    """sum_{i=1..psi} C(psi,i) * B'(psi-i+2/alpha, i-2/alpha, w): one tier's
    Beta-form factor, with w = (1 + s*p*d^(-alpha))^(-1) at exclusion d,
    for a float w or elementwise over an array of them.

    B'(p, q, w) = B(p, q) * I_x(q, p), x = 1 - w, is the complementary
    incomplete Beta over [w, 1]. As (q_i+1, p_i-1) = (q_(i+1), p_(i+1)), the
    downward recurrence of DLMF 8.17(iv),
    I_x(q_i, p_i) = I_x(q_(i+1), p_(i+1)) + x^(q_i) (1-x)^(p_(i+1)) / (q_i B(q_i, p_i)),
    reaches every order from one betainc call at the top order i = psi.
    Each step adds a non-negative term, so nothing cancels; in the weighted
    sum, step i carries the weight W_1 + ... + W_i of every order it feeds.
    """
    q, p, log_coeff, total_weight = _beta_tier_weights(psi, alpha)
    x = 1.0 - np.asarray(w, dtype=float)
    top = total_weight * special.betainc(q[-1], p[-1], x)
    if psi == 1:  # no order below the top
        return top
    x = x[..., None]
    steps = special.xlogy(q[:-1], x)
    steps += special.xlog1py(p[1:], -x)
    steps += log_coeff
    return top + np.exp(steps, out=steps).sum(axis=-1)


def _log_laplace_beta(ctx: LaplaceContext):
    """log L_I(s) via the complementary-incomplete-Beta closed form.

    Each tier contributes -(2*pi/alpha) * lambda * (s*p)^(2/alpha) times its
    Beta-form factor.
    """
    s = ctx.s
    if np.ndim(s) == 0 and s == 0.0:
        return 0.0
    alpha = ctx.scenario.pathloss
    total = 0.0
    for lam, p, psi, d in ctx.tiers():
        if lam == 0.0:
            continue
        d_alpha = np.power(d, alpha)
        w = d_alpha / (d_alpha + s * p)  # (1 + s*p*d^(-alpha))^(-1), 0 at d = 0
        total = total + lam * (s * p) ** (2.0 / alpha) * _beta_tier_sum(psi, alpha, w)
    return -(2.0 * math.pi / alpha) * total


def laplace_interference(ctx: LaplaceContext) -> float:
    """Laplace transform of total interference power at the given exclusions."""
    return math.exp(_log_laplace_beta(ctx))


def laplace_interference_radial(ctx: LaplaceContext, epsrel: float = 1e-12) -> float:
    """Independent radial-quadrature evaluation of the Laplace transform.

    Integrates exp{-2*pi*sum_j lambda_j * int_d^inf (1-(1+s p u^-alpha)^-psi) u du}
    directly, in the variable t = (u/scale)^-alpha so the slow u^(1-alpha)
    tail becomes an algebraic t^(-2/alpha) endpoint handled by a weighted
    rule. Slower than the Beta form; used for cross-validation.
    """
    s = ctx.s
    if s == 0.0:
        return 1.0
    alpha = ctx.scenario.pathloss
    total = 0.0
    for lam, p, psi, d in ctx.tiers():
        if lam == 0.0:
            continue
        scale = (s * p) ** (1.0 / alpha)
        v0 = d / scale
        log_t0 = -alpha * math.log(v0)
        t0 = math.inf if log_t0 > 700.0 else math.exp(log_t0)

        def smooth(t, _psi=psi):
            # (1 - (1+t)^-psi) / t, continued to psi at t = 0
            if t <= 0.0:
                return float(_psi)
            return -math.expm1(-_psi * math.log1p(t)) / t

        def upper(t, _psi=psi):
            return -math.expm1(-_psi * math.log1p(t)) * t ** (-1.0 - 2.0 / alpha)

        val, _ = integrate.quad(
            smooth,
            0.0,
            min(t0, 1.0),
            weight="alg",
            wvar=(-2.0 / alpha, 0.0),
            epsabs=1e-14,
            epsrel=epsrel,
            limit=400,
        )
        if t0 > 1.0:
            hi, _ = integrate.quad(
                upper, 1.0, t0, epsabs=1e-14, epsrel=epsrel, limit=400
            )
            val += hi
        total += lam * scale ** 2 * val / alpha
    return math.exp(-2.0 * math.pi * total)


@lru_cache(maxsize=256)
def _tail_constants(psi: int, nmax: int, alpha: float):
    """Orders n = 1..nmax: Beta parameters a_n = n - 2/alpha, the scales
    B(a_n, b)/alpha with b = psi + 2/alpha, the weights (psi)_n/(n-1)! of
    the n-th scaled log-Laplace derivative y_n (they grow like n^psi, so fit
    a float at any order), and for n < nmax the
    log-coefficients -log(a_n B(a_n, b)) = log(Gamma(a_n+b)/(Gamma(a_n+1) Gamma(b)))
    of the downward step of DLMF 8.17(iv),
    I_u(a_n, b) = I_u(a_n+1, b) + u^(a_n) (1-u)^b / (a_n B(a_n, b))."""
    n = np.arange(1, nmax + 1)
    a, b = n - 2.0 / alpha, psi + 2.0 / alpha
    log_coeff = -np.log(a[:-1]) - special.betaln(a[:-1], b)
    weights = np.cumprod((psi + n - 1.0) / np.maximum(n - 1.0, 1.0))
    return _frozen(a, special.beta(a, b) / alpha, weights, log_coeff)


def _radial_tail_integral(v0, psi: int, nmax: int, alpha: float) -> np.ndarray:
    """int_{v0}^inf v^(1-n*alpha) (1 + v^-alpha)^-(psi+n) dv for n = 1..nmax.

    Dimensionless core of every n-th log-Laplace derivative. With
    x = v^-alpha and u = x/(1+x) it is the incomplete Beta
    (1/alpha) * B(a_n, b) * I_{u0}(a_n, b), a_n = n - 2/alpha > 0,
    b = psi + 2/alpha, u0 = 1/(1 + v0^alpha). One betainc call gives the
    top order nmax; the downward recurrence of DLMF 8.17(iv),
    I_u(a_n, b) = I_u(a_n+1, b) + u^(a_n) (1-u)^b / (a_n B(a_n, b)),
    gives every lower order by adding one non-negative term per step. An
    array of v0 gives one row of orders per entry.
    """
    v0 = np.asarray(v0, dtype=float)
    if nmax == 0:
        return np.zeros(v0.shape + (0,))
    a, scale, _, log_coeff = _tail_constants(psi, nmax, alpha)
    b = psi + 2.0 / alpha
    # u0 = x0/(1+x0) with x0 = v0^-alpha above v0 = 1, 1/(1+v0^alpha) below:
    # neither power overflows
    x0 = np.maximum(v0, 1.0) ** (-alpha)
    u0 = np.where(v0 > 1.0, x0 / (1.0 + x0), 1.0 / (1.0 + np.minimum(v0, 1.0) ** alpha))[..., None]
    steps = special.xlogy(a[:-1], u0)
    steps += special.xlog1py(b, -u0)
    steps += log_coeff
    orders = np.concatenate([np.exp(steps, out=steps), special.betainc(a[-1], b, u0)], axis=-1)
    # I_n = I_nmax + steps n..nmax-1, accumulated from the top order down
    np.cumsum(orders[..., ::-1], axis=-1, out=orders[..., ::-1])
    return scale * orders


def _log_derivatives(ctx: LaplaceContext, nmax: int) -> np.ndarray:
    """y_n = (-s)^n g^(n)(s)/(n-1)! for n = 1..nmax, g(s) = -sN + log L_I(s),
    along the last axis (one row per entry of an array context).

    Every y_n is non-negative: the noise adds sN to y_1, and each tier adds
    (psi)_n/(n-1)! * 2*pi*lambda * (s*p)^(2/alpha) times its radial tail
    integral at v0 = d / (s*p)^(1/alpha).
    """
    s = ctx.s
    if np.less_equal(s, 0.0).any():
        raise ValueError("log-Laplace derivatives need s > 0")
    alpha = ctx.scenario.pathloss
    out = np.zeros(np.shape(s) + (nmax,))
    out[..., 0] = s * ctx.scenario.noise
    for lam, p, psi, d in ctx.tiers():
        if lam == 0.0:
            continue
        v0 = d / (s * p) ** (1.0 / alpha)
        weights = _tail_constants(psi, nmax, alpha)[2]
        out += (
            np.asarray(2.0 * math.pi * lam * (s * p) ** (2.0 / alpha))[..., None]
            * weights * _radial_tail_integral(v0, psi, nmax, alpha)
        )
    return out


def log_laplace_derivative(ctx: LaplaceContext, n: int) -> float:
    """n-th derivative of g(s) = -sN + log L_I(s), n >= 1, in closed form."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return float(_log_derivatives(ctx, n)[-1]) * math.factorial(n - 1) / (-ctx.s) ** n


def _taylor_terms(y, n: int) -> np.ndarray:
    """Taylor coefficients t_0..t_(n-1) of exp(sum_j y_j x^j / j), along
    the last axis, from y_1, y_2, ... along the last axis of y.

    With F = exp(G), F' = G' F gives t_0 = 1 and
    k t_k = sum_{j=1..k} y_j t_(k-j) (Knuth, TAOCP Vol. 2, 4.7). For
    non-negative y every term is non-negative, so the sum cannot cancel,
    and it needs no binomial, factorial or sign.
    """
    y = np.asarray(y, dtype=float)
    t = np.empty(y.shape[:-1] + (n,))
    t[..., 0] = 1.0
    for k in range(1, n):
        t[..., k] = np.einsum("...j,...j->...", y[..., :k], t[..., k - 1 :: -1]) / k
    return t


def _laplace_series(ctx: LaplaceContext, order: int) -> np.ndarray:
    """Terms (-s)^k/k! * d^k/ds^k[e^(-sN) L_I(s)] for k = 0..order-1, along
    the last axis.

    Their sum is the coverage of a Gamma(order,1)-faded link at this
    geometry. Around s, e^(-sN) L_I(s - s x) = e^(-sN) L_I(s) exp(G(x)),
    G(x) = sum_j y_j x^j / j over the scaled log-derivatives y_j, so term k
    is e^(-sN) L_I(s) times the k-th Taylor coefficient of exp(G).
    """
    base = np.exp(-ctx.s * ctx.scenario.noise + _log_laplace_beta(ctx))
    if not base.any():
        return np.zeros(np.shape(base) + (order,))
    y = _log_derivatives(ctx, order - 1) if order > 1 else ()
    return base[..., None] * _taylor_terms(y, order)


def laplace_derivative(ctx: LaplaceContext, k: int) -> float:
    """k-th derivative of e^(-sN) * L_I(s) with respect to s.

    k=0 returns the function itself; order k is k!/(-s)^k times the k-th
    term of the Laplace series.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return float(_laplace_series(ctx, k + 1)[-1]) * math.factorial(k) / (-ctx.s) ** k


# ---------------------------------------------------------------------------
# Coverage kernels (probability of exceeding the threshold at fixed geometry)


def _tail_weights(ctx: LaplaceContext, order: int):
    """sum_{k<order} (-s)^k/k! * d^k/ds^k[e^(-sN) L_I(s)], the coverage of a
    Gamma(order,1)-faded link at this geometry (one value per geometry).
    Every series term is non-negative; rounding can only push the sum past 1."""
    return np.minimum(_laplace_series(ctx, order).sum(axis=-1), 1.0)


def _single_server_kernel(
    scenario: Scenario, event: AssociationEvent, r, threshold: float
) -> np.ndarray:
    """Conditional coverage given a single serving BS, at each distance of
    the 1-D array r."""
    r = np.asarray(r, dtype=float)
    tier = scenario.macro if event.macro_serving else scenario.small
    # laplace_context's single-server argument s = T * r^alpha / p_serve
    s = threshold * np.maximum(r, 0.0) ** scenario.pathloss / tier.power
    # s = 0 (a server at, or numerically at, zero distance): the series is
    # its k = 0 term L_I(0) = 1, certain coverage
    live = s > 0.0
    out = np.ones(r.shape)
    d_macro, d_small = _single_exclusions(event, scenario, r[live])
    ctx = LaplaceContext(s=s[live], d_macro=d_macro, d_small=d_small, scenario=scenario)
    out[live] = _tail_weights(ctx, derive_tier(tier).fading_order)
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


def _cluster_kernel(scenario: Scenario, distances, threshold: float) -> np.ndarray:
    """Conditional coverage given the cluster serves from these distances,
    one value per row of an (n, K) array of ascending distances.

    "exact" folds the non-coherent power sum of Gamma-faded links into an
    exact Erlang mixture; "gamma" collapses it to one mean-matched Gamma.
    """
    r = np.asarray(distances, dtype=float)
    alpha = scenario.pathloss
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        path_gain = r ** (-alpha)
        # laplace_context's mean-matched argument s = T / (p_s sum r_i^-alpha),
        # the least of the Laplace arguments the exact form uses
        s = threshold / (scenario.small.power * path_gain.sum(axis=1))
    # s = 0 (a server at, or numerically at, zero distance): the series is
    # its k = 0 term L_I(0) = 1, certain coverage
    live = s > 0.0
    out = np.ones(len(r))
    r, path_gain = r[live], path_gain[live]
    if not len(r):
        return out
    order = derive_tier(scenario.small).fading_order
    d_macro, d_small = _cluster_exclusion(scenario, r), r[:, -1]
    if scenario.numerics.cluster_fading == "gamma":
        ctx = LaplaceContext(s=s[live], d_macro=d_macro, d_small=d_small, scenario=scenario)
        out[live] = _tail_weights(ctx, order)
        return out
    gains = scenario.small.power * path_gain
    total = np.zeros(len(r))
    for rows, poles in _erlang_mixture(gains, order):
        for b, weights in poles:
            ctx = LaplaceContext(
                s=threshold / b, d_macro=d_macro[rows], d_small=d_small[rows],
                scenario=scenario,
            )
            # sum_l w_l sum_{k<l} (...) = sum_k (sum_{l>k} w_l) (...)
            cum = np.cumsum(weights[:, ::-1], axis=1)[:, ::-1]  # cum[:, k] = sum_{l>k} w_l
            total[rows] += (cum * _laplace_series(ctx, weights.shape[1])).sum(axis=1)
    out[live] = np.clip(total, 0.0, 1.0)  # rounding only
    return out


# ---------------------------------------------------------------------------
# Macro coverage under cooperation: exact scaled-cone route


@lru_cache(maxsize=None)  # orders are bounded by panel_points
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _gauss_panel(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to (a, b)."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    return mid + half * x, half * w


def _coop_macro_joint(scenario: Scenario, threshold: float) -> float:
    """P[SINR > threshold and the macro side wins] under cooperation.

    Interference-limited only (zero noise). Conditioned on the nearest-macro
    distance (tau = pi*lambda_m*r^2), rescaling the small-tier arrival
    coordinates to x_i = t_i/(lhat*tau) makes the macro-win region
    {sum_i x_i^(-alpha/2) <= beta} independent of tau, and every term of the
    coverage kernel linear in tau: the two tier fields contribute
    log-Laplace slopes -A*tau and scaled log-derivatives y_j = b_j*tau,
    while the K conditioned small BSs contribute tau-free terms psi_s*u^j. The
    tau average is then a Gamma(K+1) average of a degree-kmax polynomial in
    tau, exact on kmax//2 + 1 generalized Gauss-Laguerre nodes, leaving a
    single K-dimensional cone integral, done on Gauss-Legendre panels under
    a rational map aimed at the scale where the kernel actually varies. The
    panels' node set is built level by level as arrays, and the kernel runs
    once over all of it.
    """
    sc = scenario
    if sc.noise != 0.0:
        raise ValueError("the scaled-cone macro route requires zero noise")
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    alpha = sc.pathloss
    big_k = sc.cluster_size
    ratios = hat_ratios(sc)
    beta, lhat = ratios.macro_advantage, ratios.density
    p_hat = sc.small.power / sc.macro.power
    psi_m, psi_s = sc.macro.users, sc.small.users
    kmax = derive_tier(sc.macro).fading_order - 1
    two_a = 2.0 / alpha
    t = threshold

    # Macro-field constants: the dimensionless exclusion limit r/(s*p_m)^(1/alpha)
    # is T^(-1/alpha) at every serving distance, so these are per-threshold.
    a_macro = two_a * t ** two_a * _beta_tier_sum(psi_m, alpha, 1.0 / (1.0 + t))
    b_macro = (
        2.0 * t ** two_a * _tail_constants(psi_m, kmax, alpha)[2]
        * _radial_tail_integral(t ** (-1.0 / alpha), psi_m, kmax, alpha)
    )
    b_small_coeff = 2.0 * lhat * (t * p_hat) ** two_a * _tail_constants(psi_s, kmax, alpha)[2]

    x_scale = (t * p_hat) ** two_a  # scaled distance where one small BS matches T
    lb_outer = (beta / big_k) ** (-two_a)
    lag_y, lag_w = special.roots_genlaguerre(kmax // 2 + 1, big_k)

    def panel_points(lo, hi, scale):
        """Quadrature nodes and weights on (lo, hi): a linear Gauss panel
        resolves structure of width ~scale above lo; a log-space panel (node
        count grown with the decade span) covers the algebraically decaying
        rest."""
        xb = min(hi, lo + 3.0 * scale)
        xs, ws = _gauss_panel(lo, xb, 16)
        if hi > xb * (1.0 + 1e-12):
            zspan = math.log(hi / xb)
            zs, wz = _gauss_panel(math.log(xb), math.log(hi), max(12, int(2.0 * zspan) + 8))
            xs, ws = np.concatenate([xs, np.exp(zs)]), np.concatenate([ws, wz * np.exp(zs)])
        return xs, ws

    def kernel_at(xs, a_small, b_small):
        """Coverage kernel at cone points, one per row of xs (innermost
        coordinate first, the outermost x_K last), tau already integrated out."""
        y = t * p_hat * xs ** (-alpha / 2.0)
        logp = -psi_s * np.log1p(y).sum(axis=1)
        u = y / (1.0 + y)
        # each small BS at u adds psi_s * u^j to y_j
        c_tot = psi_s * (u[..., None] ** np.arange(1, kmax + 1)).sum(axis=1)
        d = 1.0 + lhat * xs[:, -1] + a_macro + a_small
        b_tot = b_macro + b_small
        acc = 0.0
        for y, w in zip(lag_y.tolist(), lag_w.tolist()):  # tau = y / d
            terms = _taylor_terms(c_tot + b_tot * (y / d)[:, None], kmax + 1)
            acc = acc + w * terms.sum(axis=-1)
        return np.exp(logp) * acc * d ** (-(big_k + 1))

    # Beyond x_max the integrand is below weight * 1, whose tail mass is
    # ~2/(lhat * x); the cap keeps the truncation under ~1e-7.
    outer_scale = max(x_scale, lb_outer, (1.0 + a_macro) / lhat)
    x_max = max(2e7 / lhat, 1e3 * (lb_outer + 3.0 * outer_scale))
    x_k, w = panel_points(lb_outer, x_max, outer_scale)
    # Small-field constants depend only on the outermost coordinate.
    y_k = t * p_hat * x_k ** (-alpha / 2.0)
    a_small = lhat * two_a * (t * p_hat) ** two_a * _beta_tier_sum(
        psi_s, alpha, 1.0 / (1.0 + y_k)
    )
    v0_s = np.sqrt(x_k) * (t * p_hat) ** (-1.0 / alpha)
    b_small = b_small_coeff * _radial_tail_integral(v0_s, psi_s, kmax, alpha)

    # Inner levels i = K-1..1: x_i runs over (lower feasibility bound, x_{i+1}).
    xs, owner = x_k[:, None], np.arange(len(x_k))
    budget = beta - x_k ** (-alpha / 2.0)
    for i in range(big_k - 1, 0, -1):
        lb = (budget / i) ** (-two_a)
        level = [
            (row, *panel_points(lb[row], xs[row, 0], max(x_scale, lb[row])))
            for row in np.flatnonzero(xs[:, 0] > lb).tolist()
        ]
        if not level:
            return 0.0
        rows = np.concatenate([np.full(len(x), row) for row, x, _ in level])
        x_i = np.concatenate([x for _, x, _ in level])
        w = w[rows] * np.concatenate([wx for _, _, wx in level])
        xs, owner = np.column_stack([x_i, xs[rows]]), owner[rows]
        budget = budget[rows] - x_i ** (-alpha / 2.0)

    vals = _chunked(kernel_at, xs, a_small[owner], b_small[owner])
    return lhat ** big_k * float(w @ vals)


# ---------------------------------------------------------------------------
# Conditional and overall coverage


def _probability_integral(integrand, upper: float, epsabs: float, what: str, spike) -> float:
    """int_0^upper of a probability density over an array of nodes, by
    adaptive Gauss-Kronrod on panels split at the spike hints; raises when
    the error estimate misses the gate."""
    val, err = _panel_integral(integrand, upper, epsabs, what, spike)
    if err > max(50.0 * epsabs, 1e-4):
        raise IntegrationFailure(f"{what}: estimate {val}, error bound {err}")
    return val


def coverage_conditional(event: AssociationEvent, scenario: Scenario, threshold: float) -> float:
    """P[SINR > threshold | association event].

    Averages the fixed-geometry coverage kernel over the serving-distance
    density of the event. Radial integrals run in the exponent coordinate
    tau (serving pdf becomes e^(-tau)), truncated at the configured tail
    mass; the cluster event integrates over the ordered distance cone.
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    num = scenario.numerics
    alpha = scenario.pathloss
    beta = hat_ratios(scenario).macro_advantage
    lam_m, lam_s = scenario.macro.density, scenario.small.density
    tau_max = -math.log(num.tail_mass)
    # Coverage kernels live where the log-Laplace slope ~T^(2/alpha) allows,
    # i.e. at exponent coordinates of order T^(-2/alpha).
    tau_star = threshold ** (-2.0 / alpha)

    if event is AssociationEvent.MACRO or event is AssociationEvent.SMALL:
        if event is AssociationEvent.MACRO:
            mix = math.pi * (lam_m + lam_s * beta ** (-2.0 / alpha))
        else:
            mix = math.pi * (lam_s + lam_m * beta ** (2.0 / alpha))

        def integrand(tau):
            r = np.sqrt(tau / mix)
            return np.exp(-tau) * _single_server_kernel(scenario, event, r, threshold)

        p = _probability_integral(
            integrand, tau_max, num.coverage_epsabs, f"coverage {event}", tau_star
        )
        return min(max(p, 0.0), 1.0)

    if event is AssociationEvent.MACRO_COOP:
        norm = 1.0 - assoc_prob_sbs_cluster(scenario)
        if scenario.cluster_size >= 2 and scenario.noise == 0.0:
            return min(max(_coop_macro_joint(scenario, threshold) / norm, 0.0), 1.0)

        # K=1, where conditioning the lone competitor away is exactly a
        # small-tier exclusion at beta^(-1/alpha) r -- or nonzero noise,
        # where the scaled-cone collapse is unavailable and the same
        # exclusion stands in for the conditioned interferers.
        mix = math.pi * lam_m

        def integrand(tau):
            r = np.sqrt(tau / mix)
            # a macro BS on top of the user always wins
            win = np.fromiter(
                (mbs_win_prob(scenario, x) if x > 0.0 else 1.0 for x in r.tolist()),
                dtype=float, count=len(r),
            )
            return np.exp(-tau) * win * _single_server_kernel(scenario, event, r, threshold)

        p = _probability_integral(
            integrand, tau_max, num.coverage_epsabs, "coverage macro_coop", tau_star
        )
        return min(max(p / norm, 0.0), 1.0)

    if event is AssociationEvent.CLUSTER:
        norm = assoc_prob_sbs_cluster(scenario)
        raw = _cluster_integral(
            scenario,
            h=lambda rvec: _cluster_kernel(scenario, rvec, threshold),
            epsabs=num.coverage_epsabs * 0.5,
            spike=tau_star,
        )
        return min(max(raw / norm, 0.0), 1.0)

    raise ValueError(f"unknown event {event!r}")


def coverage_overall(mode: str, scenario: Scenario, threshold: float) -> float:
    """P[SINR > threshold], mixing the mode's two events by their weights."""
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
    is restored from the algebraic decay law. coverage_fn(threshold) can be
    injected for testing; the default is this mode's overall coverage at
    tolerances matched to the rate error budget.
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
    total = 0.0
    split = min(3.0, 0.5 * v_max)
    for lo, hi in ((0.0, split), (split, v_max)):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total += half * sum(
            w * coverage_fn(math.expm1(mid + half * x)) for x, w in zip(nodes, weights)
        )
    # Residual mass of the exp(-2v/alpha) tail beyond v_max.
    total += tail_cov * alpha / 2.0
    return max(total, 0.0) / math.log(2.0)
