"""Analytic engine: interference Laplace transform and derivatives, coverage
probabilities conditioned on each association event, overall coverage, and
mean achievable rate.

Coverage of a Gamma(delta, 1)-faded link is the finite sum
sum_{k<delta} (-s)^k/k! * d^k/ds^k [e^(-sN) L_I(s)] averaged over the
serving distance; the derivative is assembled by the chain rule over
integer partitions on top of the log-Laplace derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .association import (
    AssociationEvent,
    OrderedDistances,
    _cluster_integral,
    _spike_hints,
    assoc_prob_sbs_cluster,
    assoc_prob_sbs_single,
    exclusion_radius_mbs,
    mbs_win_prob,
)
from .model import (
    COOPERATIVE,
    MODES,
    NONCOOPERATIVE,
    Scenario,
    derive_tier,
    hat_ratios,
)
from .specfun import faa_coefficient, integer_partitions

_NEGATIVE_CLAMP = -1e-8   # tolerated cancellation in the derivative sums
_CLUSTER_CLAMP = -1e-3    # partial-fraction weights cancel a bit harder


class IntegrationFailure(RuntimeError):
    """An adaptive quadrature could not meet its tolerance."""


@dataclass(frozen=True)
class LaplaceContext:
    """Argument bundle for the interference Laplace transform.

    s         Laplace argument, m^alpha / W (typically T * r^alpha / p)
    d_macro   closest possible macro interferer, m
    d_small   closest possible small interferer, m
    """

    s: float
    d_macro: float
    d_small: float
    scenario: Scenario

    def __post_init__(self):
        if self.s < 0.0:
            raise ValueError(f"s must be >= 0, got {self.s}")
        if self.d_macro < 0.0 or self.d_small < 0.0:
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
    alpha = scenario.pathloss
    beta = hat_ratios(scenario).macro_advantage
    r = tuple(float(v) for v in np.atleast_1d(serving))
    if event is AssociationEvent.CLUSTER:
        if len(r) != scenario.cluster_size:
            raise ValueError(f"expected {scenario.cluster_size} distances, got {len(r)}")
        d_m = exclusion_radius_mbs(scenario, OrderedDistances(r))
        return ServingContext(event, r, d_macro=d_m, d_small=r[-1])
    if len(r) != 1:
        raise ValueError(f"event {event} takes one serving distance, got {len(r)}")
    if event.macro_serving:
        return ServingContext(event, r, d_macro=r[0], d_small=beta ** (-1.0 / alpha) * r[0])
    return ServingContext(event, r, d_macro=beta ** (1.0 / alpha) * r[0], d_small=r[0])


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
    """Regularized-Beta parameters (q_i, p_i) = (i-2/alpha, psi-i+2/alpha)
    and weights C(psi,i) * B(p_i, q_i), i = 1..psi."""
    i = np.arange(1, psi + 1)
    q, p = i - 2.0 / alpha, psi - i + 2.0 / alpha
    return _frozen(q, p, special.comb(psi, i, exact=False) * special.beta(p, q))


def _beta_tier_sum(psi: int, alpha: float, w: float) -> float:
    """sum_{i=1..psi} C(psi,i) * B'(psi-i+2/alpha, i-2/alpha, w): one tier's
    Beta-form factor, with w = (1 + s*p*d^(-alpha))^(-1) at exclusion d.

    B'(p, q, w) = B(p, q) * I_{1-w}(q, p) is the complementary incomplete
    Beta over [w, 1], so the whole sum is one betainc call.
    """
    q, p, weights = _beta_tier_weights(psi, alpha)
    if psi == 1:  # scalar call: array set-up would cost more than the sum
        return float(weights[0] * special.betainc(q[0], p[0], 1.0 - w))
    return float(weights @ special.betainc(q, p, 1.0 - w))


def _log_laplace_beta(ctx: LaplaceContext) -> float:
    """log L_I(s) via the complementary-incomplete-Beta closed form.

    Each tier contributes -(2*pi/alpha) * lambda * (s*p)^(2/alpha) times its
    Beta-form factor.
    """
    s = ctx.s
    if s == 0.0:
        return 0.0
    alpha = ctx.scenario.pathloss
    total = 0.0
    for lam, p, psi, d in ctx.tiers():
        if lam == 0.0:
            continue
        w = 1.0 / (1.0 + s * p * d ** (-alpha)) if d > 0.0 else 0.0
        total += lam * (s * p) ** (2.0 / alpha) * _beta_tier_sum(psi, alpha, w)
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
    B(a_n, psi + 2/alpha)/alpha, and the signed rising factorials
    (-1)^n (psi)_n of the n-th log-Laplace derivative."""
    n = np.arange(1, nmax + 1)
    a = n - 2.0 / alpha
    return _frozen(a, special.beta(a, psi + 2.0 / alpha) / alpha, np.cumprod(-(psi + n - 1.0)))


def _radial_tail_integral(v0: float, psi: int, nmax: int, alpha: float) -> np.ndarray:
    """int_{v0}^inf v^(1-n*alpha) (1 + v^-alpha)^-(psi+n) dv for n = 1..nmax.

    Dimensionless core of every n-th log-Laplace derivative. With
    x = v^-alpha and u = x/(1+x) it is the incomplete Beta
    (1/alpha) * B(a, b) * I_{u0}(a, b), a = n - 2/alpha > 0, b = psi + 2/alpha,
    u0 = 1/(1 + v0^alpha); all orders go through one betainc call.
    """
    a, scale, _ = _tail_constants(psi, nmax, alpha)
    if v0 > 1.0:  # u0 = x0/(1+x0): neither v0^alpha nor its inverse overflows
        x0 = v0 ** (-alpha)
        u0 = x0 / (1.0 + x0)
    else:
        u0 = 1.0 / (1.0 + v0 ** alpha)
    return scale * special.betainc(a, psi + 2.0 / alpha, u0)


def _log_derivatives(ctx: LaplaceContext, nmax: int) -> np.ndarray:
    """s^n * g^(n)(s) for n = 1..nmax, g(s) = -sN + log L_I(s).

    Scaling by s^n keeps every order in float range. Each tier adds
    (-1)^n (psi)_n * 2*pi*lambda * (s*p)^(2/alpha) times its radial tail
    integral at v0 = d / (s*p)^(1/alpha).
    """
    s = ctx.s
    if s <= 0.0:
        raise ValueError("log-Laplace derivatives need s > 0")
    alpha = ctx.scenario.pathloss
    out = np.zeros(nmax)
    out[0] = -s * ctx.scenario.noise
    for lam, p, psi, d in ctx.tiers():
        if lam == 0.0:
            continue
        v0 = d / (s * p) ** (1.0 / alpha)
        signed_rising = _tail_constants(psi, nmax, alpha)[2]
        out += (
            2.0 * math.pi * lam * (s * p) ** (2.0 / alpha) * signed_rising
            * _radial_tail_integral(v0, psi, nmax, alpha)
        )
    return out


def log_laplace_derivative(ctx: LaplaceContext, n: int) -> float:
    """n-th derivative of g(s) = -sN + log L_I(s), n >= 1, in closed form."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return float(_log_derivatives(ctx, n)[-1]) / ctx.s ** n


@lru_cache(maxsize=None)
def _bell_table(k: int) -> tuple:
    """One (chain-rule coefficient, ((j, m), ...)) per partition of k, listing
    only the part sizes j that occur, each with its multiplicity m."""
    return tuple(
        (
            float(faa_coefficient(part)),
            tuple((j, m) for j, m in enumerate(part.multiplicities, start=1) if m),
        )
        for part in integer_partitions(k)
    )


def _bell_sum(g_derivs, k: int) -> float:
    """Complete Bell polynomial of order k over the derivative list."""
    if k == 0:
        return 1.0
    total = 0.0
    for coef, factors in _bell_table(k):
        term = coef
        for j, m in factors:
            term *= g_derivs[j - 1] ** m
        total += term
    return total


def _bell_series(sigmas, order: int) -> list:
    """(-1)^k/k! * B_k(sigmas) for k = 0..order-1."""
    return [(-1.0) ** k / math.factorial(k) * _bell_sum(sigmas, k) for k in range(order)]


def _laplace_series(ctx: LaplaceContext, order: int) -> list:
    """Terms (-s)^k/k! * d^k/ds^k[e^(-sN) L_I(s)] for k = 0..order-1.

    Their sum is the coverage of a Gamma(order,1)-faded link at this
    geometry. B_k is homogeneous of degree k, so s^k B_k(g', g'', ...) is
    B_k over the scaled log-derivatives s^j g^(j).
    """
    base = math.exp(-ctx.s * ctx.scenario.noise + _log_laplace_beta(ctx))
    if base == 0.0:
        return [0.0] * order
    sigmas = _log_derivatives(ctx, order - 1).tolist() if order > 1 else []
    return [base * term for term in _bell_series(sigmas, order)]


def laplace_derivative(ctx: LaplaceContext, k: int) -> float:
    """k-th derivative of e^(-sN) * L_I(s) with respect to s.

    k=0 returns the function itself; higher orders go through the chain
    rule over integer partitions of k applied to the log-domain derivatives.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    base = math.exp(-ctx.s * ctx.scenario.noise + _log_laplace_beta(ctx))
    if k == 0:
        return base
    return base * _bell_sum(_log_derivatives(ctx, k).tolist(), k) / ctx.s ** k


# ---------------------------------------------------------------------------
# Coverage kernels (probability of exceeding the threshold at fixed geometry)


def _tail_weights(ctx: LaplaceContext, order: int) -> float:
    """sum_{k<order} (-s)^k/k! * d^k/ds^k[e^(-sN) L_I(s)], the coverage of a
    Gamma(order,1)-faded link at this geometry."""
    value = sum(_laplace_series(ctx, order))
    if value < _NEGATIVE_CLAMP:
        raise IntegrationFailure(
            f"derivative sum went negative beyond tolerance: {value} at s={ctx.s}"
        )
    return min(max(value, 0.0), 1.0)


def _single_server_kernel(
    scenario: Scenario, event: AssociationEvent, r: float, threshold: float
) -> float:
    """Conditional coverage given a single serving BS at distance r."""
    if r <= 0.0:
        return 1.0
    sctx = serving_context(event, scenario, (r,))
    ctx = laplace_context(sctx, scenario, threshold)
    order = derive_tier(scenario.macro if event.macro_serving else scenario.small).fading_order
    return _tail_weights(ctx, order)


def _erlang_mixture(gains, order: int, merge_rtol: float | None = None):
    """Partial-fraction form of prod_i (1 + a_i s)^(-order).

    Returns [(pole gain b, weights w_1..w_m)] so the product equals
    sum over poles of sum_l w_l (1 + b s)^(-l); near-equal gains are merged
    into one higher-multiplicity pole first (the merged distribution
    matches to second order in the gap, and the split form would lose
    precision to cancellation).

    merge_rtol=None balances the two error sources: split weights grow like
    gap^-(n_tot - 1) for n_tot = len(gains) * order total pole order, so the
    gap is set where that amplification of float roundoff reaches ~1e-8,
    while the merge bias stays O(gap^2) inside a gap-wide region.
    """
    a = np.sort(np.asarray(gains, dtype=float))[::-1]
    if merge_rtol is None:
        n_tot = len(a) * order
        if n_tot <= 1:
            merge_rtol = 1e-8
        else:
            merge_rtol = min(0.1, max(1e-8, 10.0 ** (-8.0 / (n_tot - 1))))
    groups: list[tuple[float, int]] = []
    for ai in a:
        if groups and abs(groups[-1][0] / ai - 1.0) < merge_rtol:
            mean, cnt = groups[-1]
            groups[-1] = ((mean * cnt + ai) / (cnt + 1), cnt + 1)
        else:
            groups.append((ai, 1))
    poles = [(b, cnt * order) for b, cnt in groups]
    out = []
    for i, (bi, mi) in enumerate(poles):
        others = [(bj, mj) for j, (bj, mj) in enumerate(poles) if j != i]
        c = np.zeros(mi)
        c[0] = math.prod((1.0 - bj / bi) ** (-mj) for bj, mj in others) if others else 1.0
        rho = [bi * bj / (bi - bj) for bj, _ in others]
        ms = [mj for _, mj in others]
        for m in range(1, mi):
            acc = 0.0
            for v in range(1, m + 1):
                log_term = ((-1.0) ** v / v) * sum(mj * r ** v for mj, r in zip(ms, rho))
                acc += v * log_term * c[m - v]
            c[m] = acc / m
        weights = np.array([c[mi - l] / bi ** (mi - l) for l in range(1, mi + 1)])
        out.append((bi, weights))
    return out


def _cluster_kernel(scenario: Scenario, distances, threshold: float) -> float:
    """Conditional coverage given the cluster serves from these distances.

    "exact" decomposes the non-coherent power sum of Gamma-faded links by
    partial fractions; "gamma" collapses it to one mean-matched Gamma.
    """
    if any(r <= 0.0 for r in distances):
        # A zero-distance server has unbounded mean power: certain coverage.
        return 1.0
    sctx = serving_context(AssociationEvent.CLUSTER, scenario, distances)
    order = derive_tier(scenario.small).fading_order
    alpha = scenario.pathloss
    if scenario.numerics.cluster_fading == "gamma":
        ctx = laplace_context(sctx, scenario, threshold)
        return _tail_weights(ctx, order)
    gains = [scenario.small.power * r ** (-alpha) for r in sctx.distances]
    total = 0.0
    for b, weights in _erlang_mixture(gains, order, scenario.numerics.pole_merge_rtol):
        ctx = LaplaceContext(
            s=threshold / b, d_macro=sctx.d_macro, d_small=sctx.d_small, scenario=scenario
        )
        # sum_l w_l sum_{k<l} (...) = sum_k (sum_{l>k} w_l) (...)
        cum = np.cumsum(weights[::-1])[::-1]  # cum[k] = sum_{l >= k+1} w_l
        terms = _laplace_series(ctx, len(weights))
        total += sum(c * term for c, term in zip(cum.tolist(), terms))
    if total < _CLUSTER_CLAMP:
        raise IntegrationFailure(
            f"cluster mixture coverage went negative beyond tolerance: {total}"
        )
    return min(max(total, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Macro coverage under cooperation: exact scaled-cone route


@lru_cache(maxsize=16)
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
    log-Laplace slopes -A*tau and derivative terms s^j g^(j) = b_j*tau,
    while the K conditioned small BSs contribute tau-free point terms. The
    tau average is then a Gamma(K+1) average of a degree-kmax polynomial in
    tau, exact on kmax//2 + 1 generalized Gauss-Laguerre nodes, leaving a
    single K-dimensional cone integral, done on Gauss-Legendre panels under
    a rational map aimed at the scale where the kernel actually varies.
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
    ).tolist()
    b_small_coeff = 2.0 * lhat * (t * p_hat) ** two_a * _tail_constants(psi_s, kmax, alpha)[2]

    x_scale = (t * p_hat) ** two_a  # scaled distance where one small BS matches T
    lb_outer = (beta / big_k) ** (-two_a)
    lag_y, lag_w = (v.tolist() for v in special.roots_genlaguerre(kmax // 2 + 1, big_k))

    def panel_points(lo, hi, scale):
        """Quadrature pairs (x, w) on (lo, hi): a linear Gauss panel resolves
        structure of width ~scale above lo; a log-space panel (node count
        grown with the decade span) covers the algebraically decaying rest."""
        xb = min(hi, lo + 3.0 * scale)
        xs, ws = _gauss_panel(lo, xb, 16)
        pts = list(zip(xs, ws))
        if hi > xb * (1.0 + 1e-12):
            zspan = math.log(hi / xb)
            zs, wz = _gauss_panel(math.log(xb), math.log(hi), max(12, int(2.0 * zspan) + 8))
            pts += [(math.exp(z), w * math.exp(z)) for z, w in zip(zs, wz)]
        return pts

    def kernel_at(xs, a_small, b_small) -> float:
        """Coverage kernel at one cone point, tau already integrated out."""
        logp = 0.0
        c_tot = [0.0] * kmax
        for x in xs:
            y = t * p_hat * x ** (-alpha / 2.0)
            logp -= psi_s * math.log1p(y)
            u = y / (1.0 + y)
            for j in range(1, kmax + 1):
                c_tot[j - 1] += psi_s * (-1.0) ** j * math.factorial(j - 1) * u ** j
        d = 1.0 + lhat * xs[-1] + a_macro + a_small
        b_tot = [bm + bs for bm, bs in zip(b_macro, b_small)]
        acc = 0.0
        for y, w in zip(lag_y, lag_w):  # tau = y / d
            sigmas = [c + b * y / d for c, b in zip(c_tot, b_tot)]
            acc += w * sum(_bell_series(sigmas, kmax + 1))
        return math.exp(logp) * acc * d ** (-(big_k + 1))

    def inner_levels(i, budget, upper, xs, a_small, b_small) -> float:
        """Integrate x_i over (lower feasibility bound, x_{i+1}), recursing down."""
        lb = (budget / i) ** (-two_a)
        if upper <= lb:
            return 0.0
        total = 0.0
        for x, w in panel_points(lb, upper, max(x_scale, lb)):
            if i == 1:
                val = kernel_at((x, *xs), a_small, b_small)
            else:
                val = inner_levels(
                    i - 1, budget - x ** (-alpha / 2.0), x, (x, *xs), a_small, b_small
                )
            total += w * val
        return total

    # Beyond x_max the integrand is below weight * 1, whose tail mass is
    # ~2/(lhat * x); the cap keeps the truncation under ~1e-7.
    outer_scale = max(x_scale, lb_outer, (1.0 + a_macro) / lhat)
    x_max = max(2e7 / lhat, 1e3 * (lb_outer + 3.0 * outer_scale))
    total = 0.0
    for x_k, w in panel_points(lb_outer, x_max, outer_scale):
        # Small-field constants depend only on the outermost coordinate.
        y_k = t * p_hat * x_k ** (-alpha / 2.0)
        a_small = lhat * two_a * (t * p_hat) ** two_a * _beta_tier_sum(
            psi_s, alpha, 1.0 / (1.0 + y_k)
        )
        v0_s = math.sqrt(x_k) * (t * p_hat) ** (-1.0 / alpha)
        b_small = (b_small_coeff * _radial_tail_integral(v0_s, psi_s, kmax, alpha)).tolist()
        if big_k == 1:
            val = kernel_at((x_k,), a_small, b_small)
        else:
            val = inner_levels(
                big_k - 1, beta - x_k ** (-alpha / 2.0), x_k, (x_k,), a_small, b_small
            )
        total += w * val
    return lhat ** big_k * total


# ---------------------------------------------------------------------------
# Conditional and overall coverage


@dataclass(frozen=True)
class CoverageQuery:
    """What to evaluate: threshold (linear), mode, and an optional event
    (None = overall coverage for the mode)."""

    threshold: float
    mode: str
    event: AssociationEvent | None = None

    def __post_init__(self):
        if self.threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.event is not None and self.event.cooperative != (self.mode == COOPERATIVE):
            raise ValueError(f"event {self.event} inconsistent with mode {self.mode!r}")


def _quad_probability(
    integrand, upper: float, epsabs: float, what: str, points=None
) -> float:
    val, err = integrate.quad(
        integrand, 0.0, upper, epsabs=epsabs, limit=200, points=points
    )
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
            r = math.sqrt(tau / mix)
            return math.exp(-tau) * _single_server_kernel(scenario, event, r, threshold)

        p = _quad_probability(
            integrand, tau_max, num.coverage_epsabs, f"coverage {event}",
            points=_spike_hints(tau_star, tau_max),
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
            r = math.sqrt(tau / mix)
            win = mbs_win_prob(scenario, r)
            if win == 0.0:
                return 0.0
            return math.exp(-tau) * win * _single_server_kernel(scenario, event, r, threshold)

        p = _quad_probability(
            integrand, tau_max, num.coverage_epsabs, "coverage macro_coop",
            points=_spike_hints(tau_star, tau_max),
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


def coverage(query: CoverageQuery, scenario: Scenario) -> float:
    """Evaluate a CoverageQuery (dispatch sugar over the two functions above)."""
    if query.event is None:
        return coverage_overall(query.mode, scenario, query.threshold)
    return coverage_conditional(query.event, scenario, query.threshold)


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
