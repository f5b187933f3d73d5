"""Shared generators for randomized numeric tests, and independent reference
evaluations that the engine's closed forms are checked against."""

import math
from dataclasses import replace
from typing import NamedTuple

import mpmath
import numpy as np
from scipy import integrate, special

from hetcov.analysis import (
    LaplaceContext,
    _beta_ladder,
    _erlang_mixture,
    _log_laplace,
    _single_exclusions,
    _tail_constants,
    _taylor_terms,
    coverage_overall,
    laplace_context,
    serving_context,
)
from hetcov.association import (
    AssociationEvent,
    _cluster_exclusion,
    _cone_coeff,
    assoc_prob_sbs_cluster,
    mbs_win_prob,
    select_tier,
)
from hetcov.mcsim import _MIN_ARRIVAL, EVENT_CODES
from hetcov.model import COOPERATIVE, Scenario, TierParams, derive_tier, hat_ratios
from hetcov.quadrature import _cone_integral, _panel_integral
from hetcov.specfun import faa_coefficient, integer_partitions

# Tail mass the oracles below drop when they cut a radial or cone integral.
TAIL_MASS = 1e-8


def spike_hints(scale, upper: float) -> list | None:
    """QUADPACK break points at 0.1, 1, 10 and 100 times scale inside
    (0, upper), the hints the engine's _panel_edges places; None if none."""
    if scale is None:
        return None
    pts = [scale * f for f in (0.1, 1.0, 10.0, 100.0) if 0.0 < scale * f < upper]
    return pts or None


EVENTS_BY_MODE = {
    "noncooperative": (AssociationEvent.MACRO, AssociationEvent.SMALL),
    "cooperative": (AssociationEvent.MACRO_COOP, AssociationEvent.CLUSTER),
}


def random_tier(rng: np.random.Generator, density_scale: float, alpha: float) -> TierParams:
    antennas = int(rng.integers(1, 9))
    users = int(rng.integers(1, antennas + 1))
    return TierParams(
        density=density_scale * float(rng.uniform(0.3, 3.0)),
        power=float(rng.uniform(0.3, 30.0)),
        antennas=antennas,
        users=users,
        pathloss=alpha,
        bias=float(rng.uniform(0.3, 3.0)) if rng.random() < 0.3 else None,
    )


def random_scenario(
    rng: np.random.Generator,
    cluster_sizes=(1, 2),
    noise_choices=(0.0,),
) -> Scenario:
    """A random valid two-tier scenario kept numerically tame.

    Densities stay within two decades of the reference setup and antenna
    counts stay small so the adaptive integrals in the code under test run
    in milliseconds.
    """
    alpha = float(rng.uniform(2.4, 4.5))
    return Scenario(
        macro=random_tier(rng, 0.01, alpha),
        small=random_tier(rng, 0.04, alpha),
        cluster_size=int(rng.choice(cluster_sizes)),
        noise=float(rng.choice(noise_choices)),
    )


def random_laplace_context(rng: np.random.Generator, scenario=None) -> LaplaceContext:
    """A physically coherent Laplace context: random association event and
    serving distance, exclusion radii derived from them."""
    if scenario is None:
        scenario = random_scenario(rng)
    mode = "cooperative" if rng.random() < 0.5 else "noncooperative"
    event = EVENTS_BY_MODE[mode][int(rng.random() < 0.6)]
    if event is AssociationEvent.CLUSTER:
        serving = np.sort(rng.uniform(1.0, 30.0, size=scenario.cluster_size))
    else:
        serving = (float(rng.uniform(1.0, 30.0)),)
    sctx = serving_context(event, scenario, serving)
    return laplace_context(sctx, scenario, threshold=float(rng.uniform(0.1, 5.0)))


def comp_inc_beta(p: float, q: float, x: float, rtol: float = 1e-10) -> float:
    """Complementary incomplete Beta integral int_x^1 t^(p-1) (1-t)^(q-1) dt.

    Requires q > 0 and x in [0, 1]; x = 0 additionally requires p > 0 or
    the integral diverges at the origin. For p > 0 the value comes from the
    regularized incomplete Beta (integrating from the t=1 end avoids
    cancellation); p <= 0 falls back to adaptive quadrature. It is the
    B'(p, q, w) of the term-sum form of a tier's log L_I,
    -(2*pi/alpha) lambda (s p)^(2/alpha) sum_i C(psi,i) B'(psi-i+2/alpha, i-2/alpha, w)
    with w = (1 + s p d^-alpha)^-1, which the tests check the engine against.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if q <= 0.0:
        raise ValueError(f"q must be positive, got {q}")
    if x == 0.0 and p <= 0.0:
        raise ValueError(f"integral diverges at 0 for p={p} <= 0")
    if x == 1.0:
        return 0.0
    if p > 0.0:
        # substitute u = 1-t: int_0^(1-x) u^(q-1) (1-u)^(p-1) du
        return special.beta(p, q) * special.betainc(q, p, 1.0 - x)
    # p <= 0: integrand blows up polynomially toward t=0 but x > 0 keeps us
    # away from it; only the t=1 end needs care when q < 1.
    mid = 0.5 * (1.0 + x)
    left, _ = integrate.quad(
        lambda t: t ** (p - 1.0) * (1.0 - t) ** (q - 1.0),
        x, mid, epsabs=0.0, epsrel=rtol, limit=200,
    )
    # weight w(u) = u^(q-1) absorbs the endpoint singularity at u = 1-t = 0
    right, _ = integrate.quad(
        lambda u: (1.0 - u) ** (p - 1.0),
        0.0, 1.0 - mid, weight="alg", wvar=(q - 1.0, 0.0),
        epsabs=0.0, epsrel=rtol, limit=200,
    )
    return left + right


def gamma_ccdf(shape: int, scale: float, z: float) -> float:
    """Tail probability P[X > z] for X ~ Gamma(shape, scale), integer shape.

    Uses the finite series e^(-u) * sum_{i<shape} u^i / i! with u = z/scale;
    all terms are positive so the sum is cancellation-free.
    """
    if not isinstance(shape, int) or shape < 1:
        raise ValueError(f"shape must be a positive integer, got {shape}")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    if z < 0.0:
        raise ValueError(f"z must be >= 0, got {z}")
    u = z / scale
    term = 1.0
    acc = 1.0
    for i in range(1, shape):
        term *= u / i
        acc += term
    return float(np.exp(-u) * acc) if u > 0.0 else 1.0


def beta_tier_sum_direct(psi: int, alpha: float, w):
    """sum_{i=1..psi} C(psi,i) * B'(psi-i+2/alpha, i-2/alpha, w) with one
    regularized incomplete Beta per term, for a float w or an array of them."""
    i = np.arange(1, psi + 1)
    q, p = i - 2.0 / alpha, psi - i + 2.0 / alpha
    weights = special.comb(psi, i) * special.beta(p, q)
    return special.betainc(q, p, 1.0 - np.asarray(w, dtype=float)[..., None]) @ weights


def tail_u0(v0, alpha: float) -> np.ndarray:
    """u0 = 1/(1 + v0^alpha) per entry of v0, as x0/(1+x0) with x0 = v0^-alpha
    above v0 = 1 so that neither power overflows."""
    v0 = np.asarray(v0, dtype=float)
    x0 = np.maximum(v0, 1.0) ** (-alpha)
    return np.where(v0 > 1.0, x0 / (1.0 + x0), 1.0 / (1.0 + np.minimum(v0, 1.0) ** alpha))


def radial_tail_direct(v0, psi: int, nmax: int, alpha: float) -> np.ndarray:
    """int_{v0}^inf v^(1-n*alpha) (1 + v^-alpha)^-(psi+n) dv for n = 1..nmax
    as (1/alpha) * B(a, b) * I_u0(a, b), a = n - 2/alpha, b = psi + 2/alpha,
    u0 = 1/(1 + v0^alpha), with one betainc call over every order."""
    a, b = np.arange(1, nmax + 1) - 2.0 / alpha, psi + 2.0 / alpha
    return special.beta(a, b) / alpha * special.betainc(a, b, tail_u0(v0, alpha)[..., None])


def radial_tail_integral(v0, psi: int, nmax: int, alpha: float) -> np.ndarray:
    """radial_tail_direct's integrals from the engine's downward ladder: the
    scales of _tail_constants times one _beta_ladder over every order. An
    array of v0 gives one row of orders per entry; nmax = 0 an empty axis."""
    u0 = tail_u0(v0, alpha)
    if nmax == 0:
        return np.zeros(u0.shape + (0,))
    return _tail_constants(psi, nmax, alpha)[1] * _beta_ladder(u0, psi, nmax, alpha)


def radial_tail_quad(v0: float, psi: int, n: int, alpha: float, epsrel: float = 1e-10) -> float:
    """int_{v0}^inf v^(1-n*alpha) (1 + v^-alpha)^-(psi+n) dv by QUADPACK.

    The kernel is branched at v=1 so v^(+-alpha) stays inside float range at
    both ends; a lower limit v0 > 2 is rescaled to 1, because a power-law
    tail starting at a huge v0 defeats the infinite-interval transform's
    default scale.
    """

    def kernel(v):
        if v <= 0.0:
            return 0.0
        if v <= 1.0:
            return v ** (1.0 + alpha * psi) * (1.0 + v ** alpha) ** (-(psi + n))
        return v ** (1.0 - n * alpha) * (1.0 + v ** (-alpha)) ** (-(psi + n))

    if v0 > 2.0:
        val, _ = integrate.quad(
            lambda y: v0 * kernel(v0 * y), 1.0, np.inf, epsabs=0.0, epsrel=epsrel, limit=300
        )
    else:
        val, _ = integrate.quad(kernel, v0, np.inf, epsabs=0.0, epsrel=epsrel, limit=300)
    return val


def laplace_series(ctx: LaplaceContext, order: int) -> np.ndarray:
    """Terms (-s)^k/k! * d^k/ds^k[e^(-sN) L_I(s)] for k = 0..order-1, along
    the last axis, at the fixed geometry of ctx: the series the engine's
    _scale_average integrates over the scale, from the same _log_laplace
    and _taylor_terms. Their sum is the coverage of a Gamma(order,1)-faded
    link at this geometry."""
    log_l, y = _log_laplace(ctx, order - 1)
    kappa = ctx.s * ctx.scenario.noise
    base = np.exp(log_l - kappa)
    if not base.any():
        return np.zeros(np.shape(base) + (order,))
    y[..., :1] += np.asarray(kappa)[..., None]  # the noise's y_1
    return base[..., None] * _taylor_terms(y, order)


def tail_weights(ctx: LaplaceContext, order: int):
    """sum_{k<order} of the laplace_series, the coverage of a
    Gamma(order,1)-faded link at this geometry (one value per geometry).
    Every series term is non-negative; rounding can only push the sum past 1."""
    return np.minimum(laplace_series(ctx, order).sum(axis=-1), 1.0)


def laplace_derivative(ctx: LaplaceContext, k: int) -> float:
    """k-th derivative of e^(-sN) * L_I(s) with respect to s, from the
    fixed-geometry Laplace series.

    k=0 returns the function itself; order k is k!/(-s)^k times the k-th
    term of the series.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return float(laplace_series(ctx, k + 1)[-1]) * math.factorial(k) / (-ctx.s) ** k


def log_laplace_derivative(ctx: LaplaceContext, n: int) -> float:
    """n-th derivative of g(s) = -sN + log L_I(s), n >= 1, from the engine's
    scaled log-derivatives."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    y_n = float(_log_laplace(ctx, n)[1][-1]) + (ctx.s * ctx.scenario.noise if n == 1 else 0.0)
    return y_n * math.factorial(n - 1) / (-ctx.s) ** n


def log_laplace_mp(ctx: LaplaceContext, dps: int = 60) -> float:
    """log L_I(s) = -pi sum_tiers lambda d^2 [2F1(psi, -2/alpha; 1-2/alpha; -s p d^-alpha) - 1]
    in mpmath at dps digits, for a float context with both exclusions d > 0.

    The bracket falls like (d/(s p)^(1/alpha))^-alpha, so it keeps its
    digits only at a working precision far past double.
    """
    with mpmath.workdps(dps):
        alpha = mpmath.mpf(ctx.scenario.pathloss)
        total = mpmath.mpf(0)
        for lam, p, psi, d in ctx.tiers():
            d = mpmath.mpf(d)
            z = -mpmath.mpf(ctx.s) * mpmath.mpf(p) / d**alpha
            total += lam * d**2 * (mpmath.hyp2f1(psi, -2 / alpha, 1 - 2 / alpha, z) - 1)
        return float(-mpmath.pi * total)


def log_laplace_derivative_quad(ctx: LaplaceContext, n: int) -> float:
    """n-th derivative of -sN + log L_I(s) through radial_tail_quad."""
    s, sc = ctx.s, ctx.scenario
    alpha = sc.pathloss
    total = -sc.noise if n == 1 else 0.0
    for lam, p, psi, d in ctx.tiers():
        val = radial_tail_quad(d / (s * p) ** (1.0 / alpha), psi, n, alpha)
        rising = math.prod(range(psi, psi + n))
        total += (
            (-1.0) ** n * 2.0 * math.pi * lam * rising * p**n * (s * p) ** (2.0 / alpha - n) * val
        )
    return total


def bell_series(sigmas, order: int) -> list:
    """(-1)^k/k! * B_k for k = 0..order-1, B_k the complete Bell polynomials
    over x_j = sigmas[j-1], by B_k = sum_{j=1..k} C(k-1, j-1) x_j B_(k-j).

    Each x_j may be an array, giving one series per entry. With
    x_j = s^j g^(j)(s), term k is (-s)^k/k! * d^k/ds^k e^(g(s)) over
    e^(g(s)): the signed form of the engine's Taylor recurrence, kept as
    its reference.
    """
    bell = [1.0]
    for k in range(1, order):
        bell.append(
            sum(math.comb(k - 1, j - 1) * sigmas[j - 1] * bell[k - j] for j in range(1, k + 1))
        )
    return [(-1.0) ** k / math.factorial(k) * b for k, b in enumerate(bell)]


def signed_rising(psi: int, nmax: int) -> np.ndarray:
    """(-1)^n (psi)_n for n = 1..nmax: a tier's scaled n-th log-Laplace
    derivative s^n g^(n) over 2*pi*lambda*(s*p)^(2/alpha) times its radial
    tail integral."""
    return np.array([(-1.0) ** n * math.prod(range(psi, psi + n)) for n in range(1, nmax + 1)])


def bell_sum_by_partitions(g_derivs, k: int) -> float:
    """Complete Bell polynomial of order k, walking the partitions of k."""
    if k == 0:
        return 1.0
    total = 0.0
    for part in integer_partitions(k):
        term = float(faa_coefficient(part))
        for j, m in enumerate(part.multiplicities, start=1):
            if m:
                term *= g_derivs[j - 1] ** m
        total += term
    return total


# ---------------------------------------------------------------------------
# Fixed-geometry coverage kernels: coverage at each given serving geometry,
# with no scale average. The engine's kernels are their scale averages.


def single_server_kernel(scenario: Scenario, event, r, threshold) -> np.ndarray:
    """Conditional coverage given a single serving BS, at each distance of
    the 1-D array r and its threshold (a float, or one per distance)."""
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
    out[live] = tail_weights(ctx, derive_tier(tier).fading_order)
    return out


def cluster_kernel(scenario: Scenario, distances, threshold) -> np.ndarray:
    """Conditional coverage given the cluster serves from these distances,
    one value per row of an (n, K) array of ascending distances and its
    threshold (a float, or one per row): the laplace_series of each pole of
    the engine's Erlang mixture, weighted by its cumulated weights."""
    r = np.asarray(distances, dtype=float)
    threshold = np.zeros(len(r)) + threshold  # one per row
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        path_gain = r ** (-scenario.pathloss)
        s = threshold / (scenario.small.power * path_gain.sum(axis=1))
    out = np.ones(len(r))  # s = 0: certain coverage
    live = s > 0.0
    if not live.any():
        return out
    r, gains, threshold = r[live], scenario.small.power * path_gain[live], threshold[live]
    d_macro, d_small = _cluster_exclusion(scenario, r), r[:, -1]
    total = np.zeros(len(r))
    for rows, poles in _erlang_mixture(gains, derive_tier(scenario.small).fading_order):
        for b, weights in poles:
            # sum_l w_l sum_{k<l} (...) = sum_k (sum_{l>k} w_l) (...)
            cum = np.cumsum(weights[:, ::-1], axis=1)[:, ::-1]
            ctx = LaplaceContext(
                s=threshold[rows] / b, d_macro=d_macro[rows], d_small=d_small[rows],
                scenario=scenario,
            )
            total[rows] += (cum * laplace_series(ctx, cum.shape[1])).sum(axis=1)
    out[live] = np.clip(total, 0.0, 1.0)  # rounding only
    return out


# ---------------------------------------------------------------------------
# Scalar oracles of the coverage kernels: one geometry per call, the pole
# loops written out, the integrals by (nested) QUADPACK. The engine
# evaluates the same quantities over arrays of geometries.


def single_server_kernel_scalar(scenario: Scenario, event, r: float, threshold: float) -> float:
    """Conditional coverage given a single serving BS at distance r."""
    if r <= 0.0:
        return 1.0
    ctx = laplace_context(serving_context(event, scenario, (r,)), scenario, threshold)
    order = derive_tier(scenario.macro if event.macro_serving else scenario.small).fading_order
    return float(tail_weights(ctx, order))


def single_coverage_quad(event, scenario: Scenario, threshold: float) -> float:
    """P[SINR > threshold | MACRO or SMALL] by QUADPACK over the exponent
    coordinate tau, one scalar kernel per node."""
    alpha = scenario.pathloss
    beta = hat_ratios(scenario).macro_advantage
    lam_m, lam_s = scenario.macro.density, scenario.small.density
    if event is AssociationEvent.MACRO:
        mix = math.pi * (lam_m + lam_s * beta ** (-2.0 / alpha))
    else:
        mix = math.pi * (lam_s + lam_m * beta ** (2.0 / alpha))
    tau_max = -math.log(TAIL_MASS)
    val, err = integrate.quad(
        lambda tau: math.exp(-tau) * single_server_kernel_scalar(
            scenario, event, math.sqrt(tau / mix), threshold
        ),
        0.0, tau_max, epsabs=scenario.numerics.coverage_epsabs, limit=200,
        points=spike_hints(threshold ** (-2.0 / alpha), tau_max),
    )
    assert err <= 1e-4, (val, err)
    return val


def erlang_mixture_mp(gains, order: int) -> list:
    """Partial-fraction form of prod_i (1 + a_i s)^(-order) over distinct
    gains, in mpmath at its working precision: [(b, [w_1..w_m])], w_l the
    weight of (1 + b s)^(-l).

    With y = 1 + b s, every other factor is ((1-q) + q y)^(-m), q = a_j/b,
    with Taylor coefficients (1-q)^(-m) C(m+n-1, n) (-q/(1-q))^n at y = 0;
    their product's coefficients c_n give w_l = c_(m-l).
    """
    a = [mpmath.mpf(float(g)) for g in gains]
    out = []
    for i, b in enumerate(a):
        c = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (order - 1)
        for j, aj in enumerate(a):
            if j != i:
                q = aj / b
                t = [
                    (1 - q) ** -order * mpmath.binomial(order + n - 1, n) * (q / (q - 1)) ** n
                    for n in range(order)
                ]
                c = [mpmath.fsum(c[v] * t[n - v] for v in range(n + 1)) for n in range(order)]
        out.append((b, c[::-1]))
    return out


def laplace_series_mp(scenario: Scenario, s, d_macro, d_small, order: int) -> list:
    """(-s)^k/k! d^k/ds^k [e^(-sN) L_I(s)] for k < order, in mpmath.

    Each tier (density lambda, power p, shape psi, exclusion d > 0, x0 =
    s p d^-alpha, delta = 2/alpha) adds -pi lambda d^2 (2F1(psi, -delta;
    1-delta; -x0) - 1) to log L_I, and (-1)^n (psi)_n 2 pi lambda (s p)^delta
    / alpha * x0^(n-delta)/(n-delta) 2F1(psi+n, n-delta; n-delta+1; -x0) to
    s^n g^(n); the terms are the complete Bell polynomials of the latter.
    """
    sc = scenario
    alpha = mpmath.mpf(sc.pathloss)
    delta = 2 / alpha
    s = mpmath.mpf(s)
    log_l = -s * sc.noise
    sigmas = [mpmath.mpf(0)] * (order - 1)
    if order > 1:
        sigmas[0] = -s * sc.noise
    tiers = (
        (sc.macro.density, sc.macro.power, sc.macro.users, d_macro),
        (sc.small.density, sc.small.power, sc.small.users, d_small),
    )
    for lam, p, psi, d in tiers:
        lam, sp, d = mpmath.mpf(lam), s * mpmath.mpf(p), mpmath.mpf(d)
        x0 = sp * d ** -alpha
        log_l -= mpmath.pi * lam * d ** 2 * (mpmath.hyp2f1(psi, -delta, 1 - delta, -x0) - 1)
        for n in range(1, order):
            sigmas[n - 1] += (
                (-1) ** n * mpmath.rf(psi, n) * 2 * mpmath.pi * lam * sp ** delta / alpha
                * x0 ** (n - delta) / (n - delta) * mpmath.hyp2f1(psi + n, n - delta, n - delta + 1, -x0)
            )
    bell = [mpmath.mpf(1)]
    for k in range(1, order):
        bell.append(mpmath.fsum(
            mpmath.binomial(k - 1, j - 1) * sigmas[j - 1] * bell[k - j] for j in range(1, k + 1)
        ))
    base = mpmath.exp(log_l)
    return [base * (-1) ** k / mpmath.factorial(k) * b for k, b in enumerate(bell)]


def cluster_kernel_mp(scenario: Scenario, distances, threshold: float) -> float:
    """Conditional coverage given the cluster serves from these (distinct)
    distances, "exact" fading, by partial fractions over the unmerged
    gains in mpmath.

    The weights grow like gap^-(n_tot - 1) at a relative gain gap, so the
    working precision is 30 digits plus that many."""
    sctx = serving_context(AssociationEvent.CLUSTER, scenario, distances)
    order = derive_tier(scenario.small).fading_order
    gains = sorted(scenario.small.power * r ** (-scenario.pathloss) for r in sctx.distances)
    gap = min((hi / lo - 1.0 for lo, hi in zip(gains, gains[1:])), default=1.0)
    extra = (len(gains) * order - 1) * max(0.0, -math.log10(gap))
    with mpmath.workdps(30 + int(extra)):
        total = mpmath.mpf(0)
        for b, weights in erlang_mixture_mp(gains, order):
            terms = laplace_series_mp(scenario, threshold / b, sctx.d_macro, sctx.d_small, order)
            for l, w in enumerate(weights, start=1):
                total += w * mpmath.fsum(terms[:l])
        return float(total)


def cluster_kernel_scalar(scenario: Scenario, distances, threshold: float) -> float:
    """Conditional coverage given the cluster serves from these distances,
    K <= 2, without partial fractions.

    For K = 2, a_1 G_1 + a_2 G_2 = G (a_2 + (a_1 - a_2) B) with G ~
    Gamma(2m) and B ~ Beta(m, m) independent, so the kernel is the Beta
    average of the Gamma(2m)-link coverage at gain a_2 + (a_1 - a_2) B. It
    runs in y = log of that gain over a_2, on Gauss-Legendre panels of
    width 2 over [max(0, log(a_1/a_2) - 40), log(a_1/a_2)]: the integrand is
    analytic for |Im y| < pi/2, and B < e^-40 carries no mass.
    """
    if any(r <= 0.0 for r in distances):
        return 1.0
    sctx = serving_context(AssociationEvent.CLUSTER, scenario, distances)
    order = derive_tier(scenario.small).fading_order

    def coverage(gain, n):
        ctx = LaplaceContext(
            s=threshold / gain, d_macro=sctx.d_macro, d_small=sctx.d_small, scenario=scenario
        )
        return tail_weights(ctx, n)

    gains = sorted(scenario.small.power * r ** (-scenario.pathloss) for r in sctx.distances)
    if len(gains) == 1:
        return float(coverage(np.array(gains), order)[0])
    if len(gains) > 2:
        raise ValueError("the Beta-mixture kernel takes K <= 2")
    lo_gain, hi_gain = gains
    span = math.log(hi_gain / lo_gain)
    if span == 0.0:
        return float(coverage(np.array([lo_gain]), 2 * order)[0])
    start = max(0.0, span - 40.0)
    edges = np.linspace(start, span, int(math.ceil((span - start) / 2.0)) + 1)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    y, wy = (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()
    x = np.expm1(y) / math.expm1(span)
    density = (x * (1.0 - x)) ** (order - 1) / special.beta(order, order)
    jacobian = np.exp(y) / math.expm1(span)
    return float(np.sum(wy * density * jacobian * coverage(lo_gain * np.exp(y), 2 * order)))


def cluster_integral_quad(scenario: Scenario, h=None, epsabs=None, spike=None) -> float:
    """The cone integral of h(r_1..r_K) (h=None: 1) by nested QUADPACK, for
    K <= 2; h takes one distance tuple."""
    num = scenario.numerics
    if epsabs is None:
        epsabs = num.quad_epsabs
    k = scenario.cluster_size
    if k not in (1, 2):
        raise ValueError(f"nested quadrature covers K <= 2, got {k}")
    alpha = scenario.pathloss
    c = _cone_coeff(scenario)
    lam_s = scenario.small.density

    def radius(t):
        return np.sqrt(t / (math.pi * lam_s))

    if k == 1:
        def integrand(t1):
            w = math.exp(-c * t1 - t1)
            return w if h is None else w * h((radius(t1),))
    else:
        def integrand(t2):
            t2_half = t2 ** (-alpha / 2.0)

            def over_z(z):
                t1 = t2 * z
                if t1 <= 1e-60:
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

    tmax = -math.log(TAIL_MASS) + 5.0
    val, err = integrate.quad(
        integrand, 0.0, tmax, epsabs=epsabs, limit=200, points=spike_hints(spike, tmax)
    )
    assert err <= max(epsabs * 100.0, 1e-6), (val, err)
    return val


def mbs_win_prob_quad(scenario: Scenario, mbs_distance: float, epsabs: float = 1e-13) -> float:
    """P[the macro BS at mbs_distance beats the small-cell cluster], K in
    {2, 3}, by nested QUADPACK over the ordered shape
    w_1 < ... < w_(K-1) < 1 of the K nearest arrivals, not the engine's
    ratio coordinates.

    At shape w the macro BS wins iff the scale t_K exceeds
    x = lo * (1 + sum_i w_i^(-alpha/2))^(2/alpha), lo = beta^(-2/alpha) *
    lambda_s*pi*r_m^2, so the Gamma(K) scale leaves
    (K-1)! * gammaincc(K, x). Every level breaks at lo, 10 lo and 100 lo,
    around where the tail falls from (K-1)!.
    """
    k, alpha = scenario.cluster_size, scenario.pathloss
    if k not in (2, 3):
        raise ValueError(f"nested quadrature covers K in (2, 3), got {k}")
    beta = hat_ratios(scenario).macro_advantage
    lo = beta ** (-2.0 / alpha) * scenario.small.density * math.pi * mbs_distance ** 2

    def tail(*w):
        x = lo * (1.0 + sum(v ** (-alpha / 2.0) for v in w)) ** (2.0 / alpha)
        return math.factorial(k - 1) * special.gammaincc(k, x)

    def over(f, top):
        points = [p for p in (lo, 10.0 * lo, 100.0 * lo) if p < top] or None
        val, err = integrate.quad(
            f, 0.0, top, epsabs=epsabs, epsrel=0.0, limit=400, points=points
        )
        assert err <= 100.0 * epsabs, (val, err)
        return val

    if k == 2:
        return over(tail, 1.0)
    return over(lambda w_2: over(lambda w_1: tail(w_1, w_2), w_2), 1.0)


def cluster_integral_cone(scenario: Scenario, h=None, epsabs=None, spike=None) -> float:
    """Integral of h(r_1..r_K) * exp(-lambda_m*pi*eta^(2/alpha)) * f(r) over
    the whole ordered cone, f the joint PDF of the K nearest small-BS
    distances; h maps an (n, K) array of ascending distance rows to n
    values, and h=None means h=1, the cluster association probability.

    One _cone_integral in arrival coordinates, its error estimate checked
    against the engine's gate. t_K is cut at the larger of
    -log(TAIL_MASS) + 5 and the Gamma(K) quantile at TAIL_MASS, so less than
    TAIL_MASS of the cone is dropped for every K. spike hints the arrival
    coordinate where h concentrates.
    """
    if epsabs is None:
        epsabs = scenario.numerics.quad_epsabs
    k = scenario.cluster_size
    alpha = scenario.pathloss
    c = _cone_coeff(scenario)

    def values(t, key):
        with np.errstate(divide="ignore", over="ignore"):
            eta_term = (t ** (-alpha / 2.0)).sum(axis=1) ** (-2.0 / alpha)
        w = np.exp(-c * eta_term)
        return w if h is None else w * h(np.sqrt(t / (math.pi * scenario.small.density)))

    upper = max(-math.log(TAIL_MASS) + 5.0, float(special.gammainccinv(k, TAIL_MASS)))
    return _cone_integral(k, values, upper, epsabs, "cluster cone integral", spike)[0]


def cluster_integral_sampled(scenario: Scenario, h=None, n=200_000, seed=0, chunk=4096):
    """The cone integral of h (h=None: 1) as a sample mean over n draws of
    the first K arrival times of a unit-rate Poisson process; h maps an
    (m, K) array of ascending distance rows to m values. Returns the mean
    and its standard error."""
    k = scenario.cluster_size
    alpha = scenario.pathloss
    t = np.random.default_rng(seed).standard_exponential((n, k)).cumsum(axis=1)
    eta_term = (t ** (-alpha / 2.0)).sum(axis=1) ** (-2.0 / alpha)
    w = np.exp(-_cone_coeff(scenario) * eta_term)
    if h is not None:
        radii = np.sqrt(t / (math.pi * scenario.small.density))
        w = w * np.concatenate([h(radii[i:i + chunk]) for i in range(0, n, chunk)])
    return float(w.mean()), float(w.std(ddof=1) / math.sqrt(n))


def coop_macro_joint_scalar(scenario: Scenario, threshold: float, atol: float = 1e-8) -> float:
    """P[SINR > threshold and the macro side wins] under cooperation, at
    zero noise, over the cluster event's coordinates by scipy's adaptive
    cubature: the engine's coordinates and integrator are not used.

    The K losers' shape w = (t_1..t_(K-1))/t_K runs over the unit cube in
    z_i = w_i/w_(i+1), with Jacobian w_2 ... w_(K-1). At shape w the macro
    side wins while rho = (r_m/r_K)^2 stays below
    rho_max = beta^(2/alpha) (sum_i w_i^(-alpha/2))^(-2/alpha), w_K = 1;
    the weight is drho/lhat and the scale t_K has rate 1 + rho/lhat. The
    last cube coordinate v maps onto (0, rho_max) by
    rho/rho_knee = q/(1 - q), q proportional to v^2, with rho_knee where the
    K-th loser alone matches T. At t_K = 1 the macro field lies beyond
    r_m = sqrt(rho/(pi lambda_s)) and the small field beyond
    r_K = (pi lambda_s)^(-1/2); the losers' signed scaled log-derivatives
    are scale-free, the fields' grow linearly in t_K. The Gamma(K+1) average
    over t_K is exact on kmax//2 + 1 generalized Gauss-Laguerre nodes, each
    summing the complete Bell series of the coverage terms.
    """
    sc = scenario
    alpha = sc.pathloss
    big_k = sc.cluster_size
    ratios = hat_ratios(sc)
    beta, lhat, p_hat = ratios.macro_advantage, ratios.density, ratios.power
    psi_m, psi_s = sc.macro.users, sc.small.users
    kmax = derive_tier(sc.macro).fading_order - 1
    two_a = 2.0 / alpha
    t = threshold

    # the fields' log-Laplace exponent and signed scaled log-derivatives at
    # t_K = 1, per unit rho: the macro field's dimensionless exclusion is
    # T^(-1/alpha) at every rho
    a_macro = two_a * t ** two_a * beta_tier_sum_direct(psi_m, alpha, 1.0 / (1.0 + t)) / lhat
    b_macro = (
        2.0 * t ** two_a * signed_rising(psi_m, kmax)
        * radial_tail_direct(t ** (-1.0 / alpha), psi_m, kmax, alpha) / lhat
    )
    b_small = 2.0 * (t * p_hat) ** two_a * signed_rising(psi_s, kmax)
    lag_y, lag_w = special.roots_genlaguerre(kmax // 2 + 1, big_k)
    orders = np.arange(1, kmax + 1)
    signs = (-1.0) ** orders * special.factorial(orders - 1)
    rho_knee = (t * p_hat) ** (-two_a)

    def integrand(x):
        z, v = x[:, :-1], x[:, -1]
        w = np.column_stack([np.cumprod(z[:, ::-1], axis=1)[:, ::-1], np.ones(len(x))])
        eta = ((w ** (-alpha / 2.0)).sum(axis=1)) ** (-two_a)
        # q = q_max v^2 makes the powers rho and rho^(alpha/2) smooth in v at 0
        q_max = 1.0 / (1.0 + rho_knee / (beta ** two_a * eta))
        q = q_max * v * v
        rho = rho_knee * q / (1.0 - q)
        jacobian = np.prod(w[:, 1:-1], axis=1) * rho_knee * 2.0 * q_max * v / (1.0 - q) ** 2 / lhat
        y = t * p_hat * (rho[:, None] / w) ** (alpha / 2.0)
        u = y / (1.0 + y)
        c_tot = psi_s * signs * (u[..., None] ** orders).sum(axis=1)
        a_small = two_a * (t * p_hat) ** two_a * rho * beta_tier_sum_direct(
            psi_s, alpha, 1.0 / (1.0 + y[:, -1])
        )
        v0_small = (t * p_hat) ** (-1.0 / alpha) / np.sqrt(rho)
        b_tot = rho[:, None] * (b_macro + b_small * radial_tail_direct(v0_small, psi_s, kmax, alpha))
        d = 1.0 + rho / lhat + rho * a_macro + a_small
        sigmas = c_tot[..., None] + b_tot[..., None] * (lag_y / d[:, None])[:, None, :]
        terms = bell_series(list(sigmas.transpose(1, 0, 2)), kmax + 1)
        acc = sum(terms, np.zeros((len(x), len(lag_w)))) @ lag_w
        losers = np.exp(-psi_s * np.log1p(y).sum(axis=1))
        return jacobian * losers * acc * d ** (-(big_k + 1))

    res = integrate.cubature(integrand, np.zeros(big_k), np.ones(big_k), rtol=0.0, atol=atol)
    assert res.status == "converged", (res.estimate, res.error)
    return float(res.estimate)


def coverage_conditional_quad(event, scenario: Scenario, threshold: float) -> float:
    """P[SINR > threshold | event] by the routes that integrate over the
    scale coordinate numerically: the single-server kernel over
    tau = pi*mix*r^2 on adaptive panels, the cluster kernel over the whole
    ordered cone, and the macro side under cooperation by the exclusion
    route (K = 1) or, at zero noise only, the cubature oracle
    coop_macro_joint_scalar (K >= 2)."""
    num = scenario.numerics
    alpha = scenario.pathloss
    beta = hat_ratios(scenario).macro_advantage
    lam_m, lam_s = scenario.macro.density, scenario.small.density
    spike = threshold ** (-2.0 / alpha)
    if event is AssociationEvent.CLUSTER:
        raw = cluster_integral_cone(
            scenario, h=lambda r: cluster_kernel(scenario, r, threshold),
            epsabs=0.5 * num.coverage_epsabs, spike=spike,
        )
        return raw / assoc_prob_sbs_cluster(scenario)
    if event is AssociationEvent.MACRO_COOP and scenario.cluster_size >= 2:
        if scenario.noise != 0.0:
            raise ValueError("the cubature oracle requires zero noise")
        joint = coop_macro_joint_scalar(scenario, threshold)
        return joint / (1.0 - assoc_prob_sbs_cluster(scenario))
    norm = 1.0
    if event is AssociationEvent.MACRO:
        mix = math.pi * (lam_m + lam_s * beta ** (-2.0 / alpha))
    elif event is AssociationEvent.SMALL:
        mix = math.pi * (lam_s + lam_m * beta ** (2.0 / alpha))
    else:
        mix, norm = math.pi * lam_m, 1.0 - assoc_prob_sbs_cluster(scenario)

    def integrand(tau, key):
        r = np.sqrt(tau / mix)
        weight = np.exp(-tau)
        if event is AssociationEvent.MACRO_COOP:
            weight *= [mbs_win_prob(scenario, x) if x > 0.0 else 1.0 for x in r.tolist()]
        return weight * single_server_kernel(scenario, event, r, threshold)

    tau_max = -math.log(TAIL_MASS)
    val, err = _panel_integral(integrand, tau_max, num.coverage_epsabs, "reference", spike)
    assert err <= max(50.0 * num.coverage_epsabs, 1e-4), (val, err)
    return val / norm


def mean_rate_quad(mode: str, scenario: Scenario) -> float:
    """mean_rate with the engine's v_max probes, panels and tail, but the
    v-integral by QUADPACK at epsabs 1e-10 on the relaxed coverage_overall,
    one scalar threshold at a time: an oracle independent of the v-rule."""
    num = scenario.numerics
    relaxed = replace(scenario, numerics=replace(
        num, coverage_epsabs=max(1e-4, num.coverage_epsabs), quad_epsabs=max(1e-8, num.quad_epsabs)
    ))

    def coverage(v: float) -> float:
        return float(coverage_overall(mode, relaxed, math.expm1(v)))

    v_max = 4.0
    while coverage(v_max) > 1e-4:
        v_max += 3.0
        assert v_max <= 40.0, "coverage tail does not decay"
    split = min(3.0, 0.5 * v_max)
    total = sum(
        integrate.quad(coverage, lo, hi, epsabs=1e-10, epsrel=0.0, limit=200)[0]
        for lo, hi in ((0.0, split), (split, v_max))
    )
    return (total + coverage(v_max) * scenario.pathloss / 2.0) / math.log(2.0)


# ---------------------------------------------------------------------------
# Scalar Monte Carlo oracle: one trial at a time, each drawn from its own
# Generator(Philox(seed).jumped(i)) and judged by select_tier. The engine's
# block evaluation must reproduce it byte for byte.


class TrialDraws(NamedTuple):
    """Everything one trial draws, before any mode picks a serving side."""

    macro: np.ndarray  # m, ascending
    small: np.ndarray  # m, ascending
    h_macro: np.ndarray  # serving fading of the nearest macro BS, shape (1,)
    h_small: np.ndarray  # serving fading of the K nearest small BSs
    gain_macro: np.ndarray  # r^-alpha per listed macro BS
    gain_small: np.ndarray  # r^-alpha per listed small BS
    faded_macro: np.ndarray  # interferer fading times gain, per macro BS
    faded_small: np.ndarray  # interferer fading times gain, per small BS
    tail: float  # mean interference beyond the last listed BSs, watts


def draw_trial_scalar(scenario: Scenario, rng: np.random.Generator, counts) -> TrialDraws:
    """One trial's draws: macro arrivals, small arrivals, serving fading (the
    nearest macro BS, then the K nearest small BSs), interferer fading for
    every listed BS (macro, then small)."""
    alpha = scenario.pathloss
    distances = []
    for tier, n in zip((scenario.macro, scenario.small), counts):
        t = np.cumsum(rng.standard_exponential(n))
        np.maximum(t, _MIN_ARRIVAL, out=t)
        t *= 1.0 / (math.pi * tier.density)
        distances.append(np.sqrt(t))
    macro, small = distances
    h_macro = rng.standard_gamma(derive_tier(scenario.macro).fading_order, 1)
    h_small = rng.standard_gamma(derive_tier(scenario.small).fading_order, scenario.cluster_size)
    g_macro = rng.standard_gamma(scenario.macro.users, len(macro))
    g_small = rng.standard_gamma(scenario.small.users, len(small))
    tail = 0.0
    for tier, r in ((scenario.macro, macro), (scenario.small, small)):
        tail += tier.density * tier.power * tier.users * float(r[-1]) ** (2.0 - alpha)
    gain_macro = macro ** (-alpha)
    gain_small = small ** (-alpha)
    return TrialDraws(
        macro=macro,
        small=small,
        h_macro=h_macro,
        h_small=h_small,
        gain_macro=gain_macro,
        gain_small=gain_small,
        faded_macro=g_macro * gain_macro,
        faded_small=g_small * gain_small,
        tail=2.0 * math.pi * tail / (alpha - 2.0),
    )


def evaluate_trial_scalar(scenario: Scenario, mode: str, draws: TrialDraws):
    """Association event and SINR of one mode on a draw."""
    k = scenario.cluster_size if mode == COOPERATIVE else 1
    event = select_tier(scenario, mode, float(draws.macro[0]), draws.small[:k])
    if event.macro_serving:
        macro_served, small_served = 1, 0
        desired = scenario.macro.power * float(draws.h_macro[0] * draws.gain_macro[0])
    else:
        macro_served = 0
        small_served = k if event is AssociationEvent.CLUSTER else 1
        desired = scenario.small.power * float(
            np.dot(draws.h_small[:small_served], draws.gain_small[:small_served])
        )
    interference = (
        scenario.macro.power * float(draws.faded_macro[macro_served:].sum())
        + scenario.small.power * float(draws.faded_small[small_served:].sum())
        + draws.tail
    )
    return event, desired / (interference + scenario.noise)


def run_modes_scalar(scenario: Scenario, modes, trials: int, master_seed: int, counts) -> dict:
    """(event codes, SINRs) per mode, one scalar trial at a time."""
    base = np.random.Philox(key=master_seed)
    out = {mode: (np.empty(trials, dtype=np.int8), np.empty(trials)) for mode in modes}
    for i in range(trials):
        draws = draw_trial_scalar(scenario, np.random.Generator(base.jumped(i)), counts)
        for mode, (events, sinr) in out.items():
            event, sinr[i] = evaluate_trial_scalar(scenario, mode, draws)
            events[i] = EVENT_CODES[event]
    return out
