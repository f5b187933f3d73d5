"""Shared generators for randomized numeric tests, and independent reference
evaluations that the engine's closed forms are checked against."""

import math

import numpy as np
from scipy import integrate, special

from hetcov.analysis import (
    _CLUSTER_CLAMP,
    IntegrationFailure,
    LaplaceContext,
    _bell_series,
    _beta_tier_sum,
    _gauss_panel,
    _laplace_series,
    _radial_tail_integral,
    _tail_constants,
    _tail_weights,
    laplace_context,
    serving_context,
)
from hetcov.association import AssociationEvent, _cone_coeff, _spike_hints
from hetcov.model import Scenario, TierParams, derive_tier, hat_ratios
from hetcov.specfun import faa_coefficient, integer_partitions

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
    cancellation); p <= 0 falls back to adaptive quadrature. It equals the
    B'(p, q, w) of the engine's Beta-form tier factor.
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
# Scalar oracles of the coverage kernels: one geometry per call, the pole
# loops written out, the integrals by (nested) QUADPACK. The engine
# evaluates the same quantities over arrays of geometries.


def single_server_kernel_scalar(scenario: Scenario, event, r: float, threshold: float) -> float:
    """Conditional coverage given a single serving BS at distance r."""
    if r <= 0.0:
        return 1.0
    ctx = laplace_context(serving_context(event, scenario, (r,)), scenario, threshold)
    order = derive_tier(scenario.macro if event.macro_serving else scenario.small).fading_order
    return float(_tail_weights(ctx, order))


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
    tau_max = -math.log(scenario.numerics.tail_mass)
    val, err = integrate.quad(
        lambda tau: math.exp(-tau) * single_server_kernel_scalar(
            scenario, event, math.sqrt(tau / mix), threshold
        ),
        0.0, tau_max, epsabs=scenario.numerics.coverage_epsabs, limit=200,
        points=_spike_hints(threshold ** (-2.0 / alpha), tau_max),
    )
    assert err <= 1e-4, (val, err)
    return val


def erlang_mixture_scalar(gains, order: int, merge_rtol: float | None = None):
    """Partial-fraction form of prod_i (1 + a_i s)^(-order) at one geometry:
    [(pole gain b, weights w_1..w_m)], near-equal gains merged first."""
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


def cluster_kernel_scalar(scenario: Scenario, distances, threshold: float) -> float:
    """Conditional coverage given the cluster serves from these distances."""
    if any(r <= 0.0 for r in distances):
        return 1.0
    sctx = serving_context(AssociationEvent.CLUSTER, scenario, distances)
    order = derive_tier(scenario.small).fading_order
    alpha = scenario.pathloss
    if scenario.numerics.cluster_fading == "gamma":
        return _tail_weights(laplace_context(sctx, scenario, threshold), order)
    gains = [scenario.small.power * r ** (-alpha) for r in sctx.distances]
    total = 0.0
    for b, weights in erlang_mixture_scalar(gains, order, scenario.numerics.pole_merge_rtol):
        ctx = LaplaceContext(
            s=threshold / b, d_macro=sctx.d_macro, d_small=sctx.d_small, scenario=scenario
        )
        cum = np.cumsum(weights[::-1])[::-1]
        terms = _laplace_series(ctx, len(weights))
        total += sum(c * term for c, term in zip(cum.tolist(), terms))
    if total < _CLUSTER_CLAMP:
        raise IntegrationFailure(f"cluster mixture coverage went negative: {total}")
    return min(max(total, 0.0), 1.0)


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

    tmax = -math.log(num.tail_mass) + 5.0
    val, err = integrate.quad(
        integrand, 0.0, tmax, epsabs=epsabs, limit=200, points=_spike_hints(spike, tmax)
    )
    assert err <= max(epsabs * 100.0, 1e-6), (val, err)
    return val


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


def coop_macro_joint_scalar(scenario: Scenario, threshold: float) -> float:
    """P[SINR > threshold and the macro side wins] under cooperation, on the
    engine's fixed scaled-cone panels, one cone point per kernel call."""
    sc = scenario
    alpha = sc.pathloss
    big_k = sc.cluster_size
    ratios = hat_ratios(sc)
    beta, lhat = ratios.macro_advantage, ratios.density
    p_hat = sc.small.power / sc.macro.power
    psi_m, psi_s = sc.macro.users, sc.small.users
    kmax = derive_tier(sc.macro).fading_order - 1
    two_a = 2.0 / alpha
    t = threshold

    a_macro = two_a * t ** two_a * _beta_tier_sum(psi_m, alpha, 1.0 / (1.0 + t))
    b_macro = (
        2.0 * t ** two_a * _tail_constants(psi_m, kmax, alpha)[2]
        * _radial_tail_integral(t ** (-1.0 / alpha), psi_m, kmax, alpha)
    ).tolist()
    b_small_coeff = 2.0 * lhat * (t * p_hat) ** two_a * _tail_constants(psi_s, kmax, alpha)[2]

    x_scale = (t * p_hat) ** two_a
    lb_outer = (beta / big_k) ** (-two_a)
    lag_y, lag_w = (v.tolist() for v in special.roots_genlaguerre(kmax // 2 + 1, big_k))

    def panel_points(lo, hi, scale):
        xb = min(hi, lo + 3.0 * scale)
        xs, ws = _gauss_panel(lo, xb, 16)
        pts = list(zip(xs, ws))
        if hi > xb * (1.0 + 1e-12):
            zspan = math.log(hi / xb)
            zs, wz = _gauss_panel(math.log(xb), math.log(hi), max(12, int(2.0 * zspan) + 8))
            pts += [(math.exp(z), w * math.exp(z)) for z, w in zip(zs, wz)]
        return pts

    def kernel_at(xs, a_small, b_small) -> float:
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
        for y, w in zip(lag_y, lag_w):
            sigmas = [c + b * y / d for c, b in zip(c_tot, b_tot)]
            acc += w * sum(_bell_series(sigmas, kmax + 1))
        return math.exp(logp) * acc * d ** (-(big_k + 1))

    def inner_levels(i, budget, upper, xs, a_small, b_small) -> float:
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

    outer_scale = max(x_scale, lb_outer, (1.0 + a_macro) / lhat)
    x_max = max(2e7 / lhat, 1e3 * (lb_outer + 3.0 * outer_scale))
    total = 0.0
    for x_k, w in panel_points(lb_outer, x_max, outer_scale):
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
