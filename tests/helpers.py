"""Shared generators for randomized numeric tests, and independent reference
evaluations that the engine's closed forms are checked against."""

import math

import numpy as np
from scipy import integrate

from hetcov.analysis import LaplaceContext, laplace_context, serving_context
from hetcov.association import AssociationEvent
from hetcov.model import Scenario, TierParams
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
