"""Special functions and combinatorics backing the analytic engine.

Complementary incomplete Beta, integer-shape Gamma CCDF and sampling,
integer partitions and the chain-rule coefficients built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, special

MAX_PARTITION_ORDER = 16


def comp_inc_beta(p: float, q: float, x: float, rtol: float = 1e-10) -> float:
    """Complementary incomplete Beta integral over [x, 1].

    Evaluates int_x^1 t^(p-1) (1-t)^(q-1) dt. Requires q > 0 and
    x in [0, 1]; x = 0 additionally requires p > 0 or the integral
    diverges at the origin. For p > 0 the value comes from the
    regularized incomplete Beta (integrating from the t=1 end avoids
    cancellation); p <= 0 falls back to adaptive quadrature.
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
    left, lerr = integrate.quad(
        lambda t: t ** (p - 1.0) * (1.0 - t) ** (q - 1.0),
        x, mid, epsabs=0.0, epsrel=rtol, limit=200,
    )
    # weight w(u) = u^(q-1) absorbs the endpoint singularity at u = 1-t = 0
    right, rerr = integrate.quad(
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


def sample_gamma(shape: int, rng: np.random.Generator, size=None):
    """Draw Gamma(shape, 1) variates as sums of unit exponentials.

    shape must be a positive integer (the fading orders are). Returns a
    scalar for size=None, else an ndarray of the requested shape.
    """
    if not isinstance(shape, int) or shape < 1:
        raise ValueError(f"shape must be a positive integer, got {shape}")
    if size is None:
        return float(rng.standard_exponential(shape).sum())
    if np.isscalar(size):
        size = (int(size),)
    return rng.standard_exponential(tuple(size) + (shape,)).sum(axis=-1)


@dataclass(frozen=True)
class Partition:
    """A partition of k in multiplicity form: multiplicities[j-1] parts of size j."""

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if not self.multiplicities or any(m < 0 for m in self.multiplicities):
            raise ValueError("multiplicities must be nonnegative and nonempty")
        if self.order != len(self.multiplicities):
            raise ValueError(
                f"multiplicity vector of length {len(self.multiplicities)} "
                f"does not encode a partition of {len(self.multiplicities)} "
                f"(parts sum to {self.order})"
            )

    @property
    def order(self) -> int:
        """k: the integer being partitioned, sum of j * multiplicities[j-1]."""
        return sum((j + 1) * m for j, m in enumerate(self.multiplicities))


@lru_cache(maxsize=None)
def _partition_multiplicities(k: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []
    counts = [0] * k

    def descend(remaining: int, largest: int):
        if remaining == 0:
            out.append(tuple(counts))
            return
        for part in range(min(remaining, largest), 0, -1):
            counts[part - 1] += 1
            descend(remaining - part, part)
            counts[part - 1] -= 1

    descend(k, k)
    return tuple(out)


def integer_partitions(k: int) -> list[Partition]:
    """All partitions of k in multiplicity form, largest-part-first order."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if k > MAX_PARTITION_ORDER:
        raise ValueError(
            f"k={k} exceeds the practical partition bound {MAX_PARTITION_ORDER}"
        )
    return [Partition(m) for m in _partition_multiplicities(k)]


def faa_coefficient(part: Partition) -> int:
    """Chain-rule coefficient k! / prod_j ( (j!)^(i_j) * i_j! ) of a partition.

    Counts the set partitions of {1..k} with the given block-size profile,
    so the result is an exact integer.
    """
    k = part.order
    denom = 1
    for j, m in enumerate(part.multiplicities, start=1):
        denom *= math.factorial(j) ** m * math.factorial(m)
    num = math.factorial(k)
    if num % denom:
        raise AssertionError(f"non-integer coefficient for {part}")
    return num // denom
