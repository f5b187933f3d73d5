"""Special functions and combinatorics.

Integer-shape Gamma sampling (the Monte Carlo engine draws its fading from
`sample_gamma`), integer partitions and the chain-rule coefficients built
from them. The analytic engine does not use the partitions; they are a
test and benchmark oracle for its Bell polynomial recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_PARTITION_ORDER = 16


def sample_gamma(shape: int, rng: np.random.Generator, size=None):
    """Draw Gamma(shape, 1) variates.

    shape must be a positive integer (the fading orders are). Returns a
    scalar for size=None, else an ndarray of the requested shape.
    """
    if not isinstance(shape, int) or shape < 1:
        raise ValueError(f"shape must be a positive integer, got {shape}")
    if size is None:
        return float(rng.standard_gamma(shape))
    return rng.standard_gamma(shape, size)


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
