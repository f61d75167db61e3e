"""Vertex categories: distributions, assignment, and assortative shuffling.

Categories are integers in ``[1, g]`` (think discretized age).  A
:class:`CategoryDistribution` describes the population frequency of each
category; it drives both random assignment and the coalescing
probabilities during reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, frozen_array

__all__ = [
    "CategoryDistribution",
    "AttributeMap",
    "uniform_distribution",
    "discretized_normal",
    "assign_attributes",
    "assign_distinct",
    "edge_discrepancy",
    "make_assortative",
]


@dataclass(frozen=True)
class CategoryDistribution:
    """Probability of each category ``1..g``.

    ``p[k-1]`` is the probability of category ``k``.  Probabilities must
    lie in [0, 1] and sum to 1 within 1e-12.  Entries may be any numeric
    type supporting arithmetic (floats normally; exact types such as
    :class:`fractions.Fraction` pass the same checks, but coalescing
    converts the masses to floats).
    """

    g: int
    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p)
        if arr.shape != (self.g,):
            raise ValueError(f"need {self.g} probabilities, got shape {arr.shape}")
        if any(not 0 <= x <= 1 for x in arr):  # NaN compares false
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(float(sum(arr)) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "p", arr)


def uniform_distribution(g: int) -> CategoryDistribution:
    """Uniform distribution over ``g`` categories."""
    if g < 1:
        raise ValueError("g must be positive")
    return CategoryDistribution(g, np.full(g, 1.0 / g))


def discretized_normal(g: int) -> CategoryDistribution:
    """Normal weights over ``1..g``: centered at (g+1)/2, sigma = g/6.

    The density is evaluated at each integer category, truncated to the
    valid range and renormalized.
    """
    if g < 1:
        raise ValueError("g must be positive")
    k = np.arange(1, g + 1, dtype=float)
    mu = (g + 1) / 2.0
    sigma = g / 6.0
    w = np.exp(-0.5 * ((k - mu) / sigma) ** 2)
    return CategoryDistribution(g, w / w.sum())


@dataclass(frozen=True)
class AttributeMap:
    """Category per vertex, values in ``[1, g]``; ``values`` is read-only."""

    values: np.ndarray
    g: int

    def __post_init__(self):
        arr = frozen_array(self.values, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if arr.size and (arr.min() < 1 or arr.max() > self.g):
            raise ValueError(f"categories must lie in [1, {self.g}]")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size

    def category(self, v: int) -> int:
        return int(self.values[v])

    def write(self, target) -> None:
        from .graph import write_partition
        write_partition(self.values, target)

    @classmethod
    def read(cls, source, g: int, n: int | None = None) -> "AttributeMap":
        from .graph import read_partition
        return cls(read_partition(source, n=n), g)


def assign_attributes(n: int, dist: CategoryDistribution, seed: int) -> AttributeMap:
    """Draw an iid category for each of ``n`` vertices from ``dist``."""
    rng = np.random.default_rng(seed)
    p = np.asarray(dist.p, dtype=float)
    p = p / p.sum()  # guard rounding so choice() accepts it
    values = rng.choice(np.arange(1, dist.g + 1), size=n, p=p)
    return AttributeMap(values, dist.g)


def assign_distinct(n: int, seed: int) -> AttributeMap:
    """Give every vertex its own category: a random bijection onto 1..n."""
    rng = np.random.default_rng(seed)
    return AttributeMap(rng.permutation(n) + 1, n)


def edge_discrepancy(g: Graph, attrs: AttributeMap) -> int:
    """Sum over edges of |category(u) - category(v)|."""
    e = g.edges()
    if e.size == 0:
        return 0
    a = attrs.values
    return int(np.abs(a[e[:, 0]] - a[e[:, 1]]).sum())


# (x, y) proposal rows drawn per rng call in make_assortative
_PROPOSAL_CHUNK = 4096


def make_assortative(g: Graph, attrs: AttributeMap, attempts: int,
                     seed: int) -> AttributeMap:
    """Shuffle categories toward assortativity by discrepancy-reducing swaps.

    Repeatedly proposes swapping the categories of two random vertices
    and accepts the swap iff the total edge discrepancy
    (sum of |a_u - a_v| over edges) does not increase.  The category
    multiset is preserved exactly; only the assignment changes.

    The proposals are the rows of ``rng.integers(0, n, size=(attempts,
    2))``.  They are drawn in chunks of ``_PROPOSAL_CHUNK`` rows, which
    consume the same random stream as that single draw, so the result
    does not depend on the chunk size while memory stays bounded.
    """
    if attempts < 0:
        raise ValueError("attempts must be nonnegative")
    rng = np.random.default_rng(seed)
    n = g.n
    if n < 2:
        return attrs
    a = attrs.values.tolist()
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    neighbors = [indices[indptr[v]:indptr[v + 1]] for v in range(n)]
    for start in range(0, attempts, _PROPOSAL_CHUNK):
        rows = min(_PROPOSAL_CHUNK, attempts - start)
        for x, y in rng.integers(0, n, size=(rows, 2)).tolist():
            cx, cy = a[x], a[y]
            if cx == cy:  # also covers x == y
                continue
            # the x-y edge (if present) contributes |cx-cy| before and
            # after, so it is excluded from both neighbor sums
            delta = 0
            for w in neighbors[x]:
                if w != y:
                    aw = a[w]
                    delta += abs(cy - aw) - abs(cx - aw)
            for w in neighbors[y]:
                if w != x:
                    aw = a[w]
                    delta += abs(cx - aw) - abs(cy - aw)
            if delta <= 0:
                a[x], a[y] = cy, cx
    return AttributeMap(np.asarray(a, dtype=np.int64), attrs.g)
