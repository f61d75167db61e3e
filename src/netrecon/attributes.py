"""Vertex categories: distributions, assignment, and assortative shuffling.

Categories are integers in ``[1, g]`` (think discretized age).  A
:class:`CategoryDistribution` describes the population frequency of each
category; it drives both random assignment and the coalescing
probabilities during reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (Graph, frozen_array, g_header, open_text, read_partition,
                    write_partition)

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
        """A ``# g N`` line, then one ``vertex category`` line per vertex."""
        with open_text(target, "w") as fh:
            fh.write(f"# g {self.g}\n")
            write_partition(self.values, fh)

    @classmethod
    def read(cls, source) -> "AttributeMap":
        """Parse a file written by :meth:`write`; its first line gives g."""
        with open_text(source) as fh:
            lines = fh.readlines()
        try:
            g = g_header(lines[0]) if lines else None
            if g is None:
                raise ValueError("expected the '# g N' header")
        except ValueError as exc:  # int() names the field, not the line
            raise ValueError(f"line 1: {exc}") from None
        return cls(read_partition(lines), g)


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


# make_assortative judges its proposals in windows of _WINDOW rows.  Every
# accepted swap makes the bulk deltas of the proposals near it stale, so a
# longer window means more patching in Python, a shorter one more numpy
# passes.
_WINDOW = 256


def _swap_deltas(x, y, a, indptr, indices, degree):
    """Change of the edge discrepancy if the categories of ``x[i]`` and
    ``y[i]`` were swapped, for every proposal ``i``, all against the
    categories ``a``; also returns ``a[y] - a[x]``.

    Uses |c - b| = c + b - 2 min(c, b): over the neighbors w of x,
    sum |cy - a_w| - |cx - a_w| = deg(x) (cy - cx)
    + 2 sum (min(cx, a_w) - min(cy, a_w)), and likewise for y.
    """
    rows = x.size
    cx, cy = a[x], a[y]
    v = np.concatenate((x, y))
    length = degree[v]
    ends = np.cumsum(length)
    starts = ends - length
    nbr = indices[np.arange(ends[-1]) + np.repeat(indptr[v] - starts, length)]
    an = a[nbr]
    t = np.minimum(np.repeat(np.concatenate((cx, cy)), length), an)
    t -= np.minimum(np.repeat(np.concatenate((cy, cx)), length), an)
    csum = np.zeros(t.size + 1, dtype=np.int64)
    np.cumsum(t, out=csum[1:])
    m = csum[ends] - csum[starts]
    d = cy - cx
    delta = (length[:rows] - length[rows:]) * d + 2 * (m[:rows] + m[rows:])
    # an x-y edge keeps |cx - cy| through the swap, but entered each sum
    # as -|cx - cy|; add it back
    hit = np.flatnonzero(nbr[:ends[rows - 1]] == np.repeat(y, length[:rows]))
    edge = np.searchsorted(ends[:rows], hit, side="right")
    delta[edge] += 2 * np.abs(d[edge])
    return delta, d


def _judge_window(xs, ys, take, delta, a, values, neighbors) -> None:
    """Walk one window's proposals in order and apply the accepted swaps
    to ``a`` and ``values``.

    ``take`` and ``delta`` are the bulk decisions and deltas against the
    categories at the window's start.  A proposal away from every vertex
    swapped so far uses them; one next to a swapped vertex has its delta
    patched with the terms of its swapped neighbors, and one whose x or
    y was swapped itself is summed over all its neighbors.
    """
    old = {}  # the category at the window's start of each swapped vertex
    near = {}  # vertex -> the swapped vertices among its neighbors
    for x, y, bulk_take, dl in zip(xs, ys, take, delta):
        if x in near or y in near:
            cx, cy = a[x], a[y]
            if cx == cy:  # also covers x == y
                continue
            if x in old or y in old:
                # the x-y edge (if present) contributes |cx-cy| before
                # and after, so it is excluded from both neighbor sums
                dl = 0
                for w in neighbors[x]:
                    if w != y:
                        aw = a[w]
                        dl += abs(cy - aw) - abs(cx - aw)
                for w in neighbors[y]:
                    if w != x:
                        aw = a[w]
                        dl += abs(cx - aw) - abs(cy - aw)
            else:
                for w in near.get(x, ()):
                    aw, a0 = a[w], old[w]
                    dl += abs(cy - aw) - abs(cx - aw) - abs(cy - a0) + abs(cx - a0)
                for w in near.get(y, ()):
                    aw, a0 = a[w], old[w]
                    dl += abs(cx - aw) - abs(cy - aw) - abs(cx - a0) + abs(cy - a0)
            if dl > 0:
                continue
        elif not bulk_take:
            continue
        for p in (x, y):
            if p not in old:
                old[p] = a[p]
                near.setdefault(p, [])
                for w in neighbors[p]:
                    near.setdefault(w, []).append(p)
        a[x], a[y] = a[y], a[x]
        values[x], values[y] = a[x], a[y]


def make_assortative(g: Graph, attrs: AttributeMap, attempts: int,
                     seed: int) -> AttributeMap:
    """Shuffle categories toward assortativity by discrepancy-reducing swaps.

    Repeatedly proposes swapping the categories of two random vertices
    and accepts the swap iff the total edge discrepancy
    (sum of |a_u - a_v| over edges) does not increase.  The category
    multiset is preserved exactly; only the assignment changes.

    The proposals are the rows of ``rng.integers(0, n, size=(attempts,
    2))``, drawn ``_WINDOW`` rows at a time; the smaller draws consume
    the same random stream as that single one.

    Most proposals are rejected, so their deltas are computed in bulk:
    one numpy pass gives every proposal of a window its delta against
    the categories at the window's start.  The window is then walked in
    order.  A swap accepted in the window changes the delta of a later
    proposal only if that proposal's x or y lies in the closed
    neighborhood of a swapped vertex; such a proposal is judged from the
    current categories (see :func:`_judge_window`).  All arithmetic is
    on integers, so every decision is the one a proposal-by-proposal
    loop would take.
    """
    if attempts < 0:
        raise ValueError("attempts must be nonnegative")
    rng = np.random.default_rng(seed)
    n = g.n
    if n < 2:
        return attrs
    values = attrs.values.copy()
    a = values.tolist()
    degree = np.diff(g.indptr)
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    neighbors = [indices[indptr[v]:indptr[v + 1]] for v in range(n)]
    for start in range(0, attempts, _WINDOW):
        xs, ys = rng.integers(0, n, size=(min(_WINDOW, attempts - start), 2)).T
        delta, d = _swap_deltas(xs, ys, values, g.indptr, g.indices, degree)
        take = (d != 0) & (delta <= 0)
        first = int(take.argmax())  # nothing goes stale before it
        if take[first]:
            _judge_window(xs[first:].tolist(), ys[first:].tolist(),
                          take[first:].tolist(), delta[first:].tolist(),
                          a, values, neighbors)
    return AttributeMap(values, attrs.g)
