"""Synthetic benchmark networks with planted communities.

The generator follows the usual recipe for community benchmarks: draw a
power-law degree sequence, draw power-law community sizes, split each
vertex's degree into an internal and an external part according to the
mixing fraction, and wire both parts with a configuration-model style
stub matching, repairing self-loops and duplicates.

One practical wrinkle is honored explicitly: a vertex of degree k placed
in a community of size s can host at most s-1 internal edges, so its
external fraction cannot go below (k-s+1)/k.  When the requested mixing
is below that floor for some vertices, the remaining vertices' external
fractions are scaled down so the *mean* external fraction still matches
the request whenever that is arithmetically possible; otherwise the
generator gets as close as it can (the realized value is measurable with
:func:`realized_mixing`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .metrics import vertex_properties

__all__ = ["LfrParams", "generate_lfr_like", "realized_mixing"]

SWAP_ROUNDS = 10  # double-edge swap attempts per edge in _randomize_edges
REPAIR_PASSES = 80  # collision-repair passes in _match_stubs


@dataclass(frozen=True)
class LfrParams:
    """Parameters for :func:`generate_lfr_like`.

    n: vertex count; k_avg/k_max: target mean and maximum degree;
    mu: requested mixing fraction in [0, 1]; tau1/tau2: power-law
    exponents for degrees and community sizes; c_min/c_max: community
    size bounds; seed: RNG seed.
    """

    n: int
    k_avg: float
    k_max: int
    mu: float
    tau1: float
    tau2: float
    c_min: int
    c_max: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if self.k_max >= self.n:
            raise ValueError("k_max must be below n")
        if self.k_max < 2 or self.k_avg < 2:
            raise ValueError("degree targets must be at least 2")
        if self.k_avg > self.k_max:
            raise ValueError("k_avg cannot exceed k_max")
        if not 1 <= self.c_min <= self.c_max <= self.n:
            raise ValueError("need 1 <= c_min <= c_max <= n")
        if self.tau1 <= 1 or self.tau2 <= 0:
            raise ValueError("power-law exponents out of range")
        _degree_cutoff(self.k_avg, self.k_max, self.tau1)  # raises if unreachable
        # the fewest communities that can hold n, ceil(n / c_max), need
        # more than n vertices at c_min each
        if -(-self.n // self.c_max) * self.c_min > self.n:
            raise ValueError(f"no community count k satisfies "
                             f"k*{self.c_min} <= {self.n} <= k*{self.c_max}")


def _power_law_pmf(exponent: float, lo: int, hi: int) -> np.ndarray:
    k = np.arange(lo, hi + 1, dtype=float)
    w = k ** (-exponent)
    return w / w.sum()


def _degree_cutoff(k_avg: float, k_max: int, tau1: float) -> int:
    """Smallest-|error| integer lower cutoff so the pmf mean hits k_avg."""
    best_lo, best_err = None, None
    for lo in range(2, k_max + 1):
        pmf = _power_law_pmf(tau1, lo, k_max)
        mean = float(np.arange(lo, k_max + 1) @ pmf)
        err = abs(mean - k_avg)
        if best_err is None or err < best_err:
            best_lo, best_err = lo, err
    if best_err > 0.12 * k_avg:
        raise ValueError(
            f"cannot reach mean degree {k_avg} with exponent {tau1} "
            f"and maximum degree {k_max}")
    return best_lo


def _community_sizes(params: LfrParams, rng: np.random.Generator) -> np.ndarray:
    """Power-law community sizes in [c_min, c_max] summing exactly to n."""
    n, c_min, c_max = params.n, params.c_min, params.c_max
    support = np.arange(c_min, c_max + 1)
    pmf = _power_law_pmf(params.tau2, c_min, c_max)
    for _ in range(500):
        sizes: list[int] = []
        total = 0
        ok = True
        while total < n:
            remaining = n - total
            if c_min <= remaining <= c_max:
                sizes.append(remaining)
                total = n
                break
            if remaining < 2 * c_min:
                ok = False  # any draw would leave an unfillable gap
                break
            # keep the leftover fillable: size <= remaining - c_min
            cap = min(c_max, remaining - c_min)
            s = int(rng.choice(support, p=pmf))
            if s > cap:
                s = int(rng.integers(c_min, cap + 1))
            sizes.append(s)
            total += s
        if ok and total == n:
            return np.asarray(sizes, dtype=np.int64)
    raise ValueError("could not partition n into community sizes in range")


def _assign_communities(degrees: np.ndarray, sizes: np.ndarray, mu: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Place vertices into fixed-size communities, capacity-aware.

    Vertices are processed in random order; each picks uniformly among
    communities that still have a free slot and are large enough to host
    the vertex's internal degree target.  If none qualifies, the largest
    community with a free slot is used (its capacity shortfall is later
    absorbed by the external-degree floor).

    The candidate lists are kept in ascending id order as communities
    fill, so one ``rng.integers`` draw per vertex picks what a scan of
    all communities would.
    """
    n = degrees.size
    labels = np.empty(n, dtype=np.int64)
    size_of = sizes.tolist()
    free = list(size_of)
    demand = np.ceil((1.0 - mu) * degrees).astype(np.int64).tolist()
    # the open communities that can host each demand, and the open
    # communities of each size
    hosts = {d: [c for c, s in enumerate(size_of) if s - 1 >= d]
             for d in set(demand)}
    by_size: dict[int, list[int]] = {}
    for c, s in enumerate(size_of):
        by_size.setdefault(s, []).append(c)
    for v in rng.permutation(n).tolist():
        choices = hosts[demand[v]] or by_size[max(by_size)]
        c = choices[rng.integers(len(choices))]
        labels[v] = c
        free[c] -= 1
        if free[c] == 0:
            s = size_of[c]
            for d, ids in hosts.items():
                if s - 1 >= d:
                    ids.remove(c)
            by_size[s].remove(c)
            if not by_size[s]:
                del by_size[s]
    return labels


def _external_targets(degrees: np.ndarray, labels: np.ndarray,
                      sizes: np.ndarray, mu: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Integer external degree per vertex, mean fraction steered to mu.

    Also returns the achievable floor of the mean external fraction: the
    mean over vertices of the share of their degree that their community
    cannot host.
    """
    k = degrees.astype(float)
    cap = (sizes[labels] - 1).astype(float)
    floor_frac = np.maximum(0.0, degrees - cap) / k
    low = floor_frac < mu
    deficit = mu * degrees.size - floor_frac.sum()
    if deficit <= 0 or not low.any():
        lam = 0.0
    else:
        lam = min(1.0, deficit / (mu - floor_frac[low]).sum())
    frac = floor_frac.copy()
    frac[low] = floor_frac[low] + lam * (mu - floor_frac[low])
    target = frac * k
    ext = np.floor(target).astype(np.int64)
    ext += (rng.random(degrees.size) < (target - ext)).astype(np.int64)
    lo = np.maximum(0, degrees - cap.astype(np.int64))
    return np.clip(ext, lo, degrees), float(floor_frac.mean())


def _fix_parity(degrees, ext, labels, n_comm, rng):
    """Make each community's internal stub count and the external pool even."""
    internal = degrees - ext
    for c in range(n_comm):
        members = np.flatnonzero(labels == c)
        if internal[members].sum() % 2 == 0:
            continue
        cand = members[internal[members] > 0]
        if cand.size == 0:
            continue
        v = int(cand[np.argmax(internal[cand])])
        internal[v] -= 1
        if ext.sum() > 0:
            ext[v] += 1  # move the stub outward
        else:
            degrees[v] -= 1  # no external pool: drop the stub
    if ext.sum() % 2 == 1:
        cand = np.flatnonzero(ext > 0)
        v = int(rng.choice(cand))
        ext[v] -= 1
        degrees[v] -= 1
    return degrees, ext, internal


def _havel_hakimi_edges(members: np.ndarray,
                        targets: np.ndarray) -> list[tuple[int, int]]:
    """Simple graph on ``members`` hitting ``targets`` degrees exactly.

    Standard largest-first construction; realizes every graphical
    sequence, and degrades gracefully (connecting to whoever remains)
    when the remainder is not graphical.  The result is deterministic,
    so :func:`_randomize_edges` is applied afterwards.
    """
    # (-target, id): plain tuple order puts the largest target first,
    # ties by id
    work = [(-int(t), int(v)) for t, v in zip(targets, members) if t > 0]
    edges: list[tuple[int, int]] = []
    while work:
        work.sort()
        t, v = work[0]
        rest = work[1:]
        for i in range(min(-t, len(rest))):
            tt, vv = rest[i]
            rest[i] = (tt + 1, vv)
            edges.append((v, vv) if v < vv else (vv, v))
        work = [tv for tv in rest if tv[0] < 0]
    return edges


def _randomize_edges(edges: list[tuple[int, int]],
                     rng: np.random.Generator) -> list[tuple[int, int]]:
    """Shuffle a fixed-degree simple graph by double-edge swaps.

    Each of the ``SWAP_ROUNDS * n_e`` attempts picks two edge indices i, j and
    an orientation coin; edges (a, b) and (c, d), with (c, d) reversed on
    heads, become (a, d) and (c, b) unless that makes a self-loop or a
    duplicate.  All proposals of a call are drawn up front, in three bulk
    calls.  That gives other random numbers than one draw per attempt
    (``tests/oracles.randomize_edges_reference``) but the same process:
    in both forms the (i, j, coin) triples are i.i.d. uniform, and the
    per-attempt form skips the coin when i == j, where this one draws it
    and ignores it.  So the two run the same Markov chain on edge sets.
    """
    if len(edges) < 2:
        return edges
    edge_set = set(edges)
    edges = list(edges)
    n_e = len(edges)
    attempts = SWAP_ROUNDS * n_e
    first = rng.integers(n_e, size=attempts).tolist()
    second = rng.integers(n_e, size=attempts).tolist()
    flips = (rng.random(attempts) < 0.5).tolist()
    for i, j, flip in zip(first, second, flips):
        if i == j:
            continue
        a, b = edges[i]
        if flip:
            d, c = edges[j]
        else:
            c, d = edges[j]
        if a == c or a == d or b == c or b == d:
            continue
        e1 = (a, d) if a < d else (d, a)
        e2 = (c, b) if c < b else (b, c)
        if e1 in edge_set or e2 in edge_set:
            continue
        edge_set.discard(edges[i])
        edge_set.discard(edges[j])
        edge_set.add(e1)
        edge_set.add(e2)
        edges[i], edges[j] = e1, e2
    return edges


def _match_stubs(stubs: np.ndarray, rng: np.random.Generator,
                 labels: np.ndarray) -> list[tuple[int, int]]:
    """Pair stubs into simple edges crossing community labels.

    Collisions (self-pair, same community, duplicate) are repaired by
    random partner swaps; unrepairable pairs are dropped.
    """
    stubs = stubs.copy()
    rng.shuffle(stubs)
    if stubs.size % 2 == 1:
        stubs = stubs[:-1]
    if stubs.size == 0:
        return []
    a, b = stubs[0::2].copy(), stubs[1::2].copy()

    def bad_mask():
        bad = labels[a] == labels[b]  # same community covers self-pairs
        # a cross pair is a duplicate unless it is the first with its edge
        cross = np.flatnonzero(~bad)
        key = np.minimum(a, b)[cross] * labels.size + np.maximum(a, b)[cross]
        _, first = np.unique(key, return_index=True)
        bad[cross] = True
        bad[cross[first]] = False
        return bad

    for _ in range(REPAIR_PASSES):
        bad = bad_mask()
        idx = np.flatnonzero(bad)
        if idx.size == 0:
            break
        partners = rng.integers(0, a.size, size=idx.size)
        for i, j in zip(idx, partners):
            b[i], b[j] = b[j], b[i]
    bad = bad_mask()
    edges = []
    for i in np.flatnonzero(~bad):
        u, v = int(a[i]), int(b[i])
        edges.append((min(u, v), max(u, v)))
    return edges


def generate_lfr_like(params: LfrParams) -> tuple[Graph, np.ndarray]:
    """Generate a benchmark graph and its planted community partition.

    Returns ``(graph, partition)`` where ``partition[v]`` is a dense
    community label.  Deterministic for a fixed parameter set.  Raises
    ``ValueError`` when the parameters are infeasible (no community size
    arrangement exists, or the degree distribution cannot reach the
    requested mean).  Warns with ``RuntimeWarning`` when the requested
    mixing is below the floor that the community sizes allow; the graph
    is then generated as close to the request as it can get.
    """
    rng = np.random.default_rng(params.seed)
    sizes = _community_sizes(params, rng)

    k_lo = _degree_cutoff(params.k_avg, params.k_max, params.tau1)
    support = np.arange(k_lo, params.k_max + 1)
    degrees = rng.choice(support, size=params.n,
                         p=_power_law_pmf(params.tau1, k_lo, params.k_max))

    labels = _assign_communities(degrees, sizes, params.mu, rng)
    ext, floor = _external_targets(degrees, labels, sizes, params.mu, rng)
    if params.mu < floor:
        warnings.warn(
            f"requested mixing {params.mu} is below the achievable floor "
            f"{floor:.4f}: the communities cannot host enough internal edges",
            RuntimeWarning, stacklevel=2)
    degrees = degrees.copy()
    degrees, ext, internal = _fix_parity(degrees, ext, labels, sizes.size, rng)

    edges: list[tuple[int, int]] = []
    for c in range(sizes.size):
        members = np.flatnonzero(labels == c)
        within = _havel_hakimi_edges(members, internal[members])
        edges.extend(_randomize_edges(within, rng))
    pool = np.repeat(np.arange(params.n), ext)
    edges.extend(_match_stubs(pool, rng, labels=labels))

    graph = Graph.from_edges(params.n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    return graph, labels


def realized_mixing(g: Graph, partition: np.ndarray) -> float:
    """Mean over non-isolated vertices of their cross-community degree share.

    For each vertex with degree > 0, the fraction of its neighbors lying
    in a different community; isolated vertices are excluded from the
    average.
    """
    deg, k_out, _ = vertex_properties(g, partition)
    live = deg > 0
    if not live.any():
        raise ValueError("graph has no edges")
    return float((k_out[live] / deg[live]).mean())
