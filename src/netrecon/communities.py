"""Community detection by greedy modularity optimization.

:func:`detect` maximizes plain Newman-Girvan :func:`modularity`: local
vertex moves reach a local optimum, communities are aggregated into
super-vertices, and this repeats on the smaller weighted graph until no
move improves modularity — then labels are mapped back down.  Its seed
only orders the vertex sweeps.  It works per connected component (a
vertex never joins a community it has no edge into, so communities
cannot span components).

The vertex sweeps work on plain Python lists and dicts: a Python float
operation rounds exactly as the numpy float64 scalar one does, so the
decisions are those of a numpy loop without its per-element cost.  The
total strength ``two_m`` alone stays numpy's pairwise ``sum``, whose
rounding a left-to-right Python ``sum`` would not repeat on fractional
weights.  This is the local move and aggregation scheme of Blondel et
al., "Fast unfolding of communities in large networks", J. Stat. Mech.
(2008) P10008.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["detect", "modularity"]


def modularity(g: Graph, partition: np.ndarray) -> float:
    """Newman-Girvan modularity of a vertex partition.

    Q = sum over communities of e_c/m - (d_c / 2m)^2 where e_c counts
    intra-community edges and d_c sums member degrees.  Raises on an
    edgeless graph, where the quantity is undefined.
    """
    if g.m == 0:
        raise ValueError("modularity is undefined on an edgeless graph")
    part = np.asarray(partition)
    if part.shape != (g.n,):
        raise ValueError("partition must label every vertex")
    _, dense = np.unique(part, return_inverse=True)
    e = g.edges()
    same = dense[e[:, 0]] == dense[e[:, 1]]
    k = dense.max() + 1
    e_c = np.bincount(dense[e[:, 0]][same], minlength=k)
    d_c = np.bincount(dense, weights=g.degrees, minlength=k)
    m = float(g.m)
    return float((e_c / m - (d_c / (2 * m)) ** 2).sum())


def _local_moves(adj: list[dict[int, float]], loops: list[float],
                 rng: np.random.Generator):
    """One level of greedy vertex moves; returns (labels, any_moved)."""
    n = len(adj)
    strength = [sum(a.values()) + 2.0 * w for a, w in zip(adj, loops)]
    two_m = float(np.sum(strength))
    comm = list(range(n))
    if two_m == 0:
        return comm, False
    tot = strength.copy()
    moved_any = False
    for _ in range(100):
        moved = False
        for i in rng.permutation(n).tolist():
            ci = comm[i]
            s_i = strength[i]
            w_c: dict[int, float] = {}
            for j, w in adj[i].items():
                cj = comm[j]
                w_c[cj] = w_c.get(cj, 0.0) + w
            tot[ci] -= s_i
            best_c = ci
            best_gain = w_c.get(ci, 0.0) - s_i * tot[ci] / two_m
            for c in sorted(w_c):
                if c == ci:
                    continue
                gain = w_c[c] - s_i * tot[c] / two_m
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            tot[best_c] += s_i
            if best_c != ci:
                comm[i] = best_c
                moved = moved_any = True
        if not moved:
            break
    return comm, moved_any


def _aggregate(adj, loops, comm):
    """Collapse communities into super-vertices with summed weights.

    Super-vertices are numbered in ascending community label order.
    """
    labels, dense = np.unique(comm, return_inverse=True)
    k = labels.size
    super_of = dense.tolist()
    new_adj: list[dict[int, float]] = [{} for _ in range(k)]
    new_loops = [0.0] * k
    for i, a in enumerate(adj):
        ci = super_of[i]
        new_loops[ci] += loops[i]
        for j, w in a.items():
            if j <= i:
                continue
            cj = super_of[j]
            if ci == cj:
                new_loops[ci] += w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return new_adj, new_loops, dense


def _dense_by_first_appearance(labels: np.ndarray) -> np.ndarray:
    seen: dict[int, int] = {}
    return np.array([seen.setdefault(v, len(seen)) for v in labels.tolist()],
                    dtype=np.int64)


def _greedy_modularity(g: Graph, seed: int):
    """Returns (assignment, adj, loops): each vertex's super-vertex at
    the top level, and that level's weighted graph."""
    rng = np.random.default_rng(seed)
    ind, ptr = g.indices.tolist(), g.indptr.tolist()
    adj: list[dict[int, float]] = [
        dict.fromkeys(ind[ptr[v]:ptr[v + 1]], 1.0) for v in range(g.n)
    ]
    loops = [0.0] * g.n
    assignment = np.arange(g.n)  # original vertex -> current super-vertex
    for _ in range(100):
        comm, moved = _local_moves(adj, loops, rng)
        if not moved:
            break
        adj, loops, dense = _aggregate(adj, loops, comm)
        assignment = dense[assignment]
    return assignment, adj, loops


def detect(g: Graph, seed: int = 0) -> np.ndarray:
    """Detect communities; returns a dense label per vertex.

    Deterministic for a fixed ``seed``, which orders the vertex sweeps.
    Isolated vertices always come out as singleton communities.
    """
    if g.n == 0:
        return np.zeros(0, dtype=np.int64)
    return _dense_by_first_appearance(_greedy_modularity(g, seed)[0])
