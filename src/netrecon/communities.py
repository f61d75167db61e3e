"""Community detection by greedy modularity optimization.

:func:`detect` maximizes plain Newman-Girvan :func:`modularity`: local
vertex moves reach a local optimum, communities are aggregated into
super-vertices, and this repeats on the smaller weighted graph until no
move improves modularity — then labels are mapped back down.  Its seed
only orders the vertex sweeps.  It works per connected component (a
vertex never joins a community it has no edge into, so communities
cannot span components).
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


def _local_moves(adj: list[dict[int, float]], loops: np.ndarray,
                 rng: np.random.Generator):
    """One level of greedy vertex moves; returns (labels, any_moved)."""
    n = len(adj)
    strength = np.array([sum(a.values()) for a in adj]) + 2.0 * loops
    two_m = strength.sum()
    comm = np.arange(n)
    if two_m == 0:
        return comm, False
    tot = strength.copy()
    moved_any = False
    for _ in range(100):
        moved = False
        for i in rng.permutation(n):
            ci = comm[i]
            w_c: dict[int, float] = {}
            for j, w in adj[i].items():
                cj = comm[j]
                w_c[cj] = w_c.get(cj, 0.0) + w
            tot[ci] -= strength[i]
            best_c = ci
            best_gain = w_c.get(ci, 0.0) - strength[i] * tot[ci] / two_m
            for c in sorted(w_c):
                if c == ci:
                    continue
                gain = w_c[c] - strength[i] * tot[c] / two_m
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            tot[best_c] += strength[i]
            if best_c != ci:
                comm[i] = best_c
                moved = moved_any = True
        if not moved:
            break
    return comm, moved_any


def _aggregate(adj, loops, comm):
    """Collapse communities into super-vertices with summed weights."""
    labels, dense = np.unique(comm, return_inverse=True)
    k = labels.size
    new_adj: list[dict[int, float]] = [{} for _ in range(k)]
    new_loops = np.zeros(k)
    for i, a in enumerate(adj):
        ci = dense[i]
        new_loops[ci] += loops[i]
        for j, w in a.items():
            if j <= i:
                continue
            cj = dense[j]
            if ci == cj:
                new_loops[ci] += w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return new_adj, new_loops, dense


def _dense_by_first_appearance(labels: np.ndarray) -> np.ndarray:
    seen: dict[int, int] = {}
    out = np.empty(labels.size, dtype=np.int64)
    for i, v in enumerate(labels):
        out[i] = seen.setdefault(int(v), len(seen))
    return out


def _greedy_modularity(g: Graph, seed: int):
    """Returns (assignment, adj, loops): each vertex's super-vertex at
    the top level, and that level's weighted graph."""
    rng = np.random.default_rng(seed)
    adj: list[dict[int, float]] = [
        {int(j): 1.0 for j in g.neighbors(v)} for v in range(g.n)
    ]
    loops = np.zeros(g.n)
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
