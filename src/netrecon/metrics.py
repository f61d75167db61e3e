"""Evaluation metrics for reconstructed networks.

Everything here compares a reconstruction (or its detected communities,
or vertex rankings derived from it) against ground truth, so unlike the
reconstructor these functions are allowed to read the forest's sealed
truth mapping.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .reconstruct import MergeEvent
from .sampling import RESPONDENT, SampleForest

__all__ = [
    "coalescing_precision",
    "project",
    "community_precision",
    "nmi",
    "average_ranks",
    "spearman",
    "vertex_properties",
    "aggregate_by_projection",
]


def coalescing_precision(log: list[MergeEvent], truth: np.ndarray) -> float:
    """Fraction of merge events that joined occurrences of one person.

    A merge is correct iff every member occurrence of both groups maps
    to the same underlying vertex.  The log is replayed from singleton
    groups, each group holding the one person all its members are, or
    -1 once they are several.  Raises on an empty log (no merges,
    nothing to score).
    """
    if not log:
        raise ValueError("no merge events to score")
    person = np.asarray(truth).tolist()
    correct = 0
    for ev in log:
        a, b = person[ev.survivor], person[ev.absorbed]
        if a == b >= 0:
            correct += 1
        else:
            person[ev.survivor] = -1
    return correct / len(log)


def project(provenance: np.ndarray, forest: SampleForest) -> np.ndarray:
    """Map each reconstructed vertex to an underlying vertex id.

    A group containing a respondent occurrence projects to that
    respondent's true vertex (groups never hold two respondents).  A
    friend-only group projects to the underlying id held by the majority
    of its members, ties broken by the smallest id.
    """
    if forest.truth is None:
        raise ValueError("projection requires the forest truth mapping")
    prov = np.asarray(provenance)
    if prov.shape != (forest.size,):
        raise ValueError("provenance must cover every occurrence")
    size = np.bincount(prov)
    if not size.all():
        raise ValueError(f"reconstructed vertex {int(np.argmin(size))} has no occurrences")
    # the majority truth of each vertex: its (vertex, truth) pairs by
    # vertex, then count descending, then truth ascending; the first wins
    (vertex, truth), count = np.unique(np.stack([prov, forest.truth]), axis=1,
                                       return_counts=True)
    order = np.lexsort((truth, -count, vertex))
    first = np.flatnonzero(np.diff(vertex[order], prepend=-1))
    out = truth[order[first]]
    resp = np.flatnonzero(forest.kind == RESPONDENT)
    v, at = np.unique(prov[resp], return_index=True)  # a vertex's first respondent
    out[v] = forest.truth[resp[at]]
    return out


def _pairs(*keys: np.ndarray) -> int:
    """Number of unordered element pairs that agree on every key."""
    _, counts = np.unique(np.stack(keys), axis=1, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def community_precision(labels: np.ndarray, reference: np.ndarray,
                        projection: np.ndarray) -> float:
    """Precision of co-membership pairs under a projection.

    Over all pairs of elements placed in the same community by
    ``labels`` — excluding pairs whose projections coincide, which carry
    no information — the fraction whose projected ids share a community
    in ``reference`` (indexed by projected id).  Raises when no eligible
    pair exists.
    """
    labels = np.asarray(labels)
    projection = np.asarray(projection)
    reference = np.asarray(reference)
    if labels.shape != projection.shape:
        raise ValueError("labels and projection must align")

    # two elements with one projection also share its reference community
    same = _pairs(labels, projection)
    den = _pairs(labels) - same
    num = _pairs(labels, reference[projection]) - same
    if den == 0:
        raise ValueError("no eligible co-membership pairs")
    return num / den


def nmi(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Normalized mutual information between two labelings.

    Both labelings must cover the same elements (equal length; element i
    is the same object in both).  Natural logarithms; normalization by
    the mean entropy.  Conventions: two trivial (single-cluster or
    all-singleton-and-identical) partitions with zero entropy on both
    sides give 1.0; zero entropy on exactly one side gives 0.0.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must cover the same elements")
    if a.size == 0:
        raise ValueError("empty labelings")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = ai.max() + 1, bi.max() + 1
    joint = np.zeros((ka, kb))
    np.add.at(joint, (ai, bi), 1.0)
    joint /= n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    ha = float(-(pa[pa > 0] * np.log(pa[pa > 0])).sum())
    hb = float(-(pb[pb > 0] * np.log(pb[pb > 0])).sum())
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    nz = joint > 0
    outer = np.outer(pa, pb)
    info = float((joint[nz] * np.log(joint[nz] / outer[nz])).sum())
    return info / ((ha + hb) / 2.0)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, ties getting the average rank."""
    v = np.asarray(values)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    # a tie group starts where the sorted value changes; NaN != NaN, so
    # each NaN is a group of its own, ranked in input order
    starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    counts = np.diff(np.r_[starts, v.size])
    # a group of c members from sorted position s holds the ranks
    # s + 1 .. s + c, whose mean is (2s + c + 1) / 2
    ranks = np.empty(v.size, dtype=float)
    ranks[order] = np.repeat((2 * starts + counts + 1) / 2, counts)
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation with average-rank tie handling.

    Pearson correlation of the two rank vectors.  Raises for fewer than
    two observations or when either rank vector has zero variance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if x.size < 2:
        raise ValueError("need at least two observations")
    rx = average_ranks(x)
    ry = average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = (dx * dx).sum()
    vy = (dy * dy).sum()
    if vx == 0 or vy == 0:
        raise ValueError("rank variance is zero")
    return float((dx * dy).sum() / np.sqrt(vx * vy))


def vertex_properties(g: Graph, partition: np.ndarray):
    """Per-vertex (degree, k_out, embeddedness) under a partition.

    k_out counts neighbors in other communities; embeddedness is
    (degree - k_out) / degree, defined as 1.0 for isolated vertices
    (nothing pulls them outward).
    """
    part = np.asarray(partition)
    if part.shape != (g.n,):
        raise ValueError("partition must label every vertex")
    deg = g.degrees
    rows = np.repeat(np.arange(g.n), deg)
    cross = part[rows] != part[g.indices]
    k_out = np.bincount(rows, weights=cross, minlength=g.n).astype(np.int64)
    emb = np.ones(g.n, dtype=float)
    live = deg > 0
    emb[live] = (deg[live] - k_out[live]) / deg[live]
    return deg, k_out, emb


def aggregate_by_projection(values: np.ndarray, projection: np.ndarray):
    """Average ``values`` over elements sharing a projected id.

    Returns (ids, means): the sorted unique projected ids and the mean
    value among elements projecting to each.  Used when several
    reconstructed vertices stand for the same underlying person.
    """
    proj = np.asarray(projection)
    vals = np.asarray(values, dtype=float)
    if proj.shape != vals.shape:
        raise ValueError("values and projection must align")
    ids, inv = np.unique(proj, return_inverse=True)
    sums = np.bincount(inv, weights=vals)
    counts = np.bincount(inv)
    return ids, sums / counts
