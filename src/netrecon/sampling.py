"""Two-phase anonymous sampling of a hidden network.

Phase one walks vertex-disjoint paths through the underlying graph until
exactly ``n_r`` respondents have been interviewed.  Phase two asks every
respondent about up to ``f`` of its neighbors; those *friends* are
reported anonymously, described only by an integer interval of width
``c`` that contains their true category.

The result is a forest of occurrences: respondent occurrences carry an
exact category, friend occurrences carry an interval description, and
tree edges record who named whom.  The mapping from occurrences back to
underlying vertices (the *truth*) is kept in a separate field that only
evaluation code may touch; reconstruction operates on the observable
part alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .attributes import AttributeMap
from .graph import Graph, g_header, open_text, read_partition, write_partition
from .seeding import derive_seed

__all__ = [
    "RESPONDENT",
    "FRIEND",
    "SampleForest",
    "METHODS",
    "sample_paths",
    "elicit_friends",
    "coalesced_network",
    "true_network",
    "write_forest",
    "read_forest",
    "write_truth",
    "read_truth",
]

RESPONDENT = 0
FRIEND = 1

METHODS = ("rpm", "hpm")  # random and high-degree path methods

SEED_DEGREE_MIN = 5  # high-degree seeding threshold


@dataclass(frozen=True)
class SampleForest:
    """Forest of interview occurrences.

    Parallel arrays indexed by occurrence id 0..N-1: ``tree`` is the path
    index, ``parent`` the parent occurrence (-1 for path seeds), ``kind``
    RESPONDENT or FRIEND, and ``lo``/``hi`` the payload interval — a
    respondent's exact category is stored as the width-1 interval
    [a, a].  ``g`` is the size of the category space.

    ``truth`` maps occurrences to underlying vertex ids.  It exists for
    evaluation only; pass the forest through :meth:`without_truth` to
    prove a consumer independent of it.

    Malformed payloads raise ``ValueError``: ragged arrays, unknown
    kinds, parents outside [-1, N), intervals not in 1 <= lo <= hi <= g.
    """

    tree: np.ndarray
    parent: np.ndarray
    kind: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    g: int
    truth: np.ndarray | None = None

    def __post_init__(self):
        for name in ("tree", "parent", "kind", "lo", "hi"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.int64))
        if self.truth is not None:
            object.__setattr__(self, "truth", np.asarray(self.truth, dtype=np.int64))
        n = self.tree.size
        arrays = (self.tree, self.parent, self.kind, self.lo, self.hi, self.truth)
        if any(a is not None and a.shape != (n,) for a in arrays):
            raise ValueError("every forest array needs one entry per occurrence")
        if not np.isin(self.kind, (RESPONDENT, FRIEND)).all():
            raise ValueError("occurrence kinds must be RESPONDENT or FRIEND")
        if ((self.parent < -1) | (self.parent >= n)).any():
            raise ValueError(f"parent ids must lie in [-1, {n})")
        if ((self.lo < 1) | (self.lo > self.hi) | (self.hi > self.g)).any():
            raise ValueError(f"payload intervals must satisfy 1 <= lo <= hi <= {self.g}")

    @property
    def size(self) -> int:
        return self.tree.size

    @property
    def n_r(self) -> int:
        return int((self.kind == RESPONDENT).sum())

    @property
    def n_f(self) -> int:
        return int((self.kind == FRIEND).sum())

    @property
    def n_t(self) -> int:
        """Size of the true network: distinct underlying vertices sampled."""
        if self.truth is None:
            raise ValueError("forest carries no truth mapping")
        return int(np.unique(self.truth).size)

    def without_truth(self) -> "SampleForest":
        return replace(self, truth=None)


def sample_paths(g: Graph, n_r: int, method: str, seed: int) -> list[np.ndarray]:
    """Walk vertex-disjoint paths until exactly ``n_r`` vertices are used.

    ``method`` is ``"rpm"`` (uniform seed, uniform eligible neighbor) or
    ``"hpm"`` (seed uniform among unused vertices of degree >= 5, then
    always the highest-degree eligible neighbor, ties broken uniformly).
    A path ends when its tip has no unused neighbor; the final path is
    cut short as soon as the respondent budget is reached.
    """
    if method not in METHODS:
        raise ValueError(f"unknown sampling method {method!r}")
    if not 1 <= n_r <= g.n:
        raise ValueError(f"n_r must lie in [1, {g.n}]")
    rng = np.random.default_rng(seed)
    degrees = g.degrees
    used = np.zeros(g.n, dtype=bool)
    paths: list[np.ndarray] = []
    total = 0
    fell_back = False
    while total < n_r:
        unused = np.flatnonzero(~used)
        if method == "hpm":
            eligible = unused[degrees[unused] >= SEED_DEGREE_MIN]
            if eligible.size == 0:
                fell_back = True
                eligible = unused
        else:
            eligible = unused
        v = int(rng.choice(eligible))
        used[v] = True
        path = [v]
        total += 1
        while total < n_r:
            nbrs = g.neighbors(path[-1])
            open_ = nbrs[~used[nbrs]]
            if open_.size == 0:
                break
            if method == "rpm":
                nxt = int(rng.choice(open_))
            else:
                top = degrees[open_].max()
                nxt = int(rng.choice(open_[degrees[open_] == top]))
            used[nxt] = True
            path.append(nxt)
            total += 1
        paths.append(np.asarray(path, dtype=np.int64))
    if fell_back:
        warnings.warn(
            "no unused vertex of degree >= 5 remained; "
            "high-degree seeding fell back to all unused vertices",
            RuntimeWarning, stacklevel=2)
    return paths


def elicit_friends(g: Graph, attrs: AttributeMap, paths: list[np.ndarray],
                   max_friends: int, width: int, seed: int) -> SampleForest:
    """Attach anonymous friend reports to every respondent on the paths.

    Each respondent of underlying degree d names a uniform random subset
    of min(max_friends, d) neighbors.  Every named friend is described by
    an interval of width min(width, g) containing its true category; the
    interval's placement is uniform over all positions that keep it
    inside [1, g] and covering the category.

    The subset choices and the interval placements are drawn from two
    separate streams derived from ``seed``, so the forest *structure* is
    identical across attribute maps: only payloads change.
    """
    if max_friends < 0:
        raise ValueError("max_friends must be nonnegative")
    if width < 1:
        raise ValueError("description width must be positive")
    rng_pick = np.random.default_rng(derive_seed(seed, "friend-subset"))
    rng_desc = np.random.default_rng(derive_seed(seed, "description"))
    gcat = attrs.g
    w = min(width, gcat)

    tree, parent, kind, lo, hi, truth = [], [], [], [], [], []

    def add(t, par, kd, a, b, tv):
        tree.append(t)
        parent.append(par)
        kind.append(kd)
        lo.append(a)
        hi.append(b)
        truth.append(tv)
        return len(tree) - 1

    for t, path in enumerate(paths):
        prev = -1
        for v in path:
            v = int(v)
            a = attrs.category(v)
            occ = add(t, prev, RESPONDENT, a, a, v)
            nbrs = g.neighbors(v)
            take = min(max_friends, nbrs.size)
            if take:
                named = rng_pick.choice(nbrs, size=take, replace=False)
                for u in named:
                    au = attrs.category(int(u))
                    lo_min = max(1, au - w + 1)
                    lo_max = min(au, gcat - w + 1)
                    offset = int(rng_desc.random() * (lo_max - lo_min + 1))
                    start = min(lo_min + offset, lo_max)
                    add(t, occ, FRIEND, start, start + w - 1, int(u))
            prev = occ
    return SampleForest(tree, parent, kind, lo, hi, gcat, truth)


def true_network(forest: SampleForest) -> tuple[Graph, np.ndarray]:
    """Coalesce the forest by its truth mapping into the true network.

    Returns the graph on the distinct sampled vertices (relabeled
    densely, original ids kept as ``graph.labels``) plus the occurrence ->
    true-network-vertex mapping.  This is the evaluation-side ideal
    against which reconstructions are compared.
    """
    if forest.truth is None:
        raise ValueError("forest carries no truth mapping")
    ids, dense = np.unique(forest.truth, return_inverse=True)
    return coalesced_network(forest, dense, labels=ids), dense


def coalesced_network(forest: SampleForest, vertex_of: np.ndarray,
                      labels=None) -> Graph:
    """The simple graph of the forest's tree edges, each occurrence
    mapped to the dense vertex id ``vertex_of[occ]``; edges that land on
    one vertex or repeat are dropped and counted on the graph."""
    child = np.flatnonzero(forest.parent >= 0)
    pairs = np.column_stack([vertex_of[forest.parent[child]], vertex_of[child]])
    return Graph.from_edges(int(vertex_of.max(initial=-1)) + 1, pairs,
                            labels=labels)


# -- forest files ---------------------------------------------------------


def write_forest(forest: SampleForest, target) -> None:
    """One occurrence per line: tree occ kind parent payload.

    kind is R or F; payload is the exact category for respondents and
    ``lo..hi`` for friend descriptions.  The truth mapping is *not*
    written here (see :func:`write_truth`).
    """
    with open_text(target, "w") as fh:
        fh.write(f"# g {forest.g}\n")
        for i in range(forest.size):
            if forest.kind[i] == RESPONDENT:
                payload = str(int(forest.lo[i]))
                kd = "R"
            else:
                payload = f"{int(forest.lo[i])}..{int(forest.hi[i])}"
                kd = "F"
            fh.write(f"{int(forest.tree[i])} {i} {kd} {int(forest.parent[i])} {payload}\n")


def read_forest(source) -> SampleForest:
    """Parse a forest file written by :func:`write_forest` (truth absent);
    its ``# g N`` header gives the category count."""
    rows = []
    header_g = None
    with open_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s:
                continue
            try:
                if s.startswith("#"):
                    if (g := g_header(s)) is not None:
                        header_g = g
                    continue
                parts = s.split()
                if len(parts) != 5:
                    raise ValueError("expected 5 fields")
                t, occ, kd, par, payload = parts
                if kd == "R":
                    a = int(payload)
                    rows.append((int(t), int(occ), RESPONDENT, int(par), a, a))
                elif kd == "F":
                    if ".." not in payload:
                        raise ValueError("friend payload must be lo..hi")
                    lo_s, hi_s = payload.split("..", 1)
                    rows.append((int(t), int(occ), FRIEND, int(par), int(lo_s),
                                 int(hi_s)))
                else:
                    raise ValueError(f"unknown kind {kd!r}")
            except ValueError as exc:  # int() names the field, not the line
                raise ValueError(f"line {lineno}: {exc}") from None
    if not rows:
        raise ValueError("forest file is empty")
    rows.sort(key=lambda r: r[1])
    if [r[1] for r in rows] != list(range(len(rows))):
        raise ValueError("occurrence ids must be dense 0..N-1")
    if header_g is None:
        raise ValueError("forest file has no '# g N' header")
    arr = np.asarray(rows, dtype=np.int64)
    return SampleForest(arr[:, 0], arr[:, 3], arr[:, 2], arr[:, 4], arr[:, 5],
                        header_g)


def write_truth(forest: SampleForest, target) -> None:
    """Write the sealed occurrence -> underlying-vertex table."""
    if forest.truth is None:
        raise ValueError("forest carries no truth mapping")
    write_partition(forest.truth, target)


def read_truth(source, n_occ: int | None = None) -> np.ndarray:
    return read_partition(source, n=n_occ)
