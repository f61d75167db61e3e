"""Simple undirected graphs over dense integer vertex ids.

The graph is stored in compressed sparse row form (``indptr``/``indices``)
with every neighbor list sorted: ``neighbors(v)`` is a slice of
``indices`` and ``degrees`` a difference of ``indptr``.  Graphs are
immutable after construction, their arrays read-only; anything that
"modifies" a graph builds a new one.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "Graph",
    "frozen_array",
    "load_edge_list",
    "write_edge_list",
    "read_partition",
    "write_partition",
    "open_text",
]


def frozen_array(a, dtype=None) -> np.ndarray:
    """``a`` as a read-only array.

    A writable array passed in is copied first, so the caller's own
    array stays writable.
    """
    arr = np.asarray(a, dtype=dtype)
    if (isinstance(a, np.ndarray) and arr.flags.writeable
            and np.may_share_memory(arr, a)):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    Parameters are the raw CSR arrays; use :meth:`from_edges` or
    :func:`load_edge_list` instead of calling the constructor directly.

    Attributes
    ----------
    n : int
        Number of vertices.
    m : int
        Number of (undirected) edges.
    indptr, indices : ndarray
        CSR adjacency, read-only; ``indices[indptr[v]:indptr[v+1]]`` is
        the sorted neighbor list of ``v``.
    labels : ndarray or None
        Original vertex labels when the graph came from a file whose
        labels were compacted, indexed by dense id; read-only.
    dropped_duplicates, dropped_self_loops : int
        How many input edges were discarded during construction.
    """

    __slots__ = (
        "n",
        "m",
        "indptr",
        "indices",
        "labels",
        "dropped_duplicates",
        "dropped_self_loops",
    )

    def __init__(self, n, indptr, indices, labels=None,
                 dropped_duplicates=0, dropped_self_loops=0):
        self.n = int(n)
        self.indptr = frozen_array(indptr, dtype=np.int64)
        self.indices = frozen_array(indices, dtype=np.int64)
        self.m = int(len(self.indices)) // 2
        self.labels = None if labels is None else frozen_array(labels)
        self.dropped_duplicates = int(dropped_duplicates)
        self.dropped_self_loops = int(dropped_self_loops)

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "Graph":
        """Build a graph from an iterable/array of (u, v) pairs.

        Self-loops and duplicate edges are dropped (counts are recorded
        on the instance).  Vertex ids must lie in ``[0, n)``.
        """
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                       dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be pairs")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError("vertex id out of range")

        loops = e[:, 0] == e[:, 1]
        n_loops = int(loops.sum())
        e = e[~loops]
        # canonical order u < v, then dedup
        u = np.minimum(e[:, 0], e[:, 1])
        v = np.maximum(e[:, 0], e[:, 1])
        if u.size:
            key = u * np.int64(n) + v
            _, keep = np.unique(key, return_index=True)
            n_dup = u.size - keep.size
            u, v = u[np.sort(keep)], v[np.sort(keep)]
        else:
            n_dup = 0

        heads = np.concatenate([u, v])
        tails = np.concatenate([v, u])
        order = np.lexsort((tails, heads))
        heads, tails = heads[order], tails[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, heads + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n, indptr, tails, labels=labels,
                   dropped_duplicates=n_dup, dropped_self_loops=n_loops)

    # -- queries ---------------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (a read-only view)."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an int64 array."""
        return np.diff(self.indptr)

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        mask = rows < self.indices
        return np.column_stack([rows[mask], self.indices[mask]])

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


# -- edge list files -----------------------------------------------------


@contextmanager
def open_text(target, mode: str = "r"):
    """Yield a text stream for ``target``: a path is opened (and closed on
    exit) as UTF-8, an open stream (or a list of lines) is passed through
    and left open."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield target


def load_edge_list(source) -> Graph:
    """Read a whitespace-separated edge list into a :class:`Graph`.

    ``source`` is a path or an open text stream.  Lines starting with
    ``#`` and blank lines are ignored.  Vertex labels are arbitrary
    integers; they are compacted to ``0..n-1`` in increasing label
    order, with the original labels kept on ``graph.labels`` (so a file
    already using dense ids keeps them).  Self-loops and duplicate
    edges are dropped (counted on the graph).

    Raises
    ------
    ValueError
        On a malformed line (message includes the line number) or if
        the input contains no edges.
    """
    raw_u: list[int] = []
    raw_v: list[int] = []
    with open_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            parts = s.split()
            if len(parts) != 2:
                raise ValueError(
                    f"line {lineno}: expected two vertex labels, got {len(parts)}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer vertex label") from None
            raw_u.append(a)
            raw_v.append(b)

    if not raw_u:
        raise ValueError("edge list is empty")

    flat = np.array([raw_u, raw_v], dtype=np.int64).T.reshape(-1)
    labels, dense = np.unique(flat, return_inverse=True)
    pairs = dense.reshape(-1, 2)
    return Graph.from_edges(labels.size, pairs, labels=labels)


def write_edge_list(g: Graph, target) -> None:
    """Write ``g`` as a normalized edge list (dense ids, u < v, sorted).

    Writing and re-reading a graph whose vertices all appear in at least
    one edge reproduces it exactly.  Isolated vertices have no
    representation in this format.
    """
    with open_text(target, "w") as fh:
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


# -- vertex-indexed integer columns (partitions, categories) -------------


def write_partition(values: np.ndarray, target) -> None:
    """Write one ``vertex value`` pair per line for a dense int column."""
    with open_text(target, "w") as fh:
        for v, c in enumerate(np.asarray(values)):
            fh.write(f"{v} {int(c)}\n")


def g_header(line: str) -> int | None:
    """N of a ``# g N`` line, which heads a file of categories in 1..N;
    None for any other line."""
    s = line.strip()
    toks = s[1:].split() if s.startswith("#") else []
    return int(toks[1]) if len(toks) == 2 and toks[0] == "g" else None


def read_partition(source, n: int | None = None) -> np.ndarray:
    """Read a ``vertex value`` file written by :func:`write_partition`."""
    pairs = {}
    with open_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            parts = s.split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'vertex value'")
            try:
                v, c = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer vertex or value") from None
            if v in pairs:
                raise ValueError(f"line {lineno}: vertex {v} is listed twice")
            pairs[v] = c
    if not pairs:
        raise ValueError("partition file is empty")
    size = n if n is not None else max(pairs) + 1
    out = np.zeros(size, dtype=np.int64)
    seen = np.zeros(size, dtype=bool)
    for v, c in pairs.items():
        if not 0 <= v < size:
            raise ValueError(f"vertex {v} out of range")
        out[v] = c
        seen[v] = True
    if not seen.all():
        raise ValueError("partition file does not cover every vertex")
    return out
