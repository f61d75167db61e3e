"""Graph construction, queries, and edge-list / partition files."""

import io

import numpy as np
import pytest

from netrecon import Graph, load_edge_list, read_partition, write_edge_list, write_partition


def random_edges(rng, n, m):
    """m distinct undirected non-loop edges on n vertices."""
    seen = set()
    while len(seen) < m:
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        seen.add((min(u, v), max(u, v)))
    return sorted(seen)


def test_from_edges_counts_and_queries():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 1)])
    assert g.n == 5
    assert g.m == 3
    assert g.degrees[1] == 3
    assert g.degrees[4] == 0
    assert list(g.neighbors(1)) == [0, 2, 3]
    assert 1 in g.neighbors(0) and 0 in g.neighbors(1)
    assert 2 not in g.neighbors(0)
    assert 0 not in g.neighbors(4)


def test_from_edges_drops_duplicates_and_loops():
    g = Graph.from_edges(4, [(0, 1), (1, 0), (0, 1), (2, 2), (1, 3)])
    assert g.m == 2
    assert g.dropped_duplicates == 2
    assert g.dropped_self_loops == 1
    assert 2 not in g.neighbors(2)


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(-1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1, 2)])


def test_edges_are_canonical():
    rng = np.random.default_rng(7)
    edges = random_edges(rng, 30, 80)
    g = Graph.from_edges(30, [(v, u) for u, v in edges])  # reversed on purpose
    out = g.edges()
    assert out.shape == (80, 2)
    assert (out[:, 0] < out[:, 1]).all()
    assert [tuple(e) for e in out] == edges


def test_degrees_match_manual_count():
    rng = np.random.default_rng(11)
    edges = random_edges(rng, 25, 60)
    g = Graph.from_edges(25, edges)
    manual = np.zeros(25, dtype=int)
    for u, v in edges:
        manual[u] += 1
        manual[v] += 1
    assert (g.degrees == manual).all()
    assert sum(manual) == 2 * g.m


def test_vertex_queries_validate_range():
    g = Graph.from_edges(3, [(0, 1)])
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            g.neighbors(bad)


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    edges = random_edges(rng, 40, 100)
    g = Graph.from_edges(40, edges)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    h = load_edge_list(path)
    assert h.n == g.n
    assert (h.edges() == g.edges()).all()


def test_load_edge_list_compacts_labels():
    g = load_edge_list(io.StringIO("10 30\n30 20\n"))
    assert g.n == 3
    assert list(g.labels) == [10, 20, 30]
    assert 2 in g.neighbors(0) and 1 in g.neighbors(2)


def test_load_edge_list_skips_comments_and_blanks():
    g = load_edge_list(io.StringIO("# header\n\n0 1\n   \n1 2\n"))
    assert g.m == 2


def test_load_edge_list_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        load_edge_list(io.StringIO("# nothing\n"))
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list(io.StringIO("0 1\n0 1 2\n"))
    with pytest.raises(ValueError, match="line 1"):
        load_edge_list(io.StringIO("a b\n"))


def test_partition_round_trip(tmp_path):
    values = np.array([4, 2, 2, 7, 0])
    path = tmp_path / "p.txt"
    write_partition(values, path)
    back = read_partition(path)
    assert (back == values).all()
    assert (read_partition(path, n=5) == values).all()


def test_partition_rejects_a_vertex_listed_twice():
    with pytest.raises(ValueError, match=r"^line 3: vertex 0 is listed twice$"):
        read_partition(io.StringIO("0 5\n1 6\n0 7\n"))


@pytest.mark.parametrize("text, lineno", [("0 5\n# note\n1 x\n", 3),
                                          ("0 5\n1.5 6\n", 2)])
def test_partition_rejects_a_non_integer_field(text, lineno):
    with pytest.raises(ValueError,
                       match=rf"^line {lineno}: non-integer vertex or value$"):
        read_partition(io.StringIO(text))


def test_graph_arrays_are_read_only():
    g = load_edge_list(io.StringIO("10 20\n20 30\n"))
    for arr in (g.indptr, g.indices, g.labels, g.neighbors(1)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 5
    # the caller's own arrays are copied, not frozen
    indptr = np.array([0, 1, 2])
    indices = np.array([1, 0])
    h = Graph(2, indptr, indices)
    indptr[0] = 0
    indices[0] = 1
    assert not h.indptr.flags.writeable
    # a graph built from another graph's arrays shares them
    k = Graph(h.n, h.indptr, h.indices)
    assert k.indices is h.indices
