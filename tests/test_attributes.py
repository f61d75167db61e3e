"""Category distributions, attribute assignment, and assortativity rewiring."""

from fractions import Fraction

import numpy as np
import pytest

from netrecon import (
    AttributeMap,
    CategoryDistribution,
    Graph,
    assign_attributes,
    assign_distinct,
    discretized_normal,
    edge_discrepancy,
    make_assortative,
    uniform_distribution,
)
from oracles import make_assortative_reference


def test_distribution_validation():
    with pytest.raises(ValueError):
        CategoryDistribution(2, np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        CategoryDistribution(2, np.array([1.2, -0.2]))  # negative entry
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        CategoryDistribution(2, np.array([np.nan, 1.0]))  # sums to NaN
    with pytest.raises(ValueError):
        CategoryDistribution(3, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        uniform_distribution(0)


def test_uniform_distribution_probs():
    d = uniform_distribution(50)
    assert d.p[0] == pytest.approx(1 / 50)
    assert (d.p == d.p[0]).all()
    assert d.p.sum() == pytest.approx(1.0)


def test_exact_rational_distribution():
    d = CategoryDistribution(4, np.array([Fraction(1, 4)] * 4, dtype=object))
    assert d.p.sum() == 1  # exactly
    assert all(isinstance(x, Fraction) for x in d.p)


def test_discretized_normal_shape():
    d = discretized_normal(51)
    p = d.p
    assert p.sum() == pytest.approx(1.0)
    center = 25  # zero-based index of category 26 = (51 + 1) / 2
    assert p.argmax() == center
    assert np.allclose(p, p[::-1])  # symmetric about the center
    assert p[center] > p[0] * 10  # clearly peaked, not flat


def test_assign_attributes_range_and_determinism():
    d = discretized_normal(20)
    a1 = assign_attributes(500, d, seed=42)
    a2 = assign_attributes(500, d, seed=42)
    a3 = assign_attributes(500, d, seed=43)
    assert a1.n == 500 and a1.g == 20
    assert a1.values.min() >= 1 and a1.values.max() <= 20
    assert (a1.values == a2.values).all()
    assert (a1.values != a3.values).any()


def test_assign_attributes_follows_weights():
    # all mass on category 3 -> everyone gets category 3
    p = np.zeros(5)
    p[2] = 1.0
    a = assign_attributes(200, CategoryDistribution(5, p), seed=0)
    assert (a.values == 3).all()


def test_assign_distinct_is_permutation():
    a = assign_distinct(100, seed=5)
    assert a.g == 100
    assert sorted(a.values) == list(range(1, 101))
    b = assign_distinct(100, seed=5)
    assert (a.values == b.values).all()


def test_attribute_map_validation():
    with pytest.raises(ValueError):
        AttributeMap(np.array([0, 1]), g=3)  # 0 below range
    with pytest.raises(ValueError):
        AttributeMap(np.array([1, 4]), g=3)  # 4 above range


def test_attribute_map_round_trip(tmp_path):
    a = assign_attributes(50, uniform_distribution(9), seed=8)
    path = tmp_path / "attrs.txt"
    a.write(path)
    b = AttributeMap.read(path, g=9)
    assert (a.values == b.values).all() and b.g == 9


def test_attribute_map_values_are_read_only():
    values = np.array([1, 2, 3])
    attrs = AttributeMap(values, g=3)
    with pytest.raises(ValueError, match="read-only"):
        attrs.values[0] = 2
    values[0] = 2  # the caller's array was copied, not frozen
    assert attrs.values.tolist() == [1, 2, 3]
    shuffled = make_assortative(Graph.from_edges(3, [(0, 1), (1, 2)]),
                                attrs, attempts=10, seed=0)
    with pytest.raises(ValueError, match="read-only"):
        shuffled.values[0] = 2


def test_edge_discrepancy_hand_case():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    attrs = AttributeMap(np.array([1, 1, 5, 5]), g=5)
    # per-edge |category difference|: 0 + 4 + 0
    assert edge_discrepancy(g, attrs) == 4


def test_make_assortative_reduces_discrepancy():
    rng = np.random.default_rng(2)
    edges = set()
    while len(edges) < 300:
        u, v = rng.integers(0, 80, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = Graph.from_edges(80, sorted(edges))
    attrs = assign_attributes(80, uniform_distribution(10), seed=3)
    before = edge_discrepancy(g, attrs)
    out = make_assortative(g, attrs, attempts=80 * 50, seed=4)
    after = edge_discrepancy(g, out)
    assert after < before
    # rewiring only swaps labels between vertices: the multiset survives
    assert sorted(out.values) == sorted(attrs.values)


def test_make_assortative_monotone_in_attempts():
    """More attempts never hurt: with one seed, the attempt sequence is a
    prefix of the longer run's, and each accepted swap lowers the total."""
    g = Graph.from_edges(30, [(i, (i + 1) % 30) for i in range(30)]
                         + [(i, (i + 7) % 30) for i in range(30)])
    attrs = assign_attributes(30, uniform_distribution(8), seed=9)
    scores = [
        edge_discrepancy(g, make_assortative(g, attrs, attempts=k, seed=17))
        for k in (0, 100, 400, 1600)
    ]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_make_assortative_deterministic():
    g = Graph.from_edges(20, [(i, j) for i in range(20) for j in range(i + 1, 20)
                              if (i + j) % 3 == 0])
    attrs = assign_attributes(20, uniform_distribution(6), seed=1)
    a = make_assortative(g, attrs, attempts=500, seed=11)
    b = make_assortative(g, attrs, attempts=500, seed=11)
    assert (a.values == b.values).all()


def _random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < p]


ASSORT_GRAPHS = {
    # every proposal of two distinct vertices is an edge
    "complete": (8, [(i, j) for i in range(8) for j in range(i + 1, 8)]),
    # about half the proposals are edges
    "dense": (14, _random_graph(14, 0.5, 5)),
    # few proposals are edges; some vertices are isolated
    "sparse": (40, _random_graph(40, 0.06, 6)),
}


@pytest.mark.parametrize("name", sorted(ASSORT_GRAPHS))
@pytest.mark.parametrize("attempts", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_make_assortative_matches_whole_graph_oracle(name, attempts):
    """Every swap decision equals the one taken from a full recount of
    the discrepancy, over the same proposals, across chunk boundaries."""
    n, edges = ASSORT_GRAPHS[name]
    g = Graph.from_edges(n, edges)
    for g_cat in (4, n):
        attrs = assign_attributes(n, uniform_distribution(g_cat), seed=n + g_cat)
        out = make_assortative(g, attrs, attempts=attempts, seed=attempts)
        expected = make_assortative_reference(
            n, edges, attrs.values.tolist(), attempts, seed=attempts)
        assert out.values.tolist() == expected


def test_make_assortative_on_tiny_graph():
    g = Graph.from_edges(1, [])
    attrs = AttributeMap(np.array([3]), g=5)
    assert make_assortative(g, attrs, attempts=10, seed=0).values.tolist() == [3]
