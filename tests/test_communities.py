"""Modularity and greedy community detection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netrecon import Graph, LfrParams, communities, detect, generate_lfr_like, modularity
from netrecon.communities import _aggregate, _greedy_modularity, _local_moves

from oracles import (aggregate_reference, greedy_modularity_reference,
                     local_moves_reference, modularity_reference, set_partitions)


def clique_edges(members):
    return [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]


def two_cliques(bridge: bool):
    """Two 5-cliques, optionally joined by a single edge."""
    edges = clique_edges(range(5)) + clique_edges(range(5, 10))
    if bridge:
        edges.append((4, 5))
    return Graph.from_edges(10, edges)


def ring_of_cliques():
    """Four 6-cliques, each joined to the next by one edge."""
    edges = []
    for c in range(4):
        edges += clique_edges(range(6 * c, 6 * c + 6))
    for c in range(4):
        edges.append((6 * c, (6 * ((c + 1) % 4)) + 1))
    return Graph.from_edges(24, edges)


def lfr(n, mu, **params):
    return generate_lfr_like(LfrParams(n=n, mu=mu, seed=0, **params))[0]


LFR_300 = dict(k_avg=8, k_max=30, tau1=2.5, tau2=1, c_min=10, c_max=40)
HEAVY = dict(k_avg=10, k_max=100, tau1=2.5, tau2=1, c_min=10, c_max=50)
REFERENCE_GRAPHS = {
    "lfr300-mu0.1": lambda: lfr(300, 0.1, **LFR_300),
    "lfr300-mu0.3": lambda: lfr(300, 0.3, **LFR_300),
    "lfr300-mu0.5": lambda: lfr(300, 0.5, **LFR_300),
    "ring-of-cliques": ring_of_cliques,
    # isolated vertices first, between and after two bridged 4-cliques
    "isolated": lambda: Graph.from_edges(
        12, clique_edges([1, 2, 3, 4]) + clique_edges([6, 7, 8, 9]) + [(4, 6)]),
    "edgeless": lambda: Graph.from_edges(5, []),
    "heavy": lambda: lfr(1460, 0.2, **HEAVY),
}


@pytest.mark.parametrize("name", REFERENCE_GRAPHS)
def test_greedy_modularity_equals_the_reference(name, monkeypatch):
    """The list-based detector takes every decision of the numpy-scalar
    reference: the same assignment, and the same top-level weighted
    graph down to each adjacency dict's order and every float bit."""
    levels = []
    aggregate = communities._aggregate

    def counted(*args):
        levels[-1] += 1
        return aggregate(*args)

    monkeypatch.setattr(communities, "_aggregate", counted)
    g = REFERENCE_GRAPHS[name]()
    for seed in range(30):
        levels.append(0)
        assignment, adj, loops = _greedy_modularity(g, seed)
        ref_assignment, ref_adj, ref_loops = greedy_modularity_reference(g, seed)
        assert assignment.tolist() == ref_assignment.tolist()
        assert [list(a.items()) for a in adj] == \
            [list(a.items()) for a in ref_adj]
        assert list(loops) == ref_loops.tolist()
    if name == "heavy":  # weighted upper levels are covered
        assert max(levels) >= 3


def weighted_level(n, weights, loops):
    """A level's adjacency dicts, neighbors ascending, and its loops."""
    adj = [{} for _ in range(n)]
    for (u, v), w in sorted(weights.items()):
        adj[u][v] = adj[v][u] = w
    return adj, loops


def random_level(seed, n=12):
    rng = np.random.default_rng(seed)
    weights = {(u, v): round(float(rng.uniform(0.1, 3.0)), 1)
               for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
    return weighted_level(n, weights, [round(float(x), 1)
                                       for x in rng.uniform(0, 2, n)])


# Vertex 8 moves first at seed 1, and its best gain clears the 1e-12
# margin only with two_m as numpy's pairwise sum of the strengths
# (72.71200000001456); a left-to-right sum gives 72.71200000001454.
NEAR_TIE = weighted_level(10, {
    (0, 3): 2.5, (0, 6): 1.2, (0, 7): 2.0, (0, 8): 2.1, (1, 2): 2.6,
    (1, 3): 1.2, (1, 8): 0.9, (2, 5): 3.0, (2, 6): 0.6, (3, 8): 0.5,
    (4, 6): 1.2, (5, 6): 1.6, (5, 8): 2.9, (6, 7): 2.3, (7, 8): 0.6,
    (8, 9): 1.8,
}, [1.2, 1.9, 0.1, 1.0, 1.5, 0.4, 0.8, 0.1, 2.1560000000072708, 0.2])


def test_weighted_levels_equal_the_reference():
    """Levels built from a graph carry integer weights, which every
    summation order adds exactly.  On fractional weights, where order
    decides the rounding, one level of moves and its aggregation still
    take every decision of the reference."""
    cases = [(*NEAR_TIE, 1)] + [(*random_level(seed), seed) for seed in range(30)]
    for adj, loops, seed in cases:
        comm, moved = _local_moves(adj, loops, np.random.default_rng(seed))
        ref_comm, ref_moved = local_moves_reference(
            adj, np.array(loops), np.random.default_rng(seed))
        assert (comm, moved) == (ref_comm.tolist(), ref_moved)
        new_adj, new_loops, dense = _aggregate(adj, loops, comm)
        ref_adj, ref_loops, ref_dense = aggregate_reference(
            adj, np.array(loops), ref_comm)
        assert [list(a.items()) for a in new_adj] == \
            [list(a.items()) for a in ref_adj]
        assert new_loops == ref_loops.tolist()
        assert dense.tolist() == ref_dense.tolist()


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 15))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    raw = draw(st.lists(pairs, max_size=40))
    return Graph.from_edges(n, sorted({(min(u, v), max(u, v))
                                       for u, v in raw if u != v}))


@settings(max_examples=200, deadline=None)
@given(g=small_graphs(), seed=st.integers(0, 2**32 - 1))
def test_detect_relabels_the_reference_by_first_appearance(g, seed):
    first_seen = {}
    expected = [first_seen.setdefault(int(c), len(first_seen))
                for c in greedy_modularity_reference(g, seed)[0]]
    labels = detect(g, seed=seed)
    assert labels.tolist() == expected
    for v in np.flatnonzero(g.degrees == 0):
        assert np.count_nonzero(labels == labels[v]) == 1


def test_modularity_matches_reference_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        density = rng.uniform(0.2, 0.8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        if not edges:
            continue
        part = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        g = Graph.from_edges(n, edges)
        assert modularity(g, part) == pytest.approx(
            modularity_reference(n, edges, part), abs=1e-12)


def test_modularity_known_value():
    # two disconnected cliques split correctly: Q = 1/2
    g = two_cliques(bridge=False)
    labels = np.array([0] * 5 + [1] * 5)
    assert modularity(g, labels) == pytest.approx(0.5)
    # everything in one community: Q = 0 by definition
    assert modularity(g, np.zeros(10, dtype=int)) == pytest.approx(0.0)


def test_modularity_validation():
    g = two_cliques(bridge=False)
    with pytest.raises(ValueError):
        modularity(g, np.zeros(9, dtype=int))
    with pytest.raises(ValueError):
        modularity(Graph.from_edges(3, []), np.zeros(3, dtype=int))


def test_detect_finds_planted_cliques():
    g = two_cliques(bridge=True)
    labels = detect(g, seed=1)
    assert len(set(labels[:5])) == 1
    assert len(set(labels[5:])) == 1
    assert labels[0] != labels[9]


def test_detect_attains_brute_force_optimum():
    """On 10 vertices the greedy detector should land on the true
    modularity maximum, found here by scanning all 115975 partitions."""
    g = two_cliques(bridge=True)
    best = max(modularity(g, np.array(p)) for p in set_partitions(10))
    found = modularity(g, detect(g, seed=0))
    assert found == pytest.approx(best)


def test_detect_labels_are_dense_first_appearance():
    g = two_cliques(bridge=True)
    labels = detect(g, seed=2)
    k = labels.max() + 1
    assert sorted(set(labels)) == list(range(k))
    assert labels[0] == 0  # first vertex opens label 0


def test_detect_isolated_vertices_are_singletons():
    g = Graph.from_edges(7, clique_edges(range(4)))  # vertices 4..6 isolated
    labels = detect(g, seed=3)
    assert len(set(labels[:4])) == 1
    assert len({labels[4], labels[5], labels[6]}) == 3
    assert labels[0] not in labels[4:]


def test_detect_deterministic():
    rng = np.random.default_rng(4)
    edges = [(i, j) for i in range(40) for j in range(i + 1, 40)
             if rng.random() < 0.12]
    g = Graph.from_edges(40, edges)
    a = detect(g, seed=5)
    b = detect(g, seed=5)
    assert (a == b).all()


def test_detect_ring_of_cliques():
    """Four 6-cliques in a ring: the classic case where each clique is
    its own community."""
    labels = detect(ring_of_cliques(), seed=6)
    for c in range(4):
        assert len(set(labels[6 * c:6 * c + 6])) == 1
    assert len(set(labels)) == 4


def test_labels_score_the_top_level_modularity():
    """The returned labels are the top aggregated level mapped down to the
    vertices, so they score exactly that level's singleton modularity."""
    for seed in range(3):
        g, _ = generate_lfr_like(LfrParams(n=300, k_avg=8, k_max=30, mu=0.3,
                                           tau1=2.5, tau2=1, c_min=10,
                                           c_max=40, seed=seed))
        _, adj, loops = _greedy_modularity(g, seed)
        # a super-vertex's strength counts its internal edges twice
        strength = [sum(a.values()) + 2 * w for a, w in zip(adj, loops)]
        m = sum(strength) / 2
        top = sum(w / m - (s / (2 * m)) ** 2 for s, w in zip(strength, loops))
        labels = detect(g, seed=seed)
        assert modularity_reference(g.n, g.edges().tolist(), labels) == \
            pytest.approx(top, abs=1e-12)

