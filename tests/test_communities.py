"""Modularity and greedy community detection."""

import numpy as np
import pytest

from netrecon import Graph, LfrParams, detect, generate_lfr_like, modularity
from netrecon.communities import _greedy_modularity

from oracles import modularity_reference, set_partitions


def clique_edges(members):
    return [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]


def two_cliques(bridge: bool):
    """Two 5-cliques, optionally joined by a single edge."""
    edges = clique_edges(range(5)) + clique_edges(range(5, 10))
    if bridge:
        edges.append((4, 5))
    return Graph.from_edges(10, edges)


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
    edges = []
    for c in range(4):
        edges += clique_edges(range(6 * c, 6 * c + 6))
    for c in range(4):
        edges.append((6 * c, (6 * ((c + 1) % 4)) + 1))
    g = Graph.from_edges(24, edges)
    labels = detect(g, seed=6)
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

