"""Synthetic benchmark generator: degrees, communities, mixing."""

import warnings

import numpy as np
import pytest

from netrecon import LfrParams, generate_lfr_like, realized_mixing
from netrecon.generate import _randomize_edges
from oracles import randomize_edges_reference

PARAMS = LfrParams(n=400, k_avg=8, k_max=25, mu=0.2, tau1=2.5, tau2=1.0,
                   c_min=10, c_max=40, seed=0)


def test_params_validation():
    base = dict(n=100, k_avg=5, k_max=20, mu=0.2, tau1=2.5, tau2=1.0,
                c_min=5, c_max=20, seed=0)
    LfrParams(**base)
    for bad in (dict(mu=1.5), dict(k_max=100), dict(k_avg=30), dict(c_min=0),
                dict(c_max=4), dict(tau1=1.0), dict(n=0)):
        with pytest.raises(ValueError):
            LfrParams(**{**base, **bad})


def test_generated_graph_shape():
    g, labels = generate_lfr_like(PARAMS)
    assert g.n == 400
    assert labels.shape == (400,)
    deg = g.degrees
    assert deg.max() <= PARAMS.k_max
    assert deg.min() >= 1
    assert abs(deg.mean() - PARAMS.k_avg) < 0.15 * PARAMS.k_avg
    # simple graph by construction
    e = g.edges()
    assert (e[:, 0] < e[:, 1]).all()
    assert len({tuple(x) for x in e}) == g.m


def test_community_sizes_in_bounds():
    g, labels = generate_lfr_like(PARAMS)
    _, counts = np.unique(labels, return_counts=True)
    assert counts.min() >= PARAMS.c_min
    assert counts.max() <= PARAMS.c_max
    assert counts.sum() == g.n


def test_determinism_and_seed_sensitivity():
    g1, l1 = generate_lfr_like(PARAMS)
    g2, l2 = generate_lfr_like(PARAMS)
    assert (g1.edges() == g2.edges()).all()
    assert (l1 == l2).all()
    g3, l3 = generate_lfr_like(LfrParams(**{**PARAMS.__dict__, "seed": 1}))
    assert g3.edges().shape != g1.edges().shape or (g3.edges() != g1.edges()).any()


def test_realized_mixing_matches_recount():
    """Mixing is the mean over vertices of each one's cross-community
    neighbor share, recounted here from scratch via neighbor sets."""
    g, labels = generate_lfr_like(PARAMS)
    neighbors = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        neighbors[int(u)].add(int(v))
        neighbors[int(v)].add(int(u))
    shares = []
    for v in range(g.n):
        if neighbors[v]:
            outside = sum(1 for w in neighbors[v] if labels[w] != labels[v])
            shares.append(outside / len(neighbors[v]))
    assert realized_mixing(g, labels) == pytest.approx(
        sum(shares) / len(shares), abs=1e-12)


def test_realized_mixing_tracks_request():
    for mu in (0.2, 0.4, 0.6):
        p = LfrParams(n=600, k_avg=8, k_max=25, mu=mu, tau1=2.5, tau2=1.0,
                      c_min=15, c_max=60, seed=3)
        g, labels = generate_lfr_like(p)
        assert realized_mixing(g, labels) == pytest.approx(mu, abs=0.05)


def test_mixing_ordering_monotone():
    sizes = []
    for mu in (0.1, 0.3, 0.5):
        p = LfrParams(n=500, k_avg=10, k_max=30, mu=mu, tau1=2.5, tau2=1.0,
                      c_min=20, c_max=60, seed=7)
        g, labels = generate_lfr_like(p)
        sizes.append(realized_mixing(g, labels))
    assert sizes[0] < sizes[1] < sizes[2]


# the dense benchmark of the acceptance suite: communities of 10-20 cannot
# host the internal degree of a mean-20 network, so mixing floors near 0.25
DENSE = dict(n=1460, k_avg=20, k_max=30, tau1=3, tau2=1.0, c_min=10, c_max=20)


def test_infeasible_mixing_request_warns_with_floor():
    with pytest.warns(RuntimeWarning, match=r"below the achievable floor 0\.2"):
        generate_lfr_like(LfrParams(mu=0.1, seed=0, **DENSE))


def test_feasible_mixing_request_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate_lfr_like(LfrParams(mu=0.3, seed=0, **DENSE))


EDGE_LISTS = {
    "ring": [(i, i + 1) for i in range(29)] + [(0, 29)],
    "triangle": [(0, 1), (0, 2), (1, 2)],  # no swap keeps it simple
    "two": [(0, 1), (2, 3)],
    "random": sorted({(min(u, v), max(u, v)) for u, v in
                      np.random.default_rng(8).integers(0, 50, size=(200, 2))
                      if u != v}),
}


@pytest.mark.parametrize("name", sorted(EDGE_LISTS))
def test_randomize_edges_keeps_the_size2_stream(name):
    """Two scalar index draws give the same swaps as one size=2 draw and
    leave the generator in the same state."""
    edges = EDGE_LISTS[name]
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out = _randomize_edges(edges, rng)
        expected = randomize_edges_reference(edges, ref_rng)
        assert out == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state
