"""Synthetic benchmark generator: degrees, communities, mixing."""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2_contingency

from netrecon import LfrParams, generate, generate_lfr_like, realized_mixing
from netrecon.generate import (REPAIR_PASSES, SWAP_ROUNDS, _assign_communities,
                                _havel_hakimi_edges, _match_stubs, _randomize_edges)
from oracles import (assign_communities_reference, havel_hakimi_reference,
                     match_stubs_reference, randomize_edges_reference)

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


def _ring(n):
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


EDGE_LISTS = {
    "ring": _ring(30),
    "triangle": [(0, 1), (0, 2), (1, 2)],  # no swap keeps it simple
    "two": [(0, 1), (2, 3)],
    "random": sorted({(min(u, v), max(u, v)) for u, v in
                      np.random.default_rng(8).integers(0, 50, size=(200, 2))
                      if u != v}),
}


def _same_law_pvalue(stat, edges, seeds, ref_seeds):
    """Chi-square contingency p-value of ``stat`` of the final edge list,
    the swap chain against the per-attempt oracle on disjoint seeds."""
    ours = Counter(stat(_randomize_edges(edges, np.random.default_rng(s)))
                   for s in seeds)
    ref = Counter(stat(randomize_edges_reference(edges, np.random.default_rng(s)))
                  for s in ref_seeds)
    classes = list(ours.keys() | ref.keys())
    return chi2_contingency([[ours[c] for c in classes],
                             [ref[c] for c in classes]]).pvalue


def test_randomize_edges_final_graph_law_matches_oracle():
    """On the 6-ring the chain ends on one of the 70 labelled 2-regular
    graphs (60 hexagons, 10 pairs of triangles); the bulk draws and the
    per-attempt oracle must reach them with the same frequencies."""
    p = _same_law_pvalue(frozenset, _ring(6), range(2000), range(10**5, 10**5 + 2000))
    assert p > 1e-3


def test_randomize_edges_survivor_law_matches_oracle():
    """How many of the 30-ring's edges survive the shuffle; a chain that
    never reverses the second edge keeps far more of them."""
    ring = _ring(30)

    def survivors(out):
        return min(len(set(out) & set(ring)), 5)  # pool the thin tail

    p = _same_law_pvalue(survivors, ring, range(600), range(10**5, 10**5 + 600))
    assert p > 1e-3


@pytest.mark.parametrize("name", sorted(EDGE_LISTS))
def test_randomize_edges_draws_three_bulk_arrays(name):
    """One call takes two index arrays and one coin array of
    SWAP_ROUNDS*n_e values each, and nothing else, from the generator."""
    edges = EDGE_LISTS[name]
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        _randomize_edges(edges, rng)
        attempts = SWAP_ROUNDS * len(edges)
        ref_rng.integers(len(edges), size=attempts)
        ref_rng.integers(len(edges), size=attempts)
        ref_rng.random(attempts)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    raw = draw(st.lists(pairs, max_size=40))
    return sorted({(min(u, v), max(u, v)) for u, v in raw if u != v})


def _degrees(edges):
    return Counter(v for e in edges for v in e)


@settings(max_examples=200, deadline=None)
@given(edges=simple_graphs(), seed=st.integers(0, 2**32 - 1))
def test_randomize_edges_keeps_degrees_and_simplicity(edges, seed):
    out = _randomize_edges(edges, np.random.default_rng(seed))
    assert len(out) == len(edges)
    assert all(u < v for u, v in out)
    assert len(set(out)) == len(out)
    assert _degrees(out) == _degrees(edges)
    triangle = EDGE_LISTS["triangle"]
    assert _randomize_edges(triangle, np.random.default_rng(seed)) == triangle


@pytest.mark.parametrize("seed", range(5))
def test_assign_communities_keeps_the_choice_stream(seed):
    """Indexing with one integers() draw picks the same community as
    rng.choice and leaves the generator in the same state."""
    draw = np.random.default_rng(1000 + seed)
    sizes = draw.integers(5, 21, size=12)
    degrees = draw.integers(2, 31, size=int(sizes.sum()))  # some fit nowhere
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    labels = _assign_communities(degrees, sizes, 0.1, rng)
    expected = assign_communities_reference(degrees, sizes, 0.1, ref_rng)
    assert labels.tolist() == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("communities", [1, 2, 5])
def test_match_stubs_keeps_the_pair_loop(seed, communities):
    """Finding duplicates with one np.unique keeps the edges and the
    generator state of the former loop over the pairs, whether the
    repairs finish early or run out of passes (one community)."""
    draw = np.random.default_rng(2000 + seed)
    n = int(draw.integers(2, 40))
    labels = draw.integers(0, communities, size=n)
    stubs = np.repeat(np.arange(n), draw.integers(0, 6, size=n))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    edges = _match_stubs(stubs, rng, labels=labels)
    assert edges == match_stubs_reference(stubs, ref_rng, labels, REPAIR_PASSES)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


HEAVY = LfrParams(n=1460, k_avg=10, k_max=100, mu=0.2, tau1=2.5, tau2=1.0,
                  c_min=10, c_max=50, seed=1)


@pytest.mark.parametrize("params", [PARAMS, HEAVY], ids=["n400", "heavy"])
def test_havel_hakimi_keeps_the_former_loop_on_every_community(params,
                                                               monkeypatch):
    """Sorting (-target, id) tuples plainly gives the same edges, in the
    same order, as the former key-function sort, on the internal degree
    targets of every community of a generated network."""
    seen = []

    def checked(members, targets):
        edges = _havel_hakimi_edges(members, targets)
        assert edges == havel_hakimi_reference(members, targets)
        seen.append(len(edges))
        return edges

    monkeypatch.setattr(generate, "_havel_hakimi_edges", checked)
    generate_lfr_like(params)
    assert len(seen) > 10 and sum(seen) > 0


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_havel_hakimi_keeps_the_former_loop_on_any_targets(data):
    """Equal edges for arbitrary targets over arbitrary distinct ids,
    non-graphical sequences and zero targets included."""
    ids = data.draw(st.lists(st.integers(0, 10**6), unique=True, max_size=25))
    targets = np.array(data.draw(st.lists(st.integers(0, 30), min_size=len(ids),
                                          max_size=len(ids))), dtype=np.int64)
    members = np.array(ids, dtype=np.int64)
    assert (_havel_hakimi_edges(members, targets)
            == havel_hakimi_reference(members, targets))
