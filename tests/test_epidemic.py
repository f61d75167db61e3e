"""SIR epidemics and immunization orders."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2, chisquare, ks_2samp

from netrecon import (
    Graph,
    LfrParams,
    ReconstructionStalled,
    SirParams,
    StrategySpec,
    assign_attributes,
    derive_seed,
    elicit_friends,
    evaluate_strategy,
    generate_lfr_like,
    immunization_order,
    project,
    reconstruct,
    sample_paths,
    sir_run,
    sir_sizes,
    uniform_distribution,
)
from netrecon import epidemic
from oracles import (
    reachable_reference,
    select_immunized_reference,
    sir_bfs_reference,
    sir_reference,
)


def star(n):
    """Vertex 0 joined to everyone else."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


@pytest.fixture(scope="module")
def bench():
    params = LfrParams(n=250, k_avg=8, k_max=25, mu=0.3, tau1=2.5, tau2=1.0,
                       c_min=10, c_max=40, seed=31)
    g, _ = generate_lfr_like(params)
    return g


def test_sir_params_validation():
    with pytest.raises(ValueError):
        SirParams(init_frac=0.0)
    with pytest.raises(ValueError):
        SirParams(beta=1.5)
    with pytest.raises(ValueError):
        SirParams(infectious_steps=0)


def test_strategy_spec_validation():
    StrategySpec(kind="random-whole")
    with pytest.raises(ValueError):
        StrategySpec(kind="oracle")
    with pytest.raises(ValueError):
        StrategySpec(kind="underlying-top", property="pagerank")


def test_sir_size_bounds_and_determinism(bench):
    g = bench
    params = SirParams(init_frac=0.02, beta=0.2, infectious_steps=3)
    none = np.zeros(0, dtype=np.int64)
    n_seed = round(0.02 * g.n)
    for seed in range(10):
        size = sir_run(g, none, params, seed=seed)
        assert n_seed <= size <= g.n
    assert sir_run(g, none, params, seed=3) == sir_run(g, none, params, seed=3)


def test_sir_beta_zero_and_one(bench):
    g = bench
    none = np.zeros(0, dtype=np.int64)
    quiet = SirParams(init_frac=0.02, beta=0.0, infectious_steps=3)
    assert sir_run(g, none, quiet, seed=0) == round(0.02 * g.n)
    # beta = 1 on a connected graph reaches every vertex
    ring = Graph.from_edges(30, [(i, (i + 1) % 30) for i in range(30)])
    loud = SirParams(init_frac=1 / 30, beta=1.0, infectious_steps=3)
    for seed in range(5):
        assert sir_run(ring, none, loud, seed=seed) == 30


def test_sir_immunized_never_infected():
    """The epidemic on a star dies instantly when the hub is immune."""
    g = star(40)
    params = SirParams(init_frac=1 / 40, beta=1.0, infectious_steps=5)
    hub = np.array([0])
    for seed in range(20):
        assert sir_run(g, hub, params, seed=seed) == 1  # only the seed itself
    # without immunization the hub spreads it everywhere
    assert sir_run(g, np.zeros(0, dtype=np.int64), params, seed=0) == 40


def test_sir_validates_pool(monkeypatch):
    """Both calls check the immunized set before they draw anything."""
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before the inputs were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    g = star(5)
    params = SirParams(init_frac=1.0, beta=0.5)
    for bad, message in (([5], r"immunized ids must lie in \[0, n\)"),
                         (range(5), "every vertex is immunized"),
                         (range(4), "not enough non-immunized vertices")):
        with pytest.raises(ValueError, match=message):
            sir_run(g, np.array(bad), params, seed=0)
        with pytest.raises(ValueError, match=message):
            sir_sizes(g, np.array(bad), params, range(70))


def test_sir_monotone_in_beta(bench):
    """Statistically: higher transmission -> larger epidemics."""
    g = bench
    none = np.zeros(0, dtype=np.int64)
    means = []
    for beta in (0.02, 0.10, 0.40):
        params = SirParams(init_frac=0.01, beta=beta, infectious_steps=3)
        means.append(sir_sizes(g, none, params, range(500)).mean())
    assert means[0] < means[1] < means[2]


def test_select_random_whole(bench):
    g = bench
    spec = StrategySpec(kind="random-whole")
    a = immunization_order(g, spec, seed=1)
    b = immunization_order(g, spec, seed=1)
    c = immunization_order(g, spec, seed=2)
    assert sorted(a) == list(range(g.n))
    assert (a == b).all()
    assert (a != c).any()


def test_random_whole_prefix_is_a_uniform_subset():
    """The first k vertices of the random order form a uniform k-subset:
    chi-square over the k-subsets, and over how often each vertex is
    among the first k, from 3000 seeds.  An inclusion count of k random
    vertices out of n has (n - k) / (n - 1) times the multinomial
    variance, so that statistic is scaled back by its inverse."""
    n, k, runs = 8, 3, 3000
    g = Graph.from_edges(n, [])
    spec = StrategySpec(kind="random-whole")
    subsets, included = Counter(), np.zeros(n)
    for seed in range(runs):
        first = immunization_order(g, spec, seed)[:k]
        subsets[tuple(sorted(first.tolist()))] += 1
        included[first] += 1
    combos = list(combinations(range(n), k))
    assert chisquare([subsets[c] for c in combos]).pvalue > 1e-3
    stat = chisquare(included).statistic * (n - 1) / (n - k)
    assert chi2.sf(stat, n - 1) > 1e-3


def test_select_underlying_top_degree(bench):
    g = bench
    order = immunization_order(g, StrategySpec(kind="underlying-top"), seed=0)
    chosen = order[:20]
    others = np.setdiff1d(np.arange(g.n), chosen)
    assert g.degrees[others].max() <= g.degrees[chosen].min()


def test_select_underlying_top_is_degree_sorted_with_id_ties():
    # degrees: 0 -> 3, 1 -> 2, 2 -> 2, 3 -> 2, 4 -> 1  (1,2,3 tie on degree)
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
    spec = StrategySpec(kind="underlying-top", property="degree")
    assert immunization_order(g, spec, seed=0).tolist() == [0, 1, 2, 3, 4]


def test_select_reconstructed_requires_ensemble(bench):
    with pytest.raises(ValueError):
        immunization_order(bench, StrategySpec(kind="reconstructed-top"), seed=0)


def averaging_ensemble():
    """Underlying ids: instance A maps its triangle to {0,1,2}; instance
    B maps a path to {1,2,3}.

      person 0: degrees (2,)    -> mean 2.0
      person 1: degrees (2, 1)  -> mean 1.5
      person 2: degrees (2, 2)  -> mean 2.0
      person 3: degrees (1,)    -> mean 1.0
    """
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    return star(6), [tri, path], [np.array([0, 1, 2]), np.array([1, 2, 3])]


def frequency_ensemble():
    """Person 5 appears in 3 instances, person 1 in 2, persons 2, 3, 4
    and 6 in one each; persons 0 and 7 are never seen."""
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    return star(8), [tri] * 3, [np.array([5, 1, 2]), np.array([5, 1, 3]),
                                np.array([5, 4, 6])]


def test_select_reconstructed_top_averages_over_appearances():
    """Scores tie at 2.0 for persons 0 and 2; person 2 appears twice, so
    frequency breaks the tie in favor of 2.  Person 3's mean 1.0 ranks
    last."""
    g, ensemble, projections = averaging_ensemble()
    spec = StrategySpec(kind="reconstructed-top", property="degree")
    order = immunization_order(g, spec, seed=0, ensemble=ensemble,
                               projections=projections)
    assert order.tolist() == [2, 0, 1, 3]


def test_select_frequency_ranks_by_appearances():
    g, ensemble, projections = frequency_ensemble()
    spec = StrategySpec(kind="reconstructed-frequency-random")
    order = immunization_order(g, spec, seed=0, ensemble=ensemble,
                               projections=projections)
    assert order[:2].tolist() == [5, 1]
    assert sorted(order[2:]) == [2, 3, 4, 6]


def test_select_frequency_random_ties(bench):
    """Tied frequencies are broken at random: different seeds must not
    always produce the same set."""
    g = bench
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    projections = [np.arange(3), np.arange(3, 6), np.arange(6, 9)]
    spec = StrategySpec(kind="reconstructed-frequency-random")
    picks = {tuple(sorted(immunization_order(g, spec, seed=s, ensemble=[tri] * 3,
                                             projections=projections)[:3]))
             for s in range(30)}
    assert len(picks) > 1


def test_select_validates_alignment(bench):
    g = bench
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    spec = StrategySpec(kind="reconstructed-top")
    with pytest.raises(ValueError):
        immunization_order(g, spec, seed=0, ensemble=[tri, tri],
                           projections=[np.arange(3)])
    with pytest.raises(ValueError):
        immunization_order(g, spec, seed=0, ensemble=[tri],
                           projections=[np.arange(2)])  # projection too short


@pytest.fixture(scope="module")
def heavy():
    """The paper-scale HEAVY network."""
    g, _ = generate_lfr_like(LfrParams(
        n=1460, k_avg=10, k_max=100, mu=0.2, tau1=2.5, tau2=1.0, c_min=10,
        c_max=50, seed=7))
    return g


@pytest.fixture(scope="module")
def heavy_ensemble(heavy):
    """The paper-scale HEAVY network and three reconstructions of it."""
    g = heavy
    dist = uniform_distribution(50)
    attrs = assign_attributes(g.n, dist, seed=8)
    ensemble, projections = [], []
    for i in range(3):
        paths = sample_paths(g, round(0.08 * g.n), "hpm", seed=10 + i)
        forest = elicit_friends(g, attrs, paths, 5, 1, seed=20 + i)
        try:
            res = reconstruct(forest.without_truth(), dist, forest.n_t,
                              seed=30 + i)
        except ReconstructionStalled as stall:
            res = stall.partial
        ensemble.append(res.graph)
        projections.append(project(res.provenance, forest))
    return g, ensemble, projections


@pytest.mark.parametrize("kind", ["underlying-top", "reconstructed-top",
                                  "reconstructed-frequency-random"])
@pytest.mark.parametrize("case", ["averaging", "frequency", "heavy"])
def test_order_prefixes_match_the_per_budget_selection(kind, case, request):
    """Every prefix of the degree ranking, sorted, is what a selection
    made afresh for that budget picks.  The frequency kind draws its tie
    order first from the same generator, so it matches too."""
    if case == "heavy":
        g, ensemble, projections = request.getfixturevalue("heavy_ensemble")
    else:
        g, ensemble, projections = {"averaging": averaging_ensemble,
                                    "frequency": frequency_ensemble}[case]()
    spec = StrategySpec(kind=kind, property="degree")
    order = immunization_order(g, spec, seed=3, ensemble=ensemble,
                               projections=projections)
    for k in range(order.size + 1):
        assert np.sort(order[:k]).tolist() == select_immunized_reference(
            g, kind, "degree", k, 3, ensemble, projections).tolist(), k


def test_evaluate_strategy_moments(bench):
    g = bench
    order = immunization_order(g, StrategySpec(kind="underlying-top"), seed=5)
    chosen = order[:25]
    params = SirParams(init_frac=0.01, beta=0.1, infectious_steps=3)
    out = evaluate_strategy(g, chosen, params, runs=40, seed=5)
    assert out.runs == 40
    # the outcome's moments match a recount over the same seeds
    sizes = [sir_run(g, chosen, params, derive_seed(5, "sir", i))
             for i in range(40)]
    assert out.mean == pytest.approx(np.mean(sizes))
    assert out.std == pytest.approx(np.std(sizes, ddof=1))
    again = evaluate_strategy(g, chosen, params, runs=40, seed=5)
    assert (again.mean, again.std) == (out.mean, out.std)
    with pytest.raises(ValueError):
        evaluate_strategy(g, chosen, params, runs=0, seed=5)


def test_immunizing_hubs_shrinks_epidemics(bench):
    """Degree-targeted immunization beats none, on average."""
    g = bench
    params = SirParams(init_frac=0.01, beta=0.15, infectious_steps=3)
    order = immunization_order(g, StrategySpec(kind="underlying-top"), seed=6)
    out_top = evaluate_strategy(g, order[:25], params, runs=200, seed=6)
    out_none = evaluate_strategy(g, order[:0], params, runs=200, seed=6)
    assert out_top.mean < out_none.mean


def _step_reference(g, immunized, p, seed):
    return sir_reference(g.indptr, g.indices, immunized, p.init_frac, p.beta,
                         p.infectious_steps, seed)


@pytest.mark.parametrize("isolated", [0, 10])
@pytest.mark.parametrize("budget", [0, 15])
def test_sir_size_law_matches_step_reference(bench, isolated, budget):
    """The percolation form and the step-by-step simulation give the same
    law of the final size: two-sample KS over 2000 disjoint seeds each.
    A per-step probability beta in place of q = 1 - (1 - beta)^T makes
    the epidemics far smaller and fails this test."""
    # isolated vertices can be seeded but spread nothing
    g = Graph.from_edges(bench.n + isolated, bench.edges())
    immunized = np.sort(np.argsort(-g.degrees, kind="stable")[:budget])
    p = SirParams(init_frac=0.02, beta=0.04, infectious_steps=4)
    ours = sir_sizes(g, immunized, p, range(2000))
    ref = [_step_reference(g, immunized, p, seed)
           for seed in range(10**5, 10**5 + 2000)]
    assert ks_2samp(ours, ref).pvalue > 1e-3


def test_sir_matches_step_reference_at_beta_zero_and_one(bench):
    """At beta 0 only the seeds fall ill and at beta 1 their whole
    component does, in both forms; the seed draw comes first in both, so
    every epidemic has the same size."""
    g = Graph.from_edges(260, bench.edges())
    immunized_sets = [np.zeros(0, dtype=np.int64), np.arange(0, 260, 9),
                      np.array([1, 5]), np.arange(100, 140)]
    for immunized in immunized_sets:
        for beta in (0.0, 1.0):
            p = SirParams(init_frac=0.01, beta=beta, infectious_steps=2)
            ours = sir_sizes(g, immunized, p, range(50))
            for seed in range(50):
                assert ours[seed] == _step_reference(g, immunized, p, seed)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def clique_with_tail(k, tail):
    """A k-clique with a path of ``tail`` more vertices hanging off its
    last vertex, the hub."""
    tail_edges = [(v, v + 1) for v in range(k - 1, k + tail - 1)]
    return Graph.from_edges(k + tail, list(combinations(range(k), 2)) + tail_edges)


def spread(g):
    """``g`` on the odd ids 2v + 1, with an isolated vertex at every even
    id: an empty CSR row before, between and after the others."""
    return Graph.from_edges(2 * g.n + 1, 2 * g.edges() + 1)


def top_degrees(g, k):
    return np.argsort(-g.degrees, kind="stable")[:k]


# name: (graph, immunized, SIR parameters), the graph from the HEAVY one
LANE_CASES = {
    "heavy": (lambda h: h, lambda g: [], {}),
    "heavy-15-immunized": (lambda h: h, lambda g: top_degrees(g, 15), {}),
    "duplicate-immunized": (lambda h: h, lambda g: [3, 3, 700, 3, 700, 1459], {}),
    "isolated-vertices": (lambda h: Graph.from_edges(h.n + 40, h.edges()),
                          lambda g: top_degrees(g, 15), dict(init_frac=0.01)),
    "spread-hub-immunized": (lambda h: spread(h), lambda g: top_degrees(g, 1),
                             dict(init_frac=0.005)),
    "beta-0": (lambda h: h, lambda g: top_degrees(g, 15), dict(beta=0.0)),
    "beta-1": (lambda h: h, lambda g: top_degrees(g, 15), dict(beta=1.0)),
    "no-arcs": (lambda h: Graph.from_edges(50, []), lambda g: [4, 9],
                dict(init_frac=0.1, beta=1.0)),
    # one seed in a segment of 300 to 1600 vertices: 150 levels or more
    "path-5000": (lambda h: path(5000),
                  lambda g: [0, 300, 1000, 1700, 2900, 3200, 4600],
                  dict(init_frac=1 / 5000, beta=1.0)),
    # 12 seeds of 40 hold 468 of the 1560 arcs: every level pulls
    "complete-40": (lambda h: clique_with_tail(40, 0), lambda g: [],
                    dict(init_frac=0.3, beta=1.0)),
    # the clique level pulls, the tail levels push
    "clique-tail": (lambda h: clique_with_tail(30, 300), lambda g: [],
                    dict(init_frac=1 / 330, beta=1.0)),
    "spread-clique-tail-hub-immunized": (
        lambda h: spread(clique_with_tail(30, 300)), lambda g: top_degrees(g, 1),
        dict(init_frac=2 / 661, beta=0.7)),
}

# the directions the levels of a case take: pull (True) and push (False)
DIRECTIONS = {"path-5000": {False}, "complete-40": {True},
              "clique-tail": {False, True}, "heavy": {False, True}}


@pytest.fixture(scope="module")
def lanes(heavy):
    """case -> (graph, immunized, parameters, seeds, the size a
    breadth-first search per epidemic finds from each seed's draws),
    computed once per case."""
    made = {}

    def get(case):
        if case not in made:
            graph_of, immunized_of, params = LANE_CASES[case]
            g = graph_of(heavy)
            immunized = np.asarray(immunized_of(g), dtype=np.int64)
            p = SirParams(**params)
            seeds = [derive_seed(11, "lanes", i) for i in range(130)]
            ref = [sir_bfs_reference(g.indptr, g.indices, immunized, p.init_frac,
                                     p.beta, p.infectious_steps, s)
                   for s in seeds]
            made[case] = g, immunized, p, seeds, ref
        return made[case]
    return get


@pytest.mark.parametrize("case", sorted(LANE_CASES))
def test_sir_sizes_match_the_per_run_bfs(lanes, case, monkeypatch):
    """Every lane of the bit-parallel traversal gives its own epidemic's
    size, the one a breadth-first search per epidemic finds from the same
    draws, for blocks of 64 lanes, partial blocks and a lone run.  The
    levels of a path only push, those of a complete graph at beta = 1
    only pull, and a clique with a long tail takes both."""
    g, immunized, p, seeds, ref = lanes(case)
    taken, rule = set(), epidemic._pulls

    def pulls(frontier_arcs, n_arc):
        pull = rule(frontier_arcs, n_arc)
        taken.add(pull)
        return pull

    monkeypatch.setattr(epidemic, "_pulls", pulls)
    for k in (1, 63, 64, 65, 130):
        assert sir_sizes(g, immunized, p, seeds[:k]).tolist() == ref[:k], k
    assert sir_run(g, immunized, p, seeds[5]) == ref[5]
    if case in DIRECTIONS:
        assert taken == DIRECTIONS[case]


@pytest.mark.parametrize("direction", ["push", "pull"])
@pytest.mark.parametrize("case", sorted(LANE_CASES))
def test_each_direction_alone_matches_the_per_run_bfs(lanes, case, direction,
                                                      monkeypatch):
    """Pushing every level, or pulling every level, gives every lane the
    size of its own breadth-first search: the two directions find the
    same next frontier."""
    g, immunized, p, seeds, ref = lanes(case)
    monkeypatch.setattr(epidemic, "_pulls",
                        lambda frontier_arcs, n_arc: direction == "pull")
    for k in (1, 65):
        assert sir_sizes(g, immunized, p, seeds[:k]).tolist() == ref[:k], k


@st.composite
def immunized_graphs(draw):
    """A small graph, an immunized set leaving at least one vertex, and
    an initial fraction seeding at most the rest."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=30))
    immunized = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
    n_seed = draw(st.integers(1, n - len(immunized)))
    return n, edges, immunized, n_seed / n


@settings(max_examples=200, deadline=None)
@given(case=immunized_graphs(),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=70),
       steps=st.integers(1, 4))
def test_sir_at_beta_one_reaches_the_seeds_components(case, seeds, steps):
    n, edges, immunized, init_frac = case
    g = Graph.from_edges(n, edges)
    immunized = np.array(immunized, dtype=np.int64)
    p = SirParams(init_frac=init_frac, beta=1.0, infectious_steps=steps)
    pool = np.setdiff1d(np.arange(n), immunized)
    sizes = sir_sizes(g, immunized, p, seeds)
    for seed, size in zip(seeds, sizes.tolist()):
        # the seed draw sir_sizes documents: uniform among the non-immunized
        drawn = np.random.default_rng(seed).choice(
            pool, size=max(1, round(init_frac * n)), replace=False)
        assert size == reachable_reference(n, edges, immunized.tolist(),
                                           drawn.tolist())


def test_sir_rejects_out_of_range_immunized_ids():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    params = SirParams(init_frac=1 / 3, beta=0.5)
    for bad in ([-1], [3], [0, 3]):
        with pytest.raises(ValueError, match=r"immunized ids must lie in \[0, n\)"):
            sir_run(g, np.array(bad), params, seed=0)
