"""Acceptance suite: one test per release criterion.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Stochastic criteria pin a single master seed and derive all
per-step seeds from it, so every number asserted here is reproducible
bit for bit.  Tolerances are the module constants below.
"""

import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from netrecon import (
    FRIEND,
    Graph,
    LfrParams,
    MergeEvent,
    ReconState,
    ReconstructionStalled,
    RESPONDENT,
    SirParams,
    StrategySpec,
    assign_attributes,
    assign_distinct,
    coalescing_precision,
    detect,
    discretized_normal,
    elicit_friends,
    evaluate_strategy,
    generate_lfr_like,
    immunization_order,
    make_assortative,
    modularity,
    nmi,
    project,
    realized_mixing,
    reconstruct,
    sample_paths,
    spearman,
    true_network,
    uniform_distribution,
    vertex_properties,
)
from netrecon.config import parse_config
from netrecon.pipeline import run_pipeline
from netrecon.sampling import SampleForest
from netrecon.seeding import derive_seed

from oracles import (
    coalescing_reference,
    modularity_reference,
    nmi_reference,
    spearman_reference,
)

MASTER = 0
ALPHA = 0.05          # one-sided significance level for ordering claims
TREND_TOL = 0.02      # one adjacent inversion of at most this is tolerated
SIZE_REL_TOL = 0.15   # relative epidemic-size drift across sample sizes
MIXING_TOL = 0.05     # |realized - requested| mixing bound
ORACLE_TOL = 1e-12    # metric-vs-reference agreement
TREND_REPS = 20

# Narrow-degree benchmark: dense communities, tight degree band.
DENSE = dict(n=1460, k_avg=20, k_max=30, tau1=3, tau2=1, c_min=10, c_max=20)
# Heavy-tailed benchmark: hubs up to degree 100, larger communities.
HEAVY = dict(n=1460, k_avg=10, k_max=100, mu=0.2, tau1=2.5, tau2=1,
             c_min=10, c_max=50)


def reconstruct_allowing_stall(forest, dist, n_t, seed):
    try:
        return reconstruct(forest, dist, n_t, seed)
    except ReconstructionStalled as exc:
        return exc.partial


def assert_mostly_monotone(values, direction):
    """Check a trend, tolerating one adjacent inversion <= TREND_TOL."""
    sign = 1.0 if direction == "non-decreasing" else -1.0
    slips = [abs(b - a) for a, b in zip(values, values[1:])
             if sign * (b - a) < 0]
    assert len(slips) <= 1, f"{direction} violated twice: {values}"
    assert all(s <= TREND_TOL for s in slips), \
        f"inversion beyond {TREND_TOL}: {values}"


@pytest.fixture(scope="module")
def dense_nets():
    """Twenty low-mixing networks from the narrow-degree benchmark."""
    return [generate_lfr_like(LfrParams(mu=0.1,
                                        seed=derive_seed(MASTER, "gen", rep),
                                        **DENSE))[0]
            for rep in range(TREND_REPS)]


@pytest.fixture(scope="module")
def heavy_net():
    return generate_lfr_like(
        LfrParams(seed=derive_seed(MASTER, "gen"), **HEAVY))[0]


def test_01_pair_probability_worked_example():
    """Uniform 50-category anchor: P(merge) for friend intervals [33,34]
    and [34,36] is exactly 50/(6 n_t), by the coalescing rules' oracle
    on exact rationals and in the type-pair probability the sampler
    draws with."""
    exact = [Fraction(1, 50)] * 50
    # two one-vertex paths, each respondent naming one friend
    forest = SampleForest(tree=[0, 0, 1, 1], parent=[-1, 0, -1, 2],
                          kind=[RESPONDENT, FRIEND, RESPONDENT, FRIEND],
                          lo=[10, 33, 20, 34], hi=[10, 34, 20, 36], g=50)
    for n_t in (9, 20, 50):
        _, probs = coalescing_reference(
            forest.kind == RESPONDENT, forest.lo, forest.hi, forest.parent,
            [[0], [1], [2], [3]], exact, n_t)
        assert isinstance(probs[1, 3], Fraction)
        assert probs[1, 3] == Fraction(50, 6 * n_t)
        state = ReconState(forest, uniform_distribution(50), n_t)
        assert state.pairs.tolist() == [[1, 3]]
        assert state.pair_probability(1, 3) == pytest.approx(50 / (6 * n_t))


def test_02_perfect_information_reconstruction():
    """With every category distinct there is no ambiguity: coalescing to
    the true size makes no wrong merge and invents no edge."""
    t0 = time.monotonic()
    for s in range(20):
        net, _ = generate_lfr_like(
            LfrParams(n=200, k_avg=8, k_max=25, mu=0.3, tau1=2.5, tau2=1,
                      c_min=10, c_max=40, seed=derive_seed(MASTER, "gen", s)))
        attrs = assign_distinct(net.n, seed=derive_seed(MASTER, "attr", s))
        dist = uniform_distribution(net.n)
        paths = sample_paths(net, round(0.08 * net.n), "rpm",
                             derive_seed(MASTER, "paths", s))
        forest = elicit_friends(net, attrs, paths, 5, 1,
                                derive_seed(MASTER, "friends", s))
        res = reconstruct(forest.without_truth(), dist, forest.n_t,
                          derive_seed(MASTER, "recon", s))
        assert res.graph.n == forest.n_t
        assert coalescing_precision(res.log, forest.truth) == 1.0
        tnet, _ = true_network(forest)
        true_edges = {(int(tnet.labels[u]), int(tnet.labels[v]))
                      for u, v in tnet.edges()}
        person = {int(res.provenance[occ]): int(forest.truth[occ])
                  for occ in range(forest.size)}
        for u, v in res.graph.edges():
            a, b = person[int(u)], person[int(v)]
            assert (min(a, b), max(a, b)) in true_edges
    assert time.monotonic() - t0 < 10


def test_03_precision_rises_with_category_count(dense_nets):
    """More categories mean sharper descriptions: mean coalescing
    precision is non-decreasing in g for both sampling methods."""
    t0 = time.monotonic()
    gs = (182, 365, 730, 1460)
    acc = {(m, g): [] for m in ("rpm", "hpm") for g in gs}
    for rep, net in enumerate(dense_nets):
        n_r = round(0.08 * net.n)
        for method in ("rpm", "hpm"):
            paths = sample_paths(net, n_r, method,
                                 derive_seed(MASTER, "paths", method, rep))
            for g in gs:
                dist = discretized_normal(g)
                attrs = assign_attributes(
                    net.n, dist, derive_seed(MASTER, "attr", g, rep))
                forest = elicit_friends(
                    net, attrs, paths, 5, 1,
                    derive_seed(MASTER, "friends", method, rep))
                res = reconstruct_allowing_stall(
                    forest.without_truth(), dist, forest.n_t,
                    derive_seed(MASTER, "recon", method, g, rep))
                acc[(method, g)].append(
                    coalescing_precision(res.log, forest.truth))
    for method in ("rpm", "hpm"):
        means = [float(np.mean(acc[(method, g)])) for g in gs]
        assert_mostly_monotone(means, "non-decreasing")
    assert time.monotonic() - t0 < 300


def test_04_precision_falls_with_description_width(dense_nets):
    """Wider category intervals blur identity: mean precision is
    non-increasing in the interval width c at g = n."""
    cs = (1, 2, 4, 8)
    acc = {c: [] for c in cs}
    for rep, net in enumerate(dense_nets):
        dist = uniform_distribution(net.n)
        attrs = assign_attributes(net.n, dist,
                                  derive_seed(MASTER, "attr", rep))
        paths = sample_paths(net, round(0.08 * net.n), "rpm",
                             derive_seed(MASTER, "paths", rep))
        for c in cs:
            forest = elicit_friends(net, attrs, paths, 5, c,
                                    derive_seed(MASTER, "friends", rep))
            res = reconstruct_allowing_stall(
                forest.without_truth(), dist, forest.n_t,
                derive_seed(MASTER, "recon", c, rep))
            acc[c].append(coalescing_precision(res.log, forest.truth))
    means = [float(np.mean(acc[c])) for c in cs]
    assert_mostly_monotone(means, "non-increasing")


def test_05_precision_falls_with_mixing():
    """Stronger community mixing scatters the walks: mean precision is
    non-increasing in the mixing parameter."""
    mus = (0.1, 0.3, 0.5)
    acc = {mu: [] for mu in mus}
    dist = discretized_normal(365)
    for rep in range(TREND_REPS):
        for mu in mus:
            net, _ = generate_lfr_like(
                LfrParams(mu=mu, seed=derive_seed(MASTER, "gen", repr(mu), rep),
                          **DENSE))
            attrs = assign_attributes(
                net.n, dist, derive_seed(MASTER, "attr", repr(mu), rep))
            paths = sample_paths(net, round(0.08 * net.n), "rpm",
                                 derive_seed(MASTER, "paths", repr(mu), rep))
            forest = elicit_friends(net, attrs, paths, 5, 1,
                                    derive_seed(MASTER, "friends", repr(mu), rep))
            res = reconstruct_allowing_stall(
                forest.without_truth(), dist, forest.n_t,
                derive_seed(MASTER, "recon", repr(mu), rep))
            acc[mu].append(coalescing_precision(res.log, forest.truth))
    means = [float(np.mean(acc[mu])) for mu in mus]
    assert_mostly_monotone(means, "non-increasing")


def test_06_assortative_labels_aid_community_recovery(dense_nets):
    """Rewiring attributes to correlate with edges raises the agreement
    (NMI) between communities found on the reconstruction and on the
    sampled-truth network — paired one-sided test over 20 repetitions."""
    dist = discretized_normal(365)
    plain_scores, assort_scores = [], []
    for rep, net in enumerate(dense_nets):
        base = assign_attributes(net.n, dist, derive_seed(MASTER, "attr", rep))
        shuffled = make_assortative(net, base, 100 * net.n,
                                    derive_seed(MASTER, "assort", rep))
        paths = sample_paths(net, round(0.08 * net.n), "rpm",
                             derive_seed(MASTER, "paths", rep))
        for label, attrs, scores in (("plain", base, plain_scores),
                                     ("assort", shuffled, assort_scores)):
            forest = elicit_friends(net, attrs, paths, 5, 1,
                                    derive_seed(MASTER, "friends", rep))
            res = reconstruct_allowing_stall(
                forest.without_truth(), dist, forest.n_t,
                derive_seed(MASTER, "recon", label, rep))
            tnet, _ = true_network(forest)
            proj = project(res.provenance, forest)
            found = detect(res.graph, seed=derive_seed(MASTER, "c1", rep))
            truth = detect(tnet, seed=derive_seed(MASTER, "c2", rep))
            dense_proj = np.searchsorted(tnet.labels, proj)
            scores.append(nmi(found, truth[dense_proj]))
    diff = np.array(assort_scores) - np.array(plain_scores)
    p = stats.ttest_rel(assort_scores, plain_scores,
                        alternative="greater").pvalue
    assert diff.mean() > 0 and p < ALPHA, \
        f"mean diff {diff.mean():+.4f}, one-sided p {p:.4g}"


def test_07_metric_oracles_and_embeddedness_identity():
    """spearman, nmi, and modularity match literal-definition references
    on 1000 small random instances; the degree identity
    embeddedness * degree + k_out == degree holds exactly."""
    rng = np.random.default_rng(771)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 11))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if checked % 2:  # exercise ties on half the instances
            x, y = np.round(x * 2), np.round(y * 2)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            continue
        assert abs(spearman(x, y) - spearman_reference(x, y)) <= ORACLE_TOL
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        assert abs(nmi(a, b) - nmi_reference(a, b)) <= ORACLE_TOL
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.45]
        if not edges:
            continue
        graph = Graph.from_edges(n, np.array(edges))
        labels = rng.integers(0, 3, size=n)
        assert abs(modularity(graph, labels)
                   - modularity_reference(n, edges, labels)) <= ORACLE_TOL
        checked += 1
    for _ in range(100):
        n = int(rng.integers(2, 11))
        edges = np.array([(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < 0.4], dtype=np.int64).reshape(-1, 2)
        labels = rng.integers(0, 3, size=n)
        deg, k_out, emb = vertex_properties(Graph.from_edges(n, edges), labels)
        assert np.all(emb * deg + k_out == deg)
        assert np.all(emb[deg == 0] == 1.0)


def test_08_merge_log_precision_fixture():
    """A hand-built merge log with three same-person merges and one
    cross-person merge scores precision 3/4 exactly."""
    truth = np.array([2, 2, 23, 23, 31, 31, 27, 28])
    log = [MergeEvent(0, 1, 1.0, 1),
           MergeEvent(2, 3, 0.5, 1),
           MergeEvent(4, 5, 0.5, 1),
           MergeEvent(6, 7, 0.25, 1)]
    assert coalescing_precision(log, truth) == 0.75


def test_09_immunization_strategy_ordering(heavy_net):
    """Immunizing reconstructed hubs beats immunizing frequent names,
    which beats random vaccination — each gap one-sided significant."""
    t0 = time.monotonic()
    net = heavy_net
    dist = uniform_distribution(net.n)
    attrs = assign_attributes(net.n, dist, derive_seed(MASTER, "attr"))
    n_r = round(0.08 * net.n)
    ensemble, projections = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # low-degree seed fallbacks are fine
        for i in range(100):
            paths = sample_paths(net, n_r, "hpm",
                                 derive_seed(MASTER, "paths", i))
            # naming budget well above typical degree keeps per-person
            # appearance scores aligned with true degree
            forest = elicit_friends(net, attrs, paths, 25, 1,
                                    derive_seed(MASTER, "friends", i))
            res = reconstruct_allowing_stall(
                forest.without_truth(), dist, forest.n_t,
                derive_seed(MASTER, "recon", i))
            ensemble.append(res.graph)
            projections.append(project(res.provenance, forest))
    sir = SirParams()
    budget = round(0.05 * net.n)
    out = {}
    for kind in ("reconstructed-top", "reconstructed-frequency-random",
                 "random-whole"):
        seed = derive_seed(MASTER, "epi", kind)
        order = immunization_order(net, StrategySpec(kind, "degree"),
                                   derive_seed(seed, "immunize"),
                                   ensemble=ensemble, projections=projections)
        out[kind] = evaluate_strategy(net, order[:budget], sir, 200,
                                      seed)
    top = out["reconstructed-top"]
    freq = out["reconstructed-frequency-random"]
    rnd = out["random-whole"]
    assert top.mean < freq.mean < rnd.mean, \
        f"means: top {top.mean:.1f}, freq {freq.mean:.1f}, rnd {rnd.mean:.1f}"
    p1 = stats.ttest_ind_from_stats(top.mean, top.std, top.runs,
                                    freq.mean, freq.std, freq.runs,
                                    equal_var=False,
                                    alternative="less").pvalue
    p2 = stats.ttest_ind_from_stats(freq.mean, freq.std, freq.runs,
                                    rnd.mean, rnd.std, rnd.runs,
                                    equal_var=False,
                                    alternative="less").pvalue
    assert p1 < ALPHA and p2 < ALPHA, f"p1={p1:.3g} p2={p2:.3g}"
    assert time.monotonic() - t0 < 600


def test_10_sample_size_sensitivity(heavy_net):
    """Mean epidemic size under hub immunization from reconstructions is
    stable once the coalescing target reaches 5% of the population:
    the 5% and 12% targets agree within 15% relative."""
    net = heavy_net
    dist = discretized_normal(50)
    attrs = assign_attributes(net.n, dist, derive_seed(MASTER, "attr"))
    sir = SirParams()
    budget = round(0.01 * net.n)
    mean_size = {}
    for frac in (0.02, 0.05, 0.08, 0.12):
        n_t_req = round(frac * net.n)
        n_r = max(1, round(n_t_req / 2))
        ensemble, projections = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in range(30):
                paths = sample_paths(net, n_r, "hpm",
                                     derive_seed(MASTER, "paths", frac, i))
                forest = elicit_friends(
                    net, attrs, paths, 5, 1,
                    derive_seed(MASTER, "friends", frac, i))
                res = reconstruct_allowing_stall(
                    forest.without_truth(), dist,
                    min(n_t_req, forest.size),
                    derive_seed(MASTER, "recon", frac, i))
                ensemble.append(res.graph)
                projections.append(project(res.provenance, forest))
        seed = derive_seed(MASTER, "epi", frac)
        order = immunization_order(net, StrategySpec("reconstructed-top", "degree"),
                                   derive_seed(seed, "immunize"),
                                   ensemble=ensemble, projections=projections)
        r = evaluate_strategy(net, order[:budget], sir, 200, seed)
        mean_size[frac] = r.mean
    rel = abs(mean_size[0.05] - mean_size[0.12]) / mean_size[0.12]
    assert rel <= SIZE_REL_TOL, f"sizes {mean_size}, relative drift {rel:.3f}"


def test_11_generator_tracks_requested_mixing():
    """Realized mixing of generated networks stays within ±0.05 of the
    request for requests 0.1 and 0.3 on the narrow-degree benchmark."""
    worst = {}
    for mu in (0.1, 0.3):
        vals = [realized_mixing(*generate_lfr_like(
            LfrParams(mu=mu, seed=derive_seed(MASTER, "mix", repr(mu), s),
                      **DENSE)))
            for s in range(10)]
        worst[mu] = max(abs(v - mu) for v in vals)
    assert all(w <= MIXING_TOL for w in worst.values()), \
        f"worst |realized - requested| per request: {worst}"


PIPE_CFG = """
network = lfr
n = 120
k_avg = 6
k_max = 15
mu = 0.3
c_min = 8
c_max = 30
distribution = uniform
g = 20, 40
method = rpm, hpm
f = 5
c = 1
repetitions = 2
ensemble = 2
epidemic = true
budgets = 0.05
strategies = underlying-top:degree, random-whole
sir_runs = 5
seed = 7
"""


def test_12_pipeline_determinism(tmp_path):
    """Two sweep executions with the same config and master seed write
    byte-identical result tables."""
    first = run_pipeline(parse_config(PIPE_CFG + f"out = {tmp_path / 'a'}\n"))
    second = run_pipeline(parse_config(PIPE_CFG + f"out = {tmp_path / 'b'}\n"))
    assert set(first) == set(second)
    for name in first:
        a = open(first[name], "rb").read()
        b = open(second[name], "rb").read()
        assert a == b, f"{name} differs between executions"
