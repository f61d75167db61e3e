"""Coalescing: pair probabilities, merge mechanics, full reconstruction."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from netrecon import (
    FRIEND,
    RESPONDENT,
    CategoryDistribution,
    LfrParams,
    ReconState,
    ReconstructionStalled,
    assign_attributes,
    assign_distinct,
    coalescing_precision,
    elicit_friends,
    generate_lfr_like,
    reconstruct,
    sample_paths,
    true_network,
    uniform_distribution,
)
from netrecon.sampling import SampleForest

from oracles import coalescing_reference, groups_of, replay_merges

UNIFORM50 = uniform_distribution(50)


def hand_forest():
    """Two chained respondents, each naming friends with known intervals.

      occ 0  respondent, category 34
      occ 1  friend of 0, interval [33, 34]
      occ 2  respondent, category 10 (next on the path)
      occ 3  friend of 2, interval [34, 36]
      occ 4  respondent, category 20
      occ 5  friend of 4, interval [36, 40]
      occ 6  friend of 0, interval [34, 35]  (second report by occ 0)
    """
    return SampleForest(
        tree=[0] * 7,
        parent=[-1, 0, 0, 2, 2, 4, 0],
        kind=[RESPONDENT, FRIEND, RESPONDENT, FRIEND, RESPONDENT, FRIEND, FRIEND],
        lo=[34, 33, 10, 34, 20, 36, 34],
        hi=[34, 34, 10, 36, 20, 40, 35],
        g=50,
    )


def weight(state, a, b):
    """The weight of b in group a's row; None when b is no candidate."""
    ids, w = state.row(a)
    k = np.flatnonzero(ids == b)
    return float(w[k[0]]) if k.size else None


def test_pair_probability_respondent_friend():
    # respondent 0 (category 34) against the non-adjacent friend [34, 36]:
    # 1 / (n_t * Pr([34,36])) = 50 / (3 * 25), below the clamp at n_t = 25
    state = ReconState(hand_forest(), UNIFORM50, n_t=25)
    assert weight(state, 0, 3) == pytest.approx(50 / (3 * 25))
    state = ReconState(hand_forest(), UNIFORM50, n_t=10)
    # same pair at n_t = 10: the raw ratio 5/3 caps at one
    assert weight(state, 0, 3) == pytest.approx(1.0)
    # category outside the interval: no candidate
    assert weight(state, 2, 1) is None
    # adjacency: a respondent is never its own report
    assert weight(state, 0, 1) == 0.0


def test_pair_probability_friend_friend():
    state = ReconState(hand_forest(), UNIFORM50, n_t=10)
    # [33,34] x [34,36]: intersection {34}
    assert weight(state, 1, 3) == pytest.approx(50 / (6 * 10))
    # [34,36] x [36,40]: intersection {36}
    assert weight(state, 3, 5) == pytest.approx(10 / (3 * 10))
    # disjoint intervals: no candidate
    assert weight(state, 1, 5) is None
    # same reporting respondent
    assert weight(state, 1, 6) == 0.0


def test_pair_probability_respondent_pair_and_errors():
    state = ReconState(hand_forest(), UNIFORM50, n_t=10)
    assert weight(state, 0, 2) is None
    assert weight(state, 0, 4) is None
    with pytest.raises(ValueError, match="respondent groups never merge"):
        state.merge(0, 2)


def test_pair_probability_clamps_to_one():
    state = ReconState(hand_forest(), UNIFORM50, n_t=1)
    # the raw ratios 50/3 and 50/6 exceed 1
    assert weight(state, 0, 3) == pytest.approx(1.0)
    assert weight(state, 1, 3) == pytest.approx(1.0)


def test_zero_support_description():
    p = np.zeros(50)
    p[:10] = 0.1
    dist = CategoryDistribution(50, p)  # no mass above category 10
    state = ReconState(hand_forest(), dist, n_t=10)
    for i in range(7):
        assert not state.row(i)[1].any()  # every friend interval has Pr = 0


def test_state_rejects_mismatched_distribution():
    with pytest.raises(ValueError):
        ReconState(hand_forest(), uniform_distribution(20), n_t=10)


def test_state_rejects_a_friend_naming_anyone():
    # the row updates after a merge rely on friends being leaves named
    # by respondents
    forest = SampleForest(tree=[0, 0, 0], parent=[-1, 0, 1],
                          kind=[RESPONDENT, FRIEND, FRIEND],
                          lo=[5, 4, 5], hi=[5, 6, 7], g=50)
    with pytest.raises(ValueError, match="named by a respondent"):
        ReconState(forest, UNIFORM50, n_t=2)


def test_merge_respondent_absorbs_friend():
    f = hand_forest()
    state = ReconState(f, UNIFORM50, n_t=5)
    survivor = state.merge(3, 0)  # respondent must survive either way
    assert survivor == 0
    assert state.kind[0] == RESPONDENT
    assert state.lo[0] == state.hi[0] == 34  # exact category kept
    assert sorted(state.members[0]) == [0, 3]
    assert not state.alive[3]
    # friend 3's adjacency to respondent 2 transferred to the survivor
    assert 2 in state.adj[0] and 0 in state.adj[2]
    state.check_invariants(f)


def test_merge_friends_intersect_payloads():
    f = hand_forest()
    state = ReconState(f, UNIFORM50, n_t=5)
    survivor = state.merge(3, 1)
    assert survivor == 1  # smaller id wins for friend pairs
    assert (state.lo[1], state.hi[1]) == (34, 34)
    assert sorted(state.members[1]) == [1, 3]
    state.check_invariants(f)
    # a second merge with a now-disjoint interval must refuse
    with pytest.raises(ValueError):
        state.merge(1, 5)  # [34,34] x [36,40]


def test_merge_rejects_respondent_pair():
    state = ReconState(hand_forest(), UNIFORM50, n_t=5)
    with pytest.raises(ValueError):
        state.merge(0, 2)


@pytest.fixture(scope="module")
def sampled():
    params = LfrParams(n=120, k_avg=6, k_max=18, mu=0.3, tau1=2.5, tau2=1.0,
                       c_min=10, c_max=30, seed=21)
    g, _ = generate_lfr_like(params)
    return g


def test_reconstruct_validates_target(sampled):
    g = sampled
    attrs = assign_attributes(g.n, uniform_distribution(10), seed=1)
    paths = sample_paths(g, 20, "rpm", seed=2)
    forest = elicit_friends(g, attrs, paths, 3, 1, seed=3)
    dist = uniform_distribution(10)
    with pytest.raises(ValueError):
        reconstruct(forest, dist, 0, seed=0)
    with pytest.raises(ValueError):
        reconstruct(forest, dist, forest.size + 1, seed=0)
    with pytest.raises(ValueError):
        reconstruct(forest, dist, forest.n_r - 1, seed=0)  # below respondent count


def test_reconstruct_perfect_information(sampled):
    """Distinct categories leave no ambiguity: every merge is correct and
    every reconstructed edge is a real one."""
    g = sampled
    attrs = assign_distinct(g.n, seed=4)
    dist = uniform_distribution(g.n)
    for seed in range(5):
        paths = sample_paths(g, 25, "rpm", seed=10 + seed)
        forest = elicit_friends(g, attrs, paths, 5, 1, seed=20 + seed)
        res = reconstruct(forest.without_truth(), dist, forest.n_t,
                          seed=30 + seed, validate=True)
        assert res.graph.n == forest.n_t
        assert coalescing_precision(res.log, forest.truth) == 1.0
        tnet, dense = true_network(forest)
        true_edges = {(int(tnet.labels[u]), int(tnet.labels[v]))
                      for u, v in tnet.edges()}
        person = {}
        for occ in range(forest.size):
            person[int(res.provenance[occ])] = int(forest.truth[occ])
        for u, v in res.graph.edges():
            a, b = person[int(u)], person[int(v)]
            assert (min(a, b), max(a, b)) in true_edges


def test_reconstruct_is_deterministic(sampled):
    g = sampled
    attrs = assign_attributes(g.n, uniform_distribution(8), seed=5)
    dist = uniform_distribution(8)
    paths = sample_paths(g, 30, "rpm", seed=6)
    forest = elicit_friends(g, attrs, paths, 4, 1, seed=7)
    target = forest.size - 15
    a = reconstruct(forest, dist, target, seed=8)
    b = reconstruct(forest, dist, target, seed=8)
    assert (a.provenance == b.provenance).all()
    assert (a.graph.edges() == b.graph.edges()).all()
    assert a.log == b.log
    c = reconstruct(forest, dist, target, seed=9)
    assert (c.provenance != a.provenance).any()


def test_reconstruct_ignores_truth(sampled):
    g = sampled
    attrs = assign_attributes(g.n, uniform_distribution(8), seed=10)
    dist = uniform_distribution(8)
    paths = sample_paths(g, 30, "rpm", seed=11)
    forest = elicit_friends(g, attrs, paths, 4, 1, seed=12)
    target = forest.size - 15
    with_truth = reconstruct(forest, dist, target, seed=13)
    without = reconstruct(forest.without_truth(), dist, target, seed=13)
    assert (with_truth.provenance == without.provenance).all()
    assert (with_truth.graph.edges() == without.graph.edges()).all()


def test_merge_log_replay_matches_provenance(sampled):
    """Replaying the merge log from singleton groups reproduces exactly
    the grouping the provenance array reports."""
    g = sampled
    attrs = assign_attributes(g.n, uniform_distribution(5), seed=14)
    dist = uniform_distribution(5)
    paths = sample_paths(g, 30, "rpm", seed=15)
    forest = elicit_friends(g, attrs, paths, 4, 2, seed=16)
    res = reconstruct(forest, dist, forest.size - 25, seed=17, validate=True)
    assert res.log  # crowded categories: merges certainly happened
    assert replay_merges(forest.size, res.log) == groups_of(res.provenance)
    for ev in res.log:
        assert 0.0 < ev.probability <= 1.0
    assert res.attempts >= len(res.log)


def test_reconstruct_stalls_when_target_unreachable(sampled):
    """With every category distinct, occurrences of different people can
    never merge, so a target below the true network size stalls."""
    g = sampled
    attrs = assign_distinct(g.n, seed=18)
    dist = uniform_distribution(g.n)
    paths = sample_paths(g, 20, "rpm", seed=19)
    forest = elicit_friends(g, attrs, paths, 5, 1, seed=20)
    target = forest.n_r  # well below n_t: unreachable without bad merges
    assert target < forest.n_t
    with pytest.raises(ReconstructionStalled) as info:
        reconstruct(forest.without_truth(), dist, target, seed=21)
    partial = info.value.partial
    assert partial.graph.n > target
    # whatever was coalesced is still perfectly clean
    if partial.log:
        assert coalescing_precision(partial.log, forest.truth) == 1.0


def law_forest():
    """Three chained respondents naming two friends each, with intervals
    wide enough that most pairs are candidates with p below one.

      occ 0  respondent, category 4      occ 1, 2  its friends [3,6], [5,8]
      occ 3  respondent, category 6      occ 4, 5  its friends [2,5], [4,7]
      occ 6  respondent, category 5      occ 7, 8  its friends [1,4], [6,9]
    """
    return SampleForest(
        tree=[0] * 9,
        parent=[-1, 0, 0, 0, 3, 3, 3, 6, 6],
        kind=[RESPONDENT, FRIEND, FRIEND] * 3,
        lo=[4, 3, 5, 6, 2, 4, 5, 1, 6],
        hi=[4, 6, 8, 6, 5, 7, 5, 4, 9],
        g=10,
    )


SKEWED10 = CategoryDistribution(10, np.array(
    [0.05, 0.08, 0.1, 0.12, 0.15, 0.15, 0.12, 0.1, 0.08, 0.05]))


def reference_for(forest, groups, dist, n_t):
    return coalescing_reference((forest.kind == RESPONDENT).tolist(),
                                forest.lo.tolist(), forest.hi.tolist(),
                                forest.parent.tolist(), groups,
                                dist.p.tolist(), n_t)


def test_first_merge_and_attempts_follow_the_rejection_law():
    """The first merge falls on a pair with probability p / sum p, and
    takes Geometric(sum p / |candidates|) draws, as drawing candidates
    uniformly and accepting with probability p would."""
    forest = law_forest()
    n_t = forest.size - 1  # exactly one merge
    cand, prob = reference_for(forest, [[i] for i in range(forest.size)],
                               SKEWED10, n_t)
    total = sum(prob.values())
    q = total / sum(cand.values())
    assert 0.05 < q < 0.5 and max(prob.values()) < 1
    runs = 2000
    merged, attempts = Counter(), Counter()
    for seed in range(runs):
        res = reconstruct(forest, SKEWED10, n_t, seed=seed)
        (ev,) = res.log
        merged[ev.members_a + ev.members_b] += 1
        attempts[min(res.attempts, 16)] += 1
    pos = sorted(k for k, p in prob.items() if p > 0)
    assert set(merged) <= set(pos)
    assert chisquare([merged[k] for k in pos],
                     [runs * prob[k] / total for k in pos]).pvalue > 1e-3
    pmf = [(1 - q) ** (k - 1) * q for k in range(1, 16)]
    expected = [runs * x for x in pmf + [1 - sum(pmf)]]
    assert chisquare([attempts[k] for k in range(1, 17)], expected).pvalue > 1e-3


def test_matrices_track_every_merge(sampled):
    g = sampled
    dist = uniform_distribution(5)
    attrs = assign_attributes(g.n, dist, seed=22)
    paths = sample_paths(g, 12, "rpm", seed=23)
    forest = elicit_friends(g, attrs, paths, 3, 2, seed=24).without_truth()
    n_t = forest.n_r + 3
    # validate=True recomputes every row from a scan of all groups after
    # every merge
    res = reconstruct(forest, dist, n_t, seed=25, validate=True)
    assert len(res.log) == forest.size - n_t
    # stepped by hand, each group's row against the oracle
    state = ReconState(forest, dist, n_t)
    rng = np.random.default_rng(26)
    while True:
        alive = np.flatnonzero(state.alive)
        cand, prob = reference_for(forest, [state.members[i] for i in alive],
                                   dist, n_t)
        for x, a in enumerate(alive):
            keys = {y: (min(x, y), max(x, y)) for y in range(alive.size) if y != x}
            ys = [y for y, key in keys.items() if cand[key]]
            ids, w = state.row(a)
            assert ids.tolist() == alive[ys].tolist()
            assert w.tolist() == pytest.approx([prob[keys[y]] for y in ys], rel=1e-12)
        positive = [k for k, p in prob.items() if p > 0]
        if state.n_alive == n_t or not positive:
            break
        x, y = positive[rng.integers(len(positive))]
        state.merge(int(alive[x]), int(alive[y]))
        state.check_invariants(forest)
    assert state.n_alive == n_t
    for table in (state.w_sum, state.w_pos):
        kept = table[alive[0]]
        table[alive[0]] += 1
        with pytest.raises(AssertionError):
            state.check_invariants(forest)
        table[alive[0]] = kept
    state.check_invariants(forest)


def test_state_memory_stays_below_a_dense_matrix():
    """Building the state of a forest of n occurrences with few
    candidate pairs takes less memory than one n x n byte matrix."""
    n_r, f = 600, 4
    n = n_r * (f + 1)
    respondent = np.arange(n_r) * (f + 1)  # each followed by its f friends
    parent = np.repeat(respondent, f + 1)
    parent[respondent] = -1
    kind = np.full(n, FRIEND)
    kind[respondent] = RESPONDENT
    category = np.random.default_rng(0).integers(1, n + 1, size=n)
    forest = SampleForest(tree=np.repeat(np.arange(n_r), f + 1), parent=parent,
                          kind=kind, lo=category, hi=category, g=n)
    dist = uniform_distribution(n)
    tracemalloc.start()
    try:
        state = ReconState(forest, dist, n_t=n_r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < state.n_pairs < n
    assert peak < n * n


def test_dead_end_stalls_at_once():
    """One respondent and two friends it named: every candidate pair is
    forbidden (adjacent, or two friends of one respondent), so the run
    stops before a single draw."""
    forest = SampleForest(tree=[0, 0, 0], parent=[-1, 0, 0],
                          kind=[RESPONDENT, FRIEND, FRIEND],
                          lo=[5, 4, 5], hi=[5, 6, 7], g=10)
    assert ReconState(forest, SKEWED10, 2).n_pairs == 3
    with pytest.raises(ReconstructionStalled,
                       match=r"^no candidate pair has positive merge "
                             r"probability at size 3 \(target 2\)$") as info:
        reconstruct(forest, SKEWED10, 2, seed=0)
    assert info.value.partial.attempts == 0
    assert info.value.partial.graph.n == 3


def test_budget_stall_reports_the_budget():
    forest = law_forest()
    outcomes = set()
    for seed in range(40):
        try:
            res = reconstruct(forest, SKEWED10, forest.size - 1, seed=seed,
                              max_attempts=1)
            outcomes.add("merged")
        except ReconstructionStalled as exc:
            assert str(exc).startswith("attempt budget 1 exhausted at size 9")
            res = exc.partial
            assert not res.log
            outcomes.add("stalled")
        assert res.attempts == 1
    assert outcomes == {"merged", "stalled"}
