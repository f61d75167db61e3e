"""Coalescing: pair probabilities, merge mechanics, full reconstruction."""

import io
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
    MergeEvent,
    ReconState,
    ReconstructionStalled,
    assign_attributes,
    assign_distinct,
    coalescing_precision,
    discretized_normal,
    elicit_friends,
    generate_lfr_like,
    log_provenance,
    reconstruct,
    sample_paths,
    true_network,
    uniform_distribution,
)
from netrecon.reconstruct import read_merges
from netrecon.sampling import SampleForest

from oracles import (check_coalescer_state, coalescing_reference,
                     final_groupings_reference, group_graph_reference, groups_of,
                     merge_pairs, replay_merges)

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


def test_pair_probability_respondent_friend():
    # respondent 0 (category 34) against the non-adjacent friend [34, 36]:
    # 1 / (n_t * Pr([34,36])) = 50 / (3 * 25), below the clamp at n_t = 25
    state = ReconState(hand_forest(), UNIFORM50, n_t=25)
    assert state.pair_probability(0, 3) == pytest.approx(50 / (3 * 25))
    state = ReconState(hand_forest(), UNIFORM50, n_t=10)
    # same pair at n_t = 10: the raw ratio 5/3 caps at one
    assert state.pair_probability(0, 3) == pytest.approx(1.0)
    # category outside the interval: no candidate
    assert state.pair_probability(2, 1) is None
    # adjacency: a respondent is never its own report
    assert state.pair_probability(0, 1) == 0.0


def test_pair_probability_friend_friend():
    state = ReconState(hand_forest(), UNIFORM50, n_t=10)
    # [33,34] x [34,36]: intersection {34}
    assert state.pair_probability(1, 3) == pytest.approx(50 / (6 * 10))
    # [34,36] x [36,40]: intersection {36}
    assert state.pair_probability(3, 5) == pytest.approx(10 / (3 * 10))
    # disjoint intervals: no candidate
    assert state.pair_probability(1, 5) is None
    # same reporting respondent
    assert state.pair_probability(1, 6) == 0.0


def test_pair_probability_respondent_pair_and_errors():
    state = ReconState(hand_forest(), UNIFORM50, n_t=10)
    assert state.pair_probability(0, 2) is None
    assert state.pair_probability(0, 4) is None
    with pytest.raises(ValueError, match="respondent groups never merge"):
        state.merge(0, 2)


def test_pair_probability_clamps_to_one():
    state = ReconState(hand_forest(), UNIFORM50, n_t=1)
    # the raw ratios 50/3 and 50/6 exceed 1
    assert state.pair_probability(0, 3) == pytest.approx(1.0)
    assert state.pair_probability(1, 3) == pytest.approx(1.0)


def test_zero_support_description():
    p = np.zeros(50)
    p[:10] = 0.1
    dist = CategoryDistribution(50, p)  # no mass above category 10
    state = ReconState(hand_forest(), dist, n_t=10)
    for i in range(7):  # every friend interval has Pr = 0
        assert not any(state.pair_probability(i, j) for j in range(7))
    check_coalescer_state(hand_forest(), dist, 10, state, [])


def test_state_rejects_mismatched_distribution():
    with pytest.raises(ValueError):
        ReconState(hand_forest(), uniform_distribution(20), n_t=10)


def test_state_rejects_a_friend_naming_anyone():
    # the ban updates after a merge rely on friends being leaves named
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
    assert not state.alive[3]
    # the respondent keeps exactly its own bans: the friends it named
    assert state.ban[0] == {1, 6}
    check_coalescer_state(f, UNIFORM50, 5, state, [(0, 3)])


def test_merge_friends_intersect_payloads():
    f = hand_forest()
    state = ReconState(f, UNIFORM50, n_t=5)
    survivor = state.merge(3, 1)
    assert survivor == 1  # smaller id wins for friend pairs
    assert (state.lo[1], state.hi[1]) == (34, 34)
    assert state.ban[1] == {0, 6}
    check_coalescer_state(f, UNIFORM50, 5, state, [(1, 3)])
    # a second merge with a now-disjoint interval must refuse
    with pytest.raises(ValueError):
        state.merge(1, 5)  # [34,34] x [36,40]
    check_coalescer_state(f, UNIFORM50, 5, state, [(1, 3)])
    # friend 3 absorbs friend 6 of respondent 0, and with it 6's bans:
    # respondent 0 and its other friend 1
    state = ReconState(f, UNIFORM50, n_t=5)
    assert state.merge(6, 3) == 3
    assert (state.lo[3], state.hi[3]) == (34, 35)
    assert state.ban[3] == {0, 1}
    check_coalescer_state(f, UNIFORM50, 5, state, [(3, 6)])


def test_merge_rejects_respondent_pair():
    state = ReconState(hand_forest(), UNIFORM50, n_t=5)
    with pytest.raises(ValueError):
        state.merge(0, 2)


def test_merge_refuses_pairs_the_rules_never_merge():
    """A respondent and a friend whose interval misses its category are
    no candidate pair; a respondent and its own friend, or two friends
    it named, are banned."""
    state = ReconState(hand_forest(), UNIFORM50, n_t=5)
    with pytest.raises(ValueError, match="disjoint descriptions"):
        state.merge(0, 5)  # category 34 against [36, 40]
    for a, b in ((0, 1), (1, 6)):
        with pytest.raises(ValueError, match="adjacent or share a respondent"):
            state.merge(a, b)
    assert state.n_alive == 7
    check_coalescer_state(hand_forest(), UNIFORM50, 5, state, [])


@pytest.fixture(scope="module")
def sampled():
    params = LfrParams(n=120, k_avg=6, k_max=18, mu=0.3, tau1=2.5, tau2=1.0,
                       c_min=10, c_max=30, seed=21)
    g, _ = generate_lfr_like(params)
    return g


@pytest.fixture
def checked_reconstruct(monkeypatch):
    """reconstruct, with the state checked by check_coalescer_state
    after every merge against the merges that merge returned for that
    state so far."""
    merge, inputs, merges = ReconState.merge, [], {}

    def checked_merge(state, a, b):
        survivor = merge(state, a, b)
        made = merges.setdefault(state, [])
        made.append((survivor, a + b - survivor))
        forest, dist = inputs[-1]
        check_coalescer_state(forest, dist, state.n_t, state, made)
        return survivor

    monkeypatch.setattr(ReconState, "merge", checked_merge)

    def run(forest, dist, *args, **kwargs):
        inputs.append((forest, dist))
        return reconstruct(forest, dist, *args, **kwargs)
    return run


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


def test_reconstruct_perfect_information(sampled, checked_reconstruct):
    """Distinct categories leave no ambiguity: every merge is correct and
    every reconstructed edge is a real one."""
    g = sampled
    attrs = assign_distinct(g.n, seed=4)
    dist = uniform_distribution(g.n)
    for seed in range(5):
        paths = sample_paths(g, 25, "rpm", seed=10 + seed)
        forest = elicit_friends(g, attrs, paths, 5, 1, seed=20 + seed)
        res = checked_reconstruct(forest.without_truth(), dist, forest.n_t,
                                  seed=30 + seed)
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


def test_merge_log_replay_matches_provenance(sampled, checked_reconstruct):
    """Replaying the merge log from singleton groups reproduces exactly
    the grouping the provenance array reports.  Each event records the
    probability of its pair in a state stepped through the log, which
    the oracle checks after every merge, and its own attempts, which
    the run's attempts sum."""
    g = sampled
    attrs = assign_attributes(g.n, uniform_distribution(5), seed=14)
    dist = uniform_distribution(5)
    paths = sample_paths(g, 30, "rpm", seed=15)
    forest = elicit_friends(g, attrs, paths, 4, 2, seed=16)
    n_t = forest.size - 25
    res = checked_reconstruct(forest, dist, n_t, seed=17)
    assert res.log  # crowded categories: merges certainly happened
    groups, _ = replay_merges(forest.kind, merge_pairs(res.log))
    assert frozenset(groups.values()) == groups_of(res.provenance)
    state = ReconState(forest, dist, n_t)
    check_coalescer_state(forest, dist, n_t, state, [])
    for ev in res.log:
        assert 0.0 < ev.probability <= 1.0
        assert ev.attempts >= 1
        assert state.pair_probability(ev.survivor, ev.absorbed) == ev.probability
        assert state.merge(ev.absorbed, ev.survivor) == ev.survivor
    assert res.attempts == sum(ev.attempts for ev in res.log)


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


def test_a_stalled_runs_log_replays_to_its_provenance(sampled, checked_reconstruct):
    """A run that stalls part way hands back a partial log that replays
    to the partial provenance, as a finished run's does."""
    dist = uniform_distribution(12)
    attrs = assign_attributes(sampled.n, dist, seed=0)
    paths = sample_paths(sampled, 15, "rpm", seed=100)
    forest = elicit_friends(sampled, attrs, paths, 5, 2, seed=200)
    with pytest.raises(ReconstructionStalled) as info:
        checked_reconstruct(forest, dist, forest.n_r, seed=300)
    partial = info.value.partial
    assert partial.log and partial.graph.n > forest.n_r
    groups, _ = replay_merges(forest.kind, merge_pairs(partial.log))
    assert frozenset(groups.values()) == groups_of(partial.provenance)
    assert (log_provenance(forest.size, partial.log) == partial.provenance).all()


def test_log_provenance_numbers_the_survivors_in_id_order():
    """Occurrence 4 absorbs 1, then 3 absorbs 4 and 0 absorbs 2: the
    vertices are the groups 0, 3 and 5, numbered in that order, whatever
    order the merges came in."""
    log = [MergeEvent(4, 1, 0.5, 1), MergeEvent(3, 4, 0.5, 1),
           MergeEvent(0, 2, 0.5, 1)]
    assert log_provenance(6, log).tolist() == [0, 1, 0, 1, 1, 2]
    assert log_provenance(6, log[2:] + log[:2]).tolist() == [0, 1, 0, 1, 1, 2]
    assert log_provenance(3, []).tolist() == [0, 1, 2]


def assert_graph_is_the_group_graph(forest, res):
    """res.graph, mapped through the provenance, is the group graph of
    the forest's tree edges under the replayed merge log."""
    groups = frozenset(replay_merges(forest.kind, merge_pairs(res.log))[0].values())
    assert groups == groups_of(res.provenance)
    group_of_vertex = {int(res.provenance[min(grp)]): grp for grp in groups}
    assert sorted(group_of_vertex) == list(range(res.graph.n))
    edges = group_graph_reference(groups, forest.parent.tolist())
    assert all(len(e) == 2 for e in edges), "a tree edge inside one group"
    assert {frozenset((group_of_vertex[int(u)], group_of_vertex[int(v)]))
            for u, v in res.graph.edges()} == edges


@pytest.mark.parametrize("g, c, f", [(4, 1, 3), (12, 2, 5), (60, 1, 4)])
def test_graph_is_the_group_graph_of_the_tree_edges(sampled, g, c, f):
    """Over many seeds, complete and stalled runs alike."""
    dist = uniform_distribution(g)
    outcomes = Counter()
    for seed in range(20):
        attrs = assign_attributes(sampled.n, dist, seed=seed)
        paths = sample_paths(sampled, 15, "rpm", seed=100 + seed)
        forest = elicit_friends(sampled, attrs, paths, f, c, seed=200 + seed)
        target = forest.n_t if seed % 2 else forest.n_r
        try:
            res = reconstruct(forest.without_truth(), dist, target,
                              seed=300 + seed)
            outcomes["complete"] += 1
        except ReconstructionStalled as exc:
            res = exc.partial
            outcomes["stalled"] += 1
        assert_graph_is_the_group_graph(forest, res)
    assert outcomes["complete"] and outcomes["stalled"], outcomes


def test_graph_keeps_an_isolated_vertex():
    """Respondent 2 names nobody and matches no description, so its
    vertex stays isolated; respondent 3 absorbs friend 1, the only
    allowed merge."""
    forest = SampleForest(tree=[0, 0, 1, 2], parent=[-1, 0, -1, -1],
                          kind=[RESPONDENT, FRIEND, RESPONDENT, RESPONDENT],
                          lo=[2, 1, 9, 2], hi=[2, 3, 9, 2], g=10)
    res = reconstruct(forest, uniform_distribution(10), 3, seed=0)
    assert groups_of(res.provenance) == {frozenset({0}), frozenset({1, 3}),
                                         frozenset({2})}
    assert (res.graph.n, res.graph.m) == (3, 1)
    assert res.graph.degrees[res.provenance[2]] == 0
    assert_graph_is_the_group_graph(forest, res)


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
        merged[tuple(sorted((ev.survivor, ev.absorbed)))] += 1
        attempts[min(res.attempts, 16)] += 1
    pos = sorted(k for k, p in prob.items() if p > 0)
    assert set(merged) <= set(pos)
    assert chisquare([merged[k] for k in pos],
                     [runs * prob[k] / total for k in pos]).pvalue > 1e-3
    pmf = [(1 - q) ** (k - 1) * q for k in range(1, 16)]
    expected = [runs * x for x in pmf + [1 - sum(pmf)]]
    assert chisquare([attempts[k] for k in range(1, 17)], expected).pvalue > 1e-3


def hub_forest():
    """A respondent naming five friends, two of them with the widest
    interval, and a second respondent on its own path naming two.  The
    wide friends' pairs have small probabilities and the narrow friends'
    large ones, so the pair probabilities spread widely.

      occ 0  respondent, category 4   occ 1-5  its friends [2,2], [5,5],
                                               [1,10], [1,10], [5,5]
      occ 6  respondent, category 5   occ 7, 8 its friends [6,6], [1,1]
    """
    return SampleForest(
        tree=[0] * 6 + [1] * 3,
        parent=[-1, 0, 0, 0, 0, 0, -1, 6, 6],
        kind=[RESPONDENT] + [FRIEND] * 5 + [RESPONDENT, FRIEND, FRIEND],
        lo=[4, 2, 5, 1, 1, 5, 5, 6, 1],
        hi=[4, 2, 5, 10, 10, 5, 5, 6, 1],
        g=10,
    )


def mixed_forest():
    """Three chained respondents whose friends share payload types, so
    that some type pairs hold banned and unbanned member pairs at once
    and a draw within a type pair may have to draw again.

      occ 0  respondent, category 4      occ 1, 2  its friends [3,6], [5,8]
      occ 3  respondent, category 6      occ 4, 5  its friends [3,6], [5,8]
      occ 6  respondent, category 5      occ 7, 8  its friends [3,6], [4,7]
    """
    return SampleForest(
        tree=[0] * 9,
        parent=[-1, 0, 0, 0, 3, 3, 3, 6, 6],
        kind=[RESPONDENT, FRIEND, FRIEND] * 3,
        lo=[4, 3, 5, 6, 3, 5, 5, 3, 4],
        hi=[4, 6, 8, 6, 6, 8, 5, 6, 7],
        g=10,
    )


def test_only_the_mixed_forest_starts_with_mixed_type_pairs():
    """A type pair is mixed when it holds banned and unbanned member
    pairs; only there may the draw within a type pair draw again."""
    for forest, mixed in ((law_forest(), 0), (hub_forest(), 0), (mixed_forest(), 6)):
        state = ReconState(forest, SKEWED10, 6)
        assert np.count_nonzero((state.banned > 0)
                                & (state.banned < state.member_pairs())) == mixed


@pytest.mark.parametrize("forest, n_t", [(law_forest(), 6), (law_forest(), 5),
                                         (hub_forest(), 6), (mixed_forest(), 6),
                                         (mixed_forest(), 5)],
                         ids=["law-6", "law-5", "hub-6", "mixed-6", "mixed-5"])
def test_final_grouping_follows_the_whole_run_law(forest, n_t):
    """The grouping a run ends in, stalls included, has the law of
    merging pairs with probability p / sum p step after step: chi-square
    over 4000 seeds against the exact law, pooling the groupings
    expected fewer than 5 times."""
    law = final_groupings_reference(
        (forest.kind == RESPONDENT).tolist(), forest.lo.tolist(),
        forest.hi.tolist(), forest.parent.tolist(), SKEWED10.p.tolist(), n_t)
    runs = 4000
    seen = Counter()
    for seed in range(runs):
        try:
            res = reconstruct(forest, SKEWED10, n_t, seed=seed)
        except ReconstructionStalled as exc:
            res = exc.partial
        seen[groups_of(res.provenance)] += 1
    assert set(seen) <= set(law)
    rare = [k for k, p in law.items() if runs * p < 5]
    bins = [[k] for k, p in law.items() if runs * p >= 5] + [rare] * bool(rare)
    observed = [sum(seen[k] for k in b) for b in bins]
    expected = [runs * sum(law[k] for k in b) for b in bins]
    assert chisquare(observed, expected).pvalue > 1e-3


def test_matrices_track_every_merge(sampled, checked_reconstruct):
    g = sampled
    dist = uniform_distribution(5)
    attrs = assign_attributes(g.n, dist, seed=22)
    paths = sample_paths(g, 12, "rpm", seed=23)
    forest = elicit_friends(g, attrs, paths, 3, 2, seed=24).without_truth()
    n_t = forest.n_r + 3
    res = checked_reconstruct(forest, dist, n_t, seed=25)
    assert len(res.log) == forest.size - n_t
    state = ReconState(forest, dist, n_t)
    check_coalescer_state(forest, dist, n_t, state, [])
    # one wrong banned count or type-pair probability is caught
    k = np.flatnonzero((state.member_pairs() > state.banned) & (state.prob > 0))[0]
    for table, wrong in ((state.banned, state.banned[k] + 1),
                         (state.prob, state.prob[k] / 2)):
        kept = table[k]
        table[k] = wrong
        with pytest.raises(AssertionError):
            check_coalescer_state(forest, dist, n_t, state, [])
        table[k] = kept
    # stepped by hand through pairs the oracle picks, checked after each merge
    rng = np.random.default_rng(26)
    merges = []
    while state.n_alive > n_t:
        groups, _ = replay_merges(forest.kind, merges)
        alive = sorted(groups)
        _, prob = reference_for(forest, [sorted(groups[g]) for g in alive], dist, n_t)
        positive = [k for k, p in prob.items() if p > 0]
        if not positive:
            break
        x, y = positive[rng.integers(len(positive))]
        survivor = state.merge(alive[x], alive[y])
        merges.append((survivor, alive[x] + alive[y] - survivor))
        check_coalescer_state(forest, dist, n_t, state, merges)
    assert state.n_alive == n_t


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


@pytest.mark.parametrize("g, c, f, method", [(50, 1, 5, "rpm"), (20, 3, 5, "rpm"),
                                          (None, 1, 25, "hpm")],
                         ids=["sweep-heavy", "coalesce-large", "test_09"])
def test_state_follows_the_rules_on_benchmark_shaped_forests(sampled, g, c, f,
                                                             method):
    """The type-pair table, type counts and banned counts match the
    coalescing rules on small forests shaped like the benchmark's
    (normal categories) and test_09's (g = n, uniform).  The types are
    numbered in order of first appearance, and the type pairs come in
    the order that adding those types one at a time lists them: by the
    later type, then the earlier.  The draw by type pair reads them in
    that order."""
    for seed in range(3):
        dist = uniform_distribution(sampled.n) if g is None else discretized_normal(g)
        attrs = assign_attributes(sampled.n, dist, seed=seed)
        paths = sample_paths(sampled, 30, method, seed=40 + seed)
        forest = elicit_friends(sampled, attrs, paths, f, c, seed=50 + seed)
        state = ReconState(forest, dist, forest.n_t)
        check_coalescer_state(forest, dist, forest.n_t, state, [])
        assert state.n_pairs > 0
        keys = list(dict.fromkeys(zip(forest.kind.tolist(), forest.lo.tolist(),
                                      forest.hi.tolist())))
        assert list(state.types) == keys
        want = [(u, t) for t, (kt, lt, ht) in enumerate(keys)
                for u, (ku, lu, hu) in enumerate(keys[:t + 1])
                if lu <= ht and hu >= lt and not kt == ku == RESPONDENT]
        assert list(zip(state.ta.tolist(), state.tb.tolist())) == want


def edge_forest():
    """Payload types at the edges of the type-pair table.

      occ 0  respondent, category 9   no friend's interval holds 9
      occ 1  friend, [1, 2]           overlaps no payload but its own; its
                                      type pairs with itself, one member alone
      occ 2  respondent, category 5   (next on the path of 0)
      occ 3  friend of 2, [4, 6]
      occ 4  friend of 0, [5, 5]
    """
    return SampleForest(tree=[0] * 5, parent=[-1, -1, 0, 2, 0],
                        kind=[RESPONDENT, FRIEND, RESPONDENT, FRIEND, FRIEND],
                        lo=[9, 1, 5, 4, 5], hi=[9, 2, 5, 6, 5], g=10)


def test_rows_at_the_edges_of_the_type_lists(sampled):
    """A respondent type no friend overlaps and a friend type that
    overlaps only itself form no candidate pair; a forest without
    friends has none at all.  The state matches the oracle."""
    dist = uniform_distribution(10)
    forest = edge_forest()
    n_t = forest.n_r + 1
    state = ReconState(forest, dist, n_t)
    check_coalescer_state(forest, dist, n_t, state, [])
    assert all(state.pair_probability(i, j) is None
               for i in (0, 1) for j in range(forest.size))
    assert state.pairs.tolist() == [[2, 3], [2, 4], [3, 4]]

    attrs = assign_attributes(sampled.n, dist, seed=0)
    paths = sample_paths(sampled, 12, "rpm", seed=1)
    alone = elicit_friends(sampled, attrs, paths, 0, 1, seed=2)
    state = ReconState(alone, dist, alone.size)
    assert state.n_pairs == 0 and not state.banned.any()
    check_coalescer_state(alone, dist, alone.size, state, [])
    assert reconstruct(alone, dist, alone.size, seed=3).log == []


def test_no_candidate_pair_stalls_at_once():
    """A respondent whose category no friend names, and its friend whose
    interval nobody else's overlaps: nothing can merge."""
    forest = SampleForest(tree=[0, 0], parent=[-1, 0], kind=[RESPONDENT, FRIEND],
                          lo=[9, 1], hi=[9, 2], g=10)
    assert ReconState(forest, SKEWED10, 1).n_pairs == 0
    with pytest.raises(ReconstructionStalled,
                       match=r"^no candidate pairs left at size 2 \(target 1\)$") as info:
        reconstruct(forest, SKEWED10, 1, seed=0)
    assert info.value.partial.attempts == 0


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


def test_a_run_has_no_attempt_budget():
    """The only mergeable pair, two friends of different respondents
    whose intervals share one category of tiny mass, has a probability
    near 1e-9.  The run still reaches its target, after far more
    attempts than the thousand per occurrence once allowed."""
    dist = CategoryDistribution(10, np.array([0.12] * 4 + [1e-9] + [0.12] * 4
                                             + [0.04 - 1e-9]))
    forest = SampleForest(tree=[0, 0, 1, 1], parent=[-1, 0, -1, 2],
                          kind=[RESPONDENT, FRIEND, RESPONDENT, FRIEND],
                          lo=[10, 1, 10, 5], hi=[10, 5, 10, 9], g=10)
    state = ReconState(forest, dist, 3)
    assert state.n_pairs == 1 and 0 < state.pair_probability(1, 3) < 1e-5
    res = reconstruct(forest, dist, 3, seed=0)
    assert merge_pairs(res.log) == [(1, 3)]
    assert res.attempts > 1000 * forest.size


def test_a_merge_of_probability_zero_is_refused():
    """Two friends of different respondents whose intervals share only a
    category of mass 0 are a candidate pair of probability 0.  No run
    draws it, so it stalls, and a merge log that merges the pair is
    refused, even at its replayed probability 0.0."""
    dist = CategoryDistribution(10, np.array([0.125] * 4 + [0.0] + [0.125] * 4 + [0.0]))
    forest = SampleForest(tree=[0, 0, 1, 1], parent=[-1, 0, -1, 2],
                          kind=[RESPONDENT, FRIEND, RESPONDENT, FRIEND],
                          lo=[10, 1, 10, 5], hi=[10, 5, 10, 9], g=10)
    assert ReconState(forest, dist, 3).pair_probability(1, 3) == 0.0
    with pytest.raises(ReconstructionStalled, match="^no candidate pair has "
                                                    "positive merge probability"):
        reconstruct(forest, dist, 3, seed=0)
    log = io.StringIO("event,survivor,absorbed,probability,attempts\n0,1,3,0.0,1\n")
    with pytest.raises(ValueError, match=r"^line 2: groups 1 and 3 merge with "
                                         r"probability 0$"):
        read_merges(log, forest, dist, 3)
