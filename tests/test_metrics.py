"""Evaluation metrics against independent reference implementations."""

import numpy as np
import pytest
from scipy import stats

from netrecon import (
    FRIEND,
    RESPONDENT,
    Graph,
    aggregate_by_projection,
    average_ranks,
    coalescing_precision,
    community_precision,
    nmi,
    project,
    spearman,
    vertex_properties,
)
from netrecon.reconstruct import MergeEvent
from netrecon.sampling import SampleForest

from oracles import (
    community_precision_reference,
    merge_precision_reference,
    nmi_reference,
    project_reference,
    ranks_reference,
    spearman_reference,
    vertex_properties_reference,
)


def test_coalescing_precision_fixture():
    # merging occurrence pairs of persons (5,5), (7,7), (5,9): 2 of 3 right
    truth = np.array([5, 5, 7, 7, 9, 6, 8])
    log = [
        MergeEvent(0, 1, 1.0, 1),
        MergeEvent(2, 3, 0.5, 1),
        MergeEvent(0, 4, 0.25, 1),
    ]
    assert coalescing_precision(log, truth) == pytest.approx(2 / 3)
    # then persons (6,8), and the two mixed groups {5,9} and {6,8}: both
    # wrong, though neither group holds one person for the two to differ by
    log += [MergeEvent(5, 6, 0.5, 1), MergeEvent(0, 5, 0.5, 1)]
    assert coalescing_precision(log, truth) == pytest.approx(2 / 5)
    assert coalescing_precision(log, truth) == pytest.approx(
        merge_precision_reference([FRIEND] * truth.size, log, truth))


def test_coalescing_precision_random_logs():
    """Random logs that keep the coalescer's rules: a group holding a
    respondent survives, else the smaller id, and two groups holding
    respondents never merge."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(4, 20))
        truth = rng.integers(0, 6, size=n)
        kind = np.where(rng.random(n) < 0.3, RESPONDENT, FRIEND)
        resp = {i: kind[i] == RESPONDENT for i in range(n)}  # by alive group
        log = []
        while len(resp) > 2 and rng.random() < 0.8:
            i, j = (int(x) for x in rng.choice(sorted(resp), size=2, replace=False))
            if resp[i] and resp[j]:
                continue
            s, o = (i, j) if resp[i] or (not resp[j] and i < j) else (j, i)
            log.append(MergeEvent(s, o, 0.5, 1))
            held = resp.pop(o)
            resp[s] = resp[s] or held
        if not log:
            continue
        assert coalescing_precision(log, truth) == pytest.approx(
            merge_precision_reference(kind, log, truth))


def test_coalescing_precision_empty_log():
    with pytest.raises(ValueError):
        coalescing_precision([], np.array([0, 1]))


def make_forest(kind, truth):
    n = len(kind)
    return SampleForest(tree=[0] * n, parent=[-1] * n, kind=kind,
                        lo=[1] * n, hi=[1] * n, g=5, truth=truth)


def test_project_respondent_wins():
    forest = make_forest([RESPONDENT, FRIEND, FRIEND], truth=[3, 8, 8])
    prov = np.array([0, 0, 1])
    out = project(prov, forest)
    assert out[0] == 3  # respondent identity overrides the friends
    assert out[1] == 8


def test_project_majority_and_ties():
    forest = make_forest([FRIEND] * 5, truth=[4, 4, 9, 9, 2])
    assert project(np.array([0, 0, 0, 1, 1]), forest)[0] == 4  # majority
    # tie between persons 2 and 9 inside group 1 -> smallest id
    out = project(np.array([0, 0, 0, 1, 1]), forest)
    assert out[1] == 2


def test_project_validation():
    forest = make_forest([FRIEND, FRIEND], truth=[1, 2])
    with pytest.raises(ValueError):
        project(np.array([0]), forest)  # wrong shape
    with pytest.raises(ValueError):
        project(np.array([0, 2]), forest)  # vertex 1 has no occurrences
    with pytest.raises(ValueError):
        project(np.array([0, 1]), forest.without_truth())


def test_project_matches_the_reference():
    """Random forests and provenances, with several respondents in some
    groups, many-way ties and singleton vertices."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        kind = np.where(rng.random(n) < rng.random(), RESPONDENT, FRIEND)
        forest = make_forest(kind, truth=rng.integers(0, int(rng.integers(1, 12)), n))
        k = int(rng.integers(1, n + 1))
        prov = rng.permutation(np.concatenate([np.arange(k),
                                               rng.integers(0, k, n - k)]))
        out = project(prov, forest)
        assert out.dtype == np.int64
        assert np.array_equal(out, project_reference(prov, forest))


def test_community_precision_hand_case():
    # reconstructed vertices 0..3; 0,1,2 share a community, 3 alone
    labels = np.array([0, 0, 0, 1])
    projection = np.array([10, 11, 10, 12])
    reference = np.zeros(13, dtype=int)
    reference[11] = 1  # person 11 in another true community than 10
    # eligible pairs in community 0: (0,1), (1,2) — (0,2) projects equal
    # correct ones: none involving 11 -> 0 of 2
    assert community_precision(labels, reference, projection) == 0.0
    reference[11] = 0
    assert community_precision(labels, reference, projection) == 1.0


def test_community_precision_random_instances():
    rng = np.random.default_rng(1)
    done = 0
    while done < 60:
        n = int(rng.integers(4, 15))
        labels = rng.integers(0, 3, size=n)
        projection = rng.integers(0, 8, size=n)
        reference = rng.integers(0, 3, size=8)
        try:
            expected = community_precision_reference(labels, reference, projection)
        except AssertionError:
            continue  # no eligible pair in this draw
        assert community_precision(labels, reference, projection) == expected
        done += 1


def test_community_precision_no_eligible_pairs():
    labels = np.array([0, 0])
    projection = np.array([4, 4])  # both stand for the same person
    with pytest.raises(ValueError):
        community_precision(labels, np.zeros(5, dtype=int), projection)


def test_nmi_identical_and_independent():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert nmi(labels, labels) == pytest.approx(1.0)
    assert nmi(labels, labels[::-1].copy()) == pytest.approx(
        nmi_reference(labels, labels[::-1]))
    # relabeling does not matter
    assert nmi(labels, (labels + 7) % 3) == pytest.approx(1.0)


def test_nmi_zero_entropy_conventions():
    flat = np.zeros(6, dtype=int)
    split = np.array([0, 0, 0, 1, 1, 1])
    assert nmi(flat, flat) == 1.0
    assert nmi(flat, split) == 0.0
    assert nmi(split, flat) == 0.0


def test_nmi_matches_reference_on_random_labelings():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        a = rng.integers(0, int(rng.integers(1, 6)), size=n)
        b = rng.integers(0, int(rng.integers(1, 6)), size=n)
        assert nmi(a, b) == pytest.approx(nmi_reference(a, b), abs=1e-12)


def test_nmi_validation():
    with pytest.raises(ValueError):
        nmi(np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError):
        nmi(np.array([]), np.array([]))


def test_average_ranks():
    values = np.array([10.0, 20.0, 20.0, 5.0])
    assert list(average_ranks(values)) == [2.0, 3.5, 3.5, 1.0]
    # -0.0 ties with 0.0; each NaN ranks alone, last, in input order
    nan = float("nan")
    assert average_ranks(np.array([0.0, nan, -0.0, 2.0, nan])).tolist() == \
        [1.5, 4.0, 1.5, 3.0, 5.0]
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.integers(0, 6, size=int(rng.integers(2, 25))).astype(float)
        assert average_ranks(v).tolist() == ranks_reference(v)
        assert np.allclose(average_ranks(v), stats.rankdata(v))


def test_spearman_matches_references():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        x = rng.integers(0, 8, size=n).astype(float)  # heavy ties
        y = x + rng.normal(0, 2, size=n)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            continue
        ours = spearman(x, y)
        assert ours == pytest.approx(spearman_reference(x, y), abs=1e-12)
        assert ours == pytest.approx(stats.spearmanr(x, y)[0], abs=1e-12)


def test_spearman_extremes_and_validation():
    x = np.arange(10.0)
    assert spearman(x, x * 3 + 1) == pytest.approx(1.0)
    assert spearman(x, -x) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        spearman(x, x[:5])
    with pytest.raises(ValueError):
        spearman(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        spearman(np.ones(5), x[:5])  # zero rank variance


def test_vertex_properties_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(3, 15))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        part = rng.integers(0, 3, size=n)
        g = Graph.from_edges(n, edges)
        deg, k_out, emb = vertex_properties(g, part)
        rdeg, rk_out, remb = vertex_properties_reference(n, edges, part)
        assert (deg == rdeg).all()
        assert (k_out == rk_out).all()
        assert np.allclose(emb, remb)
        # embeddedness identity: deg = k_in + k_out with k_in = emb * deg
        assert np.allclose(emb * deg + k_out, deg)


def test_vertex_properties_isolated_vertex():
    g = Graph.from_edges(3, [(0, 1)])
    deg, k_out, emb = vertex_properties(g, np.array([0, 1, 0]))
    assert deg[2] == 0 and k_out[2] == 0 and emb[2] == 1.0
    assert k_out[0] == 1 and emb[0] == 0.0


def test_aggregate_by_projection():
    values = np.array([1.0, 5.0, 3.0, 7.0])
    projection = np.array([9, 2, 9, 2])
    ids, means = aggregate_by_projection(values, projection)
    assert list(ids) == [2, 9]
    assert list(means) == [6.0, 2.0]
    with pytest.raises(ValueError):
        aggregate_by_projection(values, projection[:3])
