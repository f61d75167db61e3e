"""Path sampling, friend elicitation, and forest files."""

import io

import numpy as np
import pytest

from netrecon import (
    FRIEND,
    RESPONDENT,
    Graph,
    SampleForest,
    LfrParams,
    assign_attributes,
    assign_distinct,
    discretized_normal,
    elicit_friends,
    generate_lfr_like,
    read_forest,
    read_truth,
    sample_paths,
    true_network,
    uniform_distribution,
    write_forest,
    write_truth,
)


@pytest.fixture(scope="module")
def bench():
    params = LfrParams(n=300, k_avg=8, k_max=25, mu=0.3, tau1=2.5, tau2=1.0,
                       c_min=10, c_max=40, seed=5)
    g, _ = generate_lfr_like(params)
    attrs = assign_attributes(g.n, discretized_normal(50), seed=6)
    return g, attrs


@pytest.mark.parametrize("method", ["rpm", "hpm"])
def test_paths_are_vertex_disjoint_walks(bench, method):
    g, _ = bench
    for seed in range(10):
        paths = sample_paths(g, 60, method, seed=seed)
        flat = np.concatenate(paths)
        assert flat.size == 60                      # budget hit exactly
        assert np.unique(flat).size == 60           # no vertex reused
        for path in paths:
            for a, b in zip(path, path[1:]):
                assert b in g.neighbors(int(a))      # consecutive = adjacent


def test_paths_validate_arguments(bench):
    g, _ = bench
    with pytest.raises(ValueError):
        sample_paths(g, 0, "rpm", seed=0)
    with pytest.raises(ValueError):
        sample_paths(g, g.n + 1, "rpm", seed=0)
    with pytest.raises(ValueError):
        sample_paths(g, 5, "bfs", seed=0)


def test_hpm_seeds_high_degree(bench):
    g, _ = bench
    degrees = g.degrees
    for seed in range(10):
        paths = sample_paths(g, 40, "hpm", seed=seed)
        seeds = [int(p[0]) for p in paths]
        assert all(degrees[s] >= 5 for s in seeds)


def test_hpm_follows_highest_degree_neighbor():
    # vertices 0 and 2 are the only degree >= 5 seeds; from 0, neighbor 2
    # (degree 5) beats neighbor 1 (degree 2) and the degree-1 padding
    edges = [(0, 1), (0, 2), (0, 8), (0, 9), (0, 10), (1, 3),
             (2, 4), (2, 5), (2, 6), (2, 7)]
    g = Graph.from_edges(11, edges)
    hits = 0
    for seed in range(40):
        paths = sample_paths(g, 2, "hpm", seed=seed)
        if int(paths[0][0]) == 0:
            hits += 1
            assert int(paths[0][1]) == 2
    assert hits > 0  # the interesting seed case actually occurred


def test_hpm_falls_back_when_no_high_degree_vertex():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # max degree 2
    with pytest.warns(RuntimeWarning, match="fell back"):
        paths = sample_paths(g, 3, "hpm", seed=0)
    assert sum(len(p) for p in paths) == 3


def test_paths_deterministic(bench):
    g, _ = bench
    a = sample_paths(g, 50, "rpm", seed=4)
    b = sample_paths(g, 50, "rpm", seed=4)
    assert len(a) == len(b)
    assert all((x == y).all() for x, y in zip(a, b))


def test_elicited_forest_structure(bench):
    g, attrs = bench
    paths = sample_paths(g, 50, "rpm", seed=1)
    forest = elicit_friends(g, attrs, paths, 5, 1, seed=2)
    assert forest.n_r == 50
    assert forest.size == forest.n_r + forest.n_f
    assert forest.g == attrs.g
    for occ in range(forest.size):
        v = int(forest.truth[occ])
        par = int(forest.parent[occ])
        if forest.kind[occ] == RESPONDENT:
            # exact category, width-1 interval
            assert forest.lo[occ] == forest.hi[occ] == attrs.category(v)
            if par >= 0:  # non-seed respondents follow the path
                assert v in g.neighbors(int(forest.truth[par]))
        else:
            # friends: true neighbor of their respondent, interval covers them
            assert v in g.neighbors(int(forest.truth[par]))
            assert forest.kind[par] == RESPONDENT
            assert forest.lo[occ] <= attrs.category(v) <= forest.hi[occ]


def test_friend_counts_respect_cap(bench):
    g, attrs = bench
    paths = sample_paths(g, 50, "rpm", seed=3)
    for f in (0, 2, 5):
        forest = elicit_friends(g, attrs, paths, f, 1, seed=4)
        named = np.bincount(forest.parent[forest.kind == FRIEND],
                            minlength=forest.size)
        for occ in np.flatnonzero(forest.kind == RESPONDENT):
            v = int(forest.truth[occ])
            assert named[occ] == min(f, g.degrees[v])
        # a respondent never names the same neighbor twice (its path
        # successor is also a child occurrence, but not a naming, and may
        # coincide with a named friend)
        for occ in np.flatnonzero(forest.kind == RESPONDENT):
            kids = np.flatnonzero((forest.parent == occ)
                                  & (forest.kind == FRIEND))
            ids = forest.truth[kids]
            assert np.unique(ids).size == ids.size


def test_description_width_clamped(bench):
    g, attrs = bench
    paths = sample_paths(g, 30, "rpm", seed=5)
    for c in (1, 2, 4, 200):
        forest = elicit_friends(g, attrs, paths, 5, c, seed=6)
        friends = np.flatnonzero(forest.kind == FRIEND)
        widths = forest.hi[friends] - forest.lo[friends] + 1
        assert (widths == min(c, attrs.g)).all()
        assert forest.lo[friends].min() >= 1
        assert forest.hi[friends].max() <= attrs.g


def test_forest_structure_independent_of_attributes(bench):
    """Same seed, different attribute maps: identical topology, different
    payloads.  This is what makes paired comparisons meaningful."""
    g, attrs = bench
    other = assign_distinct(g.n, seed=99)
    paths = sample_paths(g, 50, "rpm", seed=7)
    fa = elicit_friends(g, attrs, paths, 5, 1, seed=8)
    fb = elicit_friends(g, other, paths, 5, 1, seed=8)
    assert (fa.tree == fb.tree).all()
    assert (fa.parent == fb.parent).all()
    assert (fa.kind == fb.kind).all()
    assert (fa.truth == fb.truth).all()   # same people named
    assert (fa.lo != fb.lo).any()         # but described differently


def test_without_truth(bench):
    g, attrs = bench
    paths = sample_paths(g, 20, "rpm", seed=9)
    forest = elicit_friends(g, attrs, paths, 3, 1, seed=10)
    bare = forest.without_truth()
    assert bare.truth is None
    assert (bare.kind == forest.kind).all()
    with pytest.raises(ValueError):
        bare.n_t


def test_true_network(bench):
    g, attrs = bench
    paths = sample_paths(g, 60, "rpm", seed=11)
    forest = elicit_friends(g, attrs, paths, 5, 1, seed=12)
    tnet, dense = true_network(forest)
    assert tnet.n == forest.n_t
    assert dense.shape == (forest.size,)
    # every true-network edge is an underlying edge
    for u, v in tnet.edges():
        assert tnet.labels[v] in g.neighbors(int(tnet.labels[u]))
    # occurrences of one person collapse to one vertex
    for occ in range(forest.size):
        assert tnet.labels[dense[occ]] == forest.truth[occ]


def test_forest_round_trip(bench, tmp_path):
    g, attrs = bench
    paths = sample_paths(g, 40, "hpm", seed=13)
    forest = elicit_friends(g, attrs, paths, 5, 2, seed=14)

    fpath = tmp_path / "forest.txt"
    write_forest(forest, fpath)
    back = read_forest(fpath)
    for name in ("tree", "parent", "kind", "lo", "hi"):
        assert (getattr(back, name) == getattr(forest, name)).all()
    assert back.g == forest.g
    assert back.truth is None  # truth travels in a separate file

    tpath = tmp_path / "truth.txt"
    write_truth(forest, tpath)
    truth = read_truth(tpath)
    assert (truth == forest.truth).all()
    assert (read_truth(tpath, n_occ=forest.size) == forest.truth).all()


def test_read_forest_rejects_garbage():
    with pytest.raises(ValueError):
        read_forest(io.StringIO("not a forest\n"))
    with pytest.raises(ValueError, match="no '# g N' header"):
        read_forest(io.StringIO("0 0 R -1 5\n"))


FOREST_HEAD = "# g 10\n0 0 R -1 5\n0 1 F 0 4..6\n"


@pytest.mark.parametrize("line, message", [
    pytest.param("0 2 R -3 5", "parent ids", id="parent-below-minus-one"),
    pytest.param("0 2 R 0 0", "payload intervals", id="category-zero"),
    pytest.param("0 2 F 0 7..5", "payload intervals", id="empty-interval"),
    pytest.param("0 2 F 0 0..3", "payload intervals", id="starts-below-one"),
    pytest.param("0 2 F 0 8..12", "payload intervals", id="ends-beyond-g"),
    pytest.param("0 2 R 0 five", r"^line 4: invalid literal for int\(\)",
                 id="non-integer-category"),
    pytest.param("0 2 F x 4..6", r"^line 4: invalid literal for int\(\)",
                 id="non-integer-parent"),
    pytest.param("0 2 F 0 4..", r"^line 4: invalid literal for int\(\)",
                 id="missing-hi"),
    pytest.param("# g ten", r"^line 4: invalid literal for int\(\)",
                 id="non-integer-g-header"),
])
def test_read_forest_rejects_malformed_occurrences(line, message):
    assert read_forest(io.StringIO(FOREST_HEAD)).size == 2
    with pytest.raises(ValueError, match=message):
        read_forest(io.StringIO(FOREST_HEAD + line + "\n"))


def test_forest_rejects_ragged_arrays_and_unknown_kinds():
    with pytest.raises(ValueError, match="one entry per occurrence"):
        SampleForest(tree=[0, 0], parent=[-1], kind=[RESPONDENT, FRIEND],
                     lo=[5, 4], hi=[5, 6], g=10)
    with pytest.raises(ValueError, match="one entry per occurrence"):
        SampleForest(tree=[0, 0], parent=[-1, 0], kind=[RESPONDENT, FRIEND],
                     lo=[5, 4], hi=[5, 6], g=10, truth=[0])
    with pytest.raises(ValueError, match="kinds"):
        SampleForest(tree=[0, 0], parent=[-1, 0], kind=[RESPONDENT, 2],
                     lo=[5, 4], hi=[5, 6], g=10)
