"""Independent reference implementations used to check the library.

Everything in this module is written directly from the defining formula
with plain Python loops — no shared code with the package under test —
so agreement between the two is meaningful evidence of correctness.
These are O(n^2) or worse and meant only for small instances.

The random-process references draw from the same NumPy generator as the
package, in the plainest form of the process.  They come in two kinds.
Stream oracles (:func:`assign_communities_reference`,
:func:`make_assortative_reference`,
:func:`make_assortative_scalar_reference`,
:func:`match_stubs_reference`,
:func:`greedy_modularity_reference`,
:func:`sir_bfs_reference`)
draw the very same random numbers in the same order as the package, so a
faster rewrite must give the very same result and leave the generator in
the very same state.  Law oracles (:func:`randomize_edges_reference`,
:func:`sir_reference`) run the same random process from other draws, so
a rewrite is checked against them by statistical tests over many seeds.
:func:`select_immunized_reference` is the package's former per-budget
immunization choice, against which its one ranking per strategy is
checked prefix by prefix.  :func:`project_reference` and
:func:`havel_hakimi_reference` are the package's former per-vertex
projection loop and Havel-Hakimi loop, which their rewrites must match
exactly.  :func:`check_coalescer_state` checks the coalescer's
state after any merge against :func:`coalescing_reference`.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from itertools import combinations


def nmi_reference(labels_a, labels_b) -> float:
    """Normalized mutual information, straight from the definition.

    I(A;B) / ((H(A)+H(B))/2) with natural logs.  Zero entropy on both
    sides means the partitions are identical up to relabeling -> 1.0;
    zero entropy on exactly one side -> 0.0.
    """
    a = list(labels_a)
    b = list(labels_b)
    assert len(a) == len(b) and a
    n = len(a)
    count_a = Counter(a)
    count_b = Counter(b)
    count_ab = Counter(zip(a, b))

    def entropy(counts):
        h = 0.0
        for c in counts.values():
            p = c / n
            h -= p * math.log(p)
        return h

    ha = entropy(count_a)
    hb = entropy(count_b)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    info = 0.0
    for (ca, cb), c in count_ab.items():
        p_ab = c / n
        p_a = count_a[ca] / n
        p_b = count_b[cb] / n
        info += p_ab * math.log(p_ab / (p_a * p_b))
    return info / ((ha + hb) / 2.0)


def ranks_reference(values):
    """1-based ranks with ties sharing the average rank."""
    v = list(values)
    by_value = defaultdict(list)
    for i, x in enumerate(sorted(range(len(v)), key=lambda i: v[i])):
        by_value[v[x]].append(i + 1)
    return [sum(by_value[x]) / len(by_value[x]) for x in v]


def spearman_reference(x, y) -> float:
    """Pearson correlation of the average-rank vectors."""
    rx = ranks_reference(x)
    ry = ranks_reference(y)
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def modularity_reference(n, edges, partition) -> float:
    """Q = (1/2m) * sum_ij [A_ij - k_i k_j / 2m] delta(c_i, c_j).

    Literal double loop over ordered vertex pairs (including i == j,
    where A_ii = 0 for a simple graph but the degree product still
    contributes).
    """
    adj = set()
    deg = [0] * n
    for u, v in edges:
        adj.add((u, v))
        adj.add((v, u))
        deg[u] += 1
        deg[v] += 1
    two_m = 2 * len(edges)
    assert two_m > 0
    q = 0.0
    for i in range(n):
        for j in range(n):
            if partition[i] != partition[j]:
                continue
            a_ij = 1.0 if (i, j) in adj else 0.0
            q += a_ij - deg[i] * deg[j] / two_m
    return q / two_m


def vertex_properties_reference(n, edges, partition):
    """Per-vertex degree, outward neighbor count, and embeddedness.

    Embeddedness is (k - k_out)/k, taken as 1.0 for isolated vertices.
    """
    neigh = [set() for _ in range(n)]
    for u, v in edges:
        neigh[u].add(v)
        neigh[v].add(u)
    deg = [len(s) for s in neigh]
    k_out = [sum(1 for w in neigh[v] if partition[w] != partition[v])
             for v in range(n)]
    emb = [1.0 if deg[v] == 0 else (deg[v] - k_out[v]) / deg[v]
           for v in range(n)]
    return deg, k_out, emb


def merge_precision_reference(kind, events, truth) -> float:
    """Recount of merge correctness: an event is right when all the
    occurrences it touches, as :func:`replay_merges` tells them, belong
    to one underlying vertex."""
    assert events
    _, sides = replay_merges(kind, merge_pairs(events))
    good = sum(len({truth[o] for o in a | b}) == 1 for a, b in sides)
    return good / len(events)


def project_reference(provenance, forest):
    """Each reconstructed vertex's underlying id, one vertex at a time:
    its first respondent's truth, else the majority truth of its members,
    ties to the smallest id.  The package's former loop, kept as it was
    written, errors included."""
    import numpy as np

    from netrecon import RESPONDENT

    if forest.truth is None:
        raise ValueError("projection requires the forest truth mapping")
    prov = np.asarray(provenance)
    if prov.shape != (forest.size,):
        raise ValueError("provenance must cover every occurrence")
    k = int(prov.max()) + 1
    out = np.full(k, -1, dtype=np.int64)
    members = [[] for _ in range(k)]
    for occ, v in enumerate(prov):
        members[int(v)].append(occ)
    for v, occs in enumerate(members):
        if not occs:
            raise ValueError(f"reconstructed vertex {v} has no occurrences")
        resp = [o for o in occs if forest.kind[o] == RESPONDENT]
        if resp:
            out[v] = forest.truth[resp[0]]
            continue
        ids, counts = np.unique(forest.truth[occs], return_counts=True)
        out[v] = ids[counts == counts.max()].min()
    return out


def community_precision_reference(labels, reference, projection) -> float:
    """Pairwise recount of co-membership precision under a projection.

    Every unordered pair placed together by ``labels`` whose projected
    ids differ counts toward the denominator; it counts toward the
    numerator when those projected ids share a community in
    ``reference``.
    """
    n = len(labels)
    num = 0
    den = 0
    for i, j in combinations(range(n), 2):
        if labels[i] != labels[j]:
            continue
        pi, pj = projection[i], projection[j]
        if pi == pj:
            continue
        den += 1
        if reference[pi] == reference[pj]:
            num += 1
    assert den > 0
    return num / den


def merge_pairs(log):
    """The (survivor, absorbed) pair of each event of a merge log."""
    return [(ev.survivor, ev.absorbed) for ev in log]


def replay_merges(kind, merges):
    """Group occurrences by replaying (survivor, absorbed) merges from
    singleton groups, each named by its occurrence id; ``kind[occ]`` is
    the kind of each occurrence.

    Each merge must be one the coalescer can make: both ids name alive
    groups, at most one of them holds a respondent, and the survivor is
    the respondent's group if one holds a respondent, else the smaller
    id.  Returns (groups, sides): the final groups' members by group id,
    and each merge's (survivor, absorbed) member sets before it.
    """
    from netrecon import RESPONDENT

    members = {i: frozenset({i}) for i in range(len(kind))}
    sides = []
    for s, o in merges:
        assert s != o and s in members and o in members, \
            "a merge of a group with itself or with an absorbed group"
        rs, ro = (any(kind[x] == RESPONDENT for x in members[g]) for g in (s, o))
        assert not (rs and ro), "two respondents merged"
        assert rs if rs != ro else s < o, "the wrong group survived"
        sides.append((members[s], members[o]))
        members[s] |= members.pop(o)
    return members, sides


def group_graph_reference(groups, parent):
    """The graph that the tree edges induce between groups of occurrences.

    ``groups`` is a collection of frozensets of occurrences (as the
    groups of :func:`replay_merges`) and ``parent[occ]`` the occurrence
    that named occ, -1 for none.  Returns a set of edges, each the frozenset of the
    two groups it joins; a tree edge inside one group gives a one-element
    set.
    """
    group_of = {occ: grp for grp in groups for occ in grp}
    return {frozenset((group_of[child], group_of[par]))
            for child, par in enumerate(parent) if par >= 0}


def groups_of(assignment):
    """The grouping induced by an id-per-element array, a frozenset of
    frozensets."""
    bucket = defaultdict(set)
    for elem, gid in enumerate(assignment):
        bucket[int(gid)].add(elem)
    return frozenset(frozenset(s) for s in bucket.values())


def set_partitions(n):
    """All partitions of range(n) as label lists in restricted-growth
    form (first occurrence order).  Bell(n) of them — keep n small."""
    labels = [0] * n

    def grow(i, k):
        if i == n:
            yield labels.copy()
            return
        for c in range(k + 1):
            labels[i] = c
            yield from grow(i + 1, k + 1 if c == k else k)

    yield from grow(1, 1) if n > 1 else iter([[0] * n])


def coalescing_reference(is_respondent, lo, hi, parent, groups, probs, n_t):
    """Candidate flags and merge probabilities of every pair of groups,
    straight from the coalescing rules.

    The forest's occurrences are given by ``is_respondent``, the payload
    interval ``lo``..``hi`` (a respondent's is its exact category) and
    ``parent`` (-1 for a path seed).  ``groups`` lists the occurrences of
    each current group; ``probs[c - 1]`` is the mass of category c.

    Returns two dicts keyed by group index pairs (i, j), i < j: whether
    the pair is a candidate (payloads overlap, not two respondents), and
    its merge probability.
    """
    group_of = {}
    for gi, members in enumerate(groups):
        for occ in members:
            group_of[occ] = gi
    resp = []
    payload = []
    for members in groups:
        r = [o for o in members if is_respondent[o]]
        resp.append(bool(r))
        if r:
            payload.append((lo[r[0]], lo[r[0]]))
        else:
            payload.append((max(lo[o] for o in members),
                            min(hi[o] for o in members)))
    neighbors = [set() for _ in groups]
    for occ, par in enumerate(parent):
        if par >= 0 and group_of[occ] != group_of[par]:
            neighbors[group_of[occ]].add(group_of[par])
            neighbors[group_of[par]].add(group_of[occ])

    def mass(a, b):
        return sum(probs[c - 1] for c in range(a, b + 1))

    candidate = {}
    prob = {}
    for i, j in combinations(range(len(groups)), 2):
        (lo_i, hi_i), (lo_j, hi_j) = payload[i], payload[j]
        lo_ij, hi_ij = max(lo_i, lo_j), min(hi_i, hi_j)
        candidate[i, j] = lo_ij <= hi_ij and not (resp[i] and resp[j])
        p = 0.0
        if resp[i] and resp[j] or j in neighbors[i] or lo_ij > hi_ij:
            pass
        elif resp[i] or resp[j]:
            f_lo, f_hi = payload[j] if resp[i] else payload[i]
            if mass(f_lo, f_hi) > 0:
                p = 1 / (n_t * mass(f_lo, f_hi))
        elif not any(resp[x] for x in neighbors[i] & neighbors[j]):
            m_i, m_j = mass(lo_i, hi_i), mass(lo_j, hi_j)
            if m_i > 0 and m_j > 0:
                p = mass(lo_ij, hi_ij) / (n_t * m_i * m_j)
        prob[i, j] = min(1.0, p)
    return candidate, prob


def final_groupings_reference(is_respondent, lo, hi, parent, probs, n_t):
    """The exact law of the grouping a whole coalescing run ends in.

    From the singletons, each step merges groups i and j with
    probability p_ij / sum(p), the p of :func:`coalescing_reference`,
    until ``n_t`` groups are left or no pair has a positive probability
    (a stall, which ends the run where it stands).  Recurses over the
    merge sequences, memoized on the grouping.  Returns a dict from
    final grouping (as :func:`groups_of` gives it) to probability.
    """
    memo = {}

    def law(grouping):
        if grouping not in memo:
            groups = sorted(sorted(g) for g in grouping)
            prob = {}
            if len(groups) > n_t:
                _, prob = coalescing_reference(is_respondent, lo, hi, parent,
                                               groups, probs, n_t)
            total = sum(prob.values())
            out = defaultdict(float)
            if total == 0:
                out[grouping] = 1.0
            for (i, j), p in prob.items():
                if p > 0:
                    merged = (grouping - {frozenset(groups[i]), frozenset(groups[j])}
                              | {frozenset(groups[i] + groups[j])})
                    for final, q in law(merged).items():
                        out[final] += p / total * q
            memo[grouping] = dict(out)
        return memo[grouping]

    return law(frozenset(frozenset({occ}) for occ in range(len(parent))))


def check_coalescer_state(forest, dist, n_t, state, merges):
    """Check what the coalescer's sampler reads against the coalescing
    rules, recomputed from the groups that replaying ``merges``, the
    (survivor, absorbed) pairs merged so far, gives.

    The candidate pairs the state lists must be those of
    :func:`coalescing_reference`, and each one's ``pair_probability``,
    either way round, the reference's to rel 1e-12: 0 when a rule bans
    the pair, its type pair's probability otherwise.  The banned pairs
    are the candidates of probability 0 when every category has positive
    mass; otherwise a second reference call with equal category masses
    tells them, as its candidates of probability 0.  The groups listed
    under each payload type, their count, the banned member pairs of
    every type pair and ``n_pairs`` must match exactly.  Raises
    AssertionError at the first difference.
    """
    from netrecon import RESPONDENT

    members, _ = replay_merges(forest.kind.tolist(), merges)
    alive = sorted(members)
    assert [g for g in range(forest.size) if state.alive[g]] == alive, \
        "alive groups out of date"
    groups = [sorted(members[g]) for g in alive]
    kind, lo, hi = forest.kind.tolist(), forest.lo.tolist(), forest.hi.tolist()
    is_resp = [k == RESPONDENT for k in kind]
    args = (is_resp, lo, hi, forest.parent.tolist(), groups)
    cand, prob = coalescing_reference(*args, dist.p.tolist(), n_t)
    open_ = (prob if min(dist.p) > 0 else
             coalescing_reference(*args, [1.0] * forest.g, n_t)[1])

    type_of = {}
    for g, members in zip(alive, groups):
        resp = [o for o in members if is_resp[o]]
        assert len(resp) <= 1, "two respondents in one group"
        key = ((kind[resp[0]], lo[resp[0]], lo[resp[0]]) if resp else
               (kind[members[0]], max(lo[o] for o in members), min(hi[o] for o in members)))
        assert state.types.get(key) == state.type_of[g], "payload type out of date"
        type_of[g] = state.type_of[g]
    for t, listed in enumerate(state.of_type):
        assert sorted(listed) == [g for g in alive if type_of[g] == t], \
            "type lists out of date"
        assert state.count[t] == len(listed), "type counts out of date"

    want = sorted((alive[i], alive[j]) for (i, j), c in cand.items() if c)
    assert state.pairs.tolist() == [list(p) for p in want], "candidates out of date"
    assert state.n_pairs == len(want), "candidate count out of date"
    index = {g: i for i, g in enumerate(alive)}
    banned = Counter()
    for a, b in want:
        key = index[a], index[b]
        p = prob[key] if open_[key] > 0 else 0.0
        for got in (state.pair_probability(a, b), state.pair_probability(b, a)):
            assert got is not None and math.isclose(got, p, rel_tol=1e-12), \
                "pair probability out of date"
        if open_[key] == 0:
            banned[min(type_of[a], type_of[b]), max(type_of[a], type_of[b])] += 1
    counts = zip(state.ta.tolist(), state.tb.tolist(), state.banned.tolist())
    assert {(t, u): c for t, u, c in counts if c} == dict(banned), \
        "banned counts out of date"


def _discrepancy(edges, values):
    return sum(abs(values[u] - values[v]) for u, v in edges)


def make_assortative_reference(n, edges, values, attempts, seed):
    """Category swaps judged by the whole-graph edge discrepancy.

    Replays the proposals of the shuffle, the rows of one
    ``rng.integers(0, n, size=(attempts, 2))`` draw, and keeps a swap
    iff the sum of |category difference| over all edges, recomputed
    from scratch, does not rise.
    """
    import numpy as np

    a = list(values)
    if n < 2:
        return a
    rng = np.random.default_rng(seed)
    current = _discrepancy(edges, a)
    for x, y in rng.integers(0, n, size=(attempts, 2)):
        x, y = int(x), int(y)
        a[x], a[y] = a[y], a[x]
        after = _discrepancy(edges, a)
        if after <= current:
            current = after
        else:
            a[x], a[y] = a[y], a[x]
    return a


def make_assortative_scalar_reference(g, values, attempts, seed):
    """The shuffle judged one proposal at a time, as a list.

    Replays the rows of one ``rng.integers(0, n, size=(attempts, 2))``
    draw; each delta is summed over the neighbors of x and y from the
    current categories.  Linear in the degrees, so it runs on
    paper-scale graphs.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    n = g.n
    a = list(values)
    if n < 2:
        return a
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    neighbors = [indices[indptr[v]:indptr[v + 1]] for v in range(n)]
    for x, y in rng.integers(0, n, size=(attempts, 2)).tolist():
        cx, cy = a[x], a[y]
        if cx == cy:  # also covers x == y
            continue
        # the x-y edge (if present) contributes |cx-cy| before and
        # after, so it is excluded from both neighbor sums
        delta = 0
        for w in neighbors[x]:
            if w != y:
                aw = a[w]
                delta += abs(cy - aw) - abs(cx - aw)
        for w in neighbors[y]:
            if w != x:
                aw = a[w]
                delta += abs(cx - aw) - abs(cy - aw)
        if delta <= 0:
            a[x], a[y] = cy, cx
    return a


def assign_communities_reference(degrees, sizes, mu, rng):
    """Capacity-aware community placement with one ``rng.choice`` per
    vertex, as a label list.

    Vertices come in ``rng.permutation`` order; each takes a community
    with a free slot and at least ceil((1 - mu) * degree) other slots,
    or, if there is none, one of the largest communities with a free
    slot.
    """
    free = [int(s) for s in sizes]
    labels = [0] * len(degrees)
    for v in rng.permutation(len(degrees)):
        demand = math.ceil((1.0 - mu) * float(degrees[v]))
        choices = [c for c, s in enumerate(sizes)
                   if free[c] > 0 and s - 1 >= demand]
        if not choices:
            open_ = [c for c in range(len(sizes)) if free[c] > 0]
            top = max(sizes[c] for c in open_)
            choices = [c for c in open_ if sizes[c] == top]
        c = int(rng.choice(choices))
        labels[v] = c
        free[c] -= 1
    return labels


def havel_hakimi_reference(members, targets):
    """The largest-first Havel-Hakimi edges of ``members`` with degree
    ``targets``: the package's former loop, sorting (target, id) pairs
    by a key function before each step."""
    work = [(int(t), int(v)) for t, v in zip(targets, members) if t > 0]
    edges = []
    while work:
        work.sort(key=lambda tv: (-tv[0], tv[1]))
        t, v = work[0]
        rest = work[1:]
        take = min(t, len(rest))
        for i in range(take):
            tt, vv = rest[i]
            rest[i] = (tt - 1, vv)
            edges.append((min(v, vv), max(v, vv)))
        work = [(tt, vv) for tt, vv in rest if tt > 0]
    return edges


def randomize_edges_reference(edges, rng, rounds=10):
    """Double-edge swaps drawing each attempt's edge indices and
    orientation coin when the attempt is made (no coin when the two
    indices are equal)."""
    if len(edges) < 2:
        return edges
    edge_set = set(edges)
    edges = list(edges)
    n_e = len(edges)
    for _ in range(rounds * n_e):
        i, j = rng.integers(0, n_e, size=2)
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        e1 = (min(a, d), max(a, d))
        e2 = (min(c, b), max(c, b))
        if e1 in edge_set or e2 in edge_set:
            continue
        edge_set.discard(edges[i])
        edge_set.discard(edges[j])
        edge_set.add(e1)
        edge_set.add(e2)
        edges[i], edges[j] = e1, e2
    return edges


def match_stubs_reference(stubs, rng, labels, passes):
    """The generator's former stub matching, with a loop over the pairs
    to find duplicates; returns the kept edges as (lo, hi) tuples.

    The stubs are shuffled and paired in order.  For up to ``passes``
    rounds, each bad pair (both stubs in one community, or the same
    edge as an earlier cross-community pair) swaps its second stub with
    that of a random pair.  Pairs still bad after that are dropped.
    """
    stubs = stubs.copy()
    rng.shuffle(stubs)
    stubs = stubs.tolist()
    if len(stubs) % 2 == 1:
        stubs.pop()
    a, b = stubs[0::2], stubs[1::2]

    def bad_pairs():
        seen = set()
        bad = []
        for i, (u, v) in enumerate(zip(a, b)):
            edge = (min(u, v), max(u, v))
            if labels[u] == labels[v] or edge in seen:
                bad.append(i)
            else:
                seen.add(edge)
        return bad

    for _ in range(passes):
        bad = bad_pairs()
        if not bad:
            break
        partners = rng.integers(0, len(a), size=len(bad)).tolist()
        for i, j in zip(bad, partners):
            b[i], b[j] = b[j], b[i]
    bad = set(bad_pairs())
    return [(min(u, v), max(u, v))
            for i, (u, v) in enumerate(zip(a, b)) if i not in bad]


def sir_reference(indptr, indices, immunized, init_frac, beta,
                  infectious_steps, seed):
    """Synchronous SIR simulated step by step.

    Seeds as the package does, then at every step concatenates the
    adjacency slice of every infectious vertex in increasing id, draws
    one uniform per contact and returns the number of vertices ever
    infected.
    """
    import numpy as np

    n = len(indptr) - 1
    rng = np.random.default_rng(seed)
    immune = np.zeros(n, dtype=bool)
    immune[np.asarray(immunized, dtype=np.int64)] = True
    pool = np.flatnonzero(~immune)
    n_seed = max(1, round(init_frac * n))
    seeds = rng.choice(pool, size=n_seed, replace=False)
    susceptible = ~immune
    susceptible[seeds] = False
    timer = np.zeros(n, dtype=np.int64)
    timer[seeds] = infectious_steps
    total = int(n_seed)
    while True:
        infectious = np.flatnonzero(timer > 0)
        if infectious.size == 0:
            break
        contacts = np.concatenate(
            [indices[indptr[v]:indptr[v + 1]] for v in infectious])
        if contacts.size:
            hits = contacts[rng.random(contacts.size) < beta]
            new = np.unique(hits)
            new = new[susceptible[new]]
        else:
            new = np.zeros(0, dtype=np.int64)
        timer[infectious] -= 1
        if new.size:
            susceptible[new] = False
            timer[new] = infectious_steps
            total += int(new.size)
    return total


def sir_bfs_reference(indptr, indices, immunized, init_frac, beta,
                      infectious_steps, seed):
    """The final size of one epidemic in its bond-percolation form, by
    one breadth-first search per epidemic: the package's former
    ``sir_run``.

    Draws the seeds and then one uniform per CSR arc, opening it below
    q = 1 - (1 - beta)^infectious_steps, and counts the vertices reached
    from the seeds over open arcs without entering an immunized one.
    """
    import numpy as np

    n = len(indptr) - 1
    rng = np.random.default_rng(seed)
    reached = np.zeros(n, dtype=bool)  # immunized or already infected
    reached[np.asarray(immunized, dtype=np.int64)] = True
    pool = np.flatnonzero(~reached)
    n_seed = max(1, round(init_frac * n))
    seeds = rng.choice(pool, size=n_seed, replace=False)
    q = 1.0 - (1.0 - beta) ** infectious_steps
    open_arc = rng.random(len(indices)) < q
    reached[seeds] = True
    frontier = seeds
    total = int(n_seed)
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        arcs = np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])
        hits = indices[arcs[open_arc[arcs]]]
        frontier = np.unique(hits[~reached[hits]])
        reached[frontier] = True
        total += int(frontier.size)
    return total


def reachable_reference(n, edges, immunized, seeds):
    """How many vertices breadth-first search reaches from ``seeds`` over
    the undirected ``edges`` without entering an ``immunized`` vertex,
    seeds included."""
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    blocked = set(immunized)
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if v not in seen and v not in blocked:
                seen.add(v)
                queue.append(v)
    return len(seen)


def select_immunized_reference(g, kind, prop, budget, seed, ensemble=None,
                               projections=None):
    """The vertices a strategy immunizes at one budget, ranked afresh for
    that budget: the package's selection before strategies ranked once.

    Kept as the package wrote it, so for the top-k kinds it calls into
    the package for community detection and vertex properties; compared
    only where the ranking needs neither (property "degree").  Ties on
    score break by frequency, then id.
    """
    import numpy as np

    from netrecon import derive_seed, detect, vertex_properties

    def ranking_values(graph, seed):
        if prop == "degree":
            return graph.degrees.astype(float)
        part = detect(graph, seed=derive_seed(seed, "detect"))
        deg, k_out, emb = vertex_properties(graph, part)
        return k_out.astype(float) if prop == "k_out" else emb

    if budget > g.n:
        raise ValueError("budget exceeds the vertex count")
    rng = np.random.default_rng(derive_seed(seed, "select", kind, prop))
    if budget == 0:
        return np.zeros(0, dtype=np.int64)
    if kind == "random-whole":
        return np.sort(rng.choice(g.n, size=budget, replace=False))
    asc = prop == "embeddedness-low"
    if kind == "underlying-top":
        vals = ranking_values(g, seed)
        order = np.lexsort((np.arange(g.n), vals if asc else -vals))
        return np.sort(order[:budget])

    sums = np.zeros(g.n)
    occs = np.zeros(g.n, dtype=np.int64)
    freq = np.zeros(g.n, dtype=np.int64)
    for inst, (rg, proj) in enumerate(zip(ensemble, projections)):
        proj = np.asarray(proj, dtype=np.int64)
        vals = ranking_values(rg, derive_seed(seed, "inst", inst))
        np.add.at(sums, proj, vals)
        np.add.at(occs, proj, 1)
        freq[np.unique(proj)] += 1
    pool = np.flatnonzero(freq > 0)
    if budget > pool.size:
        raise ValueError(f"budget {budget} exceeds the {pool.size} vertices "
                         "seen in the ensemble")
    if kind == "reconstructed-frequency-random":
        jitter = rng.permutation(g.n)
        order = np.lexsort((jitter[pool], -freq[pool]))
        return np.sort(pool[order[:budget]])
    score = sums[pool] / occs[pool]
    order = np.lexsort((pool, -freq[pool], score if asc else -score))
    return np.sort(pool[order[:budget]])


def local_moves_reference(adj, loops, rng):
    """One level of greedy vertex moves on numpy scalars; returns
    (labels, any_moved).

    Sweeps the vertices in ``rng.permutation`` order and moves each into
    the neighboring community of largest modularity gain, ties to the
    lowest label, by a strict 1e-12 margin, until a sweep moves nothing.
    ``two_m`` is numpy's pairwise sum of the strengths.
    """
    import numpy as np

    n = len(adj)
    strength = np.array([sum(a.values()) for a in adj]) + 2.0 * loops
    two_m = strength.sum()
    comm = np.arange(n)
    if two_m == 0:
        return comm, False
    tot = strength.copy()
    moved_any = False
    for _ in range(100):
        moved = False
        for i in rng.permutation(n):
            ci = comm[i]
            w_c = {}
            for j, w in adj[i].items():
                cj = comm[j]
                w_c[cj] = w_c.get(cj, 0.0) + w
            tot[ci] -= strength[i]
            best_c = ci
            best_gain = w_c.get(ci, 0.0) - strength[i] * tot[ci] / two_m
            for c in sorted(w_c):
                if c == ci:
                    continue
                gain = w_c[c] - strength[i] * tot[c] / two_m
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            tot[best_c] += strength[i]
            if best_c != ci:
                comm[i] = best_c
                moved = moved_any = True
        if not moved:
            break
    return comm, moved_any


def aggregate_reference(adj, loops, comm):
    """Collapse communities into super-vertices, numbered in ascending
    label order, with summed weights; returns (adj, loops, dense)."""
    import numpy as np

    labels, dense = np.unique(comm, return_inverse=True)
    k = labels.size
    new_adj = [{} for _ in range(k)]
    new_loops = np.zeros(k)
    for i, a in enumerate(adj):
        ci = dense[i]
        new_loops[ci] += loops[i]
        for j, w in a.items():
            if j <= i:
                continue
            cj = dense[j]
            if ci == cj:
                new_loops[ci] += w
            else:
                new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
                new_adj[cj][ci] = new_adj[cj].get(ci, 0.0) + w
    return new_adj, new_loops, dense


def greedy_modularity_reference(g, seed):
    """Greedy modularity optimization: the local moves and aggregation of
    Blondel et al., J. Stat. Mech. (2008) P10008.

    Repeats :func:`local_moves_reference` and
    :func:`aggregate_reference` until no vertex moves.  Returns
    ``(assignment, adj, loops)``: each vertex's top-level super-vertex,
    and that level's weighted adjacency dicts and self-loop weights.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    adj = [{int(j): 1.0 for j in g.neighbors(v)} for v in range(g.n)]
    loops = np.zeros(g.n)
    assignment = np.arange(g.n)
    for _ in range(100):
        comm, moved = local_moves_reference(adj, loops, rng)
        if not moved:
            break
        adj, loops, dense = aggregate_reference(adj, loops, comm)
        assignment = dense[assignment]
    return assignment, adj, loops
