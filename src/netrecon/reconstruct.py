"""Probabilistic coalescing of a sample forest into a network.

Every occurrence in the forest starts as its own group.  Pairs of groups
are then merged one at a time, each with a probability that reflects how
likely the two occurrences are to be the same underlying person, given
the category information:

* respondent-respondent pairs never merge (respondents are distinct by
  construction of vertex-disjoint paths);
* a respondent u and a friend description d_v merge with probability
  1 / (n_t * Pr(d_v)), provided u's exact category lies inside d_v and
  the two groups are not currently adjacent (a respondent is never its
  own friend);
* two friend descriptions merge with probability
  Pr(d_u ∩ d_v) / (n_t * Pr(d_u) * Pr(d_v)), provided the intersection
  is nonempty and the groups share no respondent neighbor (one person
  is named at most once by the same respondent).

Probabilities are clamped to 1.  ``n_t`` — the size of the network being
reconstructed — is an explicit input; merging stops when the group count
reaches it.  The category distribution is likewise an explicit input:
nothing in this module reads the forest's sealed truth mapping.

The coalescing process is: draw a candidate pair (alive, overlapping
payloads, not respondent-respondent) uniformly, merge it with its
probability p, and draw again on rejection.  A rejected draw changes
nothing, so each merge falls on a pair with probability p / Σp, and the
number of draws it takes is Geometric(Σp / |candidates|).  The sampler
draws both directly from a weight matrix of all pair probabilities, so
no time goes into rejected draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .attributes import CategoryDistribution
from .graph import Graph
from .sampling import FRIEND, RESPONDENT, SampleForest

__all__ = [
    "MergeEvent",
    "ReconResult",
    "ReconState",
    "ReconstructionStalled",
    "pair_probability",
    "reconstruct",
]

_BLOCK = 256  # rows whose weights are computed together


@dataclass(frozen=True)
class MergeEvent:
    """One accepted merge: member occurrences of both sides + probability."""

    members_a: tuple[int, ...]
    members_b: tuple[int, ...]
    probability: float


@dataclass(frozen=True)
class ReconResult:
    """A reconstructed network.

    ``graph`` is the coalesced simple graph; ``provenance[occ]`` gives
    the reconstructed vertex each forest occurrence ended up in;
    ``log`` lists the merge events in order; ``attempts`` counts the
    candidate-pair draws of the rejection process, rejected ones
    included.
    """

    graph: Graph
    provenance: np.ndarray
    log: list[MergeEvent]
    attempts: int


class ReconstructionStalled(RuntimeError):
    """Raised when the target size cannot be reached.

    Carries the partial result so callers can inspect or keep what was
    coalesced so far.
    """

    def __init__(self, message: str, partial: ReconResult):
        super().__init__(message)
        self.partial = partial


class ReconState:
    """Mutable state of a coalescing run.

    Groups are indexed by the occurrence id of their first member; dead
    group slots stay in the arrays but are flagged.  Two dense symmetric
    matrices over group slots hold the pairs in play:

    * ``C[i, j]`` marks the candidate pairs: both alive, payload
      intervals overlapping, not respondent-respondent;
    * ``W[i, j]`` is the merge probability of a candidate pair as a
      float, zero where a rule forbids the merge.

    ``n_pairs`` counts the candidate pairs, ``w_sum`` holds the row sums
    of ``W`` and ``w_pos`` the number of positive weights in each row: a
    row whose count is zero has no weight left, whatever rounding has
    left in its sum.

    Friends are only ever adjacent to respondents, so a merge changes no
    adjacency or shared respondent between two other groups: only the
    rows and columns of the two merged groups change.
    """

    def __init__(self, forest: SampleForest, dist: CategoryDistribution, n_t: int):
        if dist.g != forest.g:
            raise ValueError("distribution and forest disagree on category count")
        n = forest.size
        child = np.flatnonzero(forest.parent >= 0)
        if (forest.kind[forest.parent[child]] != RESPONDENT).any():
            raise ValueError("every occurrence must be named by a respondent")
        self.n_t = int(n_t)
        self.dist = dist
        self.kind = forest.kind.copy()
        self.lo = forest.lo.copy()
        self.hi = forest.hi.copy()
        self.alive = np.ones(n, dtype=bool)
        self.n_alive = n
        self.members: list[list[int]] = [[i] for i in range(n)]
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for c in child:
            p = int(forest.parent[c])
            self.adj[p].add(int(c))
            self.adj[int(c)].add(p)
        # cumulative masses for O(1) interval probabilities; length g+1
        self._cum = np.concatenate([[0.0], np.cumsum(dist.p, dtype=float)])
        self._resp = self.kind == RESPONDENT
        self._friend = (self.kind == FRIEND).tolist()  # for Python loops
        self._mass = self._slot_mass(np.arange(n))
        self.C, self.W, self.w_sum, self.w_pos = self._matrices()
        self.n_pairs = np.count_nonzero(self.C) // 2

    @property
    def pairs(self) -> np.ndarray:
        """The candidate pairs (i < j) as rows of an (m, 2) array, read
        off ``C``."""
        return np.argwhere(np.triu(self.C, 1))

    # -- probabilities ---------------------------------------------------

    def _forbidden(self, i: int) -> list[int]:
        """Groups an adjacency rule keeps from merging with i: its
        neighbors and, for a friend, the friends of its respondents."""
        out = list(self.adj[i])
        if self._friend[i]:
            out += [x for x in chain.from_iterable(self.adj[r] for r in self.adj[i])
                    if self._friend[x]]
        return out

    def _slot_mass(self, i):
        """Pr of the descriptions of groups i; 1 for a respondent, whose
        pairs take their mass from the friend's side."""
        cum = self._cum
        return np.where(self._resp[i], 1.0,
                        np.maximum(cum[self.hi[i]] - cum[self.lo[i] - 1], 0.0))

    def _candidates(self, i: int, among: np.ndarray | None = None) -> np.ndarray:
        """Ids of group i's candidates, out of ``among`` (default: all
        groups): the alive groups other than i whose payload overlaps
        i's, only friends for a respondent."""
        lo, hi, alive, resp = self.lo, self.hi, self.alive, self._resp
        if among is not None:
            lo, hi, alive, resp = lo[among], hi[among], alive[among], resp[among]
        keep = (lo <= int(self.hi[i])) & (hi >= int(self.lo[i])) & alive
        if self._resp[i]:
            keep &= ~resp
        ids = keep.nonzero()[0] if among is None else among[keep]
        return ids[ids != i]

    def _weights(self, i, j) -> np.ndarray:
        """Merge probabilities of the candidate pairs (i, j) before the
        adjacency rules of :meth:`_forbidden`: 1 / (n_t Pr(d_f)) for a
        respondent and a friend, Pr(d_u ∩ d_v) / (n_t Pr(d_u) Pr(d_v))
        for two friends."""
        lo, hi, cum, mass = self.lo, self.hi, self._cum, self._mass
        num = np.maximum(cum[np.minimum(hi[i], hi[j])]
                         - cum[np.maximum(lo[i], lo[j]) - 1], 0.0)
        num[self._resp[i] | self._resp[j]] = 1.0
        den = self.n_t * (mass[i] * mass[j])
        p = np.zeros(den.shape)
        np.divide(num, den, out=p, where=den > 0)
        return np.minimum(p, 1.0, out=p)

    def _matrices(self):
        """``C``, ``W``, ``w_sum`` and ``w_pos`` computed from scratch: the
        candidates row by row, their weights for a block of rows at a
        time."""
        n = self.kind.size
        cand = np.zeros((n, n), dtype=bool)
        w = np.zeros((n, n))
        w_sum = np.zeros(n)
        w_pos = np.zeros(n, dtype=np.int64)
        alive = np.flatnonzero(self.alive).tolist()
        for start in range(0, len(alive), _BLOCK):
            rows = alive[start:start + _BLOCK]
            cols = []
            for r in rows:
                cols.append(self._candidates(r))
                cand[r][cols[-1]] = True
            i = np.repeat(rows, [c.size for c in cols])
            j = np.concatenate(cols)
            w[i, j] = self._weights(i, j)
            for r in rows:
                w[r][self._forbidden(r)] = 0.0
            v = w[i, j]
            w_sum += np.bincount(i, weights=v, minlength=n)
            w_pos += np.bincount(i[v > 0], minlength=n)
        return cand, w, w_sum, w_pos

    # -- merging ---------------------------------------------------------

    def merge(self, a: int, b: int) -> int:
        """Coalesce groups a and b; returns the surviving group id.

        A respondent group always survives and keeps its exact category;
        two friend groups collapse onto the smaller id with the interval
        intersection as payload.
        """
        if a == b or not (self.alive[a] and self.alive[b]):
            raise ValueError("merge needs two distinct alive groups")
        if self.kind[a] == RESPONDENT and self.kind[b] == RESPONDENT:
            raise ValueError("respondent groups never merge")
        if self.kind[b] == RESPONDENT:
            a, b = b, a
        elif self.kind[a] == FRIEND and b < a:
            a, b = b, a
        s, o = a, b  # survivor, absorbed
        if self.kind[s] == FRIEND:
            self.lo[s] = max(self.lo[s], self.lo[o])
            self.hi[s] = min(self.hi[s], self.hi[o])
            if self.lo[s] > self.hi[s]:
                raise ValueError("merging groups with disjoint descriptions")
            self._mass[s] = self._slot_mass(s)
        self.members[s].extend(self.members[o])
        self.members[o] = []
        for x in self.adj[o]:
            self.adj[x].discard(o)
            if x != s:
                self.adj[x].add(s)
                self.adj[s].add(x)
        self.adj[s].discard(o)
        self.adj[o] = set()
        self.alive[o] = False
        self.n_alive -= 1
        self._refresh(s, o)
        return s

    def _refresh(self, s: int, o: int) -> None:
        """Recompute the row and column of s and clear those of o, writing
        only at the candidates of each row, the same entries as its
        column's by symmetry.  The payload of s can only have narrowed,
        so its candidates are among its old ones."""
        idx = self._candidates(s, self.C[s].nonzero()[0])
        row = np.zeros(self.kind.size)
        row[idx] = self._weights(s, idx)
        row[self._forbidden(s)] = 0.0
        w = row[idx]
        for x in (s, o):
            old = self.C[x].nonzero()[0]
            w_old = self.W[x][old]
            self.n_pairs -= old.size
            self.w_sum[old] -= w_old
            self.w_pos[old] -= w_old > 0
            self.C[x][old] = self.C[old, x] = False
            self.W[x][old] = self.W[old, x] = 0.0
        self.C[s][idx] = self.C[idx, s] = True
        self.W[s][idx] = self.W[idx, s] = w
        self.n_pairs += idx.size
        self.w_sum[idx] += w
        self.w_pos[idx] += w > 0
        self.w_sum[s], self.w_pos[s] = w.sum(), np.count_nonzero(w)
        self.w_sum[o] = self.w_pos[o] = 0

    def check_invariants(self, forest: SampleForest) -> None:
        """Debug/test hook: verify structural invariants of the state,
        and that the matrices equal a fresh recomputation."""
        alive_ids = np.flatnonzero(self.alive)
        seen: set[int] = set()
        for i in alive_ids:
            occs = self.members[i]
            assert occs, "alive group with no members"
            assert not (set(occs) & seen), "occurrence in two groups"
            seen.update(occs)
            kinds = forest.kind[list(occs)]
            assert (kinds == RESPONDENT).sum() <= 1, "two respondents in one group"
            if self.kind[i] == FRIEND:
                assert self.lo[i] <= self.hi[i], "empty friend description"
            for x in self.adj[i]:
                assert self.alive[x] and x != i, "edge to dead group or self"
                assert i in self.adj[x], "asymmetric adjacency"
        assert len(seen) == forest.size, "lost occurrences"
        slots = np.arange(self.kind.size)
        assert (self._mass == self._slot_mass(slots)).all(), "masses out of date"
        cand, w, _, _ = self._matrices()
        assert (self.C == cand).all(), "candidate matrix out of date"
        assert (self.W == w).all(), "weight matrix out of date"
        assert self.n_pairs == np.count_nonzero(cand) // 2, "candidate count out of date"
        assert (self.w_pos == np.count_nonzero(w, axis=1)).all(), "positive counts out of date"
        assert np.allclose(self.w_sum, w.sum(axis=1), rtol=1e-9, atol=1e-12), \
            "weight row sums out of date"


def pair_probability(state: ReconState, a: int, b: int):
    """Merge probability for groups a, b under the current state.

    Symmetric in its arguments, clamped to 1, and exactly zero whenever
    a structural rule forbids the merge (two respondents, current
    adjacency, category mismatch, shared respondent neighbor, or a
    description with no support under the distribution).  The scalar
    reference for ``state.W``: each mass Pr(d) comes from
    ``state.dist.interval_prob``, so floats match ``W`` up to rounding
    and a distribution of Fractions gives exact rationals.
    """
    if a == b:
        raise ValueError("a pair needs two distinct groups")
    if not (state.alive[a] and state.alive[b]):
        raise ValueError("both groups must be alive")
    ka, kb = state.kind[a], state.kind[b]
    if ka == RESPONDENT and kb == RESPONDENT:
        return 0.0
    if b in state.adj[a]:
        return 0.0
    if ka == FRIEND and kb == FRIEND:
        common = state.adj[a] & state.adj[b]
        if any(state.kind[x] == RESPONDENT for x in common):
            return 0.0
        lo = max(state.lo[a], state.lo[b])
        hi = min(state.hi[a], state.hi[b])
        if lo > hi:
            return 0.0
        pa = state.dist.interval_prob(int(state.lo[a]), int(state.hi[a]))
        pb = state.dist.interval_prob(int(state.lo[b]), int(state.hi[b]))
        if pa <= 0 or pb <= 0:
            return 0.0
        p = state.dist.interval_prob(int(lo), int(hi)) / (state.n_t * (pa * pb))
    else:
        r, f = (a, b) if ka == RESPONDENT else (b, a)
        cat = int(state.lo[r])
        if not (state.lo[f] <= cat <= state.hi[f]):
            return 0.0
        pf = state.dist.interval_prob(int(state.lo[f]), int(state.hi[f]))
        if pf <= 0:
            return 0.0
        p = 1 / (state.n_t * pf)
    return min(1, p)


def _result(state: ReconState, log: list[MergeEvent], attempts: int) -> ReconResult:
    alive_ids = np.flatnonzero(state.alive)
    dense = {int(gid): i for i, gid in enumerate(alive_ids)}
    prov = np.empty(state.kind.size, dtype=np.int64)
    for gid, vid in dense.items():
        for occ in state.members[gid]:
            prov[occ] = vid
    edges = []
    for gid, vid in dense.items():
        for x in state.adj[gid]:
            if gid < x:
                edges.append((vid, dense[int(x)]))
    graph = Graph.from_edges(alive_ids.size, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    return ReconResult(graph, prov, log, attempts)


def _draw(cum: np.ndarray, u: float) -> int:
    """Index drawn ∝ the weights whose running sums are ``cum``, by a
    uniform u in [0, 1)."""
    i = int(np.searchsorted(cum, u * cum[-1], side="right"))
    if i == cum.size:  # u * total rounded up to the total
        i = int(np.searchsorted(cum, cum[-1]))
    return i


def reconstruct(forest: SampleForest, dist: CategoryDistribution, n_t: int,
                seed: int, max_attempts: int | None = None,
                validate: bool = False) -> ReconResult:
    """Coalesce ``forest`` down to ``n_t`` vertices.

    Each merge falls on a candidate pair with probability p / Σp, where
    p is the current pair probability.  That is the law of drawing
    candidate pairs uniformly and accepting each with probability p; the
    attempts that process would make are drawn as Geometric(Σp /
    |candidates|) per merge.  Stops when the group count reaches
    ``n_t``.

    Raises :class:`ReconstructionStalled` — carrying the partial result —
    at once when no candidate pair is left or none has a positive
    probability (``attempts`` then counts only the draws made), and when
    the attempt budget (default ``1000 * forest.size``) would run out
    before the next merge (``attempts`` is then the budget).
    ``validate=True`` checks the state after every merge (slow; for
    tests).
    """
    n = forest.size
    n_resp = forest.n_r
    if not 1 <= n_t <= n:
        raise ValueError(f"target size must lie in [1, {n}]")
    if n_t < n_resp:
        raise ValueError(
            f"target size {n_t} is below the respondent count {n_resp}; "
            "respondents never coalesce with each other")
    if max_attempts is None:
        max_attempts = 1000 * n
    state = ReconState(forest, dist, n_t)
    rng = np.random.default_rng(seed)
    log: list[MergeEvent] = []
    attempts = 0
    while state.n_alive > n_t:
        if state.n_pairs == 0:
            raise ReconstructionStalled(
                f"no candidate pairs left at size {state.n_alive} (target {n_t})",
                _result(state, log, attempts))
        # a row with no positive weight left may still hold rounding residue
        cum = np.cumsum(np.where(state.w_pos > 0, state.w_sum, 0.0))
        if cum[-1] <= 0:
            raise ReconstructionStalled(
                "no candidate pair has positive merge probability at size "
                f"{state.n_alive} (target {n_t})", _result(state, log, attempts))
        attempts += int(rng.geometric(min(1.0, float(cum[-1]) / 2 / state.n_pairs)))
        if attempts > max_attempts:
            raise ReconstructionStalled(
                f"attempt budget {max_attempts} exhausted at size {state.n_alive} "
                f"(target {n_t})", _result(state, log, max_attempts))
        a = _draw(cum, rng.random())
        cols = state.C[a].nonzero()[0]
        b = int(cols[_draw(np.cumsum(state.W[a, cols]), rng.random())])
        a, b = min(a, b), max(a, b)
        log.append(MergeEvent(tuple(sorted(state.members[a])),
                              tuple(sorted(state.members[b])),
                              float(state.W[a, b])))
        state.merge(a, b)
        if validate:
            state.check_invariants(forest)
    return _result(state, log, attempts)
