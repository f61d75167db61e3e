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
draws both directly from the pair probabilities, a group ∝ its row sum
and then its partner ∝ its row, so no time goes into rejected draws.
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
    "reconstruct",
]

_SCAN = 1 << 18  # occurrence pairs compared at once while building


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
    group slots stay in the arrays but are flagged.  :meth:`row` gives
    the candidates of a group (alive, payload intervals overlapping, not
    respondent-respondent) with their merge probabilities.  A merge only
    narrows payloads, so group i's candidates are always among the
    initial candidates of occurrence i, which are listed once.

    ``n_pairs`` counts the candidate pairs, ``w_sum`` holds the row sums
    and ``w_pos`` the number of positive weights in each row: a row whose
    count is zero has no weight left, whatever rounding left in its sum.

    Friends are only ever adjacent to respondents, so a merge changes no
    adjacency or shared respondent between two other groups: only the
    rows of the two merged groups and their entries in other rows change.
    """

    def __init__(self, forest: SampleForest, dist: CategoryDistribution, n_t: int):
        if dist.g != forest.g:
            raise ValueError("distribution and forest disagree on category count")
        n = forest.size
        child = np.flatnonzero(forest.parent >= 0)
        if (forest.kind[forest.parent[child]] != RESPONDENT).any():
            raise ValueError("every occurrence must be named by a respondent")
        self.n_t = int(n_t)
        self.kind = forest.kind.copy()
        self.lo = forest.lo.copy()
        self.hi = forest.hi.copy()
        self.alive = np.ones(n, dtype=bool)
        self.n_alive = n
        self.members: list[list[int]] = [[i] for i in range(n)]
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for c, p in zip(child.tolist(), forest.parent[child].tolist()):
            self.adj[p].add(c)
            self.adj[c].add(p)
        # cumulative masses for O(1) interval probabilities; length g+1
        self._cum = np.concatenate([[0.0], np.cumsum(dist.p, dtype=float)])
        self._resp = self.kind == RESPONDENT
        self._friend = (self.kind == FRIEND).tolist()  # for Python loops
        self._mass = self._slot_mass(np.arange(n))
        self._cands, self.w_sum, self.w_pos = self._initial_rows()
        self.n_pairs = sum(c.size for c in self._cands) // 2
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # since the last merge

    @property
    def pairs(self) -> np.ndarray:
        """The candidate pairs (i < j) as rows of an (m, 2) array."""
        return np.array([(i, j) for i in np.flatnonzero(self.alive)
                         for j in self.row(i)[0] if i < j]).reshape(-1, 2)

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

    def _allowed(self, i: int, ids: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The weights w of the pairs (i, ids), zeroed in place where
        :meth:`_forbidden` bans the merge."""
        ban = np.zeros(self.kind.size, dtype=bool)
        ban[self._forbidden(i)] = True
        w[ban[ids]] = 0.0
        return w

    def _initial_rows(self):
        """Each occurrence's initial candidates, ascending, with the sum
        and positive count of their weights.  The pairs are scanned a
        block of rows at a time, so the scratch arrays stay bounded."""
        n = self.kind.size
        lo, hi, resp = self.lo, self.hi, self._resp
        cands: list[np.ndarray] = []
        w_sum = np.zeros(n)
        w_pos = np.zeros(n, dtype=np.int64)
        step = max(1, _SCAN // n)
        for start in range(0, n, step):
            rows = np.arange(start, min(start + step, n))
            keep = (lo[rows, None] <= hi) & (hi[rows, None] >= lo)
            keep &= ~(resp[rows, None] & resp)
            keep[rows - start, rows] = False
            k, j = keep.nonzero()
            w = self._weights(rows[k], j)
            cut = np.cumsum(np.bincount(k, minlength=rows.size))[:-1]
            cands += np.split(j, cut)
            for r, ids, v in zip(rows.tolist(), cands[start:], np.split(w, cut)):
                self._allowed(r, ids, v)  # v is a view: zeroes w
            w_sum[rows] = np.bincount(k, weights=w, minlength=rows.size)
            w_pos[rows] = np.bincount(k[w > 0], minlength=rows.size)
        return cands, w_sum, w_pos

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Group i's candidates, ascending, and their merge probabilities;
        the arrays are shared with later calls until the next merge."""
        if i not in self._rows:
            ids = self._cands[i]
            ids = ids[self.alive[ids] & (self.lo[ids] <= self.hi[i])
                      & (self.hi[ids] >= self.lo[i])]
            self._rows[i] = ids, self._allowed(i, ids, self._weights(i, ids))
        return self._rows[i]

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
        lo, hi = max(self.lo[s], self.lo[o]), min(self.hi[s], self.hi[o])
        if self.kind[s] == FRIEND and lo > hi:
            raise ValueError("merging groups with disjoint descriptions")
        (old_s, w_s), (old_o, w_o) = self.row(s), self.row(o)
        narrowed = self.kind[s] == FRIEND and (lo, hi) != (self.lo[s], self.hi[s])
        if narrowed:
            self.lo[s], self.hi[s] = lo, hi
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
        self._rows.clear()
        if not narrowed:  # the weights stand; o leaves, and o's bans join s's
            stay = old_s != o
            self._rows[s] = old_s[stay], self._allowed(s, old_s[stay], w_s[stay])
        new, w = self.row(s)
        # the order of these updates fixes the rounding of w_sum, and so the
        # draws: s's old row, o's without the pair (s, o), s's new row
        keep = old_o != s
        for ids, v in ((old_s, w_s), (old_o[keep], w_o[keep])):
            self.n_pairs -= ids.size
            self.w_sum[ids] -= v
            self.w_pos[ids] -= v > 0
        self.n_pairs += new.size
        self.w_sum[new] += w
        self.w_pos[new] += w > 0
        self.w_sum[s], self.w_pos[s] = w.sum(), np.count_nonzero(w)
        self.w_sum[o] = self.w_pos[o] = 0
        return s

    def check_invariants(self, forest: SampleForest) -> None:
        """Debug/test hook: verify structural invariants of the state,
        and that every row, its sum and the pair count equal a
        recomputation from a scan of all groups."""
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
        w_sum, w_pos = np.zeros(slots.size), np.zeros(slots.size, dtype=np.int64)
        pairs = 0
        for i in alive_ids:  # against a scan of every group
            ids, w = self.row(i)
            full = ((self.lo <= self.hi[i]) & (self.hi >= self.lo[i]) & self.alive
                    & ~(self._resp[i] & self._resp)).nonzero()[0]
            full = full[full != i]
            assert np.array_equal(ids, full), "candidates out of date"
            ref = self._allowed(i, full, self._weights(i, full))
            assert np.array_equal(w, ref), "weights out of date"
            w_sum[i], w_pos[i], pairs = w.sum(), np.count_nonzero(w), pairs + ids.size
        assert self.n_pairs * 2 == pairs, "candidate count out of date"
        assert (self.w_pos == w_pos).all(), "positive counts out of date"
        assert np.allclose(self.w_sum, w_sum, rtol=1e-9, atol=1e-12), \
            "weight row sums out of date"


def _result(state: ReconState, log: list[MergeEvent], attempts: int) -> ReconResult:
    alive_ids = np.flatnonzero(state.alive).tolist()
    vid = np.cumsum(state.alive) - 1  # the vertex of each alive group
    prov = np.empty(state.kind.size, dtype=np.int64)
    for gid in alive_ids:
        prov[state.members[gid]] = vid[gid]
    edges = [(vid[gid], vid[x]) for gid in alive_ids for x in state.adj[gid] if gid < x]
    graph = Graph.from_edges(len(alive_ids), np.asarray(edges, dtype=np.int64).reshape(-1, 2))
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
        ids, w = state.row(a)
        k = _draw(np.cumsum(w), rng.random())
        a, b = min(a, int(ids[k])), max(a, int(ids[k]))
        log.append(MergeEvent(tuple(sorted(state.members[a])),
                              tuple(sorted(state.members[b])), float(w[k])))
        state.merge(a, b)
        if validate:
            state.check_invariants(forest)
    return _result(state, log, attempts)
