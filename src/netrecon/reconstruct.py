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
number of draws it takes is Geometric(Σp / |candidates|).

The sampler draws both directly.  A pair's probability depends only on
the payload types (kind, lo, hi) of its two groups, unless one of the
adjacency rules above bans the pair, which makes it 0.  So the state
keeps one probability p_k per candidate type pair k, the number of alive
groups of each type, and the number banned_k of member pairs of k that
a rule bans.  The draw by type pair picks k ∝ p_k (pairs_k − banned_k),
where pairs_k counts the member pairs of k.  The draw within the type
pair then picks a uniform member of each of its two types, and draws
both again while they are one group or banned; every unbanned member
pair of k is equally likely, so each pair falls with p / Σp.  The run
stalls when no type pair with p_k > 0 has an unbanned member pair left,
that is when Σ p_k (pairs_k − banned_k) is 0: a positive p_k times an
integer ≥ 1 stays positive, so the float sum decides it exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .attributes import CategoryDistribution
from .graph import Graph, open_text
from .sampling import FRIEND, RESPONDENT, SampleForest, coalesced_network

__all__ = [
    "MergeEvent",
    "ReconResult",
    "ReconState",
    "ReconstructionStalled",
    "log_provenance",
    "read_merges",
    "reconstruct",
    "write_merges",
]

@dataclass(frozen=True)
class MergeEvent:
    """One accepted merge: the group ``survivor`` absorbed the group
    ``absorbed``, a pair of merge probability ``probability``, after
    ``attempts`` candidate-pair draws, the accepted one included.

    A group is named by the occurrence id it started from, and keeps
    that id while it absorbs others, so a log of these events, replayed
    from singleton groups, tells every group's members at every step.
    ``attempts`` is the draw count that drawing pairs uniformly and
    accepting each with its probability would have made; it is drawn,
    as Geometric(Σp / |candidates|), and limits nothing.
    """

    survivor: int
    absorbed: int
    probability: float
    attempts: int


@dataclass(frozen=True)
class ReconResult:
    """A reconstructed network.

    ``log`` lists the merge events in order, and is the record every
    other field derives from: ``provenance[occ]`` gives the
    reconstructed vertex each forest occurrence ended up in (see
    :func:`log_provenance`), ``graph`` is the coalesced simple graph of
    the forest under it, and :attr:`attempts` sums the events' attempts.
    """

    graph: Graph
    provenance: np.ndarray
    log: list[MergeEvent]

    @property
    def attempts(self) -> int:
        """The candidate-pair draws of the whole run, rejected ones
        included: the sum of the events' attempts."""
        return sum(ev.attempts for ev in self.log)


class ReconstructionStalled(RuntimeError):
    """Raised when the target size cannot be reached: no candidate pair
    is left, or none has a positive merge probability.

    Carries the partial result so callers can inspect or keep what was
    coalesced so far.
    """

    def __init__(self, message: str, partial: ReconResult):
        super().__init__(message)
        self.partial = partial


class ReconState:
    """Mutable state of a coalescing run.

    Groups are indexed by the occurrence id of their first member; dead
    group slots stay in the lists but are flagged.  Each group has a
    payload type (kind, lo, hi), numbered in ``types``; ``type_of[g]``
    is group g's, ``of_type[t]`` lists the alive groups of type t in the
    order they took it, and ``count[t]`` is their number.  Type pair k
    joins the types ``ta[k] <= tb[k]``, whose payloads overlap and are
    not both a respondent's; it has the merge probability ``prob[k]``
    and ``banned[k]`` member pairs that a rule bans.  ``ban[g]`` holds
    the groups that a rule keeps apart from g and whose payloads overlap
    g's; payloads only narrow, so a pair never overlaps again once it
    stops.

    A merge changes only the bans of the merged groups, and the
    survivor's follow from the two groups' own.  A friend group is
    banned with the respondents that named any of its members and with
    their other friends; the namers of two merged friend groups are the
    union of theirs, so the survivor's bans are the union of both bans,
    kept where they overlap its narrowed payload (which every group that
    overlaps it overlapped before).  A respondent is banned only with the
    friends it named; it never absorbs one of those, and absorbing any
    other friend leaves its exact category, and so its bans, unchanged.
    """

    def __init__(self, forest: SampleForest, dist: CategoryDistribution, n_t: int):
        if dist.g != forest.g:
            raise ValueError("distribution and forest disagree on category count")
        n = forest.size
        child = np.flatnonzero(forest.parent >= 0)
        if (forest.kind[forest.parent[child]] != RESPONDENT).any():
            raise ValueError("every occurrence must be named by a respondent")
        self.n_t = int(n_t)
        self.kind = forest.kind.tolist()
        self.lo = forest.lo.tolist()
        self.hi = forest.hi.tolist()
        self.alive = np.ones(n, dtype=bool)
        self.n_alive = n
        # cumulative masses for O(1) interval probabilities; length g+1
        self._cum = np.concatenate([[0.0], np.cumsum(dist.p, dtype=float)])
        # the payload types, numbered in order of first appearance
        self.types: dict[tuple[int, int, int], int] = {}
        self.type_of = [self.types.setdefault(key, len(self.types))
                        for key in zip(self.kind, self.lo, self.hi)]
        self.of_type: list[list[int]] = [[] for _ in self.types]
        for g, t in enumerate(self.type_of):
            self.of_type[t].append(g)
        self.count = np.bincount(self.type_of, minlength=len(self.types))
        # the types' (kind, lo, hi)
        self._keys = np.array(list(self.types), dtype=np.int64).reshape(-1, 3)
        self.ta = np.zeros(0, dtype=np.int64)
        self.tb = np.zeros(0, dtype=np.int64)
        self.prob = np.zeros(0)
        self.banned = np.zeros(0, dtype=np.int64)
        self._pair: dict[tuple[int, int], int] = {}
        self._add_pairs(*_overlapping_types(self._keys))
        self.ban: list[set[int]] = [set() for _ in range(n)]
        # the rules ban each respondent with each friend it named, and each
        # two of those friends, wherever the payloads overlap
        friend = child[forest.kind[child] == FRIEND]
        by_namer: dict[int, list[int]] = {}
        for f, r in zip(friend.tolist(), forest.parent[friend].tolist()):
            by_namer.setdefault(r, [r]).append(f)
        lo, hi = self.lo, self.hi
        for named in by_namer.values():
            for i, g in enumerate(named):
                for h in named[:i]:
                    if lo[h] <= hi[g] and hi[h] >= lo[g]:
                        self._add_ban(g, h)

    def member_pairs(self) -> np.ndarray:
        """The alive member pairs of each type pair."""
        a, b = self.count[self.ta], self.count[self.tb]
        return np.where(self.ta == self.tb, a * (a - 1) // 2, a * b)

    @property
    def n_pairs(self) -> int:
        """The number of candidate pairs, banned ones included."""
        return int(self.member_pairs().sum())

    @property
    def pairs(self) -> np.ndarray:
        """The candidate pairs (i < j) as rows of an (m, 2) array."""
        out = [(min(x, y), max(x, y))
               for t, u in zip(self.ta.tolist(), self.tb.tolist())
               for x in self.of_type[t] for y in self.of_type[u] if t != u or x < y]
        return np.array(sorted(out), dtype=np.int64).reshape(-1, 2)

    def pair_probability(self, a: int, b: int) -> float | None:
        """The merge probability of groups a and b: their type pair's, or
        0 when a rule bans the pair; None when they are no candidate pair."""
        if a == b or not (self.alive[a] and self.alive[b]):
            return None
        k = self._pair_of(a, b)
        if k is None:
            return None
        return 0.0 if b in self.ban[a] else float(self.prob[k])

    # -- types and bans --------------------------------------------------

    def _pair_of(self, a: int, b: int) -> int | None:
        t, u = self.type_of[a], self.type_of[b]
        return self._pair.get((t, u) if t <= u else (u, t))

    def _enter(self, g: int) -> int:
        """List group g under its payload type, adding the type when it is
        new; returns the type."""
        key = (self.kind[g], self.lo[g], self.hi[g])
        if key not in self.types:
            self._add_type(key)
        t = self.types[key]
        self.of_type[t].append(g)
        self.count[t] += 1
        return t

    def _add_type(self, key: tuple[int, int, int]) -> None:
        """Number a new payload type, made by a merge, and add the type
        pairs it forms."""
        t = len(self.types)
        self.types[key] = t
        self.of_type.append([])
        self.count = np.append(self.count, 0)
        self._keys = np.append(self._keys, [key], axis=0)
        kind, lo, hi = self._keys.T
        resp = kind == RESPONDENT
        near = np.flatnonzero((lo <= hi[t]) & (hi >= lo[t]) & ~(resp & resp[t]))
        self._add_pairs(near, np.full(near.size, t))

    def _add_pairs(self, ta: np.ndarray, tb: np.ndarray) -> None:
        """Append the type pairs (ta[k], tb[k]) with their merge
        probabilities: 1 / (n_t Pr(d_f)) with a respondent type, and
        Pr(d_u ∩ d_v) / (n_t Pr(d_u) Pr(d_v)) between two friend types."""
        kind, lo, hi = self._keys.T
        resp = kind == RESPONDENT
        cum = self._cum
        mass = np.where(resp, 1.0, np.maximum(cum[hi] - cum[lo - 1], 0.0))
        num = np.maximum(cum[np.minimum(hi[ta], hi[tb])]
                         - cum[np.maximum(lo[ta], lo[tb]) - 1], 0.0)
        num[resp[ta] | resp[tb]] = 1.0
        den = self.n_t * (mass[ta] * mass[tb])
        p = np.zeros(ta.size)
        np.divide(num, den, out=p, where=den > 0)
        self._pair.update((pair, self.prob.size + i)
                          for i, pair in enumerate(zip(ta.tolist(), tb.tolist())))
        self.ta = np.append(self.ta, ta)
        self.tb = np.append(self.tb, tb)
        self.prob = np.append(self.prob, np.minimum(p, 1.0))
        self.banned = np.append(self.banned, np.zeros(ta.size, dtype=np.int64))

    def _add_ban(self, g: int, h: int) -> None:
        self.ban[g].add(h)
        self.ban[h].add(g)
        self.banned[self._pair_of(g, h)] += 1

    def _leave(self, g: int) -> set[int]:
        """Take group g out of its type's list and out of every ban;
        returns the bans it had."""
        t = self.type_of[g]
        self.of_type[t].remove(g)
        self.count[t] -= 1
        ban, self.ban[g] = self.ban[g], set()
        for h in ban:
            self.ban[h].discard(g)
            self.banned[self._pair_of(g, h)] -= 1
        return ban

    # -- merging ---------------------------------------------------------

    def merge(self, a: int, b: int) -> int:
        """Coalesce groups a and b; returns the surviving group id.

        A respondent group always survives and keeps its exact category;
        two friend groups collapse onto the smaller id with the interval
        intersection as payload.  Refuses a pair that is no candidate or
        that a rule bans.
        """
        if a == b or not (self.alive[a] and self.alive[b]):
            raise ValueError("merge needs two distinct alive groups")
        if self.kind[a] == RESPONDENT and self.kind[b] == RESPONDENT:
            raise ValueError("respondent groups never merge")
        if self._pair_of(a, b) is None:
            raise ValueError("merging groups with disjoint descriptions")
        if b in self.ban[a]:
            raise ValueError("merging groups that are adjacent or share a respondent")
        if self.kind[b] == RESPONDENT:
            a, b = b, a
        elif self.kind[a] == FRIEND and b < a:
            a, b = b, a
        s, o = a, b  # survivor, absorbed
        # the survivor re-enters its type's list at the end even when its
        # type stays: the draw indexes of_type, so that order is part of
        # the random stream
        ban = self._leave(s)
        ban_o = self._leave(o)
        if self.kind[s] == FRIEND:
            ban |= ban_o
        lo = self.lo[s] = max(self.lo[s], self.lo[o])
        hi = self.hi[s] = min(self.hi[s], self.hi[o])
        self.alive[o] = False
        self.n_alive -= 1
        self.type_of[s] = self._enter(s)
        for h in ban:
            if self.lo[h] <= hi and self.hi[h] >= lo:
                self._add_ban(s, h)
        return s


def _overlapping_types(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The type pairs (ta, tb), ta <= tb, whose payloads overlap and are
    not both a respondent's, ordered by tb and then ta: the order in
    which adding the types one at a time lists them.

    A sweep over the types sorted by lo: a type overlaps itself and the
    types after it in that order up to the first whose lo exceeds its hi.
    """
    kind, lo, hi = keys.T
    by_lo = np.argsort(lo, kind="stable")
    span = np.searchsorted(lo[by_lo], hi[by_lo], side="right") - np.arange(lo.size)
    ends = np.cumsum(span)
    at = np.repeat(np.arange(lo.size) - ends + span, span) + np.arange(span.sum())
    a, b = np.repeat(by_lo, span), by_lo[at]
    ta, tb = np.minimum(a, b), np.maximum(a, b)
    resp = kind == RESPONDENT
    keep = ~(resp[ta] & resp[tb])
    ta, tb = ta[keep], tb[keep]
    order = np.lexsort((ta, tb))
    return ta[order], tb[order]


def log_provenance(n_occ: int, log: list[MergeEvent]) -> np.ndarray:
    """The reconstructed vertex of each of ``n_occ`` occurrences after the
    merges of ``log``.

    Walking the log backwards, an absorbed group joins its survivor's
    final group, which the later events have already settled.  The
    groups never absorbed are the vertices, numbered densely by
    ascending id.
    """
    group = list(range(n_occ))
    for ev in reversed(log):
        group[ev.absorbed] = group[ev.survivor]
    alive = np.ones(n_occ, dtype=bool)
    alive[[ev.absorbed for ev in log]] = False
    return (np.cumsum(alive) - 1)[group]


def _from_log(forest: SampleForest, log: list[MergeEvent]) -> ReconResult:
    """The reconstruction of ``forest`` that ``log`` records."""
    prov = log_provenance(forest.size, log)
    return ReconResult(coalesced_network(forest, prov), prov, log)


MERGES_HEADER = ["event", "survivor", "absorbed", "probability", "attempts"]


def write_merges(log: list[MergeEvent], target) -> None:
    """Write ``log`` as merges.csv, to a path or an open text stream.

    The file is headed ``event,survivor,absorbed,probability,attempts``
    and holds one line per event, in order: event i says that the group
    ``survivor`` absorbed the group ``absorbed``, each named by the
    occurrence id it started from, with that merge probability (written
    by ``repr``, so it reads back bit for bit), after that many
    candidate-pair draws.

    :func:`read_merges` replays the file through the coalescer.  It
    refuses another header, a malformed row, an event number other than
    the row's place in the log (0 first), an event after the log
    reached the target size, a group id outside the forest, a group
    merged with itself or with a group an earlier event absorbed,
    attempts below 1, a merge that the coalescer's rules refuse (two
    respondents, two groups that are adjacent or share a respondent, two
    groups with disjoint descriptions) or whose survivor is not the group
    the merge keeps, a pair of merge probability 0, and a probability
    other than the replayed pair's.
    """
    with open_text(target, "w") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(MERGES_HEADER)
        w.writerows([i, ev.survivor, ev.absorbed, repr(ev.probability), ev.attempts]
                    for i, ev in enumerate(log))


def read_merges(source, forest: SampleForest, dist: CategoryDistribution,
                n_t: int) -> ReconResult:
    """The reconstruction of ``forest`` to ``n_t`` vertices that the
    merges.csv in ``source`` records (see :func:`write_merges`).  Each
    event is replayed through a :class:`ReconState` with the run's
    ``dist`` and ``n_t``; one that no such reconstruction could write is
    an error naming its line."""
    state = ReconState(forest, dist, n_t)
    log = []
    with open_text(source) as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != MERGES_HEADER:
                raise ValueError(f"expected the header {','.join(MERGES_HEADER)}")
            for row in reader:
                event, s, o, prob, attempts = row
                event, s, o = int(event), int(s), int(o)
                prob, attempts = float(prob), int(attempts)
                if event != len(log):
                    raise ValueError(f"expected event {len(log)}, got event {event}")
                if state.n_alive <= n_t:
                    raise ValueError(f"the log already reached the target size {n_t}")
                if not (0 <= s < forest.size and 0 <= o < forest.size):
                    raise ValueError(f"group ids must lie in [0, {forest.size})")
                if s == o:
                    raise ValueError(f"group {s} merged with itself")
                if not (state.alive[s] and state.alive[o]):
                    raise ValueError(f"group {o if state.alive[s] else s} was "
                                     "absorbed by an earlier event")
                if attempts < 1:
                    raise ValueError(f"attempts {attempts} is below 1")
                p = state.pair_probability(s, o)
                if state.merge(s, o) != s:
                    raise ValueError(f"merging groups {s} and {o} keeps group "
                                     f"{o}, not {s}")
                if not p:
                    raise ValueError(f"groups {s} and {o} merge with probability 0")
                if prob != p:
                    raise ValueError(f"probability {prob!r} is not the replayed "
                                     f"merge probability {p!r}")
                log.append(MergeEvent(s, o, prob, attempts))
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return _from_log(forest, log)


def _draw(cum: np.ndarray, u: float) -> int:
    """Index drawn ∝ the weights whose running sums are ``cum``, by a
    uniform u in [0, 1)."""
    i = int(np.searchsorted(cum, u * cum[-1], side="right"))
    if i == cum.size:  # u * total rounded up to the total
        i = int(np.searchsorted(cum, cum[-1]))
    return i


def reconstruct(forest: SampleForest, dist: CategoryDistribution, n_t: int,
                seed: int) -> ReconResult:
    """Coalesce ``forest`` down to ``n_t`` vertices.

    Each merge falls on a candidate pair with probability p / Σp, where
    p is the current pair probability: a type pair is drawn ∝ its
    probability times its unbanned member pairs, then a uniform unbanned
    member pair of it.  That is the law of drawing candidate pairs
    uniformly and accepting each with probability p; the attempts that
    process would make are drawn as Geometric(Σp / |candidates|) and
    kept on each merge's event.  Stops when the group count reaches
    ``n_t``.

    Raises :class:`ReconstructionStalled` — carrying the partial result —
    at once when no candidate pair is left or none has a positive
    probability.
    """
    n = forest.size
    n_resp = forest.n_r
    if not 1 <= n_t <= n:
        raise ValueError(f"target size must lie in [1, {n}]")
    if n_t < n_resp:
        raise ValueError(
            f"target size {n_t} is below the respondent count {n_resp}; "
            "respondents never coalesce with each other")
    state = ReconState(forest, dist, n_t)
    rng = np.random.default_rng(seed)
    log: list[MergeEvent] = []
    while state.n_alive > n_t:
        pairs = state.member_pairs()
        cum = np.cumsum(state.prob * (pairs - state.banned))
        if not cum[-1] > 0:
            reason = ("no candidate pairs left" if not pairs.any() else
                      "no candidate pair has positive merge probability")
            raise ReconstructionStalled(
                f"{reason} at size {state.n_alive} (target {n_t})",
                _from_log(forest, log))
        attempts = int(rng.geometric(min(1.0, float(cum[-1]) / int(pairs.sum()))))
        k = _draw(cum, rng.random())
        xs, ys = state.of_type[state.ta[k]], state.of_type[state.tb[k]]
        while True:
            a, b = xs[rng.integers(len(xs))], ys[rng.integers(len(ys))]
            if a != b and b not in state.ban[a]:
                break
        p = float(state.prob[k])
        s = state.merge(a, b)
        log.append(MergeEvent(s, a + b - s, p, attempts))
    return _from_log(forest, log)
