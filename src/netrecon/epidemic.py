"""Discrete-time SIR epidemics and immunization strategies.

The epidemic model is synchronous SIR with a fixed infectious period:
at every step each infectious vertex independently infects each of its
susceptible, non-immunized neighbors with probability beta, and a
vertex recovers exactly ``infectious_steps`` = T steps after its own
infection.  The epidemic size is the number of vertices ever infected
(seeds included).

Only that final size is needed, and it is computed exactly without
stepping through time.  An infected vertex u tries each neighbor v once
per step for T steps, so u ever infects v with probability
q = 1 - (1 - beta)^T, independently over directed edges (u -> v and
v -> u alike).  The set of vertices ever infected is then the set
reachable from the seeds over the open arcs without entering an
immunized vertex: the SIR <-> bond percolation mapping, exact for a
fixed infectious period (Kenah & Robins, PRE 76, 036113, 2007; Newman,
PRE 66, 016128, 2002).  Each epidemic is one reachability query over
its own open arcs, so up to 64 of them share one breadth-first
traversal, one bit each of a uint64 word per vertex and per arc; every
epidemic still draws its seeds and arcs from its own generator.

Each level of the traversal goes one of two ways, which find the same
next frontier (direction-optimizing BFS: Beamer, Asanovic & Patterson,
SC 2012).  A small frontier pushes its lanes over its own arcs.  A
frontier holding more than a quarter of the graph's arcs is pulled
instead: every vertex ORs in, over its own row, the lanes its frontier
neighbors send it over the reversed arcs, one pass over all arcs.  On
the paper-scale HEAVY network at q = 0.28 most levels in the middle of
an epidemic cover nearly every vertex, and the pull cut the traversal
of a 64-lane block about threefold; on a long path every level is tiny,
and pulling alone was about three times slower than pushing.

Immunization strategies rank the vertices once — from the underlying
network (the unrealistic full-knowledge baseline), at random, or from
an ensemble of reconstructions whose vertices are projected back onto
underlying ids — and a budget of k removes the first k of that ranking
from the susceptible pool before seeding, so a larger budget immunizes
a superset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .communities import detect
from .graph import Graph
from .metrics import vertex_properties
from .seeding import derive_seed

__all__ = [
    "SirParams",
    "StrategySpec",
    "EpidemicOutcome",
    "sir_run",
    "sir_sizes",
    "immunization_order",
    "evaluate_strategy",
]

STRATEGY_KINDS = (
    "underlying-top",
    "reconstructed-top",
    "random-whole",
    "reconstructed-frequency-random",
)

PROPERTIES = ("degree", "k_out", "embeddedness-low")

# the config's default ``strategies``: kind or kind:property tokens
DEFAULT_STRATEGIES = ("underlying-top:degree", "reconstructed-top:degree",
                      "reconstructed-frequency-random", "random-whole")

_LANES = 64  # epidemics traversed together, one bit each of a uint64 word


@dataclass(frozen=True)
class SirParams:
    """init_frac: initially infected fraction; beta: per-contact, per-step
    transmission probability; infectious_steps: steps until recovery."""

    init_frac: float = 0.002
    beta: float = 0.08
    infectious_steps: int = 4

    def __post_init__(self):
        if not 0 < self.init_frac <= 1:
            raise ValueError("init_frac must lie in (0, 1]")
        if not 0 <= self.beta <= 1:
            raise ValueError("beta must lie in [0, 1]")
        if self.infectious_steps < 1:
            raise ValueError("infectious_steps must be positive")


@dataclass(frozen=True)
class StrategySpec:
    """kind: one of STRATEGY_KINDS; property: ranking property for the
    top-k kinds."""

    kind: str
    property: str = "degree"

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.property not in PROPERTIES:
            raise ValueError(f"unknown ranking property {self.property!r}")


@dataclass(frozen=True)
class EpidemicOutcome:
    mean: float
    std: float
    runs: int


def sir_sizes(g: Graph, immunized: np.ndarray, params: SirParams,
              seeds) -> np.ndarray:
    """The number of vertices ever infected in one epidemic per seed.

    Each epidemic seeds max(1, round(init_frac * n)) uniform vertices
    among the non-immunized.  Raises, before anything is drawn, if an
    immunized id lies outside [0, n), or if everyone (or too many to
    seed) is immunized.

    The synchronous SIR final size is computed in its bond-percolation
    form (see the module docstring): after the seed draw, one uniform
    per CSR arc opens that arc with probability
    q = 1 - (1 - beta)^infectious_steps, and the size is the number of
    vertices reachable from the seeds over open arcs, immunized vertices
    excluded.  At beta = 0 that is the seeds alone, at beta = 1 their
    whole non-immunized component.  Each epidemic takes its seed draw and
    its arc uniforms, in that order, from its own ``default_rng(seed)``;
    blocks of up to 64 epidemics then share one breadth-first traversal,
    bit j of a vertex's or an arc's uint64 word belonging to the block's
    j-th epidemic.  A level whose frontier holds more than a quarter of
    the arcs pulls, the others push (see the module docstring); the
    direction changes no size.
    """
    immune = np.zeros(g.n, dtype=bool)
    imm = np.asarray(immunized, dtype=np.int64)
    if imm.size:
        if imm.min() < 0 or imm.max() >= g.n:
            raise ValueError("immunized ids must lie in [0, n)")
        immune[imm] = True
    pool = np.flatnonzero(~immune)
    if pool.size == 0:
        raise ValueError("every vertex is immunized; nothing to infect")
    n_seed = max(1, round(params.init_frac * g.n))
    if n_seed > pool.size:
        raise ValueError("not enough non-immunized vertices to seed")
    q = 1.0 - (1.0 - params.beta) ** params.infectious_steps
    seeds = list(seeds)
    sizes = np.empty(len(seeds), dtype=np.int64)
    # sorted by head, the arcs into each vertex come in the order of its
    # own sorted row: from its smallest neighbor up
    rev = np.argsort(g.indices, kind="stable")
    for lo in range(0, len(seeds), _LANES):
        block = seeds[lo:lo + _LANES]
        sizes[lo:lo + len(block)] = _block_sizes(g, immune, pool, n_seed, q,
                                                 block, rev)
    return sizes


def _pulls(frontier_arcs: int, n_arc: int) -> bool:
    """Whether a level pulls: its frontier holds more than a quarter of
    the graph's arcs."""
    return 4 * frontier_arcs > n_arc


def _block_sizes(g: Graph, immune: np.ndarray, pool: np.ndarray, n_seed: int,
                 q: float, seeds: list, rev: np.ndarray) -> np.ndarray:
    """The sizes of up to 64 epidemics, traversed together; bit j of
    every vertex's and arc's word belongs to ``seeds[j]``.  Arc
    ``rev[k]`` is arc k reversed."""
    n_arc = g.indices.size
    start = np.zeros(g.n, dtype=np.uint64)
    open_bytes = np.zeros((8, n_arc), dtype=np.uint8)  # row b: lanes 8b to 8b + 7
    for j, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        start[rng.choice(pool, size=n_seed, replace=False)] |= np.uint64(1 << j)
        open_bytes[j >> 3] |= (rng.random(n_arc) < q).view(np.uint8) << (j & 7)
    open_w = np.ascontiguousarray(open_bytes.T).view("<u8")[:, 0].astype(np.uint64)
    # immunized vertices count as reached in every lane: never entered
    reached = np.where(immune, ~np.uint64(0), start)
    verts = np.flatnonzero(start)
    bits = start[verts]
    pushed = np.zeros(g.n, dtype=np.uint64)  # zero again after every level
    slot = np.empty(g.n, dtype=np.int64)
    indptr, indices = g.indptr, g.indices
    into = None  # the lanes open on each arc's reverse, made at the first pull
    while verts.size:
        first = indptr[verts]
        deg = indptr[verts + 1] - first
        ends = np.cumsum(deg)
        if _pulls(int(ends[-1]), n_arc):
            # every vertex ORs, over its row, the lanes that its frontier
            # neighbors carry over their open arcs into it
            if into is None:
                into = open_w[rev]
                # reduceat would read an empty row as the next one's
                # first arc, so it only sees the non-empty rows
                rows = np.flatnonzero(np.diff(indptr))
            front = np.zeros(g.n, dtype=np.uint64)
            front[verts] = bits
            bits = (np.bitwise_or.reduceat(front[indices] & into, indptr[rows])
                    & ~reached[rows])
            hit = rows
        else:
            # the arcs of every frontier vertex and the lanes each one carries
            arcs = np.repeat(first - ends + deg, deg) + np.arange(ends[-1])
            push = np.repeat(bits, deg) & open_w[arcs]
            live = push != 0
            hit, push = indices[arcs[live]], push[live]
            np.bitwise_or.at(pushed, hit, push)
            pos = np.arange(hit.size)
            slot[hit] = pos
            hit = hit[slot[hit] == pos]  # each vertex once
            bits = pushed[hit] & ~reached[hit]
            pushed[hit] = 0
        live = bits != 0
        verts, bits = hit[live], bits[live]
        reached[verts] |= bits
    lanes = np.unpackbits(reached.astype("<u8").view(np.uint8).reshape(-1, 8),
                          axis=1, bitorder="little")
    return lanes[:, :len(seeds)].sum(axis=0, dtype=np.int64) - int(immune.sum())


def sir_run(g: Graph, immunized: np.ndarray, params: SirParams, seed: int) -> int:
    """One epidemic; returns the number of vertices ever infected.  The
    one-seed call of :func:`sir_sizes`, which documents the model."""
    return int(sir_sizes(g, immunized, params, [seed])[0])


def _rank_keys(graph: Graph, prop: str, seed: int) -> np.ndarray:
    """Sort keys of one graph's vertices for top-k ranking: the property
    value, negated unless low values rank first ("embeddedness-low")."""
    if prop == "degree":
        return -graph.degrees.astype(float)
    part = detect(graph, seed=derive_seed(seed, "detect"))
    deg, k_out, emb = vertex_properties(graph, part)
    return -k_out.astype(float) if prop == "k_out" else emb


def immunization_order(g: Graph, strategy: StrategySpec, seed: int,
                       ensemble: list[Graph] | None = None,
                       projections: list[np.ndarray] | None = None) -> np.ndarray:
    """The vertices (underlying ids) a strategy immunizes, first to last;
    a budget of k immunizes the first k.

    "random-whole" orders all vertices uniformly at random and
    "underlying-top" ranks them by property, ties by id.  For the
    reconstructed-* kinds, ``ensemble`` holds reconstruction graphs and
    ``projections`` the matching reconstructed-vertex -> underlying-id
    maps, and only vertices seen in the ensemble are ordered.  A
    vertex's frequency is the number of ensemble instances it appears
    in.  "reconstructed-top" ranks by the property averaged over all
    reconstructed vertices projecting to a vertex, then frequency, then
    id; "reconstructed-frequency-random" by frequency alone, in random
    order among equal frequencies.
    """
    rng = np.random.default_rng(derive_seed(seed, "select", strategy.kind,
                                            strategy.property))
    if strategy.kind == "random-whole":
        return rng.permutation(g.n)
    if strategy.kind == "underlying-top":
        return np.lexsort((np.arange(g.n), _rank_keys(g, strategy.property, seed)))

    if ensemble is None or projections is None:
        raise ValueError(f"{strategy.kind} needs a reconstruction ensemble")
    if len(ensemble) != len(projections):
        raise ValueError("ensemble and projections must align")
    top = strategy.kind == "reconstructed-top"
    sums = np.zeros(g.n)
    occs = np.zeros(g.n, dtype=np.int64)   # reconstructed vertices mapping here
    freq = np.zeros(g.n, dtype=np.int64)   # instances containing the vertex
    for inst, (rg, proj) in enumerate(zip(ensemble, projections)):
        proj = np.asarray(proj, dtype=np.int64)
        if proj.size != rg.n:
            raise ValueError(f"projection {inst} does not cover the graph")
        freq[np.unique(proj)] += 1
        if top:
            keys = _rank_keys(rg, strategy.property, derive_seed(seed, "inst", inst))
            np.add.at(sums, proj, keys)
            np.add.at(occs, proj, 1)
    pool = np.flatnonzero(freq > 0)
    if not top:
        jitter = rng.permutation(g.n)  # random tie order among equal frequencies
        return pool[np.lexsort((jitter[pool], -freq[pool]))]
    return pool[np.lexsort((pool, -freq[pool], sums[pool] / occs[pool]))]


def evaluate_strategy(g: Graph, immunized: np.ndarray, params: SirParams,
                      runs: int, seed: int) -> EpidemicOutcome:
    """Mean/std epidemic size over ``runs`` independently seeded
    epidemics with the ``immunized`` vertices removed: epidemic i runs
    from seed ``derive_seed(seed, "sir", i)``, all of them in one
    :func:`sir_sizes` call."""
    if runs < 1:
        raise ValueError("need at least one run")
    sizes = sir_sizes(g, immunized, params,
                      [derive_seed(seed, "sir", i) for i in range(runs)]).astype(float)
    std = float(sizes.std(ddof=1)) if runs > 1 else 0.0
    return EpidemicOutcome(float(sizes.mean()), std, runs)
