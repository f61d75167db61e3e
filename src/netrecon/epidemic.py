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
PRE 66, 016128, 2002).

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


def sir_run(g: Graph, immunized: np.ndarray, params: SirParams, seed: int) -> int:
    """One epidemic; returns the number of vertices ever infected.

    Seeds max(1, round(init_frac * n)) uniform vertices among the
    non-immunized.  Raises if an immunized id lies outside [0, n), or if
    everyone (or too many to seed) is immunized.

    The synchronous SIR final size is computed in its bond-percolation
    form (see the module docstring): after the seed draw, one uniform
    per CSR arc opens that arc with probability
    q = 1 - (1 - beta)^infectious_steps, and the result is the number of
    vertices reachable from the seeds over open arcs, immunized vertices
    excluded.  At beta = 0 that is the seeds alone, at beta = 1 their
    whole non-immunized component.
    """
    rng = np.random.default_rng(seed)
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
    seeds = rng.choice(pool, size=n_seed, replace=False)

    q = 1.0 - (1.0 - params.beta) ** params.infectious_steps
    open_arc = rng.random(g.indices.size) < q
    reached = immune  # immunized or already infected: never entered again
    reached[seeds] = True
    frontier = seeds
    total = int(n_seed)
    indptr, indices = g.indptr, g.indices
    while frontier.size:
        # the arc positions of every frontier vertex's adjacency slice
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        ends = np.cumsum(counts)
        arcs = np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])
        hits = indices[arcs[open_arc[arcs]]]
        frontier = np.unique(hits[~reached[hits]])
        reached[frontier] = True
        total += int(frontier.size)
    return total


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
    epidemics with the ``immunized`` vertices removed."""
    if runs < 1:
        raise ValueError("need at least one run")
    sizes = np.array([
        sir_run(g, immunized, params, derive_seed(seed, "sir", i))
        for i in range(runs)
    ], dtype=float)
    std = float(sizes.std(ddof=1)) if runs > 1 else 0.0
    return EpidemicOutcome(float(sizes.mean()), std, runs)
