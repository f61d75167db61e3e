"""End-to-end experiment pipeline: sweep grid -> CSV tables.

For every sweep point and repetition the pipeline generates (or loads)
the underlying network, assigns categories, samples a forest,
reconstructs, and evaluates — emitting long-format rows into four
tables, one per figure family:

* ``precision.csv``  — coalescing precision per run
* ``community.csv``  — community precision and NMI per run
* ``rank.csv``       — rank correlations of vertex properties per run
* ``epidemic.csv``   — immunization strategy outcomes

Per-run errors (stalled reconstructions, degenerate metrics) are
recorded in ``errors.csv`` and the sweep continues.  All randomness is
derived from the master seed and parameter *values*, so a rerun of the
same config writes byte-identical tables, sweep-axis order does not
matter, and --jobs only changes wall time, never content.

Each task returns its rows by table name (:data:`TABLES`).  The tasks
run in groups that share a memo for the group's lifetime.  The metric
tasks are grouped by (mu, repetition): every sweep point of a group
shares one underlying network, so the group computes each attribute
map and the underlying partition once.  Each epidemic point is a group
of its own.  A network is built, or read, once per run and process,
and dropped at the run's end (:func:`_network_of`).  One worker pool
serves every group of a run at --jobs > 1, and :func:`write_tables`
writes the merged tables, for ``run`` and the stage commands alike; the
stage commands run without a memo.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .attributes import (AttributeMap, CategoryDistribution, assign_attributes,
                         discretized_normal, make_assortative, uniform_distribution)
from .communities import detect
from .config import ExperimentConfig, SweepPoint, parse_strategy
from .epidemic import evaluate_strategy, immunization_order
from .generate import LfrParams, generate_lfr_like
from .graph import Graph, load_edge_list
from .metrics import (aggregate_by_projection, coalescing_precision,
                      community_precision, nmi, project, spearman,
                      vertex_properties)
from .reconstruct import ReconResult, ReconstructionStalled, reconstruct
from .sampling import SampleForest, elicit_friends, sample_paths, true_network
from .seeding import derive_seed

__all__ = ["run_pipeline", "metric_rows_for_point", "epidemic_rows_for_point",
           "write_tables", "TABLES", "STAGES", "PARAM_HEADER", "METRIC_HEADER",
           "EPIDEMIC_HEADER", "ERROR_HEADER"]

PARAM_HEADER = ["run_id", "network", "method", "assortative", "distribution",
                "g", "c", "f", "mu", "n_t_rule", "n_t_frac", "rep"]
METRIC_HEADER = PARAM_HEADER + ["metric", "value", "repetitions"]
EPIDEMIC_HEADER = PARAM_HEADER + ["strategy", "property", "budget",
                                  "metric", "value", "repetitions"]
ERROR_HEADER = PARAM_HEADER + ["stage", "error"]
# Each result table's header, in the order a run writes its rows.
TABLES = {"precision": METRIC_HEADER, "community": METRIC_HEADER,
          "rank": METRIC_HEADER, "epidemic": EPIDEMIC_HEADER,
          "errors": ERROR_HEADER}
# The tables each ``--stage`` computes and writes.
STAGES = {"all": tuple(TABLES),
          "metrics": ("precision", "community", "rank", "errors"),
          "epidemic": ("epidemic", "errors")}


def _tables(stage: str) -> dict[str, list[list[str]]]:
    """Empty rows of each table of ``stage``."""
    return {name: [] for name in STAGES[stage]}


def _merge(tables: dict, more: dict) -> dict:
    """Append the rows of ``more`` to ``tables``, table by table."""
    for name, rows in more.items():
        tables[name].extend(rows)
    return tables


def _fmt(x) -> str:
    if x is None:
        return "na"
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def run_id_for(point: SweepPoint, rep) -> str:
    h = hashlib.sha256(f"{point.key()}|{rep}".encode()).hexdigest()
    return h[:10]


def _param_cells(cfg: ExperimentConfig, point: SweepPoint, rep) -> list[str]:
    name = cfg.edgelist_path if cfg.network == "edgelist" else "lfr"
    return [run_id_for(point, rep), str(name), point.method,
            _fmt(point.assortative), cfg.distribution, str(point.g),
            str(point.c), str(point.f), _fmt(point.mu), cfg.n_t_rule,
            _fmt(point.n_t_frac), str(rep)]


def _memoized(memo: dict | None, key: tuple, build):
    """``build()``, computed once per ``key`` when a ``memo`` is given.

    A build that raises stores nothing, so each point that needs the
    artifact tries again and records its own error.
    """
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


@functools.lru_cache(maxsize=1)
def _network_of(source: LfrParams | str) -> tuple[Graph, np.ndarray | None]:
    """The network built from ``source``, LFR parameters or an edge-list
    path, and its planted partition, read-only, which a loaded edge list
    does not have (None).

    Kept until a call with another source, or until :func:`run_pipeline`
    clears it at the start and the end of a run, so each run builds or
    reads a network once per process and follows the file's content at
    the time of the run.  A build that raises keeps nothing.  The
    generator and the reader are looked up as module globals at each
    build.
    """
    if isinstance(source, LfrParams):
        graph, partition = generate_lfr_like(source)
        partition.flags.writeable = False
        return graph, partition
    return load_edge_list(source), None


def _network(cfg: ExperimentConfig, point: SweepPoint,
             rep) -> tuple[Graph, np.ndarray | None]:
    """The network of (point.mu, rep) and its planted partition, which a
    loaded edge list does not have (None); see :func:`_network_of`."""
    if cfg.network == "edgelist":
        return _network_of(cfg.edgelist_path)
    return _network_of(LfrParams(
        n=cfg.n, k_avg=cfg.k_avg, k_max=cfg.k_max, mu=point.mu,
        tau1=cfg.tau1, tau2=cfg.tau2, c_min=cfg.c_min, c_max=cfg.c_max,
        seed=derive_seed(cfg.seed, "generate", repr(point.mu), rep)))


def _distribution(cfg: ExperimentConfig, g: int) -> CategoryDistribution:
    if cfg.distribution == "uniform":
        return uniform_distribution(g)
    return discretized_normal(g)


def _attributes(cfg: ExperimentConfig, point: SweepPoint, rep, graph: Graph,
                memo: dict | None = None
                ) -> tuple[AttributeMap, CategoryDistribution]:
    """Categories of ``graph``, the network of (point.mu, rep)."""
    dist = _distribution(cfg, point.g)

    def build() -> AttributeMap:
        attrs = assign_attributes(
            graph.n, dist,
            derive_seed(cfg.seed, "attributes", point.g, cfg.distribution, rep))
        if point.assortative:
            attrs = make_assortative(
                graph, attrs, cfg.assort_attempts_per_vertex * graph.n,
                derive_seed(cfg.seed, "assortative", point.g, rep))
        return attrs
    key = ("attributes", point.mu, point.g, point.assortative, rep)
    return _memoized(memo, key, build), dist


def _communities(cfg: ExperimentConfig, point: SweepPoint, rep, graph: Graph,
                 which: str) -> np.ndarray:
    """Detect communities of the "underlying", "recon" or "true" network.

    The underlying network depends only on mu and the repetition, so its
    detector seed does too; the other two are seeded per sweep point.
    """
    token = _fmt(point.mu) if which == "underlying" else point.key()
    return detect(graph, seed=derive_seed(cfg.seed, "communities", which, token, rep))


def _sizes(cfg: ExperimentConfig, point: SweepPoint, n: int):
    """The respondent count n_r and, under fraction-of-n, the target n_t."""
    if cfg.n_t_rule == "fraction-of-n":
        n_t = max(1, round(point.n_t_frac * n))
        return max(1, round(n_t / 2)), n_t
    return max(1, round(cfg.n_r_frac * n)), None


def _sample(cfg: ExperimentConfig, point: SweepPoint, rep, graph: Graph,
            attrs: AttributeMap) -> SampleForest:
    """Walk the paths and elicit the friends; the forest carries its truth."""
    n_r, _ = _sizes(cfg, point, graph.n)
    paths = sample_paths(graph, n_r, point.method,
                         derive_seed(cfg.seed, "paths", point.method, rep))
    return elicit_friends(graph, attrs, paths, point.f, point.c,
                          derive_seed(cfg.seed, "friends", point.method,
                                      point.f, rep))


def _target_size(cfg: ExperimentConfig, point: SweepPoint, n: int,
                 forest: SampleForest) -> int:
    """The n_t of ``forest``, sampled from a network of ``n`` vertices:
    the true network size, read off the forest's truth, or the
    fraction-of-n target capped at the forest size; never below the
    respondent count."""
    _, n_t = _sizes(cfg, point, n)
    n_t = forest.n_t if n_t is None else min(n_t, forest.size)
    return max(n_t, forest.n_r)


def _reconstruct(cfg: ExperimentConfig, point: SweepPoint, rep, n: int,
                 forest: SampleForest, dist: CategoryDistribution,
                 errors: list) -> ReconResult:
    """Coalesce ``forest`` (sampled from a network of ``n`` vertices) to
    its :func:`_target_size`.

    The reconstruction itself only sees the forest without its truth.  A
    stalled reconstruction is recorded in ``errors`` and its partial
    result is returned — what was coalesced so far is still a network.
    """
    try:
        return reconstruct(forest.without_truth(), dist,
                           _target_size(cfg, point, n, forest),
                           derive_seed(cfg.seed, "reconstruct", point.key(), rep))
    except ReconstructionStalled as exc:
        errors.append(_param_cells(cfg, point, rep) + ["reconstruct", str(exc)])
        return exc.partial


def _score(cfg: ExperimentConfig, point: SweepPoint, rep, graph: Graph,
           forest: SampleForest, result: ReconResult,
           memo: dict | None = None) -> dict[str, list]:
    """Precision, community and rank rows of one reconstruction, by table.

    ``graph`` is the underlying network and ``forest`` carries its truth.
    A metric that fails is recorded as an error row; the rank rows need
    the community labels, so a community failure skips them.
    """
    tables = _tables("metrics")
    cells = _param_cells(cfg, point, rep)

    def add(table: str, metric: str, value: float) -> None:
        tables[table].append(cells + [metric, _fmt(float(value)), "1"])

    def fail(stage: str, exc: Exception) -> None:
        tables["errors"].append(cells + [stage, str(exc)])

    try:
        add("precision", "coalescing_precision",
            coalescing_precision(result.log, forest.truth))
    except Exception as exc:
        fail("precision", exc)

    try:
        tnet, _ = true_network(forest)
        proj = project(result.provenance, forest)
        recon_labels = _communities(cfg, point, rep, result.graph, "recon")
        tnet_labels = _communities(cfg, point, rep, tnet, "true")
        proj_dense = np.searchsorted(tnet.labels, proj)
        add("community", "community_precision",
            community_precision(recon_labels, tnet_labels, proj_dense))
        add("community", "nmi", nmi(recon_labels, tnet_labels[proj_dense]))
    except Exception as exc:
        fail("community", exc)
        return tables

    def underlying() -> tuple:
        props = vertex_properties(
            graph, _communities(cfg, point, rep, graph, "underlying"))
        for a in props:
            a.flags.writeable = False
        return props

    try:
        u_deg, u_kout, u_emb = _memoized(memo, ("underlying", point.mu, rep),
                                         underlying)
        r_deg, r_kout, r_emb = vertex_properties(result.graph, recon_labels)
        for name, uvals, rvals in (("degree", u_deg, r_deg),
                                   ("k_out", u_kout, r_kout),
                                   ("embeddedness", u_emb, r_emb)):
            try:
                ids, means = aggregate_by_projection(rvals, proj)
                add("rank", f"spearman_{name}", spearman(uvals[ids], means))
            except Exception as exc:
                fail(f"rank:{name}", exc)
    except Exception as exc:
        fail("rank", exc)
    return tables


def metric_rows_for_point(cfg: ExperimentConfig, point: SweepPoint, rep: int,
                          memo: dict | None = None) -> dict[str, list]:
    """One repetition's precision/community/rank/error rows, by table.

    ``memo``, shared by the points of one (mu, rep) group, keeps the
    attribute maps and the underlying vertex properties between them;
    each is keyed on the values its seed uses, so the rows are the same
    with or without it.
    """
    tables = _tables("metrics")
    try:
        graph, _ = _network(cfg, point, rep)
        attrs, dist = _attributes(cfg, point, rep, graph, memo)
        forest = _sample(cfg, point, rep, graph, attrs)
        result = _reconstruct(cfg, point, rep, graph.n, forest, dist,
                              tables["errors"])
    except Exception as exc:  # config-level/feasibility failures
        tables["errors"].append(_param_cells(cfg, point, rep) + ["setup", str(exc)])
        return tables
    return _merge(tables, _score(cfg, point, rep, graph, forest, result, memo))


def _pinned_point(cfg: ExperimentConfig, method: str,
                  n_t_frac: float | None) -> SweepPoint:
    """The sweep cell the epidemic block runs at: first value of each axis."""
    return SweepPoint(method=method, assortative=cfg.assortative[0],
                      g=cfg.g[0], c=cfg.c[0], f=cfg.f[0],
                      mu=cfg.mu_axis()[0],
                      n_t_frac=n_t_frac)


def epidemic_rows_for_point(cfg: ExperimentConfig, method: str,
                            n_t_frac: float | None,
                            memo: dict | None = None) -> dict[str, list]:
    """Build a reconstruction ensemble and score every strategy/budget;
    returns the epidemic and error rows, by table.

    Each strategy ranks the vertices once, at its first positive budget;
    a budget immunizes the first ``max(1, round(budget * n))`` of its
    order (none at budget 0, which ranks nothing).
    """
    tables = _tables("epidemic")
    rows, errors = tables["epidemic"], tables["errors"]
    point = _pinned_point(cfg, method, n_t_frac)
    cells = _param_cells(cfg, point, 0)
    try:
        graph, _ = _network(cfg, point, 0)
        attrs, dist = _attributes(cfg, point, 0, graph, memo)
        ensemble: list[Graph] = []
        projections: list[np.ndarray] = []
        for i in range(cfg.ensemble):
            irep = f"0.{i}"
            forest = _sample(cfg, point, irep, graph, attrs)
            result = _reconstruct(cfg, point, irep, graph.n, forest, dist,
                                  errors)
            ensemble.append(result.graph)
            projections.append(project(result.provenance, forest))
    except Exception as exc:
        errors.append(cells + ["epidemic-setup", str(exc)])
        return tables

    sir = cfg.sir_params()
    for token in cfg.strategies:
        spec = parse_strategy(token)
        key = (cfg.seed, "epidemic", point.key(), spec.kind, spec.property)
        # ranked at the first positive budget; a ranking that fails fails
        # every positive budget
        order = None
        for budget in cfg.budgets:
            count = max(1, round(budget * graph.n)) if budget > 0 else 0
            try:
                chosen = np.zeros(0, dtype=np.int64)
                if count:
                    if order is None:
                        order = immunization_order(graph, spec,
                                                   derive_seed(*key, 0),
                                                   ensemble, projections)
                    if count > order.size:
                        raise ValueError(f"budget {count} exceeds the "
                                         f"{order.size} vertices the "
                                         "strategy ranks")
                    chosen = order[:count]
                out = evaluate_strategy(graph, chosen, sir, cfg.sir_runs,
                                        derive_seed(*key, repr(budget), 0))
            except Exception as exc:
                errors.append(cells + [f"epidemic:{token}", str(exc)])
                continue
            base = cells + [spec.kind, spec.property, _fmt(float(budget))]
            rows.append(base + ["epidemic_size_mean", _fmt(out.mean),
                                str(out.runs)])
            rows.append(base + ["epidemic_size_std", _fmt(out.std),
                                str(out.runs)])
    return tables


# -- top-level driver ------------------------------------------------------


def _group_task(args):
    """The tables of one group's tasks, in order; the tasks share one memo.

    Each task function is looked up as a module global at call time and
    gets the memo by keyword, so a wrapper installed on the global sees
    the same positional arguments as an unmemoized call.
    """
    cfg, tasks = args
    memo: dict = {}
    return [(epidemic_rows_for_point if epidemic else metric_rows_for_point)(
                cfg, *point_args, memo=memo)
            for epidemic, point_args in tasks]


def _map_tasks(fn, tasks: list, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, over ``jobs`` worker processes if > 1."""
    if jobs > 1 and tasks:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks, chunksize=1))
    return [fn(t) for t in tasks]


def write_tables(out: str, tables: dict[str, list[list[str]]]) -> dict[str, str]:
    """Write each table as ``<out>/<name>.csv`` under its header; returns
    a name -> path map of the written files."""
    os.makedirs(out, exist_ok=True)
    written = {}
    for name, rows in tables.items():
        written[name] = os.path.join(out, f"{name}.csv")
        with open(written[name], "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(TABLES[name])
            w.writerows(rows)
    return written


def run_pipeline(cfg: ExperimentConfig, jobs: int = 1,
                 stage: str = "all") -> dict[str, str]:
    """Run the sweep and write the tables of ``stage`` under ``cfg.out``.

    ``stage`` limits the work: "metrics" (the three per-run tables),
    "epidemic", or "all" (see :data:`STAGES`).  Returns a name -> path
    map of the written files.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    cfg.validate()
    os.makedirs(cfg.out, exist_ok=True)  # an unusable out fails before the sweep
    # (group, epidemic?, arguments after cfg) of every task, in table order
    tasks = []
    if "precision" in STAGES[stage]:
        tasks += [(("metrics", point.mu, rep), False, (point, rep))
                  for point in cfg.points() for rep in range(cfg.repetitions)]
    if "epidemic" in STAGES[stage] and cfg.epidemic:
        tasks += [(("epidemic", m, nt), True, (m, nt))
                  for m in cfg.method for nt in cfg.n_t_frac_axis()]
    groups: dict[tuple, list[int]] = {}
    for i, (group, _, _) in enumerate(tasks):
        groups.setdefault(group, []).append(i)
    results: list = [None] * len(tasks)
    _network_of.cache_clear()  # no network outlives a run
    try:
        group_tables = _map_tasks(
            _group_task,
            [(cfg, [tasks[i][1:] for i in idx]) for idx in groups.values()], jobs)
    finally:
        _network_of.cache_clear()
    for idx, task_tables in zip(groups.values(), group_tables):
        for i, t in zip(idx, task_tables):
            results[i] = t
    tables = _tables(stage)
    for t in results:
        _merge(tables, t)
    return write_tables(cfg.out, tables)
