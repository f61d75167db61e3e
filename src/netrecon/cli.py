"""Command line entry points.

``netrecon run`` executes the full sweep from a config file.  The other
subcommands run one stage at a time on a single sweep point (every
sweep axis must then hold exactly one value), passing intermediate
results through plain files in the output directory:

    generate     -> network.edges, attributes.txt [, planted.txt]
    sample       -> forest.txt, truth.txt
    reconstruct  -> recon.edges, provenance.txt, merges.csv
    communities  -> communities_network.txt [, communities_recon.txt]
    metrics      -> precision.csv, community.csv, rank.csv
    epidemic     -> epidemic.csv

Each stage command reads its input files, calls the same stage function
of :mod:`netrecon.pipeline` that ``run`` calls (at repetition 0), and
writes the result, so chaining them reproduces the corresponding rows
of a full ``run``.  attributes.txt and forest.txt start with a ``# g N``
line, and a stage refuses a file whose g is not the config's.
merges.csv, headed ``event,survivor,absorbed,probability,attempts``, is
the merge log, one merge per line (see
:func:`netrecon.reconstruct.write_merges`).  The later stages rebuild
the reconstruction from forest.txt, truth.txt and merges.csv, replaying
the log at the run's n_t, and refuse a log that no reconstruction of
the forest to that size could write; recon.edges and provenance.txt are
written for inspection only.
``epidemic`` reads no file: it builds its network and attributes from
the config.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .attributes import AttributeMap
from .communities import modularity
from .config import ExperimentConfig, load_config
from .generate import realized_mixing
from .graph import Graph, load_edge_list, write_edge_list, write_partition
from .pipeline import (STAGES, _attributes, _communities, _distribution,
                       _network, _reconstruct, _sample, _score, _target_size,
                       epidemic_rows_for_point, run_pipeline, write_tables)
from .reconstruct import ReconResult, read_merges, write_merges
from .sampling import SampleForest, read_forest, read_truth, write_forest, write_truth

__all__ = ["main"]


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out"] = args.out
    return replace(cfg, **updates) if updates else cfg


def _single_point(cfg: ExperimentConfig):
    points = cfg.points()
    if len(points) != 1:
        raise SystemExit(
            "stage commands need a single sweep point; "
            f"this config expands to {len(points)} points")
    return points[0]


def _out_path(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _write_results(cfg: ExperimentConfig, tables: dict) -> int:
    """Print the (stage, message) of each error row of ``tables`` as a
    warning and write the other tables; returns their row count."""
    for err in tables.pop("errors"):
        print(f"warning: {err[-2]}: {err[-1]}", file=sys.stderr)
    write_tables(cfg.out, tables)
    return sum(map(len, tables.values()))


def cmd_run(cfg: ExperimentConfig, args) -> int:
    written = run_pipeline(cfg, jobs=args.jobs, stage=args.stage)
    for name, path in sorted(written.items()):
        print(f"{name}: {path}")
    return 0


def cmd_generate(cfg: ExperimentConfig, args) -> int:
    point = _single_point(cfg)
    graph, planted = _network(cfg, point, 0)
    if planted is not None:
        write_partition(planted, _out_path(cfg, "planted.txt"))
        print(f"n={graph.n} m={graph.m} "
              f"mixing={realized_mixing(graph, planted):.4f}")
    else:
        print(f"n={graph.n} m={graph.m} "
              f"(dropped {graph.dropped_duplicates} duplicate, "
              f"{graph.dropped_self_loops} self-loop lines)")
    write_edge_list(graph, _out_path(cfg, "network.edges"))
    attrs, _ = _attributes(cfg, point, 0, graph)
    attrs.write(_out_path(cfg, "attributes.txt"))
    print(f"wrote network.edges and attributes.txt (g={point.g})")
    return 0


def _read(cfg: ExperimentConfig, name: str, read, *args, g: int | None = None):
    """``read(path, *args)`` of the stage file ``name``.  An error in the
    file names it, and so does a category count other than ``g``."""
    path = os.path.join(cfg.out, name)
    try:
        obj = read(path, *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if g is not None and obj.g != g:
        raise ValueError(f"{path} has g = {obj.g}, but the config has g = {g}")
    return obj


def _load_network(cfg: ExperimentConfig) -> Graph:
    return _read(cfg, "network.edges", load_edge_list)


def cmd_sample(cfg: ExperimentConfig, args) -> int:
    point = _single_point(cfg)
    graph = _load_network(cfg)
    attrs = _read(cfg, "attributes.txt", AttributeMap.read, g=point.g)
    if attrs.values.size != graph.n:
        raise ValueError(
            f"attributes cover {attrs.values.size} vertices but the edge list "
            f"has {graph.n}; the edge-list format cannot represent isolated "
            "vertices")
    forest = _sample(cfg, point, 0, graph, attrs)
    write_forest(forest, _out_path(cfg, "forest.txt"))
    write_truth(forest, _out_path(cfg, "truth.txt"))
    print(f"paths={int(forest.tree.max()) + 1} respondents={forest.n_r} "
          f"friends={forest.n_f} true_size={forest.n_t}")
    return 0


def _load_forest(cfg: ExperimentConfig, point):
    """forest.txt with the truth of truth.txt attached."""
    forest = _read(cfg, "forest.txt", read_forest, g=point.g)
    truth = _read(cfg, "truth.txt", read_truth, forest.size)
    return replace(forest, truth=truth)


def cmd_reconstruct(cfg: ExperimentConfig, args) -> int:
    point = _single_point(cfg)
    forest = _load_forest(cfg, point)
    errors: list[list[str]] = []
    result = _reconstruct(cfg, point, 0, _load_network(cfg).n, forest,
                          _distribution(cfg, point.g), errors)
    _write_results(cfg, {"errors": errors})
    write_edge_list(result.graph, _out_path(cfg, "recon.edges"))
    write_partition(result.provenance, _out_path(cfg, "provenance.txt"))
    write_merges(result.log, _out_path(cfg, "merges.csv"))
    print(f"vertices={result.graph.n} edges={result.graph.m} "
          f"merges={len(result.log)} attempts={result.attempts}")
    return 0


def _load_recon(cfg: ExperimentConfig, point, n: int,
                forest: SampleForest) -> ReconResult:
    """Rebuild the reconstruction of ``forest``, sampled from a network of
    ``n`` vertices, from merges.csv."""
    return _read(cfg, "merges.csv", read_merges, forest,
                 _distribution(cfg, point.g), _target_size(cfg, point, n, forest))


def cmd_communities(cfg: ExperimentConfig, args) -> int:
    point = _single_point(cfg)
    graph = _load_network(cfg)
    labels = _communities(cfg, point, 0, graph, "underlying")
    write_partition(labels, _out_path(cfg, "communities_network.txt"))
    print(f"network: {labels.max() + 1} communities, "
          f"modularity={modularity(graph, labels):.4f}")
    if os.path.exists(os.path.join(cfg.out, "merges.csv")):
        rgraph = _load_recon(cfg, point, graph.n, _load_forest(cfg, point)).graph
        rlabels = _communities(cfg, point, 0, rgraph, "recon")
        write_partition(rlabels, _out_path(cfg, "communities_recon.txt"))
        print(f"reconstruction: {rlabels.max() + 1} communities, "
              f"modularity={modularity(rgraph, rlabels):.4f}")
    return 0


def cmd_metrics(cfg: ExperimentConfig, args) -> int:
    """Score the artifacts in the output directory (single point, rep 0)."""
    point = _single_point(cfg)
    forest = _load_forest(cfg, point)
    graph = _load_network(cfg)
    count = _write_results(cfg, _score(cfg, point, 0, graph, forest,
                                       _load_recon(cfg, point, graph.n, forest)))
    print(f"wrote {count} metric rows")
    return 0


def cmd_epidemic(cfg: ExperimentConfig, args) -> int:
    point = _single_point(cfg)
    count = _write_results(cfg, epidemic_rows_for_point(cfg, point.method,
                                                        point.n_t_frac))
    print(f"wrote {count} epidemic rows")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "generate": cmd_generate,
    "sample": cmd_sample,
    "reconstruct": cmd_reconstruct,
    "communities": cmd_communities,
    "metrics": cmd_metrics,
    "epidemic": cmd_epidemic,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netrecon",
        description="Network reconstruction from anonymous path samples")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--out", default=None, help="override the output dir")
        if name == "run":
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel worker processes")
            p.add_argument("--stage", default="all", choices=STAGES,
                           help="restrict which tables are computed")
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        return _COMMANDS[args.command](cfg, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
