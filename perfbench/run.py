"""netrecon sweep benchmark.

    python3 perfbench/run.py --workload sweep-heavy --seed 1 --seconds 40 --trace 0

Runs ``netrecon.pipeline.run_pipeline`` in process at jobs=1 on the
named workload (see workloads.py), built from ``--seed``.  It repeats
the run for about ``--seconds`` seconds and reports medians.

``--trace 0`` reports the end-to-end metrics from untraced runs.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones; the spans are written to
``.perfbench/<workload>/spans-seed<N>.jsonl``.

Every timed run must write byte-identical tables; on sweep-heavy the
same sweep at jobs=2 must too.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from statistics import median

from spans import Tracer, task_timer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_BEFORE, SETUP_AFTER = 2, 1  # samples before the timed runs, after each
CHECK_JOBS = 2
CHECKED_WORKLOAD = "sweep-heavy"  # the workload re-run at CHECK_JOBS

# Imports the package and parses the config in a fresh interpreter.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import netrecon.pipeline
from netrecon.config import parse_config
parse_config(sys.stdin.read())
print(time.perf_counter() - t0)
"""


def load_package():
    """Import netrecon from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "netrecon" / "__init__.py").is_file():
        raise SystemExit(f"no netrecon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import netrecon
    from netrecon import epidemic, pipeline
    if not Path(netrecon.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"netrecon imported from {netrecon.__file__}, not {SRC}")
    return {"pipeline": pipeline, "epidemic": epidemic}


# -- statistics -------------------------------------------------------------


TAIL_MIN_P = 90  # a lower percentile is not a tail


def nearest_rank(samples: list[float], p: int) -> float:
    """The p-th percentile by the nearest-rank method: always a sample.

    Task times are a mix of task kinds, for example the plain and the
    assortative tasks of sweep-heavy.  A median that averages the two
    middle samples would fall between two kinds and carry the noise of
    both; the nearest-rank median is a sample of one kind.
    """
    xs = sorted(samples)
    return xs[max(1, math.ceil(p * len(xs) / 100)) - 1]


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """(p, value) for the highest whole percentile with at least 10 samples
    above its nearest-rank position.

    With fewer than 100 samples that percentile is below p90, and it
    would fall on another task kind as the sample count changes from run
    to run; the tail is then the maximum, reported as p100.
    """
    n = len(samples)
    p = (100 * (n - 10)) // n  # nearest rank ceil(p n / 100) <= n - 10
    if p < TAIL_MIN_P:
        return 100, max(samples)
    return p, nearest_rank(samples, p)


# -- one run ----------------------------------------------------------------


def digest(written: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(written):
        h.update(name.encode() + b"\0")
        with open(written[name], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def timed_run(pipeline, cfg, stage: str, call=None):
    """Run the sweep once at jobs=1; returns (wall_s, cpu_s, written tables)."""
    call = call or pipeline.run_pipeline
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    written = call(cfg, jobs=1, stage=stage)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return wall, cpu, written


def repeat_for(seconds: float, run_once, at_least: int) -> list:
    """Call ``run_once`` ``at_least`` times, and again while a median run
    started now would end less than half a run after ``seconds``, so
    that the runs fill ``seconds`` on average."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        r = run_once()
        results.append(r)
        walls.append(r[0])
        if (len(results) >= at_least
                and time.perf_counter() - start + median(walls) / 2 > seconds):
            return results


def setup_samples(cfg_text: str, count: int) -> list[float]:
    """Times to import netrecon and parse the config, each in a fresh process."""
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             input=cfg_text, capture_output=True, text=True,
                             check=True, timeout=120)
        times.append(float(out.stdout.strip()))
    return times


# -- output checks ------------------------------------------------------------


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


RANGES = {"coalescing_precision": (0.0, 1.0), "community_precision": (0.0, 1.0),
          "nmi": (0.0, 1.0), "spearman_degree": (-1.0, 1.0),
          "spearman_k_out": (-1.0, 1.0), "spearman_embeddedness": (-1.0, 1.0)}
ROW_STAGES = ("reconstruct", "precision", "community", "rank")


def check_tables(cfg, stage: str, written: dict[str, str]):
    """Sanity-check one run's tables.

    Returns (attempted, failed, stalled, problems).  An operation is one
    reconstruction or one strategy x budget evaluation.  A stalled
    reconstruction is counted in ``stalled``, not in ``failed``: the
    pipeline records the stall and carries on with the partial network,
    so the operation still yields a result.  ``failed`` counts
    operations that yield none.
    """
    problems: list[str] = []
    errors = read_rows(written["errors"])
    for e in errors:
        if not (e["stage"].startswith(ROW_STAGES) or e["stage"].startswith("epidemic:")):
            problems.append(f"{e['stage']} error: {e['error']}")
    stalled = sum(e["stage"] == "reconstruct" for e in errors)
    failed_ops = len({e["run_id"] for e in errors
                      if e["stage"] != "reconstruct" and not e["stage"].startswith("epidemic:")})
    failed_ops += sum(e["stage"].startswith("epidemic:") for e in errors)

    def check_values(name, rows, lo_hi):
        for r in rows:
            v = float(r["value"])
            lo, hi = lo_hi(r)
            if not (math.isfinite(v) and lo <= v <= hi):
                problems.append(f"{name}: {r['metric']} = {v} outside [{lo}, {hi}]")

    attempted = 0
    if stage == "metrics":
        tasks = len(cfg.points()) * cfg.repetitions
        attempted += tasks
        for name in ("precision", "community", "rank"):
            rows = read_rows(written[name])
            check_values(name, rows, lambda r: RANGES[r["metric"]])
        prec = read_rows(written["precision"])
        lost = sum(e["stage"] in ("setup", "precision") for e in errors)
        if len(prec) + lost != tasks:
            problems.append(f"{len(prec)} precision rows for {tasks} tasks")
    if stage == "epidemic":
        epi_tasks = len(cfg.method) * len(cfg.n_t_frac)
        evaluations = epi_tasks * len(cfg.strategies) * len(cfg.budgets)
        attempted += epi_tasks * cfg.ensemble + evaluations
        rows = read_rows(written["epidemic"])
        check_values("epidemic", rows, lambda r: (0.0, float(cfg.n)) if
                     r["metric"] == "epidemic_size_std" else (1.0, float(cfg.n)))
        lost = sum(e["stage"].startswith("epidemic:") for e in errors)
        if len(rows) != 2 * (evaluations - lost):
            problems.append(f"{len(rows)} epidemic rows for {evaluations} evaluations")
    return attempted, min(failed_ops, attempted), stalled, problems


def quality(written: dict[str, str]) -> dict[str, float]:
    """Result-quality means from the tables a workload writes."""
    out = {}
    by_metric: dict[str, list[float]] = {}
    for name in ("precision", "community", "rank"):
        if name in written:
            for r in read_rows(written[name]):
                by_metric.setdefault(r["metric"], []).append(float(r["value"]))
    for metric, key in (("coalescing_precision", "precision_mean"),
                        ("nmi", "nmi_mean"),
                        ("spearman_degree", "spearman_degree_mean")):
        if by_metric.get(metric):
            out[key] = statistics.fmean(by_metric[metric])
    if "epidemic" in written:
        sizes: dict[str, list[float]] = {}
        for r in read_rows(written["epidemic"]):
            if r["metric"] == "epidemic_size_mean":
                sizes.setdefault(f"{r['strategy']}:{r['property']}", []).append(
                    float(r["value"]))
        top, rnd = sizes.get("reconstructed-top:degree"), sizes.get("random-whole:degree")
        if top and rnd:
            out["epi_top_vs_random"] = statistics.fmean(top) / statistics.fmean(rnd)
    return out


# -- per-layer counters -----------------------------------------------------


def initial_pairs(forest) -> int:
    """Candidate pairs the coalescer indexes at the start.

    Pairs of occurrences whose category intervals overlap, minus the
    respondent-respondent ones, counted from the interval arrays.
    """
    import numpy as np
    from netrecon.sampling import RESPONDENT

    def overlapping(lo, hi) -> int:
        # ordered pairs (i, j), i == j included, with lo_j <= hi_i and
        # hi_j >= lo_i; hi_j < lo_i implies lo_j <= hi_i
        los, his = np.sort(lo), np.sort(hi)
        total = (np.searchsorted(los, hi, side="right")
                 - np.searchsorted(his, lo, side="left")).sum()
        return (int(total) - lo.size) // 2

    resp = forest.kind == RESPONDENT
    return (overlapping(forest.lo, forest.hi)
            - overlapping(forest.lo[resp], forest.hi[resp]))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counters of one traced run, derived after the run."""
    from netrecon.attributes import edge_discrepancy
    from netrecon.communities import modularity
    from netrecon.generate import realized_mixing
    from netrecon.reconstruct import ReconstructionStalled

    spans = tracer.spans
    self_s = tracer.self_s_by_name()
    m: dict[str, float] = {}

    def total(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def count(name):
        return sum(s.name == name for s in spans)

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    def redundant(seeds):
        seen, dup = set(), 0
        for s in seeds:
            dup += s in seen
            seen.add(s)
        return dup

    gen = tracer.calls_named("generate")
    m["generate.calls"] = len(gen)
    m["generate.redundant_calls"] = redundant(c.args[0].seed for c in gen)
    m["generate.self_s"] = total("generate")
    m["generate.edges"] = sum(c.result[0].m for c in gen)
    m["generate.mixing_abs_err"] = mean(
        [abs(realized_mixing(*c.result) - c.args[0].mu) for c in gen])

    asr = tracer.calls_named("attributes.assortative")
    m["attributes.assortative.calls"] = len(asr)
    m["attributes.assortative.redundant_calls"] = redundant(c.args[3] for c in asr)
    m["attributes.assortative.self_s"] = total("attributes.assortative")
    m["attributes.assortative.discrepancy_ratio"] = mean(
        [edge_discrepancy(c.args[0], c.result) / edge_discrepancy(c.args[0], c.args[1])
         for c in asr])
    m["attributes.assign.self_s"] = total("attributes.assign")

    m["sampling.self_s"] = total("sampling.paths", "sampling.elicit",
                                 "sampling.true_network")
    m["sampling.respondents"] = sum(
        sum(len(p) for p in c.result) for c in tracer.calls_named("sampling.paths"))
    m["sampling.occurrences"] = sum(
        c.result.size for c in tracer.calls_named("sampling.elicit"))

    rec = tracer.calls_named("reconstruct")
    results = [c.error.partial if isinstance(c.error, ReconstructionStalled)
               else c.result for c in rec]
    stalled = [c for c in rec if isinstance(c.error, ReconstructionStalled)]
    m["reconstruct.calls"] = len(rec)
    m["reconstruct.self_s"] = total("reconstruct")
    m["reconstruct.attempts"] = sum(r.attempts for r in results)
    m["reconstruct.merges"] = sum(len(r.log) for r in results)
    m["reconstruct.accept_ratio"] = (m["reconstruct.merges"] / m["reconstruct.attempts"]
                                     if m["reconstruct.attempts"] else 0.0)
    m["reconstruct.initial_pairs"] = sum(initial_pairs(c.args[0]) for c in rec)
    m["reconstruct.stalled_calls"] = len(stalled)
    m["reconstruct.stalled_s"] = sum(spans[c.span].end - spans[c.span].start
                                     for c in stalled)

    det = tracer.calls_named("communities")
    m["communities.calls"] = len(det)
    m["communities.self_s"] = total("communities")
    m["communities.vertices"] = sum(c.args[0].n for c in det)
    m["communities.modularity_mean"] = mean(
        [modularity(c.args[0], c.result) for c in det if c.args[0].m > 0])

    m["metrics.calls"] = count("metrics")
    m["metrics.self_s"] = total("metrics")

    sir = tracer.calls_named("epidemic.sir")
    m["epidemic.sir_calls"] = len(sir)
    m["epidemic.sir_self_s"] = total("epidemic.sir")
    m["epidemic.sir_infected_mean"] = mean([c.result for c in sir])
    m["epidemic.select_self_s"] = total("epidemic.select")

    m["pipeline.tasks"] = count("pipeline.task")
    m["pipeline.self_s"] = total("pipeline.task", "pipeline.run")
    return m


# -- modes --------------------------------------------------------------------


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": list(os.getloadavg())}


def run_end_to_end(mods, cfg, stage, cfg_text, seconds, check_jobs: bool):
    pipeline = mods["pipeline"]
    setup = setup_samples(cfg_text, SETUP_BEFORE)
    tasks: list[float] = []
    rss_mb: list[float] = []

    def once():
        with task_timer(pipeline, tasks):
            wall, cpu, written = timed_run(pipeline, cfg, stage)
        rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        setup.extend(setup_samples(cfg_text, SETUP_AFTER))
        return wall, cpu, digest(written), check_tables(cfg, stage, written), written

    runs = repeat_for(seconds, once, at_least=2)  # two digests to compare
    digests = {r[2] for r in runs}
    problems = [p for r in runs for p in r[3][3]]
    record = {"runs": len(runs), "walls": [r[0] for r in runs],
              "cpus": [r[1] for r in runs], "tasks": tasks,
              "peak_rss_mb_after_each": rss_mb, "setup_s": setup,
              "digest": sorted(digests)}
    if check_jobs:
        cfg2 = replace(cfg, out=str(Path(cfg.out) / f"jobs{CHECK_JOBS}"))
        written2 = pipeline.run_pipeline(cfg2, jobs=CHECK_JOBS, stage=stage)
        record[f"jobs{CHECK_JOBS}_digest"] = digest(written2)
        digests.add(record[f"jobs{CHECK_JOBS}_digest"])
    if len(digests) != 1:
        problems.append(f"table digests differ: {sorted(digests)}")
    p, tail = tail_percentile(tasks)
    record["task_tail"] = {"percentile": p, "samples": len(tasks)}
    record["quality"] = quality(runs[0][4])
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_s": (median([r[0] for r in runs]), "s"),
        "cpu_s": (median([r[1] for r in runs]), "s"),
        "task_p50_s": (nearest_rank(tasks, 50), "s"),
        "task_tail_s": (tail, "s"),
        "peak_rss_mb": (rss_mb[-1], "MB"),
    }
    attempted = sum(r[3][0] for r in runs)
    failed = sum(r[3][1] for r in runs)
    record["stalled"] = sum(r[3][2] for r in runs)
    return metrics, attempted, failed, problems, record


PER_LAYER_UNITS = {"calls": "count", "redundant_calls": "count",
                   "edges": "count", "respondents": "count",
                   "occurrences": "count", "attempts": "count",
                   "merges": "count", "initial_pairs": "count",
                   "stalled_calls": "count", "vertices": "count",
                   "sir_calls": "count", "tasks": "count",
                   "sir_infected_mean": "count"}


def run_traced(mods, cfg, stage, seconds, spans_path: Path):
    pipeline = mods["pipeline"]

    def run_id_of(fn_name, args):
        if fn_name == "metric_rows_for_point":
            _, point, rep = args
        else:
            cfg_, method, nt = args[:3]
            point, rep = pipeline._pinned_point(cfg_, method, nt), 0
        return pipeline.run_id_for(point, rep)

    tracers: list[Tracer] = []

    def pair():
        """An untraced then a traced run: (both walls, wall, traced wall,
        digest, traced digest, tables)."""
        wall, _, written = timed_run(pipeline, cfg, stage)
        plain_digest = digest(written)
        tracer = Tracer(run_id_of)
        with tracer.installed(mods) as root:
            traced_wall, _, written = timed_run(pipeline, cfg, stage,
                                                call=root(pipeline.run_pipeline))
        tracers.append(tracer)
        return (wall + traced_wall, wall, traced_wall, plain_digest,
                digest(written), written)

    pairs = repeat_for(seconds, pair, at_least=1)
    digests = {r[3] for r in pairs}
    traced_digests = {r[4] for r in pairs}
    problems = []
    if len(digests | traced_digests) != 1:
        problems.append(f"traced and untraced digests differ: "
                        f"{sorted(digests)} vs {sorted(traced_digests)}")
    written = pairs[-1][5]
    attempted, failed, stalled, probs = check_tables(cfg, stage, written)
    problems += probs

    per_run = [layer_metrics(t) for t in tracers]
    values = {k: median([r[k] for r in per_run]) for k in per_run[0]}
    values["trace.overhead_s"] = (median([r[2] for r in pairs])
                                  - median([r[1] for r in pairs]))
    values["pipeline.failed_frac"] = (failed + stalled) / attempted
    q = quality(written)
    for key in ("precision_mean", "nmi_mean", "spearman_degree_mean",
                "epi_top_vs_random"):
        values[f"result.{key}"] = q.get(key, 0.0)
    metrics = {}
    for k, v in values.items():
        leaf = k.rsplit(".", 1)[1]
        unit = PER_LAYER_UNITS.get(leaf, "s" if leaf.endswith("_s") else "ratio")
        metrics[k] = (v, unit)

    with open(spans_path, "w", encoding="utf-8") as fh:
        for rec in tracers[-1].records():
            fh.write(json.dumps(rec) + "\n")
    record = {"pairs": len(pairs), "digest": sorted(digests),
              "spans": len(tracers[-1].spans), "spans_file": spans_path.name,
              "untraced_targets": tracers[-1].missing, "quality": q}
    runs = 2 * len(pairs)  # an untraced and a traced run per pair
    return metrics, attempted * runs, failed * runs, problems, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = load_package()
    from netrecon.config import parse_config

    info = machine()
    wl = WORKLOADS[args.workload]
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_text = wl.config_text(args.seed, str(out_dir / f"trace{args.trace}"))
    cfg = parse_config(cfg_text)

    if args.trace:
        metrics, attempted, failed, problems, record = run_traced(
            mods, cfg, wl.stage, args.seconds, out_dir / f"spans-seed{args.seed}.jsonl")
    else:
        metrics, attempted, failed, problems, record = run_end_to_end(
            mods, cfg, wl.stage, cfg_text, args.seconds, wl.name == CHECKED_WORKLOAD)

    record.update({"workload": wl.name, "seed": args.seed,
                   "trace": args.trace, "machine": info, "problems": problems})
    with open(out_dir / f"record-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": record}))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
