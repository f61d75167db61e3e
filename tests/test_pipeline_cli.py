"""Pipeline tables, determinism, parallelism, and the command line."""

import csv

import numpy as np
import pytest

from netrecon import ReconState, cli, epidemic, pipeline, uniform_distribution
from netrecon.cli import main
from netrecon.config import parse_config
from netrecon.generate import LfrParams, generate_lfr_like
from netrecon.graph import Graph, write_edge_list
from netrecon.pipeline import (
    EPIDEMIC_HEADER,
    ERROR_HEADER,
    METRIC_HEADER,
    PARAM_HEADER,
    STAGES,
    metric_rows_for_point,
    run_id_for,
    run_pipeline,
)
from netrecon.sampling import RESPONDENT, read_forest, read_truth

TINY = """
network = lfr
n = 120
k_avg = 6
k_max = 15
mu = 0.3
c_min = 8
c_max = 30
distribution = uniform
g = 20
method = rpm
f = 5
c = 1
repetitions = 2
ensemble = 3
seed = 11
"""

EPI = TINY + """
epidemic = true
budgets = 0.05
strategies = underlying-top:degree, random-whole
sir_runs = 10
"""


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_tiny(tmp_path, text, name, **kwargs):
    cfg = parse_config(text + f"\nout = {tmp_path / name}\n")
    return cfg, run_pipeline(cfg, **kwargs)


def test_pipeline_writes_tables(tmp_path):
    cfg, written = run_tiny(tmp_path, TINY, "a")
    assert set(written) == {"precision", "community", "rank", "epidemic",
                            "errors"}
    prec = read_table(written["precision"])
    assert prec[0] == METRIC_HEADER
    # one precision row per (point, repetition)
    data = [r for r in prec[1:]
            if r[METRIC_HEADER.index("metric")] == "coalescing_precision"]
    assert len(data) == len(cfg.points()) * cfg.repetitions
    for row in data:
        assert 0.0 <= float(row[METRIC_HEADER.index("value")]) <= 1.0
    comm = read_table(written["community"])
    assert comm[0] == METRIC_HEADER
    metrics = {r[METRIC_HEADER.index("metric")] for r in comm[1:]}
    assert metrics == {"community_precision", "nmi"}
    rank = read_table(written["rank"])
    props = {r[METRIC_HEADER.index("metric")] for r in rank[1:]}
    assert props == {"spearman_degree", "spearman_k_out",
                     "spearman_embeddedness"}
    # epidemics were not requested: table holds only its header
    assert read_table(written["epidemic"]) == [EPIDEMIC_HEADER]


def test_pipeline_rerun_is_byte_identical(tmp_path):
    _, first = run_tiny(tmp_path, TINY, "a")
    _, second = run_tiny(tmp_path, TINY, "b")
    assert set(first) == set(second)
    for name in first:
        a = open(first[name], "rb").read()
        b = open(second[name], "rb").read()
        assert a == b, f"{name} differs between reruns"


def test_pipeline_jobs_do_not_change_output(tmp_path):
    _, serial = run_tiny(tmp_path, EPI, "serial", jobs=1)
    _, parallel = run_tiny(tmp_path, EPI, "parallel", jobs=2)
    for name in serial:
        assert (open(serial[name], "rb").read()
                == open(parallel[name], "rb").read()), name


def test_one_pool_serves_both_stages(tmp_path, monkeypatch):
    """A stage=all run maps every task group, metric and epidemic, in one
    _map_tasks call: one worker pool under --jobs."""
    calls = []
    monkeypatch.setattr(pipeline, "_map_tasks",
                        counting(calls, pipeline._map_tasks))
    cfg, _ = run_tiny(tmp_path, EPI, "pool", jobs=2)
    assert len(calls) == 1
    (_, groups, jobs), _ = calls[0]
    assert jobs == 2
    assert len(groups) == (cfg.repetitions
                           + len(cfg.method) * len(cfg.n_t_frac_axis()))


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_each_stage_writes_its_tables(tmp_path, stage):
    cfg, written = run_tiny(tmp_path, EPI, stage, stage=stage)
    assert set(written) == set(STAGES[stage])
    assert sorted(p.name for p in (tmp_path / stage).iterdir()) == sorted(
        f"{name}.csv" for name in STAGES[stage])


def test_pipeline_epidemic_stage(tmp_path):
    cfg, written = run_tiny(tmp_path, EPI, "epi", stage="epidemic")
    assert set(written) == {"epidemic", "errors"}
    table = read_table(written["epidemic"])
    assert table[0] == EPIDEMIC_HEADER
    strategies = {r[EPIDEMIC_HEADER.index("strategy")] for r in table[1:]}
    assert strategies == {"underlying-top", "random-whole"}
    metrics = {r[EPIDEMIC_HEADER.index("metric")] for r in table[1:]}
    assert metrics == {"epidemic_size_mean", "epidemic_size_std"}
    assert all(r[EPIDEMIC_HEADER.index("repetitions")] == "10"
               for r in table[1:])


def test_zero_budget_immunizes_nobody(tmp_path, monkeypatch):
    """A zero budget immunizes no vertex; a positive one at least one."""
    specs = []
    monkeypatch.setattr(pipeline, "evaluate_strategy",
                        counting(specs, pipeline.evaluate_strategy))
    text = EPI.replace("budgets = 0.05", "budgets = 0.0, 0.001")
    _, written = run_tiny(tmp_path, text, "zero", stage="epidemic")
    assert [args[1].size for args, _ in specs] == [0, 1, 0, 1]
    table = read_table(written["epidemic"])
    budget = EPIDEMIC_HEADER.index("budget")
    assert [r[budget] for r in table[1::2]] == ["0.0", "0.001"] * 2


def test_zero_budget_ranks_nothing(tmp_path, monkeypatch):
    """A strategy is ranked only for a positive budget."""
    calls = []
    monkeypatch.setattr(epidemic, "detect", counting(calls, epidemic.detect))
    text = (EPI.replace("budgets = 0.05", "budgets = 0.0")
            .replace("underlying-top:degree, random-whole",
                     "reconstructed-top:k_out"))
    _, written = run_tiny(tmp_path, text, "zero-rank", stage="epidemic")
    assert len(read_table(written["epidemic"])) == 1 + 2
    assert calls == []


@pytest.mark.parametrize("token", ["reconstructed-top:degree",
                                   "reconstructed-frequency-random"])
def test_budget_beyond_the_ranked_pool_is_an_error(tmp_path, token):
    """A budget larger than the vertices seen in the ensemble writes one
    error row and no epidemic row; the smaller budget is still scored."""
    text = (EPI.replace("budgets = 0.05", "budgets = 0.05, 0.9")
            .replace("underlying-top:degree, random-whole", token))
    _, written = run_tiny(tmp_path, text, "beyond", stage="epidemic")
    errors = read_table(written["errors"])[1:]
    assert [r[-2] for r in errors] == [f"epidemic:{token}"]
    assert errors[0][-1].startswith("budget 108 exceeds the ")
    assert errors[0][-1].endswith(" vertices the strategy ranks")
    table = read_table(written["epidemic"])[1:]
    budget = EPIDEMIC_HEADER.index("budget")
    assert [r[budget] for r in table] == ["0.05", "0.05"]


ALL_KINDS = ("underlying-top:embeddedness-low, reconstructed-top:k_out, "
             "reconstructed-frequency-random, random-whole")


def test_larger_budgets_immunize_supersets(tmp_path, monkeypatch):
    """Each strategy ranks once, so the set a budget immunizes contains
    the set of every smaller budget."""
    calls = []
    monkeypatch.setattr(pipeline, "evaluate_strategy",
                        counting(calls, pipeline.evaluate_strategy))
    text = (EPI.replace("budgets = 0.05", "budgets = 0.0, 0.01, 0.05")
            .replace("underlying-top:degree, random-whole", ALL_KINDS))
    cfg, written = run_tiny(tmp_path, text, "nested", stage="epidemic")
    assert read_table(written["errors"]) == [ERROR_HEADER]
    chosen = [set(args[1].tolist()) for args, _ in calls]
    assert len(chosen) == len(cfg.strategies) * 3
    for small, mid, large in zip(chosen[::3], chosen[1::3], chosen[2::3]):
        assert [len(small), len(mid), len(large)] == [0, 1, 6]
        assert small <= mid <= large


@pytest.mark.parametrize("token, per_member", [
    ("reconstructed-top:k_out", 1), ("reconstructed-frequency-random", 0)])
def test_strategy_detects_once_per_member(tmp_path, monkeypatch, token,
                                          per_member):
    """With two budgets, a k_out ranking detects communities once per
    ensemble member, and the frequency ranking never does."""
    calls = []
    monkeypatch.setattr(epidemic, "detect", counting(calls, epidemic.detect))
    text = (EPI.replace("budgets = 0.05", "budgets = 0.01, 0.05")
            .replace("underlying-top:degree, random-whole", token))
    cfg, written = run_tiny(tmp_path, text, "count", stage="epidemic")
    assert len(read_table(written["epidemic"])) == 1 + 2 * 2
    members = {id(args[0]) for args, _ in calls}
    assert len(calls) == len(members) == per_member * cfg.ensemble


def test_pipeline_rejects_unknown_stage(tmp_path):
    cfg = parse_config(TINY + f"\nout = {tmp_path / 'x'}\n")
    with pytest.raises(ValueError, match="stage"):
        run_pipeline(cfg, stage="frobnicate")


def test_pipeline_seed_changes_results(tmp_path):
    _, a = run_tiny(tmp_path, TINY, "a")
    _, b = run_tiny(tmp_path, TINY.replace("seed = 11", "seed = 12"), "b")
    assert open(a["precision"]).read() != open(b["precision"]).read()


def test_pipeline_records_stalls_and_continues(tmp_path):
    """A target far below what coalescing can reach stalls; the pipeline
    logs the stall, keeps the partial reconstruction, and finishes.

    With one respondent every pair of occurrences is barred from merging
    (the respondent is adjacent to its own friends; two friends named by
    the same respondent are distinct people), so a two-vertex target is
    unreachable by construction.
    """
    text = TINY.replace("method = rpm", "method = hpm") + \
        "n_t_rule = fraction-of-n\nn_t_frac = 0.02\n"
    cfg, written = run_tiny(tmp_path, text, "stall")
    errors = read_table(written["errors"])
    assert errors[0] == ERROR_HEADER
    stages = [row[-2] for row in errors[1:]]
    assert "reconstruct" in stages
    # the sweep still completed and wrote every table
    assert set(written) == {"precision", "community", "rank", "epidemic",
                            "errors"}


# Two (mu, rep) groups per mu, each holding the four method x assortative
# points: the sweep shape the per-group memo serves.
GROUPED = (TINY.replace("method = rpm", "method = rpm, hpm")
           .replace("mu = 0.3", "mu = 0.2, 0.3") + "assortative = false, true\n")
TABLES = ("precision", "community", "rank", "errors")


def unmemoized_tables(cfg):
    """The four tables' rows from memo-free per-point calls, in sweep order."""
    tables = {name: [] for name in TABLES}
    for point in cfg.points():
        for rep in range(cfg.repetitions):
            for name, rows in metric_rows_for_point(cfg, point, rep).items():
                tables[name].extend(rows)
    return tables


@pytest.mark.parametrize("jobs", [1, 2])
def test_memoized_sweep_matches_unmemoized_points(tmp_path, jobs):
    cfg, written = run_tiny(tmp_path, GROUPED, f"jobs{jobs}", jobs=jobs,
                            stage="metrics")
    assert len(cfg.points()) == 8
    expected = unmemoized_tables(cfg)
    assert len(expected["precision"]) == 16
    for name in TABLES:
        assert read_table(written[name])[1:] == expected[name], name


def counting(calls, fn):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, out))
        return out
    return wrapper


def test_memo_computes_each_artifact_once_per_key(tmp_path, monkeypatch):
    gen, shuffle, det = [], [], []
    monkeypatch.setattr(pipeline, "generate_lfr_like",
                        counting(gen, pipeline.generate_lfr_like))
    monkeypatch.setattr(pipeline, "make_assortative",
                        counting(shuffle, pipeline.make_assortative))
    monkeypatch.setattr(pipeline, "detect", counting(det, pipeline.detect))
    run_tiny(tmp_path, GROUPED, "count", stage="metrics")

    # one network per (mu, rep): its seed carries mu and rep
    keys = [(p.mu, p.seed) for (p,), _ in gen]
    assert len(keys) == len(set(keys)) == 2 * 2
    networks = [out[0] for _, out in gen]
    # one shuffle per (network, g, rep): its seed carries g and rep
    keys = [(id(args[0]), args[3]) for args, _ in shuffle]
    assert len(keys) == len(set(keys)) == 2 * 2
    assert {id(args[0]) for args, _ in shuffle} == {id(g) for g in networks}
    # one underlying detect per network
    under = [id(args[0]) for args, _ in det
             if any(args[0] is g for g in networks)]
    assert sorted(under) == sorted(id(g) for g in networks)


def test_failed_artifact_is_not_memoized(tmp_path, monkeypatch):
    calls = []

    def broken(params):
        calls.append(params)
        raise RuntimeError("generator down")

    monkeypatch.setattr(pipeline, "generate_lfr_like", broken)
    cfg, written = run_tiny(tmp_path, GROUPED, "fail", stage="metrics")
    errors = read_table(written["errors"])[1:]
    expected = sorted(run_id_for(point, rep) for point in cfg.points()
                      for rep in range(cfg.repetitions))
    assert sorted(r[0] for r in errors) == expected
    assert {(r[-2], r[-1]) for r in errors} == {("setup", "generator down")}
    assert len(calls) == len(expected)
    assert read_table(written["precision"]) == [METRIC_HEADER]


def test_each_run_generates_its_network_once(tmp_path, monkeypatch):
    """The epidemic groups of two n_t_frac values share one generated
    network; the next run generates it again, even when a build made
    outside a run is still cached, nothing of it is kept after a run,
    and --jobs 2 writes the same tables."""
    gen = []
    monkeypatch.setattr(pipeline, "generate_lfr_like",
                        counting(gen, pipeline.generate_lfr_like))
    text = EPI + "n_t_rule = fraction-of-n\nn_t_frac = 0.1, 0.2\n"
    cfg, first = run_tiny(tmp_path, text, "a", stage="epidemic")
    assert len(cfg.n_t_frac_axis()) == 2 and len(gen) == 1
    assert pipeline._network_of.cache_info().currsize == 0
    _, partition = pipeline._network_of(*gen[0][0])  # shared, so read-only
    assert not partition.flags.writeable
    _, second = run_tiny(tmp_path, text, "b", stage="epidemic")
    assert len(gen) == 3 and gen[0][0] == gen[2][0]
    _, jobs2 = run_tiny(tmp_path, text, "c", stage="epidemic", jobs=2)
    rows = read_table(first["epidemic"])[1:]
    assert {r[PARAM_HEADER.index("n_t_frac")] for r in rows} == {"0.1", "0.2"}
    for name in first:
        assert (read_table(first[name]) == read_table(second[name])
                == read_table(jobs2[name])), name


def test_edge_list_run_reads_its_file_once(tmp_path, monkeypatch):
    """Both repetitions of an edge-list run share one read of the file,
    and nothing of it is kept after the run."""
    path = tmp_path / "net.edges"
    graph, _ = generate_lfr_like(LfrParams(
        n=120, k_avg=6, k_max=15, mu=0.3, tau1=3.0, tau2=1.0, c_min=8,
        c_max=30, seed=1))
    write_edge_list(graph, path)
    reads = []
    monkeypatch.setattr(pipeline, "load_edge_list",
                        counting(reads, pipeline.load_edge_list))
    text = TINY.replace("network = lfr", "network = edgelist").replace(
        "mu = 0.3", f"edgelist_path = {path}")
    cfg, written = run_tiny(tmp_path, text, "once", stage="metrics")
    assert cfg.repetitions == 2
    assert [args for args, _ in reads] == [(str(path),)]
    assert pipeline._network_of.cache_info().currsize == 0
    rep_col = METRIC_HEADER.index("rep")
    assert {r[rep_col] for r in read_table(written["precision"])[1:]} == {"0", "1"}


def test_edge_list_is_reread_on_every_run(tmp_path):
    """Two in-process runs on one edge-list path follow the file's
    content at the time of each run."""
    path = tmp_path / "net.edges"
    text = TINY.replace("network = lfr", "network = edgelist").replace(
        "mu = 0.3", f"edgelist_path = {path}")

    def run(name, seed):
        graph, _ = generate_lfr_like(LfrParams(
            n=120, k_avg=6, k_max=15, mu=0.3, tau1=3.0, tau2=1.0, c_min=8,
            c_max=30, seed=seed))
        write_edge_list(graph, path)
        _, written = run_tiny(tmp_path, text, name, stage="metrics")
        return {k: read_table(v) for k, v in written.items()}

    first = run("a", seed=1)
    second = run("b", seed=2)
    assert first["precision"] != second["precision"]
    assert run("c", seed=1) == first
    path.write_text("# no edges\n")
    _, written = run_tiny(tmp_path, text, "d", stage="metrics")
    errors = read_table(written["errors"])[1:]
    assert len(errors) == 2
    assert all(r[-2:] == ["setup", "edge list is empty"] for r in errors)


def test_run_id_is_stable():
    cfg = parse_config(TINY + "\nout = x\n")
    point = cfg.points()[0]
    assert run_id_for(point, 0) == run_id_for(point, 0)
    assert run_id_for(point, 0) != run_id_for(point, 1)
    assert len(run_id_for(point, 0)) == 10


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_run_and_overrides(tmp_path):
    path = write_cfg(tmp_path, TINY)
    out = tmp_path / "cli-out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert (out / "precision.csv").exists()
    # --seed override must change the tables
    out2 = tmp_path / "cli-out2"
    assert main(["run", "--config", path, "--out", str(out2),
                 "--seed", "99"]) == 0
    assert ((out / "precision.csv").read_text()
            != (out2 / "precision.csv").read_text())


HPM = TINY.replace("method = rpm", "method = hpm")


CHAIN = {"rpm": TINY,
         "hpm-fraction-of-n": HPM + "n_t_rule = fraction-of-n\nn_t_frac = 0.3\n",
         "hpm-assortative": HPM + "assortative = true\n"}
# hpm at n_t = 12 stalls after 21 merges
STALLS = HPM + "n_t_rule = fraction-of-n\nn_t_frac = 0.1\n"


@pytest.mark.parametrize("text", CHAIN.values(), ids=CHAIN.keys())
def test_cli_stage_chain_matches_run(tmp_path, text):
    """generate -> sample -> reconstruct -> communities -> metrics yields
    exactly the repetition-0 metric rows of the packaged sweep.  The
    later stages rebuild the reconstruction from merges.csv, without
    recon.edges and provenance.txt, which are written for inspection
    only."""
    path = write_cfg(tmp_path, text)
    run_dir = tmp_path / "full"
    stage_dir = tmp_path / "stages"
    assert main(["run", "--config", path, "--out", str(run_dir)]) == 0
    for step in ("generate", "sample", "reconstruct", "communities",
                 "metrics"):
        assert main([step, "--config", path, "--out", str(stage_dir)]) == 0
        if step == "reconstruct":
            (stage_dir / "recon.edges").unlink()
            (stage_dir / "provenance.txt").unlink()
    rep_col = METRIC_HEADER.index("rep")
    for name in ("precision", "community", "rank"):
        full = read_table(run_dir / f"{name}.csv")
        staged = read_table(stage_dir / f"{name}.csv")
        assert staged[0] == full[0]
        assert staged[1:] == [r for r in full[1:] if r[rep_col] == "0"], name
    # intermediate artifacts exist
    for artifact in ("network.edges", "attributes.txt", "forest.txt",
                     "truth.txt", "merges.csv", "communities_network.txt",
                     "communities_recon.txt"):
        assert (stage_dir / artifact).exists(), artifact


@pytest.mark.parametrize("text", [*CHAIN.values(), STALLS],
                         ids=[*CHAIN, "hpm-stalls"])
def test_merge_log_rebuilds_the_runs_reconstruction(tmp_path, text):
    """The reconstruction that the later stages rebuild from forest.txt,
    truth.txt and merges.csv is, field by field, the one that the run's
    reconstruct step returns in process: the log with each event's
    probability and attempts, the attempts, the provenance and the
    graph.  A stalled run's partial result comes back the same way."""
    path = write_cfg(tmp_path, text)
    out = tmp_path / "stages"
    for step in ("generate", "sample", "reconstruct"):
        assert main([step, "--config", path, "--out", str(out)]) == 0
    cfg = parse_config(text + f"\nout = {out}\n")
    (point,) = cfg.points()
    graph, _ = pipeline._network(cfg, point, 0)
    attrs, dist = pipeline._attributes(cfg, point, 0, graph)
    forest = pipeline._sample(cfg, point, 0, graph, attrs)
    errors = []
    run = pipeline._reconstruct(cfg, point, 0, graph.n, forest, dist, errors)
    assert [e[-2] for e in errors] == (["reconstruct"] if text == STALLS else [])
    assert run.log and run.graph.n > forest.n_r
    staged = cli._load_recon(cfg, point, graph.n, cli._load_forest(cfg, point))
    assert staged.log == run.log
    assert staged.attempts == run.attempts == sum(ev.attempts for ev in run.log)
    assert staged.provenance.tolist() == run.provenance.tolist()
    for field in Graph.__slots__:
        a, b = getattr(staged.graph, field), getattr(run.graph, field)
        assert np.array_equal(a, b) if a is not None else b is None, field


def test_cli_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "missing.cfg" in capsys.readouterr().err
    bad = write_cfg(tmp_path, "network = lfr\nn = 10\nbogus = 1\n", "bad.cfg")
    assert main(["run", "--config", bad]) == 2
    assert "unknown key" in capsys.readouterr().err
    # stage commands refuse a config that expands to a sweep
    sweep = write_cfg(tmp_path, TINY.replace("g = 20", "g = 20, 40"),
                      "sweep.cfg")
    with pytest.raises(SystemExit, match="single sweep point"):
        main(["generate", "--config", sweep, "--out", str(tmp_path / "x")])
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", bad])


def test_cli_stages_refuse_files_of_another_g(tmp_path, capsys):
    """attributes.txt and forest.txt carry the g they were made with; a
    stage whose config has another g exits 2, naming the file and both
    values, whether g changed before sample or before reconstruct."""
    path = write_cfg(tmp_path, TINY)
    other = write_cfg(tmp_path, TINY.replace("g = 20", "g = 40"), "other.cfg")
    out = tmp_path / "stages"
    assert main(["generate", "--config", path, "--out", str(out)]) == 0
    assert (out / "attributes.txt").read_text().startswith("# g 20\n")
    capsys.readouterr()
    assert main(["sample", "--config", other, "--out", str(out)]) == 2
    assert "attributes.txt has g = 20, but the config has g = 40" in \
        capsys.readouterr().err
    for step in ("sample", "reconstruct"):
        assert main([step, "--config", path, "--out", str(out)]) == 0
    for step in ("reconstruct", "communities", "metrics"):
        assert main([step, "--config", other, "--out", str(out)]) == 2
        assert "forest.txt has g = 20, but the config has g = 40" in \
            capsys.readouterr().err


def set_field(i, value):
    """A line edit that sets the i-th whitespace-separated field."""
    def edit(line):
        fields = line.split()
        fields[i] = value
        return " ".join(fields)
    return edit


@pytest.mark.parametrize("name, step, line, edit, message", [
    ("network.edges", "sample", 5, lambda s: s + " 7",
     "expected two vertex labels, got 3"),
    ("attributes.txt", "sample", 1, lambda s: "# g ten",
     "invalid literal for int() with base 10: 'ten'"),
    ("forest.txt", "reconstruct", 3, set_field(2, "Q"), "unknown kind 'Q'"),
    ("truth.txt", "reconstruct", 4, set_field(1, "x"),
     "non-integer vertex or value"),
], ids=["network", "attributes-header", "forest", "truth"])
def test_cli_stage_file_errors_name_the_file(tmp_path, capsys, name, step,
                                             line, edit, message):
    """A malformed line in a stage file ends the command with exit 2 and
    an error naming the file and the line."""
    path = write_cfg(tmp_path, TINY)
    out = tmp_path / "stages"
    for s in ("generate", "sample"):
        assert main([s, "--config", path, "--out", str(out)]) == 0
    lines = (out / name).read_text().splitlines()
    lines[line - 1] = edit(lines[line - 1])
    (out / name).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([step, "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: {out / name}: line {line}: {message}\n"


def test_cli_rejects_a_malformed_merge_log(tmp_path, capsys):
    """A merges.csv with another header, or a row that is malformed,
    is numbered out of its place in the log, merges no two alive groups, joins two groups that no reconstruction
    could join, carries a probability other than the replayed one or
    attempts below 1, or follows a log that already reached n_t, ends
    the metrics and communities commands with an error naming the file
    and the line, not a traceback or wrong scores."""
    path = write_cfg(tmp_path, TINY)
    out = tmp_path / "stages"
    for step in ("generate", "sample", "reconstruct"):
        assert main([step, "--config", path, "--out", str(out)]) == 0
    merges = out / "merges.csv"
    header, *rows = merges.read_text().splitlines()
    assert header == "event,survivor,absorbed,probability,attempts" and rows
    event, s, o, prob, attempts = rows[0].split(",")
    forest = read_forest(out / "forest.txt")
    kind, parent = forest.kind.tolist(), forest.parent.tolist()
    lo, hi = forest.lo.tolist(), forest.hi.tolist()
    r0, r1 = [i for i, k in enumerate(kind) if k == RESPONDENT][:2]
    # a friend whose category may be its respondent's
    named = next(i for i, p in enumerate(parent) if kind[i] != RESPONDENT
                 and lo[i] <= lo[p] <= hi[i])
    f0, f1 = next((i, j) for i in range(forest.size) for j in range(i)
                  if RESPONDENT not in (kind[i], kind[j])
                  and (hi[i] < lo[j] or hi[j] < lo[i]))
    # the run reached n_t, the true size; one more event the merge rules
    # allow, at its replayed probability
    n_t = len(set(read_truth(out / "truth.txt").tolist()))
    assert forest.size - len(rows) == n_t
    state = ReconState(forest, uniform_distribution(20), n_t)
    for row in rows:
        state.merge(*map(int, row.split(",")[1:3]))
    a, b = next((a, b) for b in range(forest.size) for a in range(b)
                if state.pair_probability(a, b))
    more = state.pair_probability(a, b)
    survivor = state.merge(a, b)
    extra = f"{len(rows)},{survivor},{a + b - survivor},{more!r},1"
    half = float(prob) / 2
    capsys.readouterr()
    for lines, line, message in (
            ([header, "0,1"], 2, "expected 5, got 2"),
            ([header, "0,1,x,0.5,1"], 2, "invalid literal for int()"),
            ([header, "0,,3,0.5,1"], 2, "invalid literal for int()"),
            ([header, f"x,{s},{o},{prob},{attempts}", *rows[1:]], 2,
             "invalid literal for int() with base 10: 'x'"),
            ([header, f"5,{s},{o},{prob},{attempts}", *rows[1:]], 2,
             "expected event 0, got event 5"),
            ([header, rows[0], rows[0]], 3, "expected event 1, got event 0"),
            ([header, "0,1,100000,0.5,1"], 2, "group ids must lie in [0, "),
            ([header, f"{event},{s},{o},0.0,{attempts}", *rows[1:]], 2,
             f"probability 0.0 is not the replayed merge probability {prob}"),
            ([header, f"{event},{s},{o},{half!r},{attempts}", *rows[1:]], 2,
             f"probability {half!r} is not the replayed merge probability "
             f"{prob}"),
            ([header, f"{event},{s},{o},{prob},0", *rows[1:]], 2,
             "attempts 0 is below 1"),
            ([header, f"{event},{s},{o},{prob},x", *rows[1:]], 2,
             "invalid literal for int() with base 10: 'x'"),
            ([header, *rows, extra], len(rows) + 2,
             f"the log already reached the target size {n_t}"),
            ([header, f"0,{s},{s},0.5,1"], 2, f"group {s} merged with itself"),
            ([header, rows[0], f"1,{s},{o},0.5,1"], 3,
             f"group {o} was absorbed by an earlier event"),
            ([header, rows[0], f"1,{o},{s},0.5,1"], 3,
             f"group {o} was absorbed by an earlier event"),
            ([header, f"0,{r0},{r1},0.5,1"], 2, "respondent groups never merge"),
            ([header, f"0,{parent[named]},{named},0.5,1"], 2,
             "merging groups that are adjacent or share a respondent"),
            ([header, f"0,{f0},{f1},0.5,1"], 2,
             "merging groups with disjoint descriptions"),
            ([header, f"{event},{o},{s},0.5,1"], 2,
             f"merging groups {o} and {s} keeps group {s}, not {o}"),
            (["event,survivor,absorbed,probability",
              *(r.rsplit(",", 1)[0] for r in rows)], 1,
             "expected the header event,survivor,absorbed,probability,attempts"),
            (["event,members_a,members_b,probability,attempts", *rows], 1,
             "expected the header event,survivor,absorbed,probability,attempts")):
        merges.write_text("\n".join(lines) + "\n")
        for step in ("metrics", "communities"):
            assert main([step, "--config", path, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert f"merges.csv: line {line}: " in err


def test_cli_epidemic_subcommand(tmp_path):
    path = write_cfg(tmp_path, EPI)
    out = tmp_path / "epi-out"
    assert main(["epidemic", "--config", path, "--out", str(out)]) == 0
    table = read_table(out / "epidemic.csv")
    assert table[0] == EPIDEMIC_HEADER
    assert len(table) > 1
