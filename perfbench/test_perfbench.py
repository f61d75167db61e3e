"""Fast checks of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench
"""

import csv
import itertools
import json
import math

import pytest

import run
from spans import TARGETS, Span, Tracer, self_times

MODS = run.load_package()

from netrecon.attributes import assign_attributes, discretized_normal  # noqa: E402
from netrecon.config import parse_config  # noqa: E402
from netrecon.generate import LfrParams, generate_lfr_like  # noqa: E402
from netrecon.reconstruct import ReconState  # noqa: E402
from netrecon.sampling import elicit_friends, sample_paths  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [Span("pipeline.task", 0.0, 10.0, -1, "a"),
             Span("generate", 1.0, 4.0, 0, "a"),
             Span("reconstruct", 5.0, 9.0, 0, "a"),
             Span("communities", 6.0, 7.5, 2, "a")]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.5])


def test_tracer_records_nesting_and_self_time():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("communities", lambda: None)
    outer = tracer.wrap("metrics", lambda: inner() or inner())
    outer()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("metrics", -1), ("communities", 0), ("communities", 0)]
    # outer spans ticks 0..5, each inner call one tick
    assert tracer.self_s_by_name() == {"metrics": 3.0, "communities": 2.0}


def test_tracer_keeps_the_exception_skips_missing_targets_and_restores():
    tracer = Tracer()

    def stall(forest, dist, n_t, seed):
        raise RuntimeError("stalled")

    class Mod:
        pass

    mods = {}
    for mod, attr, _ in TARGETS:
        m = mods.setdefault(mod, Mod())
        setattr(m, attr, stall)
    del mods["pipeline"].true_network  # a target a refactor removed
    with tracer.installed(mods):
        with pytest.raises(RuntimeError):
            mods["pipeline"].reconstruct(None, None, 1, 0)
    assert mods["pipeline"].reconstruct is stall
    assert tracer.missing == ["pipeline.true_network"]
    (call,) = tracer.calls_named("reconstruct")
    assert isinstance(call.error, RuntimeError) and call.result is None


@pytest.mark.parametrize("n", [100, 101, 150, 999, 1000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    xs = [float(i) for i in range(n)]
    p, value = run.tail_percentile(xs[::-1])
    beyond = sum(x > value for x in xs)
    assert beyond >= 10
    # one percentile higher would leave fewer than ten beyond it
    if p < 99:
        rank = math.ceil((p + 1) * n / 100)
        assert n - rank < 10
    assert p >= run.TAIL_MIN_P


@pytest.mark.parametrize("n", [1, 3, 19, 20, 40, 99])
def test_tail_percentile_is_the_maximum_below_a_hundred_samples(n):
    xs = [float(i) for i in range(n)]
    assert run.tail_percentile(xs[::-1]) == (100, n - 1.0)


def test_tail_percentile_examples():
    assert run.tail_percentile([float(i) for i in range(100)]) == (90, 89.0)
    assert run.tail_percentile([float(i) for i in range(200)]) == (95, 189.0)


def test_nearest_rank_median_is_a_sample_of_one_task_kind():
    plain, assortative = [1.0, 1.2, 1.1, 0.9], [4.0, 3.5, 3.8, 4.2]
    assert run.nearest_rank(plain + assortative, 50) == 1.2
    assert run.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert run.nearest_rank([5.0], 50) == 5.0


def test_initial_pairs_matches_the_coalescer_index():
    dist = discretized_normal(12)
    g, _ = generate_lfr_like(LfrParams(n=120, k_avg=6, k_max=15, mu=0.2,
                                       tau1=2.5, tau2=1, c_min=10, c_max=30,
                                       seed=3))
    attrs = assign_attributes(g.n, dist, 4)
    forest = elicit_friends(g, attrs, sample_paths(g, 12, "rpm", 5), 4, 2, 6)
    state = ReconState(forest.without_truth(), dist, forest.n_t)
    assert run.initial_pairs(forest) == len(state.pairs)


TINY = """\
network = lfr
n = 100
k_avg = 6
k_max = 15
tau1 = 2.5
tau2 = 1
mu = 0.2
c_min = 10
c_max = 30
g = 10
f = 3
c = 1
method = hpm
n_t_rule = fraction-of-n
epidemic = true
ensemble = 3
budgets = 0.01
sir_runs = 3
strategies = reconstructed-top:degree,random-whole
seed = 1
"""


def test_failed_frac_counts_every_stalled_reconstruction(tmp_path):
    # n_t_frac 0.02 asks for 2 groups from one respondent and its
    # friends; friends of one respondent never merge, so every ensemble
    # member stalls.
    cfg = parse_config(TINY + f"n_t_frac = 0.02\nout = {tmp_path}\n")
    written = MODS["pipeline"].run_pipeline(cfg, stage="epidemic")
    attempted, failed, stalled, problems = run.check_tables(cfg, "epidemic", written)
    assert problems == []
    assert attempted == 3 + 2  # ensemble members + strategy evaluations
    # a stall still yields the partial network, so it is not a failure
    assert (failed, stalled) == (0, 3)
    stalls = run.read_rows(written["errors"])
    assert [e["stage"] for e in stalls] == ["reconstruct"] * 3

    metrics, attempted, failed, _, _ = run.run_traced(
        MODS, cfg, "epidemic", 0, tmp_path / "spans.jsonl")
    assert (attempted, failed) == (2 * 5, 0)  # an untraced and a traced run
    assert metrics["reconstruct.stalled_calls"][0] == 3
    assert metrics["pipeline.failed_frac"][0] == 3 / 5


def test_failed_counts_operations_without_a_result(tmp_path):
    cfg = parse_config(TINY + f"n_t_frac = 0.02\nout = {tmp_path}\n")
    written = MODS["pipeline"].run_pipeline(cfg, stage="epidemic")
    header = MODS["pipeline"].ERROR_HEADER
    with open(written["errors"], "a", encoding="utf-8", newline="") as fh:
        csv.DictWriter(fh, header, restval="").writerow(
            {"run_id": "x", "stage": "epidemic:random-whole", "error": "boom"})
    attempted, failed, stalled, problems = run.check_tables(cfg, "epidemic", written)
    assert (attempted, failed, stalled) == (5, 1, 3)
    assert problems == ["4 epidemic rows for 2 evaluations"]


BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SWEEP = TINY.replace("method = hpm\nn_t_rule = fraction-of-n\nepidemic = true\n",
                     "method = rpm\nassortative = false,true\n"
                     "assort_attempts_per_vertex = 2\nrepetitions = 1\n")


def listed(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_end_to_end_run_reports_the_listed_metrics(tmp_path):
    text = SWEEP + f"out = {tmp_path}\n"
    metrics, attempted, failed, problems, record = run.run_end_to_end(
        MODS, parse_config(text), "metrics", text, 0, check_jobs=True)
    assert problems == [] and record["runs"] == 2
    assert len(record["digest"]) == 1
    assert record["jobs2_digest"] == record["digest"][0]
    assert {k: u for k, (v, u) in metrics.items()} == listed("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())
    assert (attempted, failed) == (2 * 2, 0)  # two runs of two tasks


def test_traced_run_reports_the_listed_metrics(tmp_path):
    cfg = parse_config(SWEEP + f"out = {tmp_path}\n")
    spans_path = tmp_path / "spans.jsonl"
    metrics, _, _, problems, record = run.run_traced(MODS, cfg, "metrics", 0, spans_path)
    assert problems == []
    assert {k: u for k, (v, u) in metrics.items()} == listed("per_layer")
    value = {k: v for k, (v, u) in metrics.items()}
    assert value["pipeline.tasks"] == 2
    assert value["generate.calls"] == 2 and value["generate.redundant_calls"] == 1
    assert value["attributes.assortative.calls"] == 1
    assert value["reconstruct.calls"] == 2 and value["reconstruct.stalled_calls"] == 0
    assert value["communities.calls"] == 6
    assert value["epidemic.sir_calls"] == 0
    spans = [json.loads(ln) for ln in spans_path.read_text().splitlines()]
    assert len(spans) == record["spans"]
    assert {s["run_id"] for s in spans if s["name"] == "pipeline.task"} == {
        r["run_id"] for r in run.read_rows(tmp_path / "precision.csv")}
    assert [s["run_id"] for s in spans if s["parent"] == -1] == [""]
    for s in spans:
        if s["parent"] >= 0 and spans[s["parent"]]["name"] == "pipeline.task":
            assert s["run_id"] == spans[s["parent"]]["run_id"]
