"""Flat key = value experiment configs and sweep-grid expansion."""

from dataclasses import fields, replace

import pytest

from netrecon.config import ExperimentConfig, load_config, parse_config, parse_strategy
from netrecon.epidemic import SirParams, StrategySpec
from netrecon.pipeline import _pinned_point

GOOD = """
# synthetic benchmark
network = lfr
n = 400
k_avg = 8
k_max = 25
mu = 0.1, 0.3        # sweep axis
c_min = 10
c_max = 40

distribution = uniform
g = 50, 100
method = rpm, hpm
f = 5
c = 1
repetitions = 3
seed = 7
out = results
"""


def good_with(lines: str) -> str:
    """GOOD with each ``key = value`` of ``lines`` in place of that key's
    own line, since a config may set a key only once."""
    keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in GOOD.splitlines()
            if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept) + f"\n{lines}\n"


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.n == 400
    assert cfg.mu == (0.1, 0.3)
    assert cfg.g == (50, 100)
    assert cfg.method == ("rpm", "hpm")
    assert cfg.repetitions == 3
    assert cfg.distribution == "uniform"


def test_sweep_points_cartesian():
    cfg = parse_config(GOOD)
    points = cfg.points()
    # method x g x mu (assortative, c, f are singletons)
    assert len(points) == 2 * 2 * 2
    assert points == cfg.points()  # stable ordering
    keys = {p.key() for p in points}
    assert len(keys) == len(points)


def test_point_key_names_values_not_positions():
    cfg = parse_config(GOOD)
    point = cfg.points()[0]
    key = point.key()
    assert f"g={point.g}" in key
    assert f"method={point.method}" in key


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("network = lfr\nn = 10\nspeed = 11\n")


def test_parse_rejects_bad_syntax():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("just words\n")
    with pytest.raises(ValueError, match="boolean"):
        parse_config(GOOD + "\nepidemic = maybe\n")


def test_validation_network_source():
    with pytest.raises(ValueError, match="two network sources"):
        parse_config(GOOD + "\nedgelist_path = g.edges\n")
    with pytest.raises(ValueError, match="needs edgelist_path"):
        parse_config("network = edgelist\ng = 10\n")
    with pytest.raises(ValueError, match="mu does not apply"):
        parse_config("network = edgelist\nedgelist_path = x\ng = 10\nmu = 0.1\n")


def test_validation_various():
    with pytest.raises(ValueError, match="unknown sampling method"):
        parse_config(good_with("method = dfs"))
    with pytest.raises(ValueError, match="unknown distribution"):
        parse_config(good_with("distribution = zipf"))
    with pytest.raises(ValueError, match="n_t rule"):
        parse_config(GOOD + "\nn_t_rule = half\n")
    with pytest.raises(ValueError, match="needs n_t_frac"):
        parse_config(GOOD + "\nn_t_rule = fraction-of-n\n")
    with pytest.raises(ValueError, match="n_r_frac"):
        parse_config(GOOD + "\nn_r_frac = 0\n")
    with pytest.raises(ValueError, match="unknown strategy"):
        parse_config(GOOD + "\nstrategies = betweenness-top\n")


@pytest.mark.parametrize("frac", ["-0.5", "0", "1.5", "0.05, 2"])
def test_validation_rejects_n_t_frac_outside_unit_interval(frac):
    with pytest.raises(ValueError, match="n_t_frac values must lie in"):
        parse_config(GOOD + f"\nn_t_rule = fraction-of-n\nn_t_frac = {frac}\n")


@pytest.mark.parametrize("line, message", [
    ("g = 50, 0", "g and c values must be positive"),
    ("c = 0", "g and c values must be positive"),
    ("f = -1", "f values nonnegative"),
    ("sir_beta = 2", "beta must lie in"),
    ("sir_init_frac = 0", "init_frac must lie in"),
    ("sir_steps = 0", "infectious_steps must be positive"),
    ("k_max = 1", "degree targets must be at least 2"),
    ("mu = 0.1, 1.5", "mu must lie in"),
    ("c_min = 50", "c_min <= c_max"),
    ("tau1 = 1", "power-law exponents out of range"),
    ("k_avg = 30", "k_avg cannot exceed k_max"),
    ("k_max = 400", "k_max must be below n"),
    ("k_avg = 2\nk_max = 100\ntau1 = 1.1", "cannot reach mean degree 2.0"),
    ("n = 50\nc_min = 30\nc_max = 40",
     r"no community count k satisfies k\*30 <= 50 <= k\*40"),
])
def test_validation_rejects_bad_sweep_and_sir_values(line, message):
    with pytest.raises(ValueError, match=message):
        parse_config(good_with(line))


def test_fraction_rule_expands_sweep():
    cfg = parse_config(GOOD + "\nn_t_rule = fraction-of-n\nn_t_frac = 0.05, 0.08\n")
    assert len(cfg.points()) == 2 * 2 * 2 * 2
    assert {p.n_t_frac for p in cfg.points()} == {0.05, 0.08}


def test_sweep_axes_apply_only_where_they_mean_something():
    """mu is an axis of an lfr network only, n_t_frac of the fraction-of-n
    rule only; the sweep points and the epidemic block's pinned point
    read the same axes."""
    cfg = parse_config(GOOD + "\nn_t_frac = 0.05\n")  # true-network-size
    assert cfg.mu_axis() == (0.1, 0.3) and cfg.n_t_frac_axis() == (None,)
    assert {(p.mu, p.n_t_frac) for p in cfg.points()} == {(0.1, None), (0.3, None)}
    loaded = replace(cfg, network="edgelist", edgelist_path="net.edges", mu=(),
                     n_t_rule="fraction-of-n")
    assert loaded.mu_axis() == (None,) and loaded.n_t_frac_axis() == (0.05,)
    assert {(p.mu, p.n_t_frac) for p in loaded.points()} == {(None, 0.05)}
    pinned = _pinned_point(loaded, "rpm", 0.05)
    assert pinned in loaded.points()


def test_parse_strategy_tokens():
    assert parse_strategy("underlying-top") == StrategySpec("underlying-top", "degree")
    assert parse_strategy("reconstructed-top:k_out") == StrategySpec(
        "reconstructed-top", "k_out")
    assert parse_strategy(" random-whole ") == StrategySpec("random-whole", "degree")
    with pytest.raises(ValueError):
        parse_strategy("reconstructed-top:betweenness")


def test_defaults_match_documented_protocol():
    cfg = parse_config("network = lfr\nn = 100\nmu = 0.1\nk_avg = 5\nk_max = 20\n"
                       "c_min = 5\nc_max = 20\ng = 50\n")
    assert cfg.f == (5,)
    assert cfg.c == (1,)
    assert cfg.n_r_frac == 0.08
    assert cfg.n_t_rule == "true-network-size"
    assert cfg.distribution == "normal"
    assert cfg.sir_beta == 0.08
    assert cfg.sir_steps == 4
    assert cfg.sir_init_frac == 0.002
    assert cfg.sir_params() == SirParams()


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD)
    assert load_config(path) == parse_config(GOOD)


def test_parse_rejects_a_repeated_key():
    with pytest.raises(ValueError, match=r"^line 2: duplicate key 'g'$"):
        parse_config("g = 20\ng = 50\n")


@pytest.mark.parametrize("line, message", [
    ("n = ten", r"^line 1: n: invalid literal for int\(\)"),
    ("mu = 0.1, x", r"^line 1: mu: could not convert string to float"),
    ("assortative = true, maybe", r"^line 1: assortative: expected a boolean"),
])
def test_parse_error_names_the_line_and_key(line, message):
    with pytest.raises(ValueError, match=message):
        parse_config(line + "\n")


def _config_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_config_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def test_every_field_parses_from_a_config_line():
    """A config that sets every field to a value other than its default
    parses back to itself, so no field lacks a parser."""
    lfr = ExperimentConfig(
        network="lfr", n=300, k_avg=6.5, k_max=20, tau1=2.5, tau2=1.5,
        c_min=8, c_max=30, mu=(0.1, 0.25), distribution="uniform",
        g=(20, 40), assortative=(False, True), assort_attempts_per_vertex=7,
        method=("hpm", "rpm"), n_r_frac=0.1, f=(3, 4), c=(2,),
        n_t_rule="fraction-of-n", n_t_frac=(0.05, 0.1), repetitions=2,
        ensemble=3, epidemic=True, budgets=(0.0, 0.01),
        strategies=("random-whole", "reconstructed-top:k_out"), sir_runs=9,
        sir_init_frac=0.01, sir_beta=0.2, sir_steps=3, seed=5, out="elsewhere")
    loaded = replace(lfr, network="edgelist", edgelist_path="net.edges", mu=())
    set_fields = set()
    for cfg in (lfr, loaded):
        lines = [f"{f.name} = {_config_value(getattr(cfg, f.name))}"
                 for f in fields(cfg) if getattr(cfg, f.name) not in (None, ())]
        assert parse_config("\n".join(lines)) == cfg
        set_fields |= {f.name for f in fields(cfg)
                       if getattr(cfg, f.name) != f.default}
    assert set_fields == {f.name for f in fields(ExperimentConfig)}
