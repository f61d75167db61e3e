"""Flat key = value experiment configs and sweep-grid expansion."""

import pytest

from netrecon.config import ExperimentConfig, load_config, parse_config, parse_strategy

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
        parse_config(GOOD + "\nmethod = dfs\n")
    with pytest.raises(ValueError, match="unknown distribution"):
        parse_config(GOOD + "\ndistribution = zipf\n")
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
])
def test_validation_rejects_bad_sweep_and_sir_values(line, message):
    with pytest.raises(ValueError, match=message):
        parse_config(GOOD + f"\n{line}\n")


def test_fraction_rule_expands_sweep():
    cfg = parse_config(GOOD + "\nn_t_rule = fraction-of-n\nn_t_frac = 0.05, 0.08\n")
    assert len(cfg.points()) == 2 * 2 * 2 * 2
    assert {p.n_t_frac for p in cfg.points()} == {0.05, 0.08}


def test_parse_strategy_tokens():
    assert parse_strategy("underlying-top") == ("underlying-top", "degree")
    assert parse_strategy("reconstructed-top:k_out") == ("reconstructed-top", "k_out")
    assert parse_strategy(" random-whole ") == ("random-whole", "degree")
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


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD)
    assert load_config(path) == parse_config(GOOD)
