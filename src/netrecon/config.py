"""Experiment configuration: a flat key=value file with sweep axes.

A config names exactly one network source (synthetic parameters or an
edge-list path), the attribute and sampling settings, and the axes to
sweep.  List-valued keys (comma separated) define the sweep grid:
``g``, ``c``, ``f``, ``mu``, ``n_t_frac``, ``method``, ``assortative``.
Everything else is a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .epidemic import DEFAULT_STRATEGIES, PROPERTIES, STRATEGY_KINDS, SirParams
from .generate import LfrParams, _degree_cutoff
from .sampling import METHODS

__all__ = ["ExperimentConfig", "SweepPoint", "parse_config"]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid."""

    method: str
    assortative: bool
    g: int
    c: int
    f: int
    mu: float | None
    n_t_frac: float | None

    def key(self) -> str:
        """Stable token used in seed derivation and run ids.

        Built from parameter *values*, so reordering sweep axes in the
        config cannot change any run's seed.
        """
        mu = "na" if self.mu is None else repr(self.mu)
        nt = "na" if self.n_t_frac is None else repr(self.n_t_frac)
        return (f"method={self.method},assort={int(self.assortative)},"
                f"g={self.g},c={self.c},f={self.f},mu={mu},ntfrac={nt}")


@dataclass(frozen=True)
class ExperimentConfig:
    # network source (exactly one)
    network: str = "lfr"
    edgelist_path: str | None = None
    n: int = 0
    k_avg: float = 0.0
    k_max: int = 0
    tau1: float = 3.0
    tau2: float = 1.0
    c_min: int = 0
    c_max: int = 0
    mu: tuple = ()

    # attributes
    distribution: str = "normal"
    g: tuple = ()
    assortative: tuple = (False,)
    assort_attempts_per_vertex: int = 100

    # sampling
    method: tuple = METHODS[:1]
    n_r_frac: float = 0.08
    f: tuple = (5,)
    c: tuple = (1,)

    # reconstruction
    n_t_rule: str = "true-network-size"
    n_t_frac: tuple = ()

    # repetitions
    repetitions: int = 20
    ensemble: int = 100

    # epidemics
    epidemic: bool = False
    budgets: tuple = (0.05,)
    strategies: tuple = DEFAULT_STRATEGIES
    sir_runs: int = 200
    sir_init_frac: float = 0.002
    sir_beta: float = 0.08
    sir_steps: int = 4

    seed: int = 0
    out: str = "results"

    def validate(self) -> None:
        if self.network not in ("lfr", "edgelist"):
            raise ValueError(f"network must be lfr or edgelist, got {self.network!r}")
        if self.network == "lfr":
            if self.edgelist_path:
                raise ValueError("config names two network sources; pick one")
            if self.n < 1 or not self.mu:
                raise ValueError("synthetic network needs n and mu")
            for mu in self.mu:
                LfrParams(self.n, self.k_avg, self.k_max, mu, self.tau1,
                          self.tau2, self.c_min, self.c_max)
            _degree_cutoff(self.k_avg, self.k_max, self.tau1)
        else:
            if not self.edgelist_path:
                raise ValueError("network = edgelist needs edgelist_path")
            if self.mu:
                raise ValueError("mu does not apply to a loaded network")
        if self.distribution not in ("normal", "uniform"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if not self.g:
            raise ValueError("need at least one g value")
        if any(x < 1 for x in self.g + self.c) or any(x < 0 for x in self.f):
            raise ValueError("g and c values must be positive, f values nonnegative")
        for m in self.method:
            if m not in METHODS:
                raise ValueError(f"unknown sampling method {m!r}")
        if self.n_t_rule not in ("true-network-size", "fraction-of-n"):
            raise ValueError(f"unknown n_t rule {self.n_t_rule!r}")
        if self.n_t_rule == "fraction-of-n" and not self.n_t_frac:
            raise ValueError("fraction-of-n rule needs n_t_frac values")
        if not 0 < self.n_r_frac <= 1:
            raise ValueError("n_r_frac must lie in (0, 1]")
        if any(not 0 < x <= 1 for x in self.n_t_frac):
            raise ValueError("n_t_frac values must lie in (0, 1]")
        if self.repetitions < 1 or self.ensemble < 1 or self.sir_runs < 1:
            raise ValueError("repetition counts must be positive")
        for b in self.budgets:
            if not 0 <= b < 1:
                raise ValueError("budgets are fractions of n below 1")
        for s in self.strategies:
            parse_strategy(s)
        SirParams(self.sir_init_frac, self.sir_beta, self.sir_steps)

    def points(self) -> list[SweepPoint]:
        mus = self.mu if self.network == "lfr" else (None,)
        nts = self.n_t_frac if self.n_t_rule == "fraction-of-n" else (None,)
        return [
            SweepPoint(m, a, gv, cv, fv, mv, nt)
            for m, a, gv, cv, fv, mv, nt in product(
                self.method, self.assortative, self.g, self.c, self.f, mus, nts)
        ]


def parse_strategy(token: str):
    """Parse a ``kind`` or ``kind:property`` strategy token."""
    kind, _, prop = token.partition(":")
    kind = kind.strip()
    prop = prop.strip() or "degree"
    if kind not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy {kind!r}")
    if prop not in PROPERTIES:
        raise ValueError(f"unknown strategy property {prop!r}")
    return kind, prop


_BOOL_TOKENS = {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}


def _as_bool(tok: str) -> bool:
    try:
        return _BOOL_TOKENS[tok.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {tok!r}") from None


_INT_KEYS = {"n", "k_max", "c_min", "c_max", "repetitions", "ensemble",
             "sir_runs", "sir_steps", "seed", "assort_attempts_per_vertex"}
_FLOAT_KEYS = {"k_avg", "tau1", "tau2", "n_r_frac", "sir_init_frac", "sir_beta"}
_STR_KEYS = {"network", "edgelist_path", "distribution", "n_t_rule", "out"}
_BOOL_KEYS = {"epidemic"}
_INT_LIST_KEYS = {"g", "c", "f"}
_FLOAT_LIST_KEYS = {"mu", "n_t_frac", "budgets"}
_STR_LIST_KEYS = {"method", "strategies"}
_BOOL_LIST_KEYS = {"assortative"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse key = value lines into an :class:`ExperimentConfig`.

    Blank lines and ``#`` comments are ignored; unknown keys are an
    error so typos do not silently fall back to defaults.
    """
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.split("#", 1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, raw = s.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in _INT_KEYS:
            values[key] = int(raw)
        elif key in _FLOAT_KEYS:
            values[key] = float(raw)
        elif key in _STR_KEYS:
            values[key] = raw
        elif key in _BOOL_KEYS:
            values[key] = _as_bool(raw)
        elif key in _INT_LIST_KEYS:
            values[key] = tuple(int(t) for t in raw.split(","))
        elif key in _FLOAT_LIST_KEYS:
            values[key] = tuple(float(t) for t in raw.split(","))
        elif key in _STR_LIST_KEYS:
            values[key] = tuple(t.strip() for t in raw.split(","))
        elif key in _BOOL_LIST_KEYS:
            values[key] = tuple(_as_bool(t) for t in raw.split(","))
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
