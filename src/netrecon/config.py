"""Experiment configuration: a flat key=value file with sweep axes.

A config names exactly one network source (synthetic parameters or an
edge-list path), the attribute and sampling settings, and the axes to
sweep.  Each key parses as the type of its :class:`ExperimentConfig`
field; tuple fields take comma-separated lists, and the lists ``g``,
``c``, ``f``, ``mu``, ``n_t_frac``, ``method``, ``assortative`` define
the sweep grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import get_args, get_origin, get_type_hints

from .epidemic import DEFAULT_STRATEGIES, SirParams, StrategySpec
from .generate import LfrParams
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
    mu: tuple[float, ...] = ()

    # attributes
    distribution: str = "normal"
    g: tuple[int, ...] = ()
    assortative: tuple[bool, ...] = (False,)
    assort_attempts_per_vertex: int = 100

    # sampling
    method: tuple[str, ...] = METHODS[:1]
    n_r_frac: float = 0.08
    f: tuple[int, ...] = (5,)
    c: tuple[int, ...] = (1,)

    # reconstruction
    n_t_rule: str = "true-network-size"
    n_t_frac: tuple[float, ...] = ()

    # repetitions
    repetitions: int = 20
    ensemble: int = 100

    # epidemics
    epidemic: bool = False
    budgets: tuple[float, ...] = (0.05,)
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    sir_runs: int = 200
    sir_init_frac: float = SirParams.init_frac
    sir_beta: float = SirParams.beta
    sir_steps: int = SirParams.infectious_steps

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
        self.sir_params()

    def sir_params(self) -> SirParams:
        """The epidemic model of the sir_* keys; raises on bad values."""
        return SirParams(self.sir_init_frac, self.sir_beta, self.sir_steps)

    def mu_axis(self) -> tuple:
        """The sweep's mu values: mu applies only to an lfr network."""
        return self.mu if self.network == "lfr" else (None,)

    def n_t_frac_axis(self) -> tuple:
        """The sweep's n_t_frac values: they apply only under the
        fraction-of-n rule."""
        return self.n_t_frac if self.n_t_rule == "fraction-of-n" else (None,)

    def points(self) -> list[SweepPoint]:
        return [
            SweepPoint(m, a, gv, cv, fv, mv, nt)
            for m, a, gv, cv, fv, mv, nt in product(
                self.method, self.assortative, self.g, self.c, self.f,
                self.mu_axis(), self.n_t_frac_axis())
        ]


def parse_strategy(token: str) -> StrategySpec:
    """Parse a ``kind`` or ``kind:property`` strategy token."""
    kind, _, prop = token.partition(":")
    return StrategySpec(kind.strip(), prop.strip() or "degree")


_BOOL_TOKENS = {"true": True, "yes": True, "1": True,
                "false": False, "no": False, "0": False}


def _as_bool(tok: str) -> bool:
    try:
        return _BOOL_TOKENS[tok.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {tok!r}") from None


_SCALARS = {int: int, float: float, str: str.strip, bool: _as_bool}


def _parser(hint):
    """The value parser of a field annotated ``hint``: a scalar, an
    optional scalar, or a ``tuple[scalar, ...]`` list."""
    args = [a for a in get_args(hint) if a is not type(None)]
    if get_origin(hint) is tuple:
        item = _SCALARS[args[0]]
        return lambda raw: tuple(item(t) for t in raw.split(","))
    return _SCALARS[args[0] if args else hint]


_PARSERS = {key: _parser(hint)
            for key, hint in get_type_hints(ExperimentConfig).items()}


def parse_config(text: str) -> ExperimentConfig:
    """Parse key = value lines into an :class:`ExperimentConfig`.

    Blank lines and ``#`` comments are ignored.  Unknown and repeated
    keys are an error, so typos do not silently fall back to defaults
    and a later line does not silently override an earlier one.
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
        if key not in _PARSERS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
