"""In-memory spans around the netrecon functions the pipeline calls.

A :class:`Tracer` replaces module attributes with wrappers that record
one :class:`Span` per call (name, start, end, parent span, task run id)
and, for the calls listed in :data:`KEPT`, the arguments and outcome, so
that counters can be derived after the run, outside every timed span.
The wrappers live in the benchmark: the package itself is not modified.

Layers are the package modules.  ``cli``, ``config``, ``seeding`` and
the ``graph`` file I/O are not wrapped; README.md says why.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module, attribute, span name).  A span name's first dotted component
# is its layer.  pipeline.py imports these names into its own namespace
# and epidemic.py calls its helpers through module globals, so the
# wrappers are installed where the caller looks the name up.
TARGETS = [
    ("pipeline", "metric_rows_for_point", "pipeline.task"),
    ("pipeline", "epidemic_rows_for_point", "pipeline.task"),
    ("pipeline", "generate_lfr_like", "generate"),
    ("pipeline", "assign_attributes", "attributes.assign"),
    ("pipeline", "make_assortative", "attributes.assortative"),
    ("pipeline", "sample_paths", "sampling.paths"),
    ("pipeline", "elicit_friends", "sampling.elicit"),
    ("pipeline", "true_network", "sampling.true_network"),
    ("pipeline", "reconstruct", "reconstruct"),
    ("pipeline", "detect", "communities"),
    ("pipeline", "coalescing_precision", "metrics"),
    ("pipeline", "project", "metrics"),
    ("pipeline", "community_precision", "metrics"),
    ("pipeline", "nmi", "metrics"),
    ("pipeline", "vertex_properties", "metrics"),
    ("pipeline", "aggregate_by_projection", "metrics"),
    ("pipeline", "spearman", "metrics"),
    ("pipeline", "evaluate_strategy", "epidemic.evaluate"),
    ("epidemic", "select_immunized", "epidemic.select"),
    ("epidemic", "sir_run", "epidemic.sir"),
    ("epidemic", "detect", "communities"),
    ("epidemic", "vertex_properties", "metrics"),
]

# Span names whose arguments and outcome are kept for counters.
KEPT = {"pipeline.task", "generate", "attributes.assortative",
        "sampling.paths", "sampling.elicit", "reconstruct", "communities",
        "epidemic.sir"}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    run_id: str


@dataclass(frozen=True)
class Call:
    """A kept call: its span index, arguments and result or exception."""

    span: int
    args: tuple
    result: object
    error: BaseException | None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span are disjoint
    intervals inside it and their durations simply add up.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


class Tracer:
    """Records spans for wrapped callables; one tracer per traced run."""

    def __init__(self, run_id_of=None, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self._stack: list[int] = []
        self._run_id = ""
        self._run_id_of = run_id_of  # task args -> run id
        self._clock = clock
        self.missing: list[str] = []  # targets not found by installed()

    def wrap(self, name: str, fn):
        keep = name in KEPT
        is_task = name == "pipeline.task"

        def traced(*args, **kwargs):
            if is_task and self._run_id_of is not None:
                self._run_id = self._run_id_of(fn.__name__, args)
            run_id = self._run_id
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            result, error = None, None
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = self._clock()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, run_id)
                if keep:
                    self.calls.append(Call(idx, args, result, error))

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Install wrappers on ``modules`` (short name -> module object)
        for the duration of the block; yields a wrapper that records the
        root ``pipeline.run`` span.

        A target the module no longer has is skipped and listed in
        ``self.missing``, so that a refactored pipeline still runs; the
        counters of that target then read 0.
        """
        saved = []
        try:
            for mod, attr, name in TARGETS:
                m = modules[mod]
                original = getattr(m, attr, None)
                if original is None:
                    self.missing.append(f"{mod}.{attr}")
                    continue
                saved.append((m, attr, original))
                setattr(m, attr, self.wrap(name, original))
            yield lambda fn: self.wrap("pipeline.run", fn)
        finally:
            for m, attr, original in reversed(saved):
                setattr(m, attr, original)

    def calls_named(self, name: str) -> list[Call]:
        return [c for c in self.calls if self.spans[c.span].name == name]

    def self_s_by_name(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self_times(self.spans)):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextmanager
def task_timer(pipeline_module, durations: list[float]):
    """Time each per-point task of an untraced run: one clock pair a task."""
    names = ("metric_rows_for_point", "epidemic_rows_for_point")
    saved = {n: getattr(pipeline_module, n) for n in names}

    def timed(fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - t0)
        return call

    try:
        for n, fn in saved.items():
            setattr(pipeline_module, n, timed(fn))
        yield
    finally:
        for n, fn in saved.items():
            setattr(pipeline_module, n, fn)
