"""Per-layer spans, recorded from outside the program.

The analyzer has no tracing of its own. While a :class:`Tracer` is
installed, the module attributes through which each layer is called
(see :data:`WRAP_POINTS`) are replaced by timing wrappers; uninstalling
puts the original objects back. A wrapper records a span — name, start,
end, parent span and op id — and, for a few layers, a count read off the
layer's return value. Spans are kept in memory; the worker writes them
out when its pass ends.

Wrappers record only while an op is open (:meth:`Tracer.begin_op` to
:meth:`Tracer.end_op`), so answer checks that run between ops call the
same functions without adding spans.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in :attr:`Tracer.spans`, -1 at the root.
    parent: int
    op: int


def _tally_lex(counts, result):
    counts["frontend.lex.tokens"] += len(result)


def _tally_lower(counts, result):
    counts["ir.lower.procs"] += len(result.procedures)


def _tally_analyze(counts, result):
    counts["driver.stage0.hits"] += result.stage0_cached


def _tally_forward(counts, result):
    counts["core.forward.sites"] += len(result.sites)


def _tally_solve(counts, result):
    counts["core.solve.evaluations"] += result.evaluations
    counts["core.solve.meets"] += result.meets
    counts["core.solve.regions"] += result.regions
    counts["core.solve.regions_warm"] += result.regions_warm


def _tally_record(counts, result):
    counts["core.record.pairs"] += result.pairs


def _tally_ssa_lookup(counts, result):
    counts["analysis.ssa.lookups"] += 1


def _tally_handle(counts, result):
    counts["service.cache_hits"] += result.get("served") == "cache"


#: (module, attribute, span name, tally). The attribute is the name the
#: *caller* looks up, so a function imported into several modules is
#: wrapped once per importing module. A ``None`` span name only counts.
WRAP_POINTS = (
    ("repro.frontend.parser", "tokenize", "frontend.lex", _tally_lex),
    ("repro.frontend.symbols", "parse_source", "frontend.parse", None),
    ("repro.frontend.symbols", "resolve", "frontend.resolve", None),
    ("repro.core.driver", "analyze", "driver.analyze", _tally_analyze),
    ("repro.service.server", "analyze", "driver.analyze", _tally_analyze),
    ("repro.resilience.executor", "analyze", "driver.analyze", _tally_analyze),
    ("repro.core.driver", "lower_program", "ir.lower", _tally_lower),
    ("repro.core.driver", "build_call_graph", "callgraph.graph", None),
    ("repro.core.driver", "compute_modref", "callgraph.modref", None),
    ("repro.core.complete", "build_call_graph", "callgraph.graph", None),
    ("repro.core.complete", "compute_modref", "callgraph.modref", None),
    ("repro.core.complete", "eliminate_dead_code", "analysis.dce", None),
    ("repro.core.driver", "SSACache.get", None, _tally_ssa_lookup),
    ("repro.core.driver", "build_ssa", "analysis.ssa", None),
    ("repro.analysis.ssa", "copy_cfg", "analysis.ssa.copy", None),
    ("repro.core.returns", "value_number", "analysis.valuenum", None),
    ("repro.core.builder", "value_number", "analysis.valuenum", None),
    ("repro.core.substitute", "run_sccp", "analysis.sccp", None),
    ("repro.core.driver", "build_return_jump_functions", "core.returns", None),
    ("repro.core.driver", "build_forward_jump_functions", "core.forward", _tally_forward),
    ("repro.core.driver", "solve", "core.solve", _tally_solve),
    ("repro.core.driver", "solve_dense", "core.solve", _tally_solve),
    ("repro.core.driver", "solve_parallel", "core.solve", _tally_solve),
    ("repro.core.driver", "compute_substitutions", "core.record", _tally_record),
    ("repro.core.driver", "plan_warm_start", "store.plan", None),
    ("repro.core.driver", "plan_slab", "store.plan", None),
    ("repro.core.driver", "publish_snapshot", "store.publish", None),
    ("repro.core.driver", "publish_slab", "store.publish", None),
    ("repro.service.server", "AnalysisService.handle", "service.handle", _tally_handle),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in WRAP_POINTS if name))

#: tallies reported as they are, next to each span's ``.s`` and ``.calls``
#: and the ratios :meth:`Tracer.layer_metrics` derives from the others.
COUNTS = (
    "frontend.lex.tokens",
    "ir.lower.procs",
    "core.forward.sites",
    "core.solve.evaluations",
    "core.solve.meets",
    "core.record.pairs",
    "runtime.gc.s",
    "runtime.gc.gen2",
)


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    path = attribute.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover. Spans
    come from one thread's call stack, so children never overlap each
    other and always lie inside their parent."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Span recorder plus the attribute swaps that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        #: (start, end) of each op, indexed by op id.
        self.ops: list[tuple[float, float]] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attribute, name, tally in WRAP_POINTS:
            owner, attr = _resolve(module, attribute)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, tally))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def wrap(self, fn, name: str | None, tally=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                stack = tracer._stack
                span = Span(
                    name, tracer.clock(), 0.0, stack[-1] if stack else -1, tracer.op
                )
                stack.append(len(tracer.spans))
                tracer.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    span.end = tracer.clock()
            if tally is not None:
                tally(tracer.counts, result)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        elif self.op is not None:
            self.counts["runtime.gc.s"] += self.clock() - self._gc_start
            self.counts["runtime.gc.gen2"] += info["generation"] == 2

    # -- ops -----------------------------------------------------------------

    def begin_op(self) -> None:
        self.op = len(self.ops)

    def end_op(self, start: float, end: float) -> None:
        """Close the op the caller timed from ``start`` to ``end`` (read
        from :attr:`clock`)."""
        self.ops.append((start, end))
        self.op = None

    # -- results -------------------------------------------------------------

    def root_coverage(self) -> float:
        """The share of the ops' wall time that root spans cover (1.0
        when all of it is inside some layer). Time-weighted: on a 0.1 ms
        cache hit one collection outside the span would swamp a per-op
        share."""
        covered = sum(s.end - s.start for s in self.spans if s.parent < 0)
        return _ratio(covered, sum(end - start for start, end in self.ops))

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``bench.trace_overhead``, which
        needs an untraced pass to compare with."""
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.s"] = 0.0
            metrics[f"{name}.calls"] = 0
        for span, own in zip(self.spans, self_times(self.spans)):
            metrics[f"{span.name}.s"] += own
            metrics[f"{span.name}.calls"] += 1
        counts = self.counts
        for key in COUNTS:
            metrics[key] = counts[key]
        lookups = counts["analysis.ssa.lookups"]
        metrics["analysis.ssa.cache_hit_ratio"] = (
            1.0 - _ratio(metrics["analysis.ssa.calls"], lookups) if lookups else 0.0
        )
        metrics["driver.stage0.cache_hit_ratio"] = _ratio(
            counts["driver.stage0.hits"], metrics["driver.analyze.calls"]
        )
        # `regions` counts regions the solve visited, `regions_warm` the
        # clean ones it adopted from the store without a visit.
        metrics["store.warm_region_ratio"] = _ratio(
            counts["core.solve.regions_warm"],
            counts["core.solve.regions_warm"] + counts["core.solve.regions"],
        )
        metrics["service.cache_hit_ratio"] = _ratio(
            counts["service.cache_hits"], metrics["service.handle.calls"]
        )
        metrics["bench.root_coverage"] = self.root_coverage()
        return metrics

    def op_layer_seconds(self) -> list[dict[str, float]]:
        """Self seconds per layer, one mapping per op."""
        per_op = [dict.fromkeys(SPAN_NAMES, 0.0) for _ in self.ops]
        for span, own in zip(self.spans, self_times(self.spans)):
            per_op[span.op][span.name] += own
        return per_op

    def span_rows(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
