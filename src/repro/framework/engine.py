"""The sparse propagation engine and the client solve entry point.

:class:`ClientEngine` is the one stage-3 engine: a seed / delta / flush
discipline over any :class:`~repro.framework.lattice.Lattice` and any
:class:`~repro.framework.edges.EdgeFunction`, with the lattice's
``top``/``is_bottom``/``meet`` bound once per solve.

- A :class:`~repro.framework.client.FlowIndex` — for constant
  propagation, precomputed by the stage-2 builder — maps each source
  key to the edges whose ``support()`` reads it: the reverse of the
  paper's §2 support sets, in the spirit of Wegman–Zadeck
  SSA-edge-driven SCCP.
- The engine seeds each node's edges exactly once when the node is
  first reached, then re-transfers an edge only when one of its support
  keys actually *lowered* (a "delta"), memoizing evaluations by the edge
  function's ``memo_token()`` identity plus the support slice of the
  source environment.

The §3.1.5 cost model charges a propagation pass the sum of the
evaluated jump functions' costs; the delta discipline makes the
``evaluations`` counter track that quantity instead of the dense
re-evaluate-everything upper bound. Constant edges transfer by meet
alone, support-free non-constant edges contribute their one floor
without ever being evaluated, and an edge into a key already at the
floor is never transferred again (both counted under ``bottom_skips``);
kills are applied once at seed time (counted under ``skipped``).

:func:`solve_client` runs a client to its greatest fixpoint on the
shared :mod:`~repro.framework.driver` loops and returns a
:class:`SolveResult`; :func:`repro.core.solver.solve` is exactly
``solve_client`` with the constant-propagation client (plus the flat
slab dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.lattice import is_constant
from repro.core.regions import region_schedule
from repro.framework.client import AnalysisClient, RegionPartition
from repro.framework.driver import drive_global_schedule, drive_region_schedule
from repro.framework.worklist import PriorityWorklist

__all__ = ["ClientEngine", "ENGINE_COUNTERS", "SolveResult", "solve_client"]

#: Counter attributes the engine increments on its stats object.
ENGINE_COUNTERS = (
    "evaluations",
    "meets",
    "deltas",
    "skipped",
    "memo_hits",
    "memo_misses",
    "bottom_skips",
)

_MISSING = object()


def _memo_value(value) -> tuple:
    """A memo-slice element: the value plus its class, so a LOGICAL
    ``.true.`` never aliases an INTEGER ``1`` (True == 1 in Python)."""
    return (value.__class__, value)


@dataclass(slots=True)
class SolveResult:
    """VAL sets plus solver statistics.

    ``pops`` counts worklist extractions (one node re-evaluation each);
    ``passes`` counts completed monotone sweeps over the
    reverse-postorder schedule — a new pass begins whenever the solver
    pops a node that does not extend the current ascending run.

    ``evaluations`` counts edge-function evaluations actually performed
    — the quantity the §3.1.5 cost model charges a pass. The sparse
    engine's avoidance shows up in its own counters: ``skipped`` (keys
    with no jump function, killed without evaluating anything),
    ``deltas`` (changed-key events propagated),
    ``memo_hits``/``memo_misses`` (identity-keyed evaluation memo), and
    ``bottom_skips`` (⊥ jump functions contributing their one ⊥ without
    evaluation, plus bindings already at ⊥ left untouched). The dense
    reference solver leaves the engine-only counters at zero.
    ``analysis`` names the client that produced the result.
    """

    val: dict[str, dict] = field(default_factory=dict)
    reached: set[str] = field(default_factory=set)
    analysis: str = ""
    passes: int = 0
    pops: int = 0
    evaluations: int = 0
    meets: int = 0
    deltas: int = 0
    skipped: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    bottom_skips: int = 0
    #: SCC regions converged by this solve (0 under the global schedule).
    regions: int = 0
    #: total per-region sweeps — Σ of each region's local pass count.
    region_passes: int = 0
    #: regions adopted from a warm start instead of being converged.
    regions_warm: int = 0
    #: dependency levels processed by the parallel wave scheduler and
    #: regions it dispatched to pool workers (0 for sequential solves).
    waves: int = 0
    regions_parallel: int = 0
    #: flat slab engine (:mod:`repro.core.slab`) shape and drain counters
    #: (0 unless the solve ran with ``flat=True``).
    slab_slots: int = 0
    slab_bytes: int = 0
    batch_drains: int = 0
    #: slab provenance for this solve: seconds spent building the slab
    #: cold vs. loading (and possibly patching) a persistent slab from
    #: the artifact store, plus how much of the slab a patch re-slabbed.
    #: All zero when the slab came from the in-process cache or the
    #: solve did not run flat. The warm-run bench gate asserts
    #: ``slab_build_seconds == 0`` while ``slab_load_seconds > 0``.
    slab_build_seconds: float = 0.0
    slab_load_seconds: float = 0.0
    slab_patched_procs: int = 0
    slab_patched_slots: int = 0

    def env(self, node: str) -> dict:
        """VAL(node): the node's entry-key environment."""
        return self.val.get(node, {})

    def constants(self, proc: str) -> dict:
        """CONSTANTS(p): the entry keys proven constant (paper §2)."""
        return {
            key: value
            for key, value in self.val.get(proc, {}).items()
            if is_constant(value)
        }

    def all_constants(self) -> dict[str, dict]:
        return {proc: self.constants(proc) for proc in self.val}

    def counters(self) -> dict[str, int | float]:
        """The solver statistics as a flat mapping (for reports/benchmarks)."""
        return {
            "passes": self.passes,
            "pops": self.pops,
            "evaluations": self.evaluations,
            "meets": self.meets,
            "deltas": self.deltas,
            "skipped": self.skipped,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "bottom_skips": self.bottom_skips,
            "regions": self.regions,
            "region_passes": self.region_passes,
            "regions_warm": self.regions_warm,
            "waves": self.waves,
            "regions_parallel": self.regions_parallel,
            "slab_slots": self.slab_slots,
            "slab_bytes": self.slab_bytes,
            "batch_drains": self.batch_drains,
            "slab_build_seconds": self.slab_build_seconds,
            "slab_load_seconds": self.slab_load_seconds,
            "slab_patched_procs": self.slab_patched_procs,
            "slab_patched_slots": self.slab_patched_slots,
        }


class ClientEngine:
    """Evaluate-and-meet over a :class:`~repro.framework.client.FlowIndex`.

    One engine serves one solve: it owns the evaluation memo and mutates
    ``val`` in place, reporting through the stats object's
    :data:`ENGINE_COUNTERS` attributes. The memo key — ``(id(token),
    support slice)`` — is sound because the memo holds a strong reference
    to every token it keys by id (so no id can be recycled mid-solve,
    even across a :func:`repro.core.exprs.clear_intern_table`) and
    ``apply`` reads nothing outside the support slice; the value class
    rides along in the slice so a LOGICAL ``.true.`` never aliases an
    INTEGER ``1``.

    ``sanitizer`` is the optional lattice-invariant observer (duck-typed
    to :class:`repro.diagnostics.sanitizer.LatticeSanitizer`; the engine
    deliberately does not import it): when attached, every transfer is
    reported through ``observe_transfer(site_id, callee, key, incoming)``
    and every VAL mutation — including seed-time kills — through
    ``observe_update(proc, key, old, new)``. Detached (the default), the
    hooks cost one ``is not None`` test per edge.

    ``budget`` (a :class:`repro.resilience.budgets.SolveBudget`, also
    duck-typed) caps evaluation/meet fuel, checked once per seed or
    delta batch — off the per-edge hot path, so a runaway solve overruns
    its cap by at most one batch before the
    :class:`~repro.resilience.errors.BudgetExhaustedError` fires.
    """

    __slots__ = (
        "_index",
        "_val",
        "_stats",
        "_memo",
        "_tokens",
        "_sanitizer",
        "_budget",
        "_partition",
        "_seeds",
        "_kills",
        "_dependents",
        "_top",
        "_floor",
        "_is_bottom",
        "_meet",
        "_default",
    )

    def __init__(
        self,
        index,
        lattice,
        val: dict[str, dict],
        stats,
        sanitizer=None,
        budget=None,
        partition: RegionPartition | None = None,
    ):
        self._index = index
        self._val = val
        self._stats = stats
        self._memo: dict[tuple, object] = {}
        self._tokens: list = []  # strong refs: memo ids never recycle
        self._sanitizer = sanitizer
        self._budget = budget
        self._partition = partition
        self._top = lattice.top
        self._floor = lattice.bottom
        self._is_bottom = lattice.is_bottom
        self._meet = lattice.meet
        # what a missing source key reads as: the floor when the lattice
        # has one (constprop: ⊥), else ⊤ (the neutral element).
        self._default = lattice.bottom if lattice.bottom is not None else lattice.top
        # With a partition, seed/delta traffic is intra-region only;
        # cross-region edges wait for flush_region. Without one (the
        # global schedule) the full index drives everything.
        if partition is None:
            self._seeds = index.seeds
            self._kills = index.kills
            self._dependents = index.dependents
        else:
            self._seeds = partition.internal_seeds
            self._kills = partition.internal_kills
            self._dependents = partition.internal_dependents

    def callees(self, caller: str) -> tuple[str, ...]:
        return self._index.callees.get(caller, ())

    def _transfer_edges(self, caller: str, edges, changed: dict) -> None:
        """The inlined edge transfer shared by seed / delta / flush.

        Every edge of every solve crosses this loop at least once, so
        counters accumulate in locals (flushed once at the end), the
        lattice operations are bound locals, and ``meet(⊤, x) = x`` is
        applied without a call — at seed time nearly every key still
        sits at ⊤."""
        val = self._val
        caller_env = val[caller]
        sanitizer = self._sanitizer
        top = self._top
        is_bottom = self._is_bottom
        lattice_meet = self._meet
        default = self._default
        evaluations = meets = bottom_skips = 0
        for edge in edges:
            callee = edge.callee
            env = val[callee]
            key = edge.key
            old = env[key]
            if is_bottom(old):
                bottom_skips += 1  # already at the lattice floor
                continue
            incoming = edge.const
            if incoming is None:
                passthrough = edge.passthrough
                if passthrough is not None:
                    # pass-through: the evaluation *is* the env fetch
                    evaluations += 1
                    incoming = caller_env.get(passthrough, default)
                elif edge.support:
                    incoming = self._poly_value(edge, caller_env)
                else:
                    # support-free and not constant ⇒ the floor, applied
                    # without evaluation
                    bottom_skips += 1
                    incoming = self._floor
            if sanitizer is not None:
                sanitizer.observe_transfer(edge.site_id, callee, key, incoming)
            meets += 1
            new = incoming if old is top else lattice_meet(old, incoming)
            if new != old:
                if sanitizer is not None:
                    sanitizer.observe_update(callee, key, old, new)
                env[key] = new
                keys = changed.get(callee)
                if keys is None:
                    keys = changed[callee] = {}
                keys[key] = None
        stats = self._stats
        stats.evaluations += evaluations
        stats.meets += meets
        stats.bottom_skips += bottom_skips

    def _apply_kills(self, pairs, changed: dict, only=None) -> None:
        val = self._val
        stats = self._stats
        sanitizer = self._sanitizer
        floor = self._floor
        for callee, key in pairs:
            if only is not None and callee not in only:
                continue
            stats.skipped += 1
            env = val[callee]
            old = env[key]
            if self._is_bottom(old):
                continue
            stats.meets += 1
            if sanitizer is not None:
                sanitizer.observe_update(callee, key, old, floor)
            env[key] = floor  # meet(old, ⊥) is ⊥ for every old
            keys = changed.get(callee)
            if keys is None:
                keys = changed[callee] = {}
            keys[key] = None

    def seed(self, caller: str) -> dict[str, dict]:
        """First visit of ``caller``: transfer every (intra-region) edge
        once and apply its kills. Returns the lowered target keys grouped
        by target, each target's keys distinct and in evaluation order
        (insertion-ordered mappings)."""
        changed: dict[str, dict] = {}
        self._transfer_edges(caller, self._seeds.get(caller, ()), changed)
        self._apply_kills(self._kills.get(caller, ()), changed)
        if self._budget is not None:
            self._budget.check_engine(self._stats)
        return changed

    def apply_deltas(self, proc: str, keys) -> dict[str, dict]:
        """Propagate lowered keys of ``proc`` to their dependent edges.
        An edge dependent on several keys of the batch is transferred
        once. Returns the lowered target keys grouped by target (same
        shape as :meth:`seed`).

        The batch is transferred per target: unique dependent edges are
        grouped by target (insertion order — deterministic) and each
        group keeps its discovery order, so the floor short-circuit fires
        identically to edge-at-a-time transfer within a target."""
        changed: dict[str, dict] = {}
        visited: set[int] = set()
        by_callee: dict[str, list] = {}
        dependents = self._dependents
        stats = self._stats
        for key in keys:
            stats.deltas += 1
            for edge in dependents.get((proc, key), ()):
                edge_id = id(edge)
                if edge_id in visited:
                    continue
                visited.add(edge_id)
                group = by_callee.get(edge.callee)
                if group is None:
                    group = by_callee[edge.callee] = []
                group.append(edge)
        for edges in by_callee.values():
            self._transfer_edges(proc, edges, changed)
        if self._budget is not None:
            self._budget.check_engine(stats)
        return changed

    def flush_region(self, caller: str, only=None) -> dict[str, dict]:
        """Transfer ``caller``'s cross-region edges (and kills) exactly
        once, with the caller's — by now final — environment.
        Region-scheduled solves call this when the caller's region has
        converged; ``only`` restricts the flush to the named targets (the
        warm-start frontier from a clean caller into invalidated
        regions). Requires a partition."""
        partition = self._partition
        changed: dict[str, dict] = {}
        edges = partition.external_seeds.get(caller, ())
        if only is not None:
            edges = [edge for edge in edges if edge.callee in only]
        self._transfer_edges(caller, edges, changed)
        self._apply_kills(
            partition.external_kills.get(caller, ()), changed, only=only
        )
        if self._budget is not None:
            self._budget.check_engine(self._stats)
        return changed

    def _poly_value(self, edge, caller_env: dict):
        """Memoized evaluation of a genuine (environment-reading) edge
        function, keyed on the function's memo token identity plus the
        support slice of the source environment."""
        stats = self._stats
        support = edge.support
        default = self._default
        if len(support) == 1:
            values = _memo_value(caller_env.get(support[0], default))
        else:
            values = tuple(
                _memo_value(caller_env.get(key, default)) for key in support
            )
        token = edge.func.memo_token()
        memo_key = (id(token), values)
        incoming = self._memo.get(memo_key, _MISSING)
        if incoming is _MISSING:
            stats.memo_misses += 1
            stats.evaluations += 1
            incoming = edge.func.apply(caller_env)
            self._memo[memo_key] = incoming
            self._tokens.append(token)
        else:
            stats.memo_hits += 1
        return incoming


def solve_client(
    lowered,
    graph,
    client: AnalysisClient,
    *,
    budget=None,
    sanitizer=None,
    warm=None,
) -> SolveResult:
    """Solve ``client``'s dataflow problem to its greatest fixpoint.

    Region-scheduled over the client's flow graph (SCC condensation,
    callers-first, cross-region edges deferred to one final-environment
    flush); ``warm`` (a :class:`repro.core.solver.WarmStart`) adopts
    stored fixed points for clean regions. An attached ``sanitizer``
    runs the fully iterating global schedule instead: its
    monotone-descent check needs to see *every* transfer, and region
    deferral transfers cross-region edges exactly once — which would
    hide, say, a non-monotone function sitting on one. Sanitized solves
    therefore also ignore warm starts. ``budget`` caps passes (per
    region, in region mode) and engine fuel through the
    :class:`~repro.resilience.budgets.SolveBudget` hooks.
    """
    flow_graph = client.flow_graph(lowered, graph)
    index = client.flow_edges(lowered, graph)
    result = SolveResult(
        val=client.initial_env(lowered, graph), analysis=client.name
    )
    roots = client.roots(lowered, graph)
    worklist = PriorityWorklist(flow_graph.rpo_index())
    if sanitizer is not None:
        engine = ClientEngine(
            index, client.lattice, result.val, result, sanitizer, budget
        )
        drive_global_schedule(
            engine, worklist, result, roots=roots, budget=budget
        )
        return result
    schedule = region_schedule(flow_graph)
    engine = ClientEngine(
        index,
        client.lattice,
        result.val,
        result,
        budget=budget,
        partition=client.partition(lowered, graph, schedule.region_of),
    )
    drive_region_schedule(
        engine, schedule, worklist, result, roots=roots, budget=budget, warm=warm
    )
    return result
