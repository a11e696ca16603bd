"""The sparse propagation engine and the client solve entry point.

:class:`ClientEngine` is the one stage-3 engine: a seed / delta / flush
discipline over any :class:`~repro.framework.lattice.Lattice` and any
edge function (stage 2's projected
:class:`~repro.core.exprs.ValueExpr`, or a client's
:class:`~repro.framework.edges.EdgeFunction`), with the lattice's
``top``/``bottom``/``meet`` bound once per solve.

- Stage 2's :class:`~repro.framework.client.FlowIndex`, built with the
  edges themselves, maps each source key to the edges whose support
  reads it: the reverse of the paper's §2 support sets, in the spirit
  of Wegman–Zadeck SSA-edge-driven SCCP.
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

:func:`solve_client` runs a client — a lattice, a seed VAL and an
optional edge lift — to its greatest fixpoint on the shared
:mod:`~repro.framework.driver` region schedule and returns a
:class:`SolveResult`; :func:`repro.core.solver.solve` is exactly
``solve_client`` with the constant lattice and
:func:`~repro.core.solver.initial_val` (plus the flat slab dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

from repro.core.lattice import is_constant
from repro.framework.client import FlowEdge, RegionPartition
from repro.framework.driver import drive_regions
from repro.framework.lattice import Lattice
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
    """

    val: dict[str, dict] = field(default_factory=dict)
    reached: set[str] = field(default_factory=set)
    passes: int = 0
    pops: int = 0
    evaluations: int = 0
    meets: int = 0
    deltas: int = 0
    skipped: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    bottom_skips: int = 0
    #: SCC regions converged by this solve (0 for the dense solver).
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
        """The solver statistics — every field after ``reached``, in
        declaration order — as a flat mapping (for reports/benchmarks)."""
        names = [f.name for f in fields(self)]
        return {
            name: getattr(self, name)
            for name in names[names.index("reached") + 1:]
        }


class ClientEngine:
    """Evaluate-and-meet over a :class:`~repro.framework.client.RegionPartition`.

    One engine serves one solve: it owns the evaluation memo and mutates
    ``val`` in place, reporting through the stats object's
    :data:`ENGINE_COUNTERS` attributes. The memo key — ``(id(token),
    support slice)`` — is sound because the memo holds a strong reference
    to every token it keys by id (so no id can be recycled mid-solve,
    even across a :func:`repro.core.exprs.clear_intern_table`) and
    ``evaluate`` reads nothing outside the support slice; the value class
    rides along in the slice so a LOGICAL ``.true.`` never aliases an
    INTEGER ``1``.

    ``budget`` (a :class:`repro.resilience.budgets.SolveBudget`, also
    duck-typed) caps evaluation/meet fuel, checked once per seed or
    delta batch — off the per-edge hot path, so a runaway solve overruns
    its cap by at most one batch before the
    :class:`~repro.resilience.errors.BudgetExhaustedError` fires.
    """

    __slots__ = (
        "_callees",
        "_val",
        "_stats",
        "_memo",
        "_tokens",
        "_budget",
        "_partition",
        "_seeds",
        "_kills",
        "_dependents",
        "_top",
        "_floor",
        "_meet",
    )

    def __init__(
        self,
        partition: RegionPartition,
        lattice,
        val: dict[str, dict],
        stats,
        budget=None,
    ):
        self._callees = partition.index.callees
        self._val = val
        self._stats = stats
        self._memo: dict[tuple, object] = {}
        self._tokens: list = []  # strong refs: memo ids never recycle
        self._budget = budget
        self._partition = partition
        self._top = lattice.top
        self._floor = lattice.bottom
        self._meet = lattice.meet
        # seed/delta traffic is intra-region only; cross-region edges
        # wait for flush_region
        self._seeds = partition.internal_seeds
        self._kills = partition.internal_kills
        self._dependents = partition.internal_dependents

    def callees(self, caller: str) -> tuple[str, ...]:
        return self._callees.get(caller, ())

    def _transfer_edges(self, caller: str, edges, changed: dict) -> None:
        """The inlined edge transfer shared by seed / delta / flush.

        Every edge of every solve crosses this loop at least once, so
        counters accumulate in locals (flushed once at the end), the
        lattice operations are bound locals, and ``meet(⊤, x) = x`` is
        applied without a call — at seed time nearly every key still
        sits at ⊤."""
        val = self._val
        caller_env = val[caller]
        top = self._top
        lattice_meet = self._meet
        floor = self._floor
        evaluations = meets = bottom_skips = 0
        for edge in edges:
            callee = edge.callee
            env = val[callee]
            key = edge.key
            old = env[key]
            if old is floor:
                bottom_skips += 1  # already at the lattice floor
                continue
            incoming = edge.const
            if incoming is None:
                passthrough = edge.passthrough
                if passthrough is not None:
                    # pass-through: the evaluation *is* the env fetch
                    evaluations += 1
                    incoming = caller_env.get(passthrough, floor)
                elif edge.support:
                    incoming = self._poly_value(edge, caller_env)
                else:
                    # support-free and not constant ⇒ the floor, applied
                    # without evaluation
                    bottom_skips += 1
                    incoming = floor
            meets += 1
            new = incoming if old is top else lattice_meet(old, incoming)
            if new != old:
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
        floor = self._floor
        for callee, key in pairs:
            if only is not None and callee not in only:
                continue
            stats.skipped += 1
            env = val[callee]
            old = env[key]
            if old is floor:
                continue
            stats.meets += 1
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
        regions)."""
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
        floor = self._floor
        if len(support) == 1:
            values = _memo_value(caller_env.get(support[0], floor))
        else:
            values = tuple(
                _memo_value(caller_env.get(key, floor)) for key in support
            )
        token = edge.func.memo_token()
        memo_key = (id(token), values)
        incoming = self._memo.get(memo_key, _MISSING)
        if incoming is _MISSING:
            stats.memo_misses += 1
            stats.evaluations += 1
            incoming = edge.func.evaluate(caller_env)
            self._memo[memo_key] = incoming
            self._tokens.append(token)
        else:
            stats.memo_hits += 1
        return incoming


def solve_client(
    lowered,
    graph,
    forward,
    lattice: Lattice,
    seed: dict[str, dict],
    lift: Callable[[FlowEdge], FlowEdge] | None = None,
    *,
    budget=None,
    warm=None,
) -> SolveResult:
    """Solve one client over stage 2's jump functions to its greatest
    fixpoint, from the main program.

    A client is three things: its ``lattice``, its ``seed`` VAL (taken
    over and mutated into the result), and an optional ``lift`` mapping
    each stage-2 :class:`~repro.framework.client.FlowEdge` of
    ``forward`` to the client's edge for the same binding (see
    :meth:`~repro.framework.client.RegionPartition.lifted`). Stage 2's
    kills and callees are every client's.

    Region-scheduled over the call graph (SCC condensation,
    callers-first, cross-region edges deferred to one final-environment
    flush); ``warm`` (a :class:`repro.core.solver.WarmStart`) adopts
    stored fixed points for clean regions. ``budget`` caps passes (per
    region) and engine fuel through the
    :class:`~repro.resilience.budgets.SolveBudget` hooks.
    """
    schedule = graph.schedule
    partition = forward.region_partition(schedule.region_of)
    if lift is not None:
        partition = partition.lifted(lift)
    result = SolveResult(val=seed)
    engine = ClientEngine(partition, lattice, result.val, result, budget)
    drive_regions(
        engine,
        schedule,
        PriorityWorklist(graph.rpo_index),
        result,
        root=lowered.program.main,
        budget=budget,
        warm=warm,
    )
    return result
