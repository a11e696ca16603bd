"""Interprocedural propagation (stage 3, §4.1): a worklist iterative
solver over the call graph.

``VAL(p)`` maps each of ``p``'s entry keys (scalar formal names and every
scalar global id) to a lattice value, initially ⊤. The main program's
globals start at their DATA values (or ⊥ when uninitialized). Each call
edge transfers ``evaluate(jump function, VAL(caller))`` into the callee,
met with the callee's current approximation (Figure 1).

The worklist is a priority queue ordered by reverse postorder over the
call graph: callers are evaluated before their callees, so on an acyclic
graph one monotone sweep reaches the fixpoint, and on recursive cliques
each extra sweep is driven only by values that actually lowered. The
statistics distinguish ``pops`` (worklist extractions) from ``passes``
(monotone sweeps in priority order) — the quantity the §3.1.5 cost
analysis multiplies against per-pass jump-function evaluation cost.

:func:`solve` is the framework's
:func:`~repro.framework.engine.solve_client` with the constant lattice
and :func:`initial_val` as the seed: **sparse and region-scheduled**. It
condenses the call graph into SCC regions (:mod:`repro.core.regions`)
and converges each region to its local fixed point exactly once,
callers-first, before any cross-region call site is evaluated — so every
cross-region jump function is evaluated exactly once, with its caller's
final environment (sound because jump functions are monotone: the
deferred single evaluation meets the same value the skipped intermediate
ones would have converged to). Within a region the
:class:`~repro.framework.engine.ClientEngine` applies the usual sparse
discipline: seed once at first reach, re-evaluate only on support
deltas. ``passes`` is the *maximum* per-region sweep count — the
worst-case number of times any single jump function is re-evaluated,
which is what §3.1.5 charges — while ``region_passes`` totals the
per-region sweeps and ``regions`` counts converged regions.

A :class:`WarmStart` lets an incremental re-analysis adopt stored
fixed-point environments for regions whose inputs provably did not
change: clean regions are never seeded, and only the frontier edges
from reached clean callers into invalidated regions are evaluated.

:func:`solve_dense` keeps the original re-evaluate-everything algorithm
as the reference implementation the sparse engine is cross-checked and
benchmarked against — all schedules compute the same greatest fixpoint,
so their VAL sets (and therefore CONSTANTS sets and Table 2/3 counts)
agree exactly. It is also the solve a lattice sanitizer observes.

Because the lattice has bounded depth (each value lowers at most twice),
the solver terminates after O(Σ |keys|) meets; the cost of each pass is
the cost of the jump-function evaluations, exactly as analyzed in §3.1.5.
Procedures never reached from the main program keep ⊤ (paper §2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.callgraph.graph import CallGraph
from repro.core.builder import ForwardFunctions, entry_keys
from repro.core.exprs import EntryKey
from repro.core.lattice import BOTTOM, TOP, LatticeValue, meet
from repro.framework.engine import SolveResult, solve_client
from repro.framework.lattice import ConstantLattice
from repro.framework.worklist import PriorityWorklist
from repro.frontend.symbols import GlobalId
from repro.ir.lower import LoweredProgram


@dataclass(frozen=True, slots=True)
class WarmStart:
    """Stored region solutions an incremental re-analysis trusts.

    ``clean`` names the procedures whose jump functions, fingerprints,
    and entire caller cones are unchanged since the snapshot —
    cleanliness is closed under "all callers clean", so a clean
    procedure's entry environment is provably identical to the stored
    one. ``envs`` holds those stored environments and ``reached`` the
    clean procedures the snapshot's solve reached (reachability of a
    clean procedure cannot have changed either, for the same reason).
    The solver adopts clean regions wholesale and converges only the
    invalidated ones, evaluating each frontier edge (reached clean
    caller → invalid callee) exactly once.
    """

    clean: frozenset[str]
    envs: dict[str, dict[EntryKey, LatticeValue]]
    reached: frozenset[str]


def initial_val(lowered: LoweredProgram) -> dict[str, dict[EntryKey, LatticeValue]]:
    """⊤ everywhere, except the main program's entry environment.

    The key sets come from :func:`repro.core.builder.entry_keys`, the
    same enumeration the flow index is built over — VAL and the index can
    never disagree about which bindings exist.
    """
    val: dict[str, dict[EntryKey, LatticeValue]] = {
        name: {key: TOP for key in keys}
        for name, keys in entry_keys(lowered).items()
    }
    main_env = val[lowered.program.main]
    for gid in list(main_env):
        if not isinstance(gid, GlobalId):
            continue
        data = lowered.program.globals[gid].data_value
        if isinstance(data, bool) or isinstance(data, int):
            main_env[gid] = data
        else:
            main_env[gid] = BOTTOM  # uninitialized storage: unknown
    return val


def bottom_val(lowered: LoweredProgram) -> dict[str, dict[EntryKey, LatticeValue]]:
    """⊥ everywhere: the entry environments of the purely intraprocedural
    baseline (Table 3, column 4).

    The baseline deliberately assumes *nothing* at procedure entry — not
    even the main program's DATA initializations, because asserting that a
    DATA value survives to a use point requires knowing which callees
    modify COMMON storage, i.e. interprocedural MOD reasoning. Flooring
    every key (rather than only non-main ones) keeps the baseline column
    invariant under DATA statements; only locally derived constants count.
    """
    val = initial_val(lowered)
    for env in val.values():
        for key in env:
            env[key] = BOTTOM
    return val


def solve(
    lowered: LoweredProgram,
    graph: CallGraph,
    forward: ForwardFunctions,
    *,
    budget=None,
    warm: WarmStart | None = None,
    flat: bool = False,
) -> SolveResult:
    """Sparse delta-driven propagation to a fixpoint (procedure-grained).

    The solve is region-scheduled: the call graph's SCC condensation is
    processed callers-first, each region converging to its local fixed
    point exactly once before any of its cross-region call sites is
    evaluated (see the module docstring for why that is sound and what
    it does to the counters). ``warm`` adopts stored fixed points for
    clean regions.

    ``budget`` (a :class:`repro.resilience.budgets.SolveBudget`) caps
    passes here and evaluation/meet fuel inside the engine; exhaustion
    raises :class:`~repro.resilience.errors.BudgetExhaustedError`, which
    the driver's degradation ladder converts into a cheaper jump
    function rather than a dead result. The pass cap applies to each
    region's local sweep count — the §3.1.5 quantity.

    ``flat=True`` routes the whole solve through the flat slab engine
    (:mod:`repro.core.slab`): integer-coded lattice slots, CSR fan-out,
    batched drains. Byte-identical VALs, different representation-level
    counters (see the slab module docstring). Warm starts adopt boxed
    environments, so a warm solve falls back to the object engine.
    """
    if flat and warm is None:
        from repro.core.slab import solve_flat

        return solve_flat(lowered, graph, forward, budget=budget)
    return solve_client(
        lowered,
        graph,
        forward,
        ConstantLattice(),
        initial_val(lowered),
        budget=budget,
        warm=warm,
    )


def solve_dense(
    lowered: LoweredProgram,
    graph: CallGraph,
    forward: ForwardFunctions,
    *,
    budget=None,
    sanitizer=None,
) -> SolveResult:
    """The dense reference solver: re-evaluate every jump function at
    every site of a popped caller. Kept as the oracle the sparse engine
    is cross-checked against, the baseline it is benchmarked against,
    and the crash fallback the driver degrades to (``budget`` caps it
    the same way :func:`solve` is capped).

    ``sanitizer`` (a :class:`repro.diagnostics.sanitizer.LatticeSanitizer`)
    observes every binding transferred — a killed key transfers ⊥ — and
    every VAL entry a meet lowers. Each pop re-evaluates every jump
    function of the caller, so its monotone-transfer check sees each
    binding at every environment the caller passes through.
    """
    result = SolveResult(val=initial_val(lowered))
    val = result.val

    worklist = PriorityWorklist(graph.rpo_index())
    worklist.push(lowered.program.main, lowered.program.main)
    while worklist:
        caller = worklist.pop()
        if budget is not None:
            budget.check_all(result, worklist.passes)
        result.reached.add(caller)
        env = val[caller]
        for callee_name, call in graph.call_sites_from(caller):
            site = forward.sites.get(call.site_id)
            if site is None:
                continue
            callee_env = val[callee_name]
            changed = False
            for key in callee_env:
                edge = site.get(key)
                if edge is None:
                    result.skipped += 1  # nothing to evaluate: key is killed
                    incoming: LatticeValue = BOTTOM
                else:
                    result.evaluations += 1
                    incoming = edge.func.evaluate(env)
                if sanitizer is not None:
                    sanitizer.observe_transfer(
                        call.site_id, callee_name, key, incoming
                    )
                result.meets += 1
                old = callee_env[key]
                lowered_value = meet(old, incoming)
                if lowered_value != old:
                    if sanitizer is not None:
                        sanitizer.observe_update(
                            callee_name, key, old, lowered_value
                        )
                    callee_env[key] = lowered_value
                    changed = True
            if changed or callee_name not in result.reached:
                worklist.push(callee_name, callee_name)
    result.passes = worklist.passes
    result.pops = worklist.pops
    return result
