"""Parallel stage-3 solving over the condensation's dependency waves.

The SCC condensation (:mod:`repro.core.regions`) is a DAG: once every
region that can call into region R has converged, R's entry environments
are final. :func:`repro.core.regions.wave_schedule` stratifies the DAG
into *waves* — levels of regions with no call path between them — and
this module's :class:`ParallelRegionSolver` converges all activated
regions of one wave concurrently on a process pool, then merges their
fixed points deterministically (ascending region index) before the next
wave starts.

Correctness rests on the same argument as the sequential region
schedule: a region's local fixed point is a function of its members'
final entry environments only, and cross-region contributions are meets
of monotone-function values — associative and commutative, so merging a
wave's contributions in any fixed order meets the identical values the
interleaved sequential flushes would have. VAL sets are therefore
byte-identical to :func:`repro.core.solver.solve`'s (the property suite
asserts it). Counters are deterministic for a fixed worker count, but
``evaluations``/``bottom_skips`` may differ from the sequential
schedule's: a task flushes into private all-⊤ scratch environments, so
it cannot see that a sibling region already lowered a shared callee
binding to ⊥ and skip the evaluation.

Under ``--flat`` the same wave schedule runs over the slab engine
instead: the worker state carries the configuration's
:class:`~repro.core.slab.SlabProgram` (store-loaded and possibly
patched in the parent, rebuilt deterministically in spawned workers —
tasks exchange only name/key-addressed segments, so the processes never
need byte-identical slabs), and each region task replays its members'
precomputed firing-stream blocks with drains confined to the region's
contiguous slot range (:func:`_solve_region_task_flat`).

Worker processes rebuild stages 0–2 from ``(source, config)`` in their
initializer — every stage is deterministic, so the rebuilt region
indices, support index, and expression identities line up with the
parent's. Under the default ``fork`` start method the rebuild is skipped
entirely: the module-level worker state is stamped before the pool is
created, and forked children inherit the parent's structures
copy-on-write. Tasks ship only ``(region index, reached members, entry
environments)`` and return a picklable :class:`RegionOutcome` whose
environments are :class:`~repro.core.slab.SlabSegment`-encoded —
tagged-int code arrays plus a self-contained constant pool per
segment, far smaller on the wire than boxed dicts of lattice values;
the lattice singletons ⊤/⊥ reduce to themselves across the boundary
where they do still travel (inside ship-side entry environments).

Failure contract: any pool- or task-level failure (a worker killed
mid-wave, a pickling error, a schedule violation) raises
:class:`ParallelSolveError`, which the driver converts into an RL540
degradation and a sequential re-solve — never a crash and never a
partial result. :class:`~repro.resilience.errors.BudgetExhaustedError`
is the one exception that must *not* degrade to a sequential retry (the
ladder owns it); workers return it as a structured marker (the
exception's ``__reduce__`` does not survive pickling) and the parent
re-raises it.
"""

from __future__ import annotations

from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping

from repro.callgraph.graph import CallGraph
from repro.core.builder import ForwardFunctions, entry_keys
from repro.core.config import AnalysisConfig
from repro.core.exprs import EntryKey
from repro.core.lattice import TOP, LatticeValue, meet
from repro.core.regions import (
    RegionSchedule,
    WaveSchedule,
    region_schedule,
    wave_schedule,
)
from repro.core.slab import (
    CONST_BASE,
    SlabProgram,
    SlabSegment,
    encode_env,
    slab_for,
)
from repro.core.solver import SolveResult, initial_val
from repro.framework.client import FlowIndex, RegionPartition
from repro.framework.engine import ENGINE_COUNTERS, ClientEngine
from repro.framework.lattice import ConstantLattice
from repro.framework.worklist import PriorityWorklist
from repro.ir.lower import LoweredProgram
from repro.resilience import chaos
from repro.resilience.budgets import SolveBudget
from repro.resilience.errors import (
    BudgetExhaustedError,
    ResilienceError,
    Stage,
)

__all__ = ["ParallelRegionSolver", "ParallelSolveError", "solve_parallel"]


class ParallelSolveError(ResilienceError):
    """The parallel schedule could not complete — worker loss, pool
    breakage, a task crash, or a wave-order violation. The driver
    degrades to the sequential schedule (RL540); the analysis itself is
    not implicated."""

    stage = Stage.SOLVE


@dataclass(slots=True)
class _WorkerState:
    """Stages 0–2, as one process (parent or worker) sees them."""

    source: str | None
    config: AnalysisConfig | None
    lowered: LoweredProgram
    graph: CallGraph
    forward: ForwardFunctions
    index: FlowIndex
    schedule: RegionSchedule
    partition: RegionPartition
    keys_of: dict[str, list[EntryKey]]
    rpo: dict[str, int]
    #: the flat engine's slab (and its name→pid map) when the config
    #: runs ``--flat``: region tasks then replay firing-stream blocks
    #: instead of running the object engine
    slab: SlabProgram | None = None
    slab_pids: dict[str, int] | None = None


@dataclass(frozen=True, slots=True)
class RegionOutcome:
    """One region's converged fixed point, ready to merge.

    ``member_envs`` hold the final entry environments of the processed
    members; ``contributions`` the cross-region flush results — per
    callee, the keys the region's edges lowered *from ⊤ in private
    scratch*, i.e. exactly the meet of this region's incoming values,
    for the parent to meet into the shared VAL. Both are shipped as
    :class:`~repro.core.slab.SlabSegment`s (key tuple + tagged-int
    codes + per-segment constant pool) rather than boxed dicts: the
    pickle payload shrinks to a few machine words per binding and the
    parent decodes lazily while merging. ``activations`` are the
    cross-region callees reached (with or without lowered keys).
    """

    index: int
    processed: tuple[str, ...]
    member_envs: dict[str, SlabSegment]
    activations: tuple[str, ...]
    contributions: dict[str, SlabSegment]
    counters: dict[str, int]
    local_passes: int
    pops: int


def _make_state(
    lowered: LoweredProgram,
    graph: CallGraph,
    forward: ForwardFunctions,
    *,
    source: str | None,
    config: AnalysisConfig | None,
) -> _WorkerState:
    schedule = region_schedule(graph)
    slab = (
        slab_for(forward, lowered, graph)
        if config is not None and config.flat_engine
        else None
    )
    return _WorkerState(
        source=source,
        config=config,
        lowered=lowered,
        graph=graph,
        forward=forward,
        index=forward.index,
        schedule=schedule,
        partition=forward.region_partition(schedule.region_of),
        keys_of=entry_keys(lowered),
        rpo=graph.rpo_index(),
        slab=slab,
        slab_pids=(
            {name: pid for pid, name in enumerate(slab.proc_names)}
            if slab is not None
            else None
        ),
    )


#: The per-process stage-0–2 bundle tasks run against. In the parent it
#: doubles as the inline-execution state; forked workers inherit it and
#: skip the rebuild, spawned workers rebuild from (source, config).
_WORKER_STATE: _WorkerState | None = None


def _build_worker_state(source: str, config: AnalysisConfig) -> _WorkerState:
    # Late imports: the driver imports this module at top level.
    from repro.core.builder import build_forward_jump_functions
    from repro.core.driver import build_stage0
    from repro.core.returns import build_return_jump_functions
    from repro.frontend.symbols import parse_program

    stage0 = build_stage0(parse_program(source))
    returns = build_return_jump_functions(
        stage0.lowered, stage0.graph, config, stage0.ssa_cache
    )
    forward = build_forward_jump_functions(
        stage0.lowered, returns, config, stage0.ssa_cache
    )
    return _make_state(
        stage0.lowered,
        stage0.graph,
        forward,
        source=source,
        config=config,
    )


def _worker_init(
    source: str,
    config: AnalysisConfig,
    chaos_spec: "chaos.ChaosSpec | None",
) -> None:
    """Process-pool initializer: arm chaos (tests) and ensure the worker
    has the right stage-0–2 state — inherited via fork, or rebuilt.

    The injector is labelled ``"region-worker"`` so a chaos fault can
    target pool workers specifically (``Fault(program="region-worker")``)
    without also firing on the parent's inline single-region waves."""
    global _WORKER_STATE
    if chaos_spec is not None:
        chaos.install(chaos_spec, label="region-worker", in_worker=True)
    state = _WORKER_STATE
    if (
        state is not None
        and state.source == source
        and state.config == config
    ):
        return
    _WORKER_STATE = _build_worker_state(source, config)


def _segment_of(
    keys: tuple[EntryKey, ...], codes: array, pool_values: list
) -> SlabSegment:
    """Re-pool a codes slice into a self-contained :class:`SlabSegment`:
    the slab's global pool numbering is process-private, so wire
    segments carry their own constant tuple exactly like
    :func:`~repro.core.slab.encode_env`'s output."""
    local: list[LatticeValue] = []
    remap: dict[int, int] = {}
    out = array("i", codes)
    for i, code in enumerate(out):
        if code >= CONST_BASE:
            new = remap.get(code)
            if new is None:
                new = len(local) + CONST_BASE
                remap[code] = new
                local.append(pool_values[code - CONST_BASE])
            out[i] = new
    return SlabSegment(keys, out, tuple(local))


def _solve_region_task_flat(
    state: _WorkerState,
    index: int,
    reached: tuple[str, ...],
    envs: Mapping[str, dict[EntryKey, LatticeValue]],
    budget: SolveBudget | None,
) -> RegionOutcome:
    """Flat-engine variant of :func:`_solve_region_task`: replay the
    region members' precomputed firing-stream blocks against a private
    codes array instead of running the object
    :class:`~repro.framework.engine.ClientEngine`.

    Soundness mirrors the sequential flat solve restricted to one
    region. Slots are assigned in region-schedule order, so a region's
    members occupy one contiguous pid (and therefore slot) range — the
    guard below re-checks that and raises :class:`ParallelSolveError`
    (→ RL540, sequential re-solve) rather than trusting it. The
    members replayed are exactly those the global sweep reached
    (``pid_rank >= 0``): by the wave invariant every activation into
    this region is already recorded when its wave runs, so the global
    reach of a member equals its in-region reachability from
    ``reached``. The stream's baked ``enq`` flag ("owner seeded before
    this firing?") keeps its meaning under the restriction because
    members replay in global sweep-rank order; drains are confined to
    the region's slot range, and everything lowered outside it reads
    off as this region's pure contribution — external scratch starts
    all-⊤ exactly like the object task's."""
    slab = state.slab
    pids_of = state.slab_pids
    assert slab is not None and pids_of is not None
    region = state.schedule.regions[index]
    pids = sorted(pids_of[member] for member in region.members)
    lo_pid, hi_pid = pids[0], pids[-1] + 1
    if pids != list(range(lo_pid, hi_pid)):
        raise ParallelSolveError(
            f"region {index} members are not slot-contiguous in the slab"
        )
    slot_base = slab.slot_base
    slot_lo, slot_hi = slot_base[lo_pid], slot_base[hi_pid]
    nslots = slab.nslots
    codes = array("i", bytes(4 * nslots)) if nslots else array("i")
    pool = slab.pool
    encode = pool.encode
    for member in reached:
        env = envs.get(member)
        if env is None:
            continue
        base = slot_base[pids_of[member]]
        if len(env) != slot_base[pids_of[member] + 1] - base:
            raise ParallelSolveError(
                f"entry environment for {member} does not match the slab"
            )
        # dict order is entry_keys order on both sides (initial_val and
        # build_slab share it), so offsets line up without key lookups
        for offset, value in enumerate(env.values()):
            if value is not TOP:
                codes[base + offset] = encode(value)

    pid_rank = slab.pid_rank
    replay = [pid for pid in range(lo_pid, hi_pid) if pid_rank[pid] >= 0]
    replay.sort(key=pid_rank.__getitem__)
    block_starts = slab.p1_block_starts
    p1_target = slab.p1_target
    p1_kind = slab.p1_kind
    p1_payload = slab.p1_payload
    p1_enq = slab.p1_enq
    kernels = slab.kernels
    in_queue = array("i", bytes(4 * nslots)) if nslots else array("i")
    queue: list[int] = []
    fill_gen = 1
    stats = SolveResult(val={})
    evaluations = meets = bottom_skips = skipped = 0
    for pid in replay:
        rank = pid_rank[pid]
        for e in range(block_starts[rank], block_starts[rank + 1]):
            target = p1_target[e]
            old = codes[target]
            kind = p1_kind[e]
            if old == 1:
                if kind == 4:
                    skipped += 1
                else:
                    bottom_skips += 1
                continue
            if kind == 1:
                evaluations += 1
                payload = p1_payload[e]
                inc = codes[payload] if payload >= 0 else 1
            elif kind == 0:
                inc = p1_payload[e]
            elif kind == 4:
                skipped += 1
                meets += 1
                codes[target] = 1
                if (
                    p1_enq[e]
                    and slot_lo <= target < slot_hi
                    and in_queue[target] != fill_gen
                ):
                    in_queue[target] = fill_gen
                    queue.append(target)
                continue
            elif kind == 2:
                evaluations += 1
                inc = encode(kernels[p1_payload[e]](codes))
            else:
                bottom_skips += 1
                inc = 1
            meets += 1
            if old == 0:
                new = inc
            elif inc == 0 or old == inc:
                continue
            else:
                new = 1
            if new != old:
                codes[target] = new
                if (
                    p1_enq[e]
                    and slot_lo <= target < slot_hi
                    and in_queue[target] != fill_gen
                ):
                    in_queue[target] = fill_gen
                    queue.append(target)
    stats.evaluations += evaluations
    stats.meets += meets
    stats.bottom_skips += bottom_skips
    stats.skipped += skipped
    if budget is not None:
        budget.check_engine(stats)

    dep_indptr = slab.dep_indptr
    dep_edges = slab.dep_edges
    batch_drains = 0
    pops = len(replay)
    while queue:
        batch = queue
        queue = []
        fill_gen += 1
        batch_drains += 1
        evaluations = meets = bottom_skips = 0
        for slot in batch:
            for i in range(dep_indptr[slot], dep_indptr[slot + 1]):
                e = dep_edges[i]
                target = p1_target[e]
                old = codes[target]
                if old == 1:
                    bottom_skips += 1
                    continue
                kind = p1_kind[e]
                if kind == 0:
                    inc = p1_payload[e]
                elif kind == 1:
                    evaluations += 1
                    source = p1_payload[e]
                    inc = codes[source] if source >= 0 else 1
                elif kind == 2:
                    evaluations += 1
                    inc = encode(kernels[p1_payload[e]](codes))
                else:
                    bottom_skips += 1
                    inc = 1
                meets += 1
                if old == 0:
                    new = inc
                elif inc == 0 or old == inc:
                    continue
                else:
                    new = 1
                if new != old:
                    codes[target] = new
                    if (
                        slot_lo <= target < slot_hi
                        and in_queue[target] != fill_gen
                    ):
                        in_queue[target] = fill_gen
                        queue.append(target)
        pops += len(batch)
        stats.evaluations += evaluations
        stats.meets += meets
        stats.bottom_skips += bottom_skips
        stats.deltas += len(batch)
        if budget is not None:
            budget.check_engine(stats)
            budget.check_passes(1 + batch_drains)

    keys_flat = slab.keys_flat
    pool_values = pool.values
    member_envs: dict[str, SlabSegment] = {}
    for pid in replay:
        base, end = slot_base[pid], slot_base[pid + 1]
        member_envs[slab.proc_names[pid]] = _segment_of(
            keys_flat[base:end], codes[base:end], pool_values
        )
    callee_indptr = slab.callee_indptr
    callee_ids = slab.callee_ids
    external: dict[int, None] = {}
    for pid in replay:
        for i in range(callee_indptr[pid], callee_indptr[pid + 1]):
            callee = callee_ids[i]
            if not lo_pid <= callee < hi_pid and callee not in external:
                external[callee] = None
    contributions: dict[str, SlabSegment] = {}
    for callee in external:
        keys: list[EntryKey] = []
        touched = array("i")
        for slot in range(slot_base[callee], slot_base[callee + 1]):
            code = codes[slot]
            if code:  # lowered from ⊤ by this region's edges
                keys.append(keys_flat[slot])
                touched.append(code)
        if keys:
            contributions[slab.proc_names[callee]] = _segment_of(
                tuple(keys), touched, pool_values
            )
    return RegionOutcome(
        index=index,
        processed=tuple(slab.proc_names[pid] for pid in replay),
        member_envs=member_envs,
        activations=tuple(
            sorted(slab.proc_names[callee] for callee in external)
        ),
        contributions=contributions,
        counters={name: getattr(stats, name) for name in ENGINE_COUNTERS},
        local_passes=1 + batch_drains,
        pops=pops,
    )


def _solve_region_task(
    state: _WorkerState,
    index: int,
    reached: tuple[str, ...],
    envs: Mapping[str, dict[EntryKey, LatticeValue]],
    budget: SolveBudget | None,
) -> RegionOutcome:
    """Converge one region against private scratch environments.

    ``reached`` are the members activated by earlier waves (sorted);
    ``envs`` their — final — entry environments. Members never reached
    stay at ⊤ exactly as in the sequential schedule. Cross-region
    callees get all-⊤ scratch environments, so the flush results read
    off as pure contributions for the parent to meet in. When the
    worker state carries a slab (``--flat``), the firing-stream replay
    variant runs instead of the object engine.
    """
    chaos.chaos_point(Stage.SOLVE, scope="region-worker")
    if state.slab is not None:
        return _solve_region_task_flat(state, index, reached, envs, budget)
    schedule = state.schedule
    region = schedule.regions[index]
    region_of = schedule.region_of
    keys_of = state.keys_of

    scratch: dict[str, dict[EntryKey, LatticeValue]] = {}
    for member in region.members:
        env: dict[EntryKey, LatticeValue] = {
            key: TOP for key in keys_of[member]
        }
        given = envs.get(member)
        if given is not None:
            env.update(given)
        scratch[member] = env
    external: dict[str, None] = {}
    for member in region.members:
        for callee in state.index.callees.get(member, ()):
            if region_of[callee] != index and callee not in external:
                external[callee] = None
    for callee in external:
        scratch[callee] = {key: TOP for key in keys_of[callee]}

    stats = SolveResult(val=scratch)
    engine = ClientEngine(
        state.partition, ConstantLattice(), scratch, stats, budget=budget
    )

    processed: dict[str, None] = {}
    activations: dict[str, None] = {}
    local_passes = 0
    pops = 0
    if not region.recursive and len(reached) == 1:
        # Singleton fast path, mirroring the sequential solver: nothing
        # to seed, since an edge internal to the region would be a
        # self-call.
        (proc,) = reached
        if budget is not None:
            budget.check_passes(1)
        pops = 1
        processed[proc] = None
        local_passes = 1
        for callee in engine.callees(proc):
            activations[callee] = None  # all cross-region for a singleton
    else:
        worklist = PriorityWorklist(state.rpo)
        pending: dict[str, dict[EntryKey, None]] = {}
        seeded: set[str] = set()
        for proc in reached:
            worklist.push(proc, proc)
        mark = worklist.begin_segment()
        while worklist:
            caller = worklist.pop()
            if budget is not None:
                budget.check_passes(worklist.passes - mark)
            processed[caller] = None
            if caller not in seeded:
                seeded.add(caller)
                pending.pop(caller, None)
                changed = engine.seed(caller)
            else:
                deltas = pending.pop(caller, None)
                changed = engine.apply_deltas(caller, deltas) if deltas else {}
            for callee, keys in changed.items():
                slot = pending.get(callee)
                if slot is None:
                    slot = pending[callee] = {}
                slot.update(keys)
                worklist.push(callee, callee)
            for callee in engine.callees(caller):
                if region_of[callee] == index:
                    if callee not in seeded:
                        worklist.push(callee, callee)
                else:
                    activations[callee] = None
        local_passes = worklist.passes - mark
        pops = worklist.pops

    # Flush every cross-region edge once, with final member environments;
    # the scratch callee envs accumulate the region's contribution.
    touched: dict[str, dict[EntryKey, None]] = {}
    for caller in processed:
        for callee, keys in engine.flush_region(caller).items():
            slot = touched.get(callee)
            if slot is None:
                slot = touched[callee] = {}
            slot.update(keys)
    contributions = {
        callee: encode_env({key: scratch[callee][key] for key in keys})
        for callee, keys in touched.items()
    }
    return RegionOutcome(
        index=index,
        processed=tuple(processed),
        member_envs={proc: encode_env(scratch[proc]) for proc in processed},
        activations=tuple(sorted(activations)),
        contributions=contributions,
        counters={name: getattr(stats, name) for name in ENGINE_COUNTERS},
        local_passes=local_passes,
        pops=pops,
    )


def _run_region_remote(
    index: int,
    reached: tuple[str, ...],
    envs: dict[str, dict[EntryKey, LatticeValue]],
    budget: SolveBudget | None,
):
    """Pool entry point. Budget exhaustion returns as a structured
    marker: :class:`BudgetExhaustedError` does not round-trip pickling
    (its ``__init__`` signature differs from ``args``), and it must not
    be conflated with a pool failure."""
    try:
        state = _WORKER_STATE
        if state is None:
            raise ParallelSolveError("worker state was never initialized")
        return ("ok", _solve_region_task(state, index, reached, envs, budget))
    except BudgetExhaustedError as exc:
        return ("budget", exc.counter, exc.limit, exc.observed)


class ParallelRegionSolver:
    """Wave-scheduled stage-3 solve over a process pool.

    One instance serves one solve. ``workers`` is the requested pool
    width; waves with a single activated region (and the whole solve,
    when ``workers <= 1``) execute inline through the exact same task
    function, so pooled and inline runs are structurally identical.
    """

    def __init__(
        self,
        lowered: LoweredProgram,
        graph: CallGraph,
        forward: ForwardFunctions,
        *,
        workers: int,
        source: str | None = None,
        config: AnalysisConfig | None = None,
        budget: SolveBudget | None = None,
    ):
        # Captured before _make_state so the slab's origin (store-loaded,
        # freshly built, or an in-process cache hit) can be told apart —
        # slab_for stamps forward._slab as a side effect of building.
        loaded = getattr(forward, "_slab_loaded", None)
        cached = getattr(forward, "_slab", None)
        self._state = _make_state(
            lowered,
            graph,
            forward,
            source=source,
            config=config,
        )
        slab = self._state.slab
        if slab is None:
            self._slab_origin = None
        elif loaded is not None and slab is loaded:
            self._slab_origin = "load"
        elif cached is None or cached[2] is not slab:
            self._slab_origin = "build"
        else:
            self._slab_origin = "cache"
        self._workers = max(1, workers)
        self._budget = budget

    def solve(self) -> SolveResult:
        """Run the wave schedule to the global fixed point.

        Raises :class:`ParallelSolveError` on any pool or task failure
        (the caller re-solves sequentially) and re-raises
        :class:`BudgetExhaustedError` untouched (the ladder owns it).
        """
        global _WORKER_STATE
        state = self._state
        lowered, graph = state.lowered, state.graph
        schedule = state.schedule
        waves = wave_schedule(graph)
        region_of = schedule.region_of
        result = SolveResult(val=initial_val(lowered))
        main = lowered.program.main
        activated: dict[int, set[str]] = {region_of[main]: {main}}
        done: set[int] = set()
        max_local = 0

        pool: ProcessPoolExecutor | None = None
        use_pool = (
            self._workers > 1
            and state.source is not None
            and state.config is not None
            and len(schedule.regions) > 1
        )
        try:
            if use_pool:
                # Stamp the parent's state before forking so workers
                # inherit it; spawned workers rebuild from the initargs.
                _WORKER_STATE = state
                injector = chaos._ACTIVE
                pool = ProcessPoolExecutor(
                    max_workers=self._workers,
                    initializer=_worker_init,
                    initargs=(
                        state.source,
                        state.config,
                        injector.spec if injector is not None else None,
                    ),
                )
            for level, wave in enumerate(waves.waves):
                todo = [index for index in wave if index in activated]
                if not todo:
                    continue
                result.waves += 1
                tasks = []
                for index in todo:
                    reached = tuple(sorted(activated.pop(index)))
                    envs = {
                        member: result.val[member] for member in reached
                    }
                    tasks.append((index, reached, envs))
                outcomes = self._execute(pool, tasks, result)
                for outcome in outcomes:  # ascending region index
                    self._merge(result, outcome, level, waves, region_of,
                                activated, done)
                    if outcome.local_passes > max_local:
                        max_local = outcome.local_passes
                if self._budget is not None:
                    self._budget.check_all(result, max_local)
        except (BudgetExhaustedError, ParallelSolveError):
            raise
        except Exception as exc:
            raise ParallelSolveError(
                f"parallel region solve failed: {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            if pool is not None:
                _terminate_pool(pool)
        result.passes = max_local
        slab = state.slab
        if slab is not None:
            result.slab_slots = slab.nslots
            result.slab_bytes = slab.nbytes()
            if self._slab_origin == "load":
                result.slab_load_seconds = slab.load_seconds
                result.slab_patched_procs = slab.patched_procs
                result.slab_patched_slots = slab.patched_slots
            elif self._slab_origin == "build":
                result.slab_build_seconds = slab.build_seconds
        return result

    def _execute(self, pool, tasks, result: SolveResult) -> list[RegionOutcome]:
        """Run one wave's tasks — pooled when the wave is genuinely
        parallel, inline otherwise — returning outcomes in submission
        (ascending region index) order."""
        budget = self._budget
        if pool is not None and len(tasks) > 1:
            futures = [
                pool.submit(_run_region_remote, index, reached, envs, budget)
                for index, reached, envs in tasks
            ]
            result.regions_parallel += len(tasks)
            outcomes = []
            for future in futures:
                reply = future.result()
                if reply[0] == "budget":
                    raise BudgetExhaustedError(reply[1], reply[2], reply[3])
                outcomes.append(reply[1])
            return outcomes
        return [
            _solve_region_task(self._state, index, reached, envs, budget)
            for index, reached, envs in tasks
        ]

    @staticmethod
    def _merge(
        result: SolveResult,
        outcome: RegionOutcome,
        level: int,
        waves: WaveSchedule,
        region_of: Mapping[str, int],
        activated: dict[int, set[str]],
        done: set[int],
    ) -> None:
        """Fold one region's outcome into the shared VAL — adopt member
        environments, meet cross-region contributions, record
        activations. Deterministic: callers merge outcomes in ascending
        region index, and meet is associative/commutative, so the result
        is independent of which worker finished first."""
        result.regions += 1
        done.add(outcome.index)
        result.reached.update(outcome.processed)
        for member, segment in outcome.member_envs.items():
            result.val[member].update(segment.items())
        counters = outcome.counters
        for name in ENGINE_COUNTERS:
            setattr(result, name, getattr(result, name) + counters[name])
        result.region_passes += outcome.local_passes
        result.pops += outcome.pops
        for callee, segment in outcome.contributions.items():
            target = result.val[callee]
            for key, incoming in segment.items():
                old = target[key]
                new = incoming if old is TOP else meet(old, incoming)
                if new != old:
                    target[key] = new
        for callee in outcome.activations:
            target_index = region_of[callee]
            if target_index in done or waves.level_of(target_index) <= level:
                # Every condensation edge goes to a strictly higher
                # level; reaching backward means the schedule (or the
                # worker's rebuilt structures) is corrupt.
                raise ParallelSolveError(
                    f"wave-order violation: region {outcome.index} at "
                    f"level {level} activated region {target_index} at "
                    f"level {waves.level_of(target_index)}"
                )
            activated.setdefault(target_index, set()).add(callee)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without leaking workers: terminate-then-join,
    escalating to kill — the same discipline as the sweep executor."""
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)


def solve_parallel(
    lowered: LoweredProgram,
    graph: CallGraph,
    forward: ForwardFunctions,
    *,
    workers: int,
    source: str | None = None,
    config: AnalysisConfig | None = None,
    budget: SolveBudget | None = None,
) -> SolveResult:
    """Convenience wrapper: one :class:`ParallelRegionSolver` run."""
    return ParallelRegionSolver(
        lowered,
        graph,
        forward,
        workers=workers,
        source=source,
        config=config,
        budget=budget,
    ).solve()
