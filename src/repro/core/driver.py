"""The four-stage analyzer of §4.1, assembled as a shared-artifact pipeline.

::

    stage 0   parse, resolve, lower, call graph, MOD/REF   (config-independent)
    stage 1   return jump functions       (bottom-up over the call graph)
    stage 2   forward jump functions      (per procedure, uses stage 1)
    stage 3   interprocedural propagation (worklist over the call graph)
    stage 4   record: CONSTANTS sets, substitution counts, transformed text

Stage 0 depends only on the program text, never on the
:class:`~repro.core.config.AnalysisConfig`, so the study's whole
methodology — sweeping one program under many jump-function
configurations (Tables 2/3) — only needs it once per program. The
pipeline makes that explicit:

- :func:`build_stage0` produces a :class:`Stage0Artifacts` bundle;
- :class:`Stage0Cache` memoizes bundles by program identity (the source
  text), looked up before anything is parsed, and counts hits/misses;
- :func:`analyze` runs stages 1–4 for one configuration on top of a
  bundle (consulting the module-level cache by default), and stage 4
  reuses each procedure's substitution record for a CONSTANTS(p) it has
  seen (see :func:`~repro.core.substitute.compute_substitutions`);
- :class:`Analyzer` parses once and sweeps many configurations over one
  bundle, and :meth:`Analyzer.reanalyze` builds an edited version's
  bundle from the one it replaces, rebuilding only the units the edit
  touched; :func:`sweep_programs` fans whole-program sweeps across
  worker processes for table regeneration.

Complete propagation (``config.complete``) iterates analysis with
dead-code elimination. Its first round is the shared pipeline above, and
its DCE rewrites copies, so no configuration mutates a cached stage-0
artifact. Its later rounds look up the bundle's SSA forms and
numberings first (see :class:`SSACache`), so a procedure DCE left alone
is not rebuilt. Per-stage wall-clock timings and the cache counters are
surfaced through :attr:`AnalysisResult.timings` for the §3.1.5 cost
benchmarks and the ``repro analyze --stats`` flag.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.analysis.ssa import SSAProcedure, build_ssa, ensure_global_symbols
from repro.analysis.valuenum import ValueNumbering
from repro.callgraph.graph import CallGraph, build_call_graph
from repro.callgraph.modref import ModRefInfo, compute_modref, make_call_effects
from repro.core.builder import ForwardFunctions, build_forward_jump_functions
from repro.core.complete import CompleteStats, run_complete_propagation
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.exprs import intern_counters
from repro.core.lattice import LatticeValue
from repro.core.parallel import ParallelSolveError, solve_parallel
from repro.core.returns import (
    ReturnFunctionResult,
    ReturnTable,
    build_return_jump_functions,
)
from repro.core.solver import SolveResult, WarmStart, bottom_val, solve, solve_dense
from repro.core.substitute import (
    SubstitutionReport,
    compute_substitutions,
    transform_source,
)
from repro.frontend.symbols import Program, parse_program
from repro.ir.lower import LoweredProgram, lower_program
from repro.resilience.budgets import SolveBudget
from repro.resilience.cancel import (
    CancelledError,
    cancel_point,
    cancellable_budget,
)
from repro.resilience.chaos import chaos_point, maybe_corrupt_stage0
from repro.resilience.errors import (
    CODE_DEGRADED_DENSE,
    CODE_DEGRADED_FLOOR,
    CODE_DEGRADED_LADDER,
    CODE_PARALLEL_FALLBACK,
    CODE_SLAB_FALLBACK,
    CODE_STORE_FALLBACK,
    CODE_STORE_RESET,
    BudgetExhaustedError,
    DegradationRecord,
    Stage,
)
from repro.store.artifacts import MemoryStore, StoreError, StoreIndexError
from repro.store.fingerprints import config_key as _store_config_key
from repro.store.incremental import (
    IncrementalReport,
    RunDigests,
    plan_warm_start,
    publish_snapshot,
)
from repro.store.slabs import plan_slab, publish_slab


# -- stage 0: configuration-independent artifacts ----------------------------


class SSACache:
    """SSA forms and value numberings for one program, each keyed by
    exactly what it is computed from.

    - An SSA form reads the lowered procedure and, through the kills its
      calls insert, MOD information: nothing more for a procedure with no
      call site, a no-MOD marker with MOD off, and the MOD summaries of
      its distinct callees (the call graph's, sorted), compared by value,
      with MOD on. A call-free procedure has one form whatever the MOD
      setting.
    - A numbering reads the SSA form and the return-table entries of its
      distinct callees, plus the compose flag when one of them has an
      entry. Entries compare by identity, and stage 1 interns each by
      content (:class:`~repro.core.returns.ReturnFunctions`), so a key
      changes only when a callee's return functions do: a callee rebuilt
      with the same return functions leaves its callers' numberings in
      place.
    - :meth:`returns` keeps one stage-1 result per (MOD, returns,
      compose) setting: its return table. Stage 2 asks :meth:`get` and
      :meth:`numbering` for every procedure against that table, which
      hits for every procedure stage 1 numbered against the final table;
      every jump-function kind, and every rung of the degradation
      ladder, projects the numbering it gets.

    Keys are tuples of the objects they name (the lowered CFG, MOD
    summaries, the SSA form, entries), so none of them can be freed and
    its identity reused while the entry lives.

    Consumers (value numbering, SCCP, the dependence clients) never
    mutate the SSA CFG. A lookup that misses tries the ``base`` cache
    with the same key and keeps a hit under it, so a procedure whose
    CFG, callee MOD summaries and callee return functions did not change
    keeps its SSA form, numbering and records (the record memo lives on
    the SSA form):

    - a later round of complete propagation analyzes a rewritten program
      through a cache of its own whose base is the stage-0 bundle's, so
      the procedures DCE left alone keep their round-1 work;
    - an edit's stage 0 (:func:`build_stage0`) has the superseded
      version's cache as its base, so the units the edit left in place
      keep theirs. :meth:`release_base` drops the base once the edit's
      stages 1–3 are done: what they did not look up dies with it.

    Nothing is ever written into a base.

    Entries are published by one dict store each, so a present entry is
    final; two threads racing on a miss may both build it.
    """

    def __init__(
        self,
        lowered: LoweredProgram,
        graph: CallGraph,
        modref: ModRefInfo,
        base: SSACache | None = None,
    ):
        self._lowered = lowered
        self._graph = graph
        self._modref = modref
        self._ssas: dict[tuple, SSAProcedure] = {}
        self._numberings: dict[tuple, ValueNumbering] = {}
        self._returns: dict[tuple[bool, bool, bool], ReturnFunctionResult] = {}
        # looked up on a miss, never written
        self._base_ssas = base._ssas if base is not None else {}
        self._base_numberings = base._numberings if base is not None else {}

    def release_base(self) -> None:
        """Stop looking up the base cache, so nothing here keeps it."""
        self._base_ssas = {}
        self._base_numberings = {}

    def get(self, name: str, use_mod: bool) -> SSAProcedure:
        lowered_proc = self._lowered.procedures[name]
        if not lowered_proc.call_instrs:
            key: tuple = (lowered_proc.cfg,)
        elif not use_mod:
            key = (lowered_proc.cfg, None)
        else:
            mod_globals = self._modref.mod_globals
            mod_formals = self._modref.mod_formals
            parts = [lowered_proc.cfg]
            for callee in self._graph.callees(name):
                parts.append(mod_globals.get(callee))
                parts.append(mod_formals.get(callee))
            key = tuple(parts)
        ssa = self._ssas.get(key)
        if ssa is None:
            ssa = self._base_ssas.get(key)
            if ssa is None:
                effects = make_call_effects(
                    self._lowered, name, self._modref if use_mod else None
                )
                ssa = build_ssa(lowered_proc, effects)
            self._ssas[key] = ssa
        return ssa

    def numbering(
        self,
        ssa: SSAProcedure,
        table: ReturnTable,
        compose: bool,
        number: Callable[..., ValueNumbering],
    ) -> ValueNumbering:
        """The numbering of ``ssa`` against return table ``table``; on a
        miss, ``number`` (the calling stage's ``value_number``) makes it."""
        # value_number reads an empty entry as no entry
        entries = tuple(
            table.get(callee) or None
            for callee in self._graph.callees(ssa.name)
        )
        key = (ssa, compose, *entries) if any(entries) else (ssa,)
        numbering = self._numberings.get(key)
        if numbering is None:
            numbering = self._base_numberings.get(key)
            if numbering is None:
                numbering = number(ssa, self._lowered, table, compose)
            self._numberings[key] = numbering
        return numbering

    def returns(self, config: AnalysisConfig) -> ReturnFunctionResult:
        """Stage 1 for ``config``, built on the first request per (MOD,
        returns, compose) setting: the jump function enters only when
        stage 2 projects the numbering, and budgets and solver switches
        never enter."""
        key = (
            config.use_mod,
            config.use_return_jump_functions,
            config.compose_return_functions,
        )
        cached = self._returns.get(key)
        if cached is None:
            cached = build_return_jump_functions(
                self._lowered, self._graph, config, self
            )
            self._returns[key] = cached
        return cached


@dataclass
class Stage0Artifacts:
    """Everything about a program that no configuration can change."""

    program: Program
    lowered: LoweredProgram
    graph: CallGraph
    modref: ModRefInfo
    ssa_cache: SSACache
    #: build cost, keyed like :attr:`AnalysisResult.timings` ("lower", "modref").
    timings: dict[str, float] = field(default_factory=dict)


def build_stage0(
    program: Program, previous: Stage0Artifacts | None = None
) -> Stage0Artifacts:
    """Lower a resolved program and compute its call graph and MOD/REF.

    ``previous`` is the bundle of the version ``program``'s text replaces
    (an edit; see :meth:`Analyzer.reanalyze`). Each unit whose resolved
    procedure the frontend kept keeps its lowered procedure too
    (:func:`~repro.ir.lower.lower_program` states the rule), and the new
    :class:`SSACache` has the old one as its base, so those units keep
    their SSA forms, numberings and records too, as long as their callees'
    MOD summaries and return functions did not change. The call graph and
    MOD/REF are computed afresh. The bundle keeps nothing of ``previous``
    but the objects it reuses and, until the first run releases it, the
    base cache's dicts.
    """
    timings: dict[str, float] = {}
    start = time.perf_counter()
    lowered = lower_program(
        program, previous.lowered if previous is not None else None
    )
    ensure_global_symbols(lowered)
    timings["lower"] = time.perf_counter() - start

    start = time.perf_counter()
    graph = build_call_graph(lowered)
    modref = compute_modref(lowered, graph)
    timings["modref"] = time.perf_counter() - start
    base = previous.ssa_cache if previous is not None else None
    return Stage0Artifacts(
        program,
        lowered,
        graph,
        modref,
        SSACache(lowered, graph, modref, base),
        timings,
    )


class Stage0Cache:
    """LRU cache of stage-0 bundles keyed by program identity.

    Identity is the program's source text: two programs with identical
    text have identical lowering, call graph, and MOD/REF (stage 0 never
    reads the configuration). :meth:`get` takes the text itself, and
    looks it up before anything is parsed, or a parsed :class:`Program`,
    whose ``source`` is exactly the text it was parsed from; so both
    share entries. Only a miss on a text runs the frontend, and a text
    that fails to parse is never cached. ``hits``/``misses`` make the
    sharing observable — the sweep tests assert stage 0 runs
    exactly once per program. Programs constructed without source text
    are never cached (there is no identity to key on).

    The daemon's threads share one cache: one lock guards each lookup
    with its LRU bump, and each insert with the superseded bundle's
    removal and its evictions. Stage 0 is built outside the lock, so two
    threads that miss on one text may both build it.
    """

    def __init__(self, maxsize: int = 32):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, Stage0Artifacts] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, source: str | Program) -> Stage0Artifacts:
        """Fetch (or build and remember) the stage-0 bundle for
        ``source``: program text, or a parsed program."""
        return self.lookup(source)[0]

    def lookup(
        self,
        source: str | Program,
        previous: str | None = None,
    ) -> tuple[Stage0Artifacts, bool]:
        """:meth:`get`, plus whether this lookup was a hit. Threads share
        the counters, so comparing ``hits`` around a lookup can count
        another thread's hit as this one's.

        ``previous`` is the text of the version ``source`` replaces (an
        edit): a miss builds the bundle from the one this cache holds
        for it (see :func:`build_stage0`), and once this lookup has its
        bundle the superseded one is dropped, so an edit session holds
        one version. A build that raises drops nothing."""
        key = source if isinstance(source, str) else source.source
        base = None
        if key:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    if previous != key:
                        self._entries.pop(previous, None)
                    return cached, True
                self.misses += 1
                base = self._entries.get(previous)
        program = parse_program(source) if isinstance(source, str) else source
        artifacts = build_stage0(program, base)
        if key:
            with self._lock:
                self._entries.pop(previous, None)
                self._entries[key] = artifacts
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
        return artifacts, False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def counters(self) -> dict[str, int]:
        return {
            "stage0_cache_hits": self.hits,
            "stage0_cache_misses": self.misses,
            "stage0_cache_entries": len(self._entries),
        }


#: The default process-wide cache :func:`analyze` and :class:`Analyzer` use.
GLOBAL_STAGE0_CACHE = Stage0Cache()


# -- stages 1–3: per-configuration -------------------------------------------


@dataclass
class _Artifacts:
    graph: CallGraph
    modref: ModRefInfo
    returns: ReturnFunctionResult
    forward: ForwardFunctions
    solved: SolveResult
    incremental: IncrementalReport | None = None


#: The pipeline stages in run order, as keyed in :attr:`AnalysisResult.timings`.
_STAGES = ("lower", "modref", "returns", "forward", "solve", "record")


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    program: Program
    config: AnalysisConfig
    lowered: LoweredProgram
    call_graph: CallGraph
    modref: ModRefInfo
    returns: ReturnFunctionResult
    forward: ForwardFunctions
    solved: SolveResult
    substitutions: SubstitutionReport
    complete_stats: CompleteStats | None = None
    timings: dict[str, float] = field(default_factory=dict)
    #: True when stage 0 came out of a :class:`Stage0Cache` hit.
    stage0_cached: bool = False
    #: planned quality losses the resilience layer took (ladder steps,
    #: sparse→dense fallback, baseline floor) — empty on a healthy run.
    degradations: tuple[DegradationRecord, ...] = ()
    #: what the artifact-store pre-pass did (``None`` unless the run was
    #: requested with ``incremental=True`` and a store).
    incremental: IncrementalReport | None = None

    # -- the paper's numbers -------------------------------------------------

    @property
    def constants_found(self) -> int:
        """The Table 2/3 cell: (procedure, variable) pairs substituted."""
        return self.substitutions.pairs

    @property
    def references_substituted(self) -> int:
        return self.substitutions.references

    def constants(self, proc_name: str) -> dict[str, LatticeValue]:
        """CONSTANTS(p) with human-readable names."""
        pretty: dict[str, LatticeValue] = {}
        for key, value in self.solved.constants(proc_name.lower()).items():
            if isinstance(key, str):
                pretty[key] = value
            else:
                pretty[self.program.global_display(key)] = value
        return pretty

    def all_constants(self) -> dict[str, dict[str, LatticeValue]]:
        return {name: self.constants(name) for name in sorted(self.lowered.procedures)}

    def transformed_source(self) -> str:
        """The program text with substituted constants spliced in."""
        return transform_source(self.program.source, self.substitutions)

    def modref_summaries(self) -> dict[str, dict[str, list[str]]]:
        """MOD(p) and REF(p) of every procedure, formals by name and
        globals by display name, each sorted: what ``repro analyze
        --analysis modref`` prints and the daemon's ``summaries``."""
        info = self.modref
        display = self.program.global_display

        def names(formals, globals_) -> list[str]:
            return sorted([*formals, *map(display, globals_)])

        return {
            proc: {
                "mod": names(info.mod_formals[proc], info.mod_globals[proc]),
                "ref": names(info.ref_formals[proc], info.ref_globals[proc]),
            }
            for proc in sorted(self.lowered.procedures)
        }

    def stats_report(self) -> str:
        """:meth:`stats_json` rendered as text for ``repro analyze
        --stats``."""
        stats = self.stats_json()
        lines = ["per-stage timings:"]
        for key, ms in stats["timings_ms"].items():
            lines.append(f"  {key:<8} {ms:>9.3f} ms")
        lines.append("solver counters:")
        for key, value in stats["solver_counters"].items():
            lines.append(f"  {key:<12} {value}")
        lines.append("pipeline:")
        for key, value in stats["pipeline"].items():
            lines.append(f"  {key} {value}")
        degradations = stats["resilience"]["degradations"]
        lines.append("resilience:")
        lines.append(f"  degradations {len(degradations)}")
        lines.extend(f"  {description}" for description in degradations)
        if "store" in stats:
            lines.append("store:")
            for key, value in stats["store"].items():
                lines.append(f"  {key} {value}")
        return "\n".join(lines)

    def stats_json(self) -> dict:
        """The ``--profile-json`` payload: per-stage timings (ms) plus
        every solver, cache, region, and store counter as plain JSON."""
        timings = {key: self.timings[key] for key in _STAGES if key in self.timings}
        timings.update(self.timings)  # extras (slab_plan, …) follow the stages
        payload = {
            "timings_ms": {key: value * 1000.0 for key, value in timings.items()},
            "solver_counters": dict(self.solved.counters()),
            "pipeline": {
                "stage0_cached": 1 if self.stage0_cached else 0,
                **intern_counters(),
            },
            "resilience": {
                "degradations": [r.describe() for r in self.degradations],
            },
            "result": {
                "constants_found": self.constants_found,
                "references_substituted": self.references_substituted,
            },
        }
        if self.incremental is not None:
            payload["store"] = {
                "mode": self.incremental.mode,
                **self.incremental.counters(),
            }
        return payload

    def resilience_diagnostics(self):
        """The RL5xx diagnostics for every degradation this run took
        (rendered by ``repro analyze`` so downgrades are never silent)."""
        return [record.diagnostic() for record in self.degradations]


#: The degradation ladder (DESIGN.md §7): each rung is strictly cheaper
#: than the one above it (§3.1.5 cost analysis), so a budget that one
#: rung exhausts may still suffice for the next.
_DEGRADATION_LADDER = (
    JumpFunctionKind.POLYNOMIAL,
    JumpFunctionKind.PASS_THROUGH,
    JumpFunctionKind.INTRAPROCEDURAL,
    JumpFunctionKind.LITERAL,
)


def _next_ladder_kind(kind: JumpFunctionKind) -> JumpFunctionKind | None:
    index = _DEGRADATION_LADDER.index(kind)
    if index + 1 < len(_DEGRADATION_LADDER):
        return _DEGRADATION_LADDER[index + 1]
    return None


def _attempt_solve(
    lowered: LoweredProgram,
    graph: CallGraph,
    forward: ForwardFunctions,
    config: AnalysisConfig,
    budget: SolveBudget | None,
    degradations: list[DegradationRecord],
    warm: WarmStart | None = None,
) -> SolveResult:
    """Stage 3: the sparse solver, with the dense reference solver as a
    crash fallback (RL511). Budget exhaustion is *not* a crash — it
    propagates so the degradation ladder can pick a cheaper rung. The
    dense fallback always runs cold: a warm plan that provoked a crash
    must not poison the recovery path.

    ``config.parallel_regions`` first tries the wave-parallel schedule;
    any parallel failure (worker loss, pool breakage) degrades to this
    same sequential path with an RL540 record — never a crash. Parallel
    is skipped for warm starts (the wave scheduler is cold-only), for
    complete-mode rounds (a DCE'd round's program is not its source
    text, which is what pool workers rebuild from), and for programs
    with no retained source text.
    """
    try:
        if (
            config.parallel_regions
            and warm is None
            and not config.complete
            and lowered.program.source
        ):
            try:
                chaos_point(Stage.SOLVE, scope="parallel")
                return solve_parallel(
                    lowered,
                    graph,
                    forward,
                    workers=config.parallel_regions,
                    source=lowered.program.source,
                    config=config,
                    budget=budget,
                )
            except BudgetExhaustedError:
                raise
            except ParallelSolveError as exc:
                degradations.append(
                    DegradationRecord(
                        code=CODE_PARALLEL_FALLBACK,
                        from_label="parallel",
                        to_label="sequential",
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
        chaos_point(Stage.SOLVE, scope="sparse")
        return solve(
            lowered, graph, forward, budget=budget, warm=warm,
            flat=config.flat_engine,
        )
    except (BudgetExhaustedError, CancelledError):
        # budget exhaustion feeds the ladder; cancellation aborts the
        # request — neither may be "recovered" by the dense fallback
        raise
    except Exception as exc:
        degradations.append(
            DegradationRecord(
                code=CODE_DEGRADED_DENSE,
                from_label="sparse",
                to_label="dense",
                detail=f"{type(exc).__name__}: {exc}",
            )
        )
        chaos_point(Stage.SOLVE, scope="dense")
        return solve_dense(lowered, graph, forward, budget=budget)


def _plan_incremental(
    store,
    digests: RunDigests,
    graph: CallGraph,
    degradations: list[DegradationRecord],
) -> tuple[WarmStart | None, IncrementalReport]:
    """The incremental pre-pass: load the latest snapshot, diff
    fingerprints, and plan the warm start. Any store problem degrades to
    a cold run (RL530/RL531) — never an analysis failure."""
    try:
        snapshot = store.load_snapshot(
            digests.cfg_key, digests.lowered.program.main
        )
    except StoreIndexError as exc:
        degradations.append(
            DegradationRecord(
                code=CODE_STORE_RESET,
                from_label="store",
                to_label="reset",
                counter="store",
                detail=str(exc),
            )
        )
        return None, IncrementalReport(mode="cold", detail="index reset")
    if snapshot is None:
        return None, IncrementalReport(mode="cold", detail="no snapshot")
    try:
        return plan_warm_start(store, snapshot, digests, graph=graph)
    except StoreError as exc:
        degradations.append(
            DegradationRecord(
                code=CODE_STORE_FALLBACK,
                from_label="warm",
                to_label="cold",
                counter="store",
                detail=str(exc),
            )
        )
        return None, IncrementalReport(
            mode="fallback", store_fallbacks=1, detail=str(exc)
        )


def _plan_slab(
    store,
    cfg_key: str,
    lowered: LoweredProgram,
    graph: CallGraph,
    modref: ModRefInfo,
    forward: ForwardFunctions,
    degradations: list[DegradationRecord],
):
    """The flat engine's store pre-pass: load (or load-and-patch) the
    persistent slab. Any untrusted artifact degrades to a cold rebuild
    (RL532), an index reset to RL531 — never an analysis failure."""
    try:
        return plan_slab(
            store,
            cfg_key=cfg_key,
            lowered=lowered,
            graph=graph,
            modref=modref,
            forward=forward,
        )
    except StoreIndexError as exc:
        degradations.append(
            DegradationRecord(
                code=CODE_STORE_RESET,
                from_label="store",
                to_label="reset",
                counter="store",
                detail=str(exc),
            )
        )
        return None, IncrementalReport(mode="cold", detail="index reset")
    except StoreError as exc:
        degradations.append(
            DegradationRecord(
                code=CODE_SLAB_FALLBACK,
                from_label="slab",
                to_label="rebuild",
                counter="store",
                detail=str(exc),
            )
        )
        return None, IncrementalReport(
            mode="fallback", store_fallbacks=1, detail=str(exc)
        )


def _current_slab(forward: ForwardFunctions):
    """The slab the flat solve actually used, if any — a loaded one wins
    (that is what :func:`repro.core.slab.slab_for` returns first)."""
    loaded = getattr(forward, "_slab_loaded", None)
    if loaded is not None:
        return loaded
    cached = getattr(forward, "_slab", None)
    return cached[2] if cached is not None else None


def _config_stages(
    lowered: LoweredProgram,
    graph: CallGraph,
    modref: ModRefInfo,
    config: AnalysisConfig,
    timings: dict[str, float],
    ssa_cache: SSACache,
    degradations: list[DegradationRecord] | None = None,
    store=None,
    incremental: bool = False,
) -> _Artifacts:
    """Stages 1–3 for one configuration over prebuilt stage-0 artifacts.

    When the solve exhausts its :class:`SolveBudget` and the
    configuration allows degradation, the jump function walks one rung
    down :data:`_DEGRADATION_LADDER` (stage 2 re-projects the shared
    numbering onto the cheaper kind, RL510 recorded) and the solve
    retries with fresh fuel; below the last rung VAL floors to the
    always-sound intraprocedural baseline (RL512). Every step lands in
    ``degradations``.

    With a ``store``, a healthy solve publishes its snapshot (keyed by
    configuration and main program); with ``incremental`` too, the first
    ladder attempt warm-starts from the previous snapshot's clean
    regions. Degraded rungs always run cold, and degraded results are
    never published (only RL530/RL531 — store trouble itself — may
    accompany a publication, which is how a corrupt store self-heals).
    """
    if degradations is None:
        degradations = []
    effective = config
    if config.intraprocedural_only and config.use_return_jump_functions:
        # The baseline is *purely* intraprocedural: no information crosses
        # procedure boundaries in either direction.
        effective = replace(config, use_return_jump_functions=False)

    # A service request's cancel token rides on the budget hooks the
    # worklist loops already poll; outside the daemon this is a no-op.
    budget = cancellable_budget(SolveBudget.from_config(config))
    cfg_key = _store_config_key(effective) if store is not None else ""
    store_report: IncrementalReport | None = None
    kind = effective.jump_function
    while True:
        current = (
            effective
            if kind is effective.jump_function
            else replace(effective, jump_function=kind)
        )
        cancel_point()
        chaos_point(Stage.SSA)
        start = time.perf_counter()
        returns = ssa_cache.returns(current)
        timings["returns"] = (
            timings.get("returns", 0.0) + time.perf_counter() - start
        )

        cancel_point()
        chaos_point(Stage.JUMP_FUNCTIONS)
        start = time.perf_counter()
        forward = build_forward_jump_functions(
            lowered, returns, current, ssa_cache
        )
        timings["forward"] = (
            timings.get("forward", 0.0) + time.perf_counter() - start
        )
        # digests are computed on first use, once for both plan and publish
        digests = RunDigests(cfg_key, kind, lowered, modref, forward)

        warm: WarmStart | None = None
        if (
            store is not None
            and incremental
            and store_report is None
            and not current.intraprocedural_only
            and not current.flat_engine
            and kind is effective.jump_function
        ):
            warm, store_report = _plan_incremental(
                store, digests, graph, degradations
            )
        if (
            store is not None
            and current.flat_engine
            and store_report is None
            and not current.intraprocedural_only
            and lowered.program.source
            and kind is effective.jump_function
        ):
            # The flat engine's warm path is the persistent slab, not the
            # boxed warm start (a warm start would route the solve back
            # to the object engine). Not gated on ``incremental``: a
            # loaded slab is bit-for-bit the slab a cold build produces,
            # so adopting it is a pure time saving, never a plan.
            start = time.perf_counter()
            slab, store_report = _plan_slab(
                store, cfg_key, lowered, graph, modref, forward, degradations
            )
            timings["slab_plan"] = (
                timings.get("slab_plan", 0.0) + time.perf_counter() - start
            )
            if slab is not None:
                try:
                    forward._slab_loaded = slab
                except AttributeError:
                    pass

        start = time.perf_counter()
        try:
            if current.intraprocedural_only:
                solved = _intraprocedural_solved(lowered)
            else:
                solved = _attempt_solve(
                    lowered, graph, forward, current, budget, degradations,
                    warm=warm,
                )
            break
        except BudgetExhaustedError as exc:
            if not config.degrade_on_budget:
                raise
            next_kind = _next_ladder_kind(kind)
            if next_kind is None:
                degradations.append(
                    DegradationRecord(
                        code=CODE_DEGRADED_FLOOR,
                        from_label=kind.value,
                        to_label="intraprocedural-baseline",
                        counter=exc.counter,
                    )
                )
                solved = _intraprocedural_solved(lowered)
                break
            degradations.append(
                DegradationRecord(
                    code=CODE_DEGRADED_LADDER,
                    from_label=kind.value,
                    to_label=next_kind.value,
                    counter=exc.counter,
                )
            )
            kind = next_kind
        finally:
            timings["solve"] = (
                timings.get("solve", 0.0) + time.perf_counter() - start
            )

    if (
        store is not None
        and not current.intraprocedural_only
        and all(
            record.code
            in (CODE_STORE_FALLBACK, CODE_STORE_RESET, CODE_SLAB_FALLBACK)
            for record in degradations
        )
    ):
        try:
            if current.flat_engine:
                # Flat runs persist the slab itself instead of the boxed
                # snapshot; a pure warm load ("slab") changed nothing, so
                # republishing would only rewrite identical artifacts.
                slab = _current_slab(forward)
                if (
                    slab is not None
                    and lowered.program.source
                    and not (
                        store_report is not None
                        and store_report.mode == "slab"
                    )
                ):
                    publish_slab(
                        store,
                        cfg_key=cfg_key,
                        lowered=lowered,
                        modref=modref,
                        forward=forward,
                        slab=slab,
                    )
            else:
                publish_snapshot(store, digests, graph=graph, solved=solved)
        except (StoreError, OSError, ValueError) as exc:
            degradations.append(
                DegradationRecord(
                    code=CODE_STORE_RESET,
                    from_label="publish",
                    to_label="skipped",
                    counter="store",
                    detail=str(exc),
                )
            )

    return _Artifacts(graph, modref, returns, forward, solved, store_report)


def _intraprocedural_solved(lowered: LoweredProgram) -> SolveResult:
    """The Table 3 baseline VAL: ⊥ at every entry key of every procedure
    (see :func:`repro.core.solver.bottom_val` for why DATA values are
    excluded too), and every procedure counted — the baseline measures
    each procedure alone, so reachability from the main program is moot."""
    result = SolveResult(val=bottom_val(lowered))
    result.reached.update(result.val)
    return result


def analyze(
    source: str | Program,
    config: AnalysisConfig | None = None,
    *,
    cache: Stage0Cache | None = GLOBAL_STAGE0_CACHE,
    store=None,
    incremental: bool = False,
    previous: str | None = None,
) -> AnalysisResult:
    """Run the full analyzer over MiniFortran source (or a parsed Program).

    Stage 0 is fetched from ``cache`` (the module-level
    :data:`GLOBAL_STAGE0_CACHE` by default; pass ``cache=None`` to force a
    fresh build — the cache-correctness tests diff the two paths). Source
    text goes to the cache as it is, so a text the cache holds is never
    parsed again; ``analyze`` parses only without a cache.

    ``store`` (an :class:`repro.store.artifacts.ArtifactStore` or
    :class:`~repro.store.artifacts.MemoryStore`) persists the run's
    jump functions and solution as a snapshot; with ``incremental=True``
    the solve warm-starts from the store's previous snapshot, re-solving
    only the regions the fingerprint diff invalidated. Complete
    propagation ignores the store entirely: its DCE loop rewrites the
    program between rounds, so there is no stable identity to key on.
    Its CONSTANTS describe the final round's DCE'd program,
    ``result.lowered``.

    ``previous``, the text of the version ``source`` replaces, is what
    :meth:`Analyzer.reanalyze` passes: ``cache`` builds this version's
    stage 0 from the bundle it holds for that text and drops that bundle
    (:meth:`Stage0Cache.lookup`), and the new bundle lets go of what it
    did not reuse once stages 1–3 are done. Without a cache there is no
    bundle to build from.
    """
    config = config or AnalysisConfig()
    cancel_point()
    if isinstance(source, str) and cache is None:
        source = parse_program(source)
    chaos_point(Stage.FRONTEND)
    timings: dict[str, float] = {}
    degradations: list[DegradationRecord] = []

    stage0_cached = False
    chaos_point(Stage.LOWERING)
    if cache is not None:
        stage0, stage0_cached = cache.lookup(source, previous)
        # chaos corruption clobbers the live cache entry, exactly
        # like a real poisoned cache would persist across fetches
        maybe_corrupt_stage0(stage0)
    else:
        stage0 = build_stage0(source)
    timings.update(stage0.timings)
    try:
        artifacts = _config_stages(
            stage0.lowered, stage0.graph, stage0.modref, config, timings,
            ssa_cache=stage0.ssa_cache,
            degradations=degradations,
            store=None if config.complete else store,
            incremental=incremental,
        )
    finally:
        # stages 1-3 made the last lookups the superseded cache can serve
        if previous is not None:
            stage0.ssa_cache.release_base()
    lowered = stage0.lowered
    complete_stats: CompleteStats | None = None
    if config.complete:
        lowered, artifacts, complete_stats = run_complete_propagation(
            lowered,
            artifacts,
            config,
            lambda lowered, graph, modref: _config_stages(
                lowered, graph, modref, config, timings,
                ssa_cache=SSACache(
                    lowered, graph, modref, base=stage0.ssa_cache
                ),
                degradations=degradations,
            ),
            timings=timings,
        )

    cancel_point()
    chaos_point(Stage.SUBSTITUTE)
    start = time.perf_counter()
    substitutions = compute_substitutions(artifacts.forward, artifacts.solved)
    timings["record"] = time.perf_counter() - start

    return AnalysisResult(
        program=stage0.program,
        config=config,
        lowered=lowered,
        call_graph=artifacts.graph,
        modref=artifacts.modref,
        returns=artifacts.returns,
        forward=artifacts.forward,
        solved=artifacts.solved,
        substitutions=substitutions,
        complete_stats=complete_stats,
        timings=timings,
        stage0_cached=stage0_cached,
        degradations=tuple(degradations),
        incremental=artifacts.incremental,
    )


class Analyzer:
    """Parse once, build stage 0 once, analyze under many configurations.

    Every run publishes its snapshot to ``store`` (an in-process
    :class:`~repro.store.artifacts.MemoryStore` by default, so nothing
    touches disk unless the caller passes an
    :class:`~repro.store.artifacts.ArtifactStore`), which is what makes
    :meth:`reanalyze` work out of the box: edit the source, and only the
    regions the fingerprint diff invalidates are re-solved.
    """

    def __init__(
        self,
        source: str | Program,
        cache: Stage0Cache | None = None,
        store=None,
    ):
        self.program = parse_program(source) if isinstance(source, str) else source
        self.cache = cache if cache is not None else GLOBAL_STAGE0_CACHE
        self.store = store if store is not None else MemoryStore()

    @property
    def stage0(self) -> Stage0Artifacts:
        """The shared configuration-independent artifacts."""
        return self.cache.get(self.program)

    def run(
        self,
        config: AnalysisConfig | None = None,
        *,
        incremental: bool = False,
    ) -> AnalysisResult:
        return analyze(
            self.program,
            config,
            cache=self.cache,
            store=self.store,
            incremental=incremental,
        )

    def reanalyze(
        self,
        new_source: str | Program,
        config: AnalysisConfig | None = None,
    ) -> AnalysisResult:
        """Swap in edited source and re-run incrementally.

        The edited text is parsed from :attr:`program`: every unit the
        edit left in place keeps its resolved procedure, and only the
        text between those units is lexed, parsed and resolved
        (:func:`~repro.frontend.symbols.parse_program`). Its stage 0 is
        built from the superseded version's bundle, which :attr:`cache`
        then drops (an edit session holds one program version, not one
        per edit): every unit the frontend kept keeps its lowering, SSA
        forms, numberings and records (:func:`build_stage0`), so only
        the edited units, and the callers whose callees' MOD summaries
        or return functions changed, are rebuilt. The new bundle keeps
        nothing of the old one but what it reuses.

        The previous :meth:`run` (or ``reanalyze``) left a snapshot in
        :attr:`store`; this run diffs procedure fingerprints against it,
        re-solves only the invalidated regions, adopts the stored fixed
        points for everything clean, and publishes a snapshot that
        writes only the invalidated procedures' environments. The result
        is equivalent to a from-scratch :func:`analyze` of
        ``new_source`` — the property tests assert identical CONSTANTS
        sets, substitutions and transformed text — just cheaper (see
        ``result.incremental`` and the ``regions_warm`` solver counter).

        A text that fails to parse, resolve or lower raises and leaves
        the analyzer, and the cache's bundle, on the version it had.
        """
        if isinstance(new_source, str):
            program = parse_program(new_source, self.program)
        else:
            program = new_source
        old_source = self.program.source
        result = analyze(
            program,
            config,
            cache=self.cache,
            store=self.store,
            incremental=True,
            previous=old_source if program.source != old_source else None,
        )
        self.program = program
        return result

    def sweep(
        self, configs: dict[str, AnalysisConfig]
    ) -> dict[str, AnalysisResult]:
        """Run a named family of configurations (e.g. a table's columns).

        Every configuration shares one stage-0 bundle, and a
        ``complete`` one runs its first round on it; the whole Table 2 ∪ 3
        sweep lowers and summarizes the program once.
        """
        return {name: self.run(config) for name, config in configs.items()}


# -- multi-program sweeps ----------------------------------------------------


@dataclass(frozen=True)
class SweepSummary:
    """The picklable essence of one (program, configuration) cell."""

    constants_found: int
    references_substituted: int
    #: procedure → {pretty entry name → constant value}.
    constants: dict[str, dict[str, LatticeValue]]
    timings: dict[str, float]
    solver_counters: dict[str, int]
    #: RL5xx degradation descriptions (empty on a healthy run).
    degradations: tuple[str, ...] = ()
    #: the cell's stage 0 came from the stage-0 cache of whichever
    #: process ran it — so ``--stats`` is truthful in both in-process
    #: and worker-pool sweeps.
    stage0_cached: bool = False


def summarize(result: AnalysisResult) -> SweepSummary:
    return SweepSummary(
        constants_found=result.constants_found,
        references_substituted=result.references_substituted,
        constants=result.all_constants(),
        timings=dict(result.timings),
        solver_counters=result.solved.counters(),
        degradations=tuple(r.describe() for r in result.degradations),
        stage0_cached=result.stage0_cached,
    )


class SweepError(RuntimeError):
    """A :func:`sweep_programs` call finished with failed cells.

    Carries the full :class:`~repro.resilience.executor.SweepOutcome` so
    callers that want partial results can still render them; callers of
    the strict legacy API get an exception instead of silent holes.
    """

    def __init__(self, outcome):
        self.outcome = outcome
        programs = ", ".join(sorted({f.program for f in outcome.failures}))
        super().__init__(
            f"sweep finished with {len(outcome.failures)} failure(s) "
            f"({programs}); see SweepError.outcome for the records"
        )


def sweep_programs(
    sources: dict[str, str],
    configs: dict[str, AnalysisConfig],
    processes: int | None = None,
) -> dict[str, dict[str, SweepSummary]]:
    """Sweep many programs through many configurations.

    ``sources`` maps a display name to program text. With ``processes``
    unset the sweep runs in this process (sharing the global stage-0
    cache); with ``processes >= 1`` programs fan out across worker
    processes — each worker pays stage 0 once per program and ships back
    only the picklable :class:`SweepSummary` cells, which is how the
    12-program table regeneration parallelizes.

    This is the strict facade over the fault-tolerant executor
    (:func:`repro.resilience.executor.run_sweep`): every cell must
    succeed or the whole call raises :class:`SweepError`. Callers that
    want partial results, timeouts, retries, or the checkpoint journal
    use ``run_sweep`` directly.
    """
    # Late import: the executor imports this module.
    from repro.resilience.executor import SweepPolicy, run_sweep

    policy = SweepPolicy(
        processes=processes if processes and processes > 0 else None
    )
    outcome = run_sweep(sources, configs, policy)
    if outcome.failures:
        raise SweepError(outcome)
    return outcome.summaries
