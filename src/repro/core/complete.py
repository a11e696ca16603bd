"""Complete propagation (Table 3, column 3): iterate interprocedural
constant propagation with dead-code elimination.

Each round: analyze → fold branches on interprocedural constants → remove
unreachable code → delete dead stores → if anything changed, reset all
CONSTANTS to ⊤ and re-analyze the transformed program from scratch
("In each case, only one pass of dead code elimination was needed", §4.2
— the loop typically runs two analysis rounds, the second confirming a
fixpoint).

Round 1 is the plain analysis of the program's shared stage 0, so the
driver runs it like any other configuration and hands its artifacts in.
DCE edits a structural copy (``copy_cfg``) of each reached procedure,
never a stage-0 CFG. A round that changed something runs on a new
:class:`LoweredProgram` that holds the rewritten copies and shares every
untouched procedure. A rewritten procedure keeps its original's symbols,
which its CFG still names, and takes its calls and direct effects from
that CFG, as lowering does (:func:`~repro.ir.lower.calls_and_effects`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.analysis.dce import DCEStats, eliminate_dead_code
from repro.analysis.ssa import copy_cfg
from repro.callgraph.graph import build_call_graph
from repro.callgraph.modref import compute_modref
from repro.ir.lower import LoweredProgram, calls_and_effects

#: the most analysis rounds one complete-propagation run takes.
MAX_COMPLETE_ROUNDS = 5


@dataclass
class CompleteStats:
    """Aggregate DCE activity across complete-propagation rounds."""

    rounds: int = 0
    dce_rounds_with_changes: int = 0
    folded_branches: int = 0
    removed_blocks: int = 0
    removed_stores: int = 0
    per_round: list[dict[str, DCEStats]] = field(default_factory=list)


def run_complete_propagation(
    lowered: LoweredProgram,
    artifacts,
    config,
    run_pipeline,
    timings: dict[str, float] | None = None,
) -> tuple[LoweredProgram, object, CompleteStats]:
    """Drive the DCE/analyze loop from round 1's ``artifacts``, the
    stages 1–3 result over ``lowered``.

    ``run_pipeline(lowered, graph, modref)`` must run stages 1–3 on a
    rewritten program and return an artifacts object with ``graph``,
    ``modref``, ``solved`` and ``forward`` attributes. The call graph and
    MOD/REF are rebuilt only after a round whose DCE changed something.
    Returns the final round's program, its artifacts and the stats.
    Never mutates ``lowered`` or anything it holds."""
    stats = CompleteStats()
    while True:
        stats.rounds += 1
        if stats.rounds > MAX_COMPLETE_ROUNDS:
            return lowered, artifacts, stats
        procedures = dict(lowered.procedures)
        round_stats: dict[str, DCEStats] = {}
        for name in sorted(artifacts.solved.reached):
            numbering = artifacts.forward.numberings.get(name)
            if numbering is None:
                continue
            original = lowered.procedures[name]
            rewritten = replace(original, cfg=copy_cfg(original.cfg))
            proc_stats = eliminate_dead_code(
                rewritten,
                numbering.expr_of,
                artifacts.solved.val[name],
                # without MOD, DCE may not use REF either: a call reads
                # every global
                artifacts.modref if config.use_mod else None,
            )
            round_stats[name] = proc_stats
            if proc_stats.any_change:
                rewritten.call_instrs, rewritten.effects = calls_and_effects(
                    rewritten.cfg
                )
                procedures[name] = rewritten
            stats.folded_branches += proc_stats.folded_branches
            stats.removed_blocks += proc_stats.removed_blocks
            stats.removed_stores += proc_stats.removed_stores
        stats.per_round.append(round_stats)
        if not any(s.any_change for s in round_stats.values()):
            return lowered, artifacts, stats
        stats.dce_rounds_with_changes += 1
        start = time.perf_counter()
        lowered = LoweredProgram(lowered.program, procedures)
        graph = build_call_graph(lowered)
        modref = compute_modref(lowered, graph)
        if timings is not None:
            timings["modref"] = (
                timings.get("modref", 0.0) + time.perf_counter() - start
            )
        artifacts = run_pipeline(lowered, graph, modref)
