"""Dead-code elimination for complete propagation (Table 3, column 3).

Operates on the *pre-SSA* CFG of a :class:`LoweredProcedure` so the
transformed program can be re-analyzed from scratch ("all of the values in
CONSTANTS sets were reset to ⊤", §4.2). Three steps:

1. **Branch folding** — a conditional whose condition is a constant under
   the current CONSTANTS(p) environment becomes an unconditional jump.
   The condition's value comes from the stage-2 value-numbering expression
   evaluated in the interprocedural environment, so branches on
   interprocedural constants fold even though the local IR still refers to
   variables.
2. **Unreachable block removal.**
3. **Dead store elimination** — assignments to scalars that are never
   subsequently observed (liveness-based), iterated to a fixpoint.
   This is what removes the "conflicting definitions" the paper mentions.
   A call observes the globals its callee may read (REF), so a store
   the callee reads is never dead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.liveness import (
    _def_key,
    _use_keys,
    compute_liveness,
    exit_live_set,
)
from repro.callgraph.modref import ModRefInfo
from repro.core.lattice import LatticeValue, is_constant
from repro.frontend.astnodes import Type
from repro.frontend.symbols import SymbolKind
from repro.ir.instructions import (
    BinOp,
    Call,
    CJump,
    Const,
    Convert,
    Copy,
    IntrinsicOp,
    Jump,
    LoadArr,
    Temp,
    UnOp,
)
from repro.ir.lower import LoweredProcedure

_PURE = (BinOp, UnOp, Convert, IntrinsicOp, Copy, LoadArr)


@dataclass
class DCEStats:
    folded_branches: int = 0
    removed_blocks: int = 0
    removed_stores: int = 0

    @property
    def any_change(self) -> bool:
        return bool(self.folded_branches or self.removed_blocks or self.removed_stores)


def fold_constant_branches(
    lowered_proc: LoweredProcedure,
    expr_of,
    env,
) -> int:
    """Rewrite CJumps with constant conditions into Jumps.

    ``expr_of(operand)`` must return a ValueExpr (from stage-2 value
    numbering of the same procedure) and ``env`` the CONSTANTS(p)
    environment; conditions whose expressions do not fold are left alone.
    """
    folded = 0
    for block in lowered_proc.cfg.blocks.values():
        terminator = block.terminator
        if not isinstance(terminator, CJump):
            continue
        value = _cond_value(terminator, expr_of, env)
        if not is_constant(value):
            continue
        target = terminator.if_true if value else terminator.if_false
        block.instrs[-1] = Jump(target, span=terminator.span)
        folded += 1
    if folded:
        lowered_proc.cfg.refresh()
    return folded


def _cond_value(terminator: CJump, expr_of, env) -> LatticeValue:
    cond = terminator.cond
    if isinstance(cond, Const) and cond.type is Type.LOGICAL:
        return bool(cond.value)
    if isinstance(cond, Temp):
        return expr_of(cond).evaluate(env)
    from repro.core.lattice import BOTTOM

    return BOTTOM


def _reads(lowered_proc: LoweredProcedure, modref: ModRefInfo | None):
    """The liveness keys an instruction reads: its operands, and for a
    call also every global of this procedure that the callee may REF —
    every global when ``modref`` is ``None``."""
    globals_by_id = {
        symbol.global_id: symbol
        for symbol in lowered_proc.symbols
        if symbol.kind is SymbolKind.GLOBAL
    }

    def reads(instr) -> list:
        keys = _use_keys(instr)
        if isinstance(instr, Call):
            if modref is None:
                keys.extend(globals_by_id.values())
            else:
                keys.extend(
                    globals_by_id[gid]
                    for gid in modref.ref_globals.get(instr.callee, ())
                    if gid in globals_by_id
                )
        return keys

    return reads


def eliminate_dead_stores(
    lowered_proc: LoweredProcedure, modref: ModRefInfo | None = None
) -> int:
    """Remove pure instructions whose destinations are dead. Iterates
    until stable; returns the number of instructions removed. A call
    reads the globals REF gives its callee in ``modref``, or every
    global without one."""
    cfg = lowered_proc.cfg
    boundary = exit_live_set(lowered_proc.symbols)
    reads = _reads(lowered_proc, modref)
    removed_total = 0
    while True:
        liveness = compute_liveness(cfg, boundary, reads)
        removed = 0
        for block_id, block in cfg.blocks.items():
            live = set(liveness.live_out[block_id])
            from repro.ir.instructions import Return

            if isinstance(block.terminator, Return):
                live |= boundary
            keep = []
            for instr in reversed(block.instrs):
                key = _def_key(instr)
                is_dead = (
                    isinstance(instr, _PURE)
                    and key is not None
                    and key not in live
                )
                if is_dead:
                    removed += 1
                    continue
                if key is not None:
                    live.discard(key)
                live.update(reads(instr))
                keep.append(instr)
            keep.reverse()
            block.instrs = keep
        removed_total += removed
        if removed == 0:
            return removed_total


def eliminate_dead_code(
    lowered_proc: LoweredProcedure,
    expr_of,
    env,
    modref: ModRefInfo | None = None,
) -> DCEStats:
    """Run the full DCE pipeline on one procedure, in place; ``modref``
    as for :func:`eliminate_dead_stores`."""
    from repro.analysis.copyprop import propagate_copies

    stats = DCEStats()
    stats.folded_branches = fold_constant_branches(lowered_proc, expr_of, env)
    stats.removed_blocks = len(lowered_proc.cfg.remove_unreachable())
    propagate_copies(lowered_proc)  # forwards temps so their copies die
    stats.removed_stores = eliminate_dead_stores(lowered_proc, modref)
    return stats
