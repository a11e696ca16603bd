"""Backward liveness analysis on the (pre-SSA) CFG.

Used by dead-code elimination during *complete propagation* to remove
assignments whose values are never observed. Tracks scalar named
variables (by :class:`Symbol`) and temporaries.

Conservative boundary conditions: every formal, global, and function
result is live at procedure exit (formals and globals escape by
reference; the result is the caller's value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.frontend.symbols import Symbol, SymbolKind
from repro.ir.cfg import ControlFlowGraph
from repro.ir.instructions import (
    Instr,
    Operand,
    SSAName,
    Temp,
    VarDef,
    VarUse,
)

LiveKey = object  # Symbol | Temp


def _use_keys(instr: Instr) -> list[LiveKey]:
    keys: list[LiveKey] = []
    for operand in instr.uses():
        key = _operand_key(operand)
        if key is not None:
            keys.append(key)
    return keys


def _operand_key(operand: Operand) -> LiveKey | None:
    if isinstance(operand, Temp):
        return operand
    if isinstance(operand, VarUse):
        return operand.symbol
    if isinstance(operand, SSAName):
        return operand.symbol
    return None


def _def_key(instr: Instr) -> LiveKey | None:
    dest = instr.dest
    if dest is None:
        return None
    if isinstance(dest, Temp):
        return dest
    if isinstance(dest, VarDef):
        return dest.symbol
    return None


@dataclass
class LivenessResult:
    """Per-block live-in/live-out sets."""

    live_in: dict[int, set[LiveKey]] = field(default_factory=dict)
    live_out: dict[int, set[LiveKey]] = field(default_factory=dict)

    def live_after(self, cfg: ControlFlowGraph, block_id: int, index: int) -> set[LiveKey]:
        """Live set immediately after instruction ``index`` of a block."""
        block = cfg.blocks[block_id]
        live = set(self.live_out[block_id])
        for instr in reversed(block.instrs[index + 1 :]):
            key = _def_key(instr)
            if key is not None:
                live.discard(key)
            live.update(_use_keys(instr))
        return live


def exit_live_set(variables) -> set[LiveKey]:
    """Keys live at procedure exit: formals, globals, and the result."""
    live: set[LiveKey] = set()
    for symbol in variables:
        if symbol.kind in (SymbolKind.FORMAL, SymbolKind.GLOBAL, SymbolKind.RESULT):
            live.add(symbol)
    return live


def compute_liveness(
    cfg: ControlFlowGraph,
    boundary: set[LiveKey] | None = None,
    uses: Callable[[Instr], list[LiveKey]] = _use_keys,
) -> LivenessResult:
    """Iterate backward dataflow to a fixpoint.

    ``boundary`` is the live set at Return instructions (see
    :func:`exit_live_set`); Stop terminators observe nothing. ``uses``
    gives the keys an instruction reads (default: its operands).
    """
    cfg.refresh()
    boundary = boundary or set()
    result = LivenessResult(
        live_in={bid: set() for bid in cfg.blocks},
        live_out={bid: set() for bid in cfg.blocks},
    )

    gen: dict[int, set[LiveKey]] = {}
    kill: dict[int, set[LiveKey]] = {}
    for block_id, block in cfg.blocks.items():
        block_gen: set[LiveKey] = set()
        block_kill: set[LiveKey] = set()
        for instr in block.instrs:
            for key in uses(instr):
                if key not in block_kill:
                    block_gen.add(key)
            def_key = _def_key(instr)
            if def_key is not None:
                block_kill.add(def_key)
        gen[block_id] = block_gen
        kill[block_id] = block_kill

    from repro.ir.instructions import Return

    changed = True
    while changed:
        changed = False
        for block_id in reversed(list(cfg.blocks)):
            block = cfg.blocks[block_id]
            out: set[LiveKey] = set()
            for succ in block.successors():
                out |= result.live_in[succ]
            if isinstance(block.terminator, Return):
                out |= boundary
            new_in = gen[block_id] | (out - kill[block_id])
            if out != result.live_out[block_id] or new_in != result.live_in[block_id]:
                result.live_out[block_id] = out
                result.live_in[block_id] = new_in
                changed = True
    return result
