"""Three-address intermediate representation and control-flow graphs.

The IR is the substrate on which SSA construction, value numbering, SCCP,
and dead-code elimination operate. Every use of a named variable carries
its source span so the substitution stage can splice constants back into
the original program text.
"""

from repro.ir.cfg import BasicBlock, ControlFlowGraph, build_cfg_index
from repro.ir.instructions import (
    Argument,
    ArgumentKind,
    BinOp,
    Call,
    CallKill,
    CJump,
    Const,
    Convert,
    Copy,
    Instr,
    IntrinsicOp,
    Jump,
    LoadArr,
    Operand,
    Phi,
    ReadArr,
    ReadVar,
    Return,
    SSAName,
    Stop,
    StoreArr,
    Temp,
    UnOp,
    VarDef,
    VarUse,
    WriteOut,
)
from repro.ir.lower import LoweredProcedure, LoweredProgram, lower_program
from repro.ir.printer import format_cfg, format_instr, format_program

__all__ = [
    "Argument",
    "ArgumentKind",
    "BasicBlock",
    "BinOp",
    "CJump",
    "Call",
    "CallKill",
    "Const",
    "ControlFlowGraph",
    "Convert",
    "Copy",
    "Instr",
    "IntrinsicOp",
    "Jump",
    "LoadArr",
    "LoweredProcedure",
    "LoweredProgram",
    "Operand",
    "Phi",
    "ReadArr",
    "ReadVar",
    "Return",
    "SSAName",
    "Stop",
    "StoreArr",
    "Temp",
    "UnOp",
    "VarDef",
    "VarUse",
    "WriteOut",
    "build_cfg_index",
    "format_cfg",
    "format_instr",
    "format_program",
    "lower_program",
]
