"""Intraprocedural analysis substrate: dominance, SSA, value numbering,
SCCP, liveness, and dead-code elimination.

These are the pieces ParaScope provided to the 1993 study; the jump
function builders in :mod:`repro.core` sit on top of them.
"""

from repro.analysis.dominance import DominatorTree, compute_dominators
from repro.analysis.ssa import SSAProcedure, build_ssa
from repro.analysis.valuenum import ValueNumbering, value_number
from repro.analysis.sccp import SCCPResult, run_sccp
from repro.analysis.liveness import LivenessResult, compute_liveness
from repro.analysis.dce import eliminate_dead_code, fold_constant_branches

__all__ = [
    "DominatorTree",
    "LivenessResult",
    "SCCPResult",
    "SSAProcedure",
    "ValueNumbering",
    "build_ssa",
    "compute_dominators",
    "compute_liveness",
    "eliminate_dead_code",
    "fold_constant_branches",
    "run_sccp",
    "value_number",
]
