"""Return jump function generation (§3.2, stage 1 of the analyzer).

A bottom-up walk over the call graph's SCC condensation. For each
procedure, SSA + value numbering produce, for every formal, every scalar
global, and (for functions) the result variable, a symbolic expression for
its value at procedure return, in terms of the procedure's *entry* values
— the polynomial return jump function.

Value numbering consults the return jump functions of already-processed
callees, so constants discovered deep in the call graph surface through
chains of returns in one pass (this is what makes ``ocean``-style
initialization routines work). Procedures on call-graph cycles see missing
summaries for their SCC-mates, which degrade to ⊥ — the 1993
implementation's behaviour for not-yet-analyzed routines.

Each table entry is written once, so a procedure whose callees all had
entries when it was numbered was numbered against the final table: stage
2 (:mod:`repro.core.builder`) projects that numbering as it is instead of
redoing it. An entry is read off its numbering once
(:attr:`~repro.analysis.valuenum.ValueNumbering.return_functions`), so
every table built from a shared numbering holds the same entry object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.ssa import SSAProcedure
from repro.analysis.valuenum import RESULT_KEY, ValueNumbering, value_number
from repro.callgraph.graph import CallGraph
from repro.core.config import AnalysisConfig
from repro.core.exprs import EntryExpr, ValueExpr
from repro.frontend.astnodes import Type
from repro.frontend.symbols import SymbolKind
from repro.ir.lower import LoweredProgram

class ReturnFunctions(dict):
    """One procedure's return jump functions: (formal name | GlobalId |
    RESULT_KEY) -> ValueExpr.

    Compared and hashed by identity, so a numbering's cache key can hold
    the entries it read (:class:`~repro.core.driver.SSACache`): equal
    contents are not equal inputs, because ``ConstExpr(True) ==
    ConstExpr(1)``.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


#: proc name -> that procedure's return jump functions.
ReturnTable = dict[str, ReturnFunctions]


@dataclass
class ReturnFunctionResult:
    """The return jump function table plus per-procedure build artifacts.

    ``numberings`` holds only numberings made against the final
    ``table``: stage 1 keeps a procedure's numbering when every callee of
    its calls already had an entry, and stage 2 adds the rest (recursive
    SCC members, and every procedure when return jump functions are off)
    the first time it needs them. Each entry is published by one dict
    store, so a present entry is final. The numberings themselves are
    the :class:`~repro.core.driver.SSACache`'s, so results of different
    settings share every numbering whose inputs agree.
    """

    table: ReturnTable = field(default_factory=dict)
    ssas: dict[str, SSAProcedure] = field(default_factory=dict)
    numberings: dict[str, ValueNumbering] = field(default_factory=dict)

    def function(self, proc: str, key) -> ValueExpr | None:
        return self.table.get(proc, {}).get(key)

    def count_nontrivial(self) -> int:
        """Return jump functions that are not the identity and not ⊥ —
        a rough measure of how much the stage discovered."""
        count = 0
        for proc_table in self.table.values():
            for key, expr in proc_table.items():
                if expr.is_bottom:
                    continue
                if isinstance(expr, EntryExpr) and expr.key == key:
                    continue
                count += 1
        return count


def build_return_jump_functions(
    lowered: LoweredProgram,
    graph: CallGraph,
    config: AnalysisConfig,
    ssa_cache,
) -> ReturnFunctionResult:
    """Stage 1: the bottom-up pass of §4.1.

    With ``config.use_return_jump_functions`` false, returns an empty
    table (Table 2's "No Return Jump Functions" columns) — calls then
    simply kill whatever MOD says they may modify.

    ``ssa_cache`` (a :class:`repro.core.driver.SSACache`, the stage-0
    bundle's) supplies each procedure's SSA form and numbering, keyed by
    their own inputs, so stage 2 and other configurations share them.

    The result depends on ``config`` only through ``use_mod``,
    ``use_return_jump_functions`` and ``compose_return_functions``, and
    stage 2 must be given the result built for its own values of those.
    """
    result = ReturnFunctionResult()
    if not config.use_return_jump_functions:
        return result

    compose = config.compose_return_functions
    table = result.table
    for scc in graph.bottom_up_sccs():
        for name in scc:
            lowered_proc = lowered.procedures[name]
            ssa = ssa_cache.get(name, config.use_mod)
            numbering = ssa_cache.numbering(ssa, table, compose, value_number)
            result.ssas[name] = ssa
            if all(call.callee in table for call in lowered_proc.call_instrs):
                result.numberings[name] = numbering
            functions = numbering.return_functions
            if functions is None:
                # one attribute store: a racing thread may extract a twin,
                # which only makes the numberings keyed on it miss
                functions = numbering.return_functions = _extract_functions(
                    numbering
                )
            table[name] = functions
    return result


def _extract_functions(numbering: ValueNumbering) -> ReturnFunctions:
    """Exit-value expressions for everything a caller could observe."""
    functions = ReturnFunctions()
    for symbol in numbering.ssa.variables:
        if symbol.type not in (Type.INTEGER, Type.LOGICAL):
            continue
        expr = numbering.exit_expr(symbol)
        if expr.is_bottom:
            continue
        if symbol.kind is SymbolKind.FORMAL:
            functions[symbol.name] = expr
        elif symbol.kind is SymbolKind.GLOBAL:
            functions[symbol.global_id] = expr
        elif symbol.kind is SymbolKind.RESULT:
            functions[RESULT_KEY] = expr
    return functions
