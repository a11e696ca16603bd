"""Return jump function generation (§3.2, stage 1 of the analyzer).

A bottom-up walk over the call graph's SCC condensation. For each
procedure, SSA + value numbering produce, for every formal, every scalar
global, and (for functions) the result variable, a symbolic expression for
its value at procedure return, in terms of the procedure's *entry* values
— the polynomial return jump function.

The walk is the call graph's own condensation
(:attr:`~repro.callgraph.graph.CallGraph.components`, callees first).
Value numbering consults the return jump functions of already-processed
callees, so constants discovered deep in the call graph surface through
chains of returns in one pass (this is what makes ``ocean``-style
initialization routines work). Procedures on call-graph cycles see missing
summaries for their SCC-mates, which degrade to ⊥ — the 1993
implementation's behaviour for not-yet-analyzed routines.

Stage 1 and stage 2 (:mod:`repro.core.builder`) take every SSA form and
numbering from the SSA cache (:class:`~repro.core.driver.SSACache`), so
a procedure whose callees all had entries when stage 1 numbered it is a
cache hit when stage 2 asks for its numbering against the final table.
An entry is read off its numbering once
(:attr:`~repro.analysis.valuenum.ValueNumbering.return_functions`) and
interned by content, so every table holds one entry object per content,
and a caller's numbering key, which holds its callees' entries, changes
only when an entry's content does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.valuenum import RESULT_KEY, ValueNumbering, value_number
from repro.callgraph.graph import CallGraph
from repro.core.config import AnalysisConfig
from repro.core.exprs import INTERN_TABLE, EntryExpr, ValueExpr
from repro.frontend.astnodes import LATTICE_TYPES
from repro.frontend.symbols import SymbolKind
from repro.ir.lower import LoweredProgram

class ReturnFunctions(dict):
    """One procedure's return jump functions: (formal name | GlobalId |
    RESULT_KEY) -> ValueExpr.

    Compared and hashed by identity, so a numbering's cache key can hold
    the entries it read (:class:`~repro.core.driver.SSACache`). Stage 1
    interns each one on its items, keys by value and hash-consed
    expressions by identity (``ConstExpr(True) == ConstExpr(1)``, but
    they are two objects), so identity is content.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


#: proc name -> that procedure's return jump functions.
ReturnTable = dict[str, ReturnFunctions]


@dataclass
class ReturnFunctionResult:
    """Stage 1's return jump function table. The SSA forms and
    numberings it was read off stay in the
    :class:`~repro.core.driver.SSACache`, where stage 2 looks them up."""

    table: ReturnTable = field(default_factory=dict)

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
    The walk is ``graph``'s condensation, callees first; ``lowered`` is
    the program ``ssa_cache`` was built for.

    The result depends on ``config`` only through ``use_mod``,
    ``use_return_jump_functions`` and ``compose_return_functions``, and
    stage 2 must be given the result built for its own values of those.
    """
    result = ReturnFunctionResult()
    if not config.use_return_jump_functions:
        return result

    compose = config.compose_return_functions
    table = result.table
    for component in graph.components:
        for name in component.members:
            ssa = ssa_cache.get(name, config.use_mod)
            numbering = ssa_cache.numbering(ssa, table, compose, value_number)
            functions = numbering.return_functions
            if functions is None:
                # one attribute store; threads racing here intern one object
                functions = numbering.return_functions = (
                    INTERN_TABLE.intern_mapping(_extract_functions(numbering))
                )
            table[name] = functions
    return result


def _extract_functions(numbering: ValueNumbering) -> ReturnFunctions:
    """Exit-value expressions for everything a caller could observe."""
    functions = ReturnFunctions()
    for symbol in numbering.ssa.variables:
        if symbol.type not in LATTICE_TYPES:
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
