"""Forward jump function generation (stage 2 of the analyzer, §4.1).

For every call site, project the value-numbering expression of each actual
parameter — and of each implicitly passed global — onto the configured
jump-function kind. The stage-1 return jump functions feed the value
numbering, so constants surviving earlier calls are visible here (this is
the "second evaluation" of each return jump function the paper describes).

Stage 2 also emits the jump functions as the framework's flow edges
(:func:`build_support_index`), so stage 3 is the generic
:class:`~repro.framework.engine.ClientEngine` with constant propagation
as its client.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.ssa import SSAProcedure, build_ssa
from repro.analysis.valuenum import ValueNumbering, value_number
from repro.callgraph.modref import ModRefInfo, make_call_effects
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.exprs import ConstExpr, EntryExpr, EntryKey
from repro.core.jump_functions import CallSiteFunctions, project
from repro.core.returns import ReturnFunctionResult
from repro.framework.client import FlowBinding, FlowEdge, FlowIndex
from repro.framework.edges import BottomEdge, ConstantEdge, ExprEdge, IdentityEdge
from repro.frontend.astnodes import Type
from repro.frontend.symbols import SymbolKind
from repro.ir.instructions import ArgumentKind, Const
from repro.ir.lower import LoweredProgram

_BOTTOM_EDGE = BottomEdge()


def entry_keys(lowered: LoweredProgram) -> dict[str, list[EntryKey]]:
    """Each procedure's propagated entry keys: scalar INTEGER/LOGICAL
    formals plus every scalar global (paper §2, footnote 1)."""
    scalar_gids = [
        gid
        for gid, gvar in lowered.program.globals.items()
        if not gvar.is_array and gvar.type in (Type.INTEGER, Type.LOGICAL)
    ]
    keys: dict[str, list[EntryKey]] = {}
    for name, lowered_proc in lowered.procedures.items():
        proc_keys: list[EntryKey] = [
            formal.name
            for formal in lowered_proc.procedure.formals
            if not formal.is_array
            and formal.type in (Type.INTEGER, Type.LOGICAL)
        ]
        proc_keys.extend(scalar_gids)
        keys[name] = proc_keys
    return keys


def build_support_index(
    lowered: LoweredProgram, sites: Mapping[int, CallSiteFunctions]
) -> FlowIndex:
    """The forward jump functions as a flow index (stage 2).

    One :class:`~repro.framework.client.FlowEdge` per (site, callee entry
    key) binding, in site-iteration order. A constant jump function's
    folded value is hoisted into a
    :class:`~repro.framework.edges.ConstantEdge`: §3.1.5 charges building
    such a function, not re-deriving its value every pass, so the engine
    transfers it by meet alone. Pass-throughs become
    :class:`~repro.framework.edges.IdentityEdge` fetches, genuine
    polynomials an :class:`~repro.framework.edges.ExprEdge` over the
    interned expression (its memo token), and support-free non-constant
    functions a :class:`~repro.framework.edges.BottomEdge`. Callee keys
    a site binds no function for are killed at seed time.
    """
    keys_of = entry_keys(lowered)
    seeds: dict[str, list[FlowEdge]] = defaultdict(list)
    kills: dict[str, list[FlowBinding]] = defaultdict(list)
    dependents: dict[FlowBinding, list[FlowEdge]] = defaultdict(list)
    callees: dict[str, list[str]] = defaultdict(list)

    for site_id, site in sites.items():
        caller, callee = site.caller, site.callee
        if callee not in callees[caller]:
            callees[caller].append(callee)
        callee_keys = keys_of.get(callee, ())
        callee_key_set = set(callee_keys)
        bound: set[EntryKey] = set()
        for key, function in site.all_functions():
            if key not in callee_key_set:
                continue  # defensive: arrays/REALs carry no lattice value
            bound.add(key)
            expr = function.expr
            support = function.support_order()
            const = passthrough = None
            if expr.__class__ is ConstExpr:
                const = expr.value
                func = ConstantEdge(const)
            elif expr.__class__ is EntryExpr:
                passthrough = expr.key
                func = IdentityEdge(passthrough)
            elif support:
                func = ExprEdge(expr, support)
            else:
                func = _BOTTOM_EDGE
            edge = FlowEdge(
                site_id, caller, callee, key, func, support, const, passthrough
            )
            seeds[caller].append(edge)
            for support_key in support:
                dependents[(caller, support_key)].append(edge)
        for key in callee_keys:
            if key not in bound:
                kills[caller].append((callee, key))

    return FlowIndex(
        {proc: tuple(edges) for proc, edges in seeds.items()},
        {proc: tuple(pairs) for proc, pairs in kills.items()},
        {binding: tuple(edges) for binding, edges in dependents.items()},
        {proc: tuple(names) for proc, names in callees.items()},
    )


@dataclass
class ForwardFunctions:
    """Stage-2 output: jump functions per site, plus the analysis
    artifacts later stages reuse (SSA form, value numbering, and the
    flow index the sparse engine runs on)."""

    sites: dict[int, CallSiteFunctions] = field(default_factory=dict)
    ssas: dict[str, SSAProcedure] = field(default_factory=dict)
    numberings: dict[str, ValueNumbering] = field(default_factory=dict)
    #: precomputed by :func:`build_forward_jump_functions`; built lazily
    #: for hand-assembled site tables (tests).
    index: FlowIndex | None = None

    def site(self, site_id: int) -> CallSiteFunctions:
        return self.sites[site_id]

    def support_index(self, lowered: LoweredProgram) -> FlowIndex:
        """The reverse dependency index over these jump functions."""
        if self.index is None:
            self.index = build_support_index(lowered, self.sites)
        return self.index

    def total_cost(self) -> int:
        return sum(site.total_cost() for site in self.sites.values())


def build_forward_jump_functions(
    lowered: LoweredProgram,
    modref: ModRefInfo,
    returns: ReturnFunctionResult,
    config: AnalysisConfig,
    ssa_cache=None,
) -> ForwardFunctions:
    """Stage 2: construct every call site's forward jump functions.

    ``ssa_cache`` (a :class:`repro.core.driver.SSACache`, or anything with
    its ``get(name, use_mod)`` shape) reuses the SSA forms stage 1 built —
    SSA depends only on MOD information, not on the jump-function kind.
    """
    result = ForwardFunctions()
    active_modref = modref if config.use_mod else None
    rjf_table = returns.table if config.use_return_jump_functions else {}

    scalar_globals = {
        gid: gvar
        for gid, gvar in lowered.program.globals.items()
        if not gvar.is_array and gvar.type in (Type.INTEGER, Type.LOGICAL)
    }

    for name, lowered_proc in lowered.procedures.items():
        if ssa_cache is not None:
            ssa = ssa_cache.get(name, config.use_mod)
        else:
            effects = make_call_effects(lowered, name, active_modref)
            ssa = build_ssa(lowered_proc, effects)
        numbering = value_number(
            ssa, lowered, rjf_table, config.compose_return_functions
        )
        result.ssas[name] = ssa
        result.numberings[name] = numbering

        global_symbols = {
            s.global_id: s
            for s in ssa.variables
            if s.kind is SymbolKind.GLOBAL and s.global_id in scalar_globals
        }

        for call in ssa.calls():
            site = CallSiteFunctions(
                site_id=call.site_id, caller=name, callee=call.callee
            )
            callee = lowered.procedures[call.callee].procedure
            for formal, arg in zip(callee.formals, call.args):
                if formal.is_array:
                    continue  # arrays carry no lattice value
                if formal.type not in (Type.INTEGER, Type.LOGICAL):
                    continue
                expr = numbering.argument_expr(arg)
                is_literal = (
                    arg.kind is ArgumentKind.VALUE
                    and isinstance(arg.value, Const)
                    and arg.value.type in (Type.INTEGER, Type.LOGICAL)
                )
                site.formals[formal.name] = project(
                    expr, config.jump_function, is_literal_actual=is_literal
                )
            for gid, symbol in global_symbols.items():
                expr = numbering.global_expr_at(call, symbol)
                site.globals[gid] = project(
                    expr, config.jump_function, is_global=True
                )
            result.sites[call.site_id] = site
    # Precompute the flow index here, in stage 2, so the sparse engine
    # only pays for propagation (and repeated solves over one
    # ForwardFunctions share the index).
    result.support_index(lowered)
    return result
