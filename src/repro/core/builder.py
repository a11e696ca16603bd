"""Forward jump function generation (stage 2 of the analyzer, §4.1).

For every call site, project the value-numbering expression of each actual
parameter — and of each implicitly passed global — onto the configured
jump-function kind. The stage-1 return jump functions feed the value
numbering, so constants surviving earlier calls are visible here (this is
the "second evaluation" of each return jump function the paper describes).
The numbering itself does not depend on the jump-function kind: stage 2
asks the SSA cache (:class:`~repro.core.driver.SSACache`) for each
procedure's numbering against the final return table, a hit for every
procedure stage 1 numbered against that table, so every kind projects
one shared numbering per procedure.

Each binding becomes one :class:`~repro.framework.client.FlowEdge` whose
function is the projected, hash-consed
:class:`~repro.core.exprs.ValueExpr` itself — the paper's J(s, y) as an
expression over the caller's entry values (§2). The edges are the site
tables and, indexed in a :class:`~repro.framework.client.FlowIndex`,
what stage 3 runs on: the generic
:class:`~repro.framework.engine.ClientEngine` with constant propagation
as its client.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.ssa import SSAProcedure
from repro.analysis.valuenum import ValueNumbering, value_number
from repro.core.config import AnalysisConfig
from repro.core.exprs import ConstExpr, EntryExpr, EntryKey, ValueExpr
from repro.core.jump_functions import projected_expr
from repro.core.returns import ReturnFunctionResult
from repro.framework.client import (
    FlowBinding,
    FlowEdge,
    FlowIndex,
    RegionPartition,
)
from repro.frontend.astnodes import Type
from repro.frontend.symbols import SymbolKind
from repro.ir.instructions import ArgumentKind, Const
from repro.ir.lower import LoweredProgram

#: one call site's forward jump functions: callee entry key -> its edge.
SiteEdges = dict[EntryKey, FlowEdge]


def binding_edge(
    site_id: int, caller: str, callee: str, key: EntryKey, expr: ValueExpr
) -> FlowEdge:
    """One binding's edge, its fast-path fields read off the projected
    expression's class."""
    cls = expr.__class__
    const = expr.value if cls is ConstExpr else None
    passthrough = expr.key if cls is EntryExpr else None
    return FlowEdge(
        site_id, caller, callee, key, expr, expr.support_order(), const,
        passthrough,
    )


@dataclass
class ForwardFunctions:
    """Stage-2 output: each call site's forward jump functions as flow
    edges, the flow index over the same edge objects, plus the analysis
    artifacts later stages reuse (SSA form, value numbering, and the
    index's region split)."""

    #: site id -> that site's edges, one per bound callee entry key (a
    #: site binding nothing maps to an empty table).
    sites: dict[int, SiteEdges] = field(default_factory=dict)
    ssas: dict[str, SSAProcedure] = field(default_factory=dict)
    numberings: dict[str, ValueNumbering] = field(default_factory=dict)
    #: :attr:`sites`' edges in the engine's index shape.
    index: FlowIndex | None = None
    #: :attr:`index` split along the call graph's regions, built by the
    #: first solve and shared by every later one (and every client).
    partition: RegionPartition | None = None

    def region_partition(
        self, region_of: Mapping[str, int]
    ) -> RegionPartition:
        """:attr:`index` split along ``region_of``, rebuilt only when
        either changed."""
        index = self.index
        partition = self.partition
        if (
            partition is None
            or partition.index is not index
            or partition.region_of is not region_of
        ):
            partition = self.partition = RegionPartition(index, region_of)
        return partition


def build_forward_jump_functions(
    lowered: LoweredProgram,
    returns: ReturnFunctionResult,
    config: AnalysisConfig,
    ssa_cache,
) -> ForwardFunctions:
    """Stage 2: construct every call site's forward jump functions.

    ``ssa_cache`` (a :class:`repro.core.driver.SSACache`) supplies every
    procedure's SSA form and its numbering against ``returns.table``,
    the final return table: neither depends on the jump-function kind,
    and a procedure stage 1 numbered against that table is a hit under
    the cache's own key. ``returns`` must be stage 1's result for the
    same ``use_mod``, ``use_return_jump_functions`` and
    ``compose_return_functions``.

    One :class:`~repro.framework.client.FlowEdge` per (site, callee entry
    key) binding, in site-iteration order, whose function is the
    projected expression. The fast-path fields are read off the
    expression's class: a constant's folded value (``const``, §3.1.5
    charges building such a function, not re-deriving its value every
    pass, so the engine transfers it by meet alone), a pass-through's key
    (``passthrough``, one environment fetch), and the support keys in
    first-use order. The expressions are hash-consed, so the edges of
    one value share it — and an entry key's one-key support tuple with
    it — while ``ConstExpr(True)`` and ``ConstExpr(1)`` stay different
    objects. Callee keys a site binds no function for are killed at seed
    time.
    """
    result = ForwardFunctions()
    compose = config.compose_return_functions
    kind = config.jump_function
    keys_of = lowered.entry_keys
    seeds: dict[str, list[FlowEdge]] = defaultdict(list)
    kills: dict[str, list[FlowBinding]] = defaultdict(list)
    dependents: dict[FlowBinding, list[FlowEdge]] = defaultdict(list)
    callees: dict[str, list[str]] = defaultdict(list)

    for name in lowered.procedures:
        ssa = ssa_cache.get(name, config.use_mod)
        numbering = ssa_cache.numbering(
            ssa, returns.table, compose, value_number
        )
        result.ssas[name] = ssa
        result.numberings[name] = numbering

        global_symbols = {
            s.global_id: s
            for s in ssa.variables
            if s.kind is SymbolKind.GLOBAL
            and s.type in (Type.INTEGER, Type.LOGICAL)
        }
        edges = seeds[name]

        for call in ssa.calls():
            site_id, callee_name = call.site_id, call.callee
            if callee_name not in callees[name]:
                callees[name].append(callee_name)
            site: SiteEdges = {}
            callee = lowered.procedures[callee_name].procedure
            for formal, arg in zip(callee.formals, call.args):
                if formal.is_array:
                    continue  # arrays carry no lattice value
                if formal.type not in (Type.INTEGER, Type.LOGICAL):
                    continue
                is_literal = (
                    arg.kind is ArgumentKind.VALUE
                    and isinstance(arg.value, Const)
                    and arg.value.type in (Type.INTEGER, Type.LOGICAL)
                )
                expr = projected_expr(
                    numbering.argument_expr(arg), kind, is_literal
                )
                site[formal.name] = binding_edge(
                    site_id, name, callee_name, formal.name, expr
                )
            for gid, symbol in global_symbols.items():
                expr = projected_expr(
                    numbering.global_expr_at(call, symbol),
                    kind,
                    is_global=True,
                )
                site[gid] = binding_edge(site_id, name, callee_name, gid, expr)
            result.sites[site_id] = site
            for edge in site.values():
                edges.append(edge)
                for support_key in edge.support:
                    dependents[(name, support_key)].append(edge)
            for key in keys_of[callee_name]:
                if key not in site:
                    kills[name].append((callee_name, key))

    result.index = FlowIndex(
        {proc: tuple(row) for proc, row in seeds.items() if row},
        {proc: tuple(pairs) for proc, pairs in kills.items()},
        {binding: tuple(row) for binding, row in dependents.items()},
        {proc: tuple(names) for proc, names in callees.items()},
    )
    return result
