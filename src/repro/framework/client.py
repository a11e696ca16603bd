"""The edge shape every client solves over.

Stage 2 (:func:`repro.core.builder.build_forward_jump_functions`)
emits each jump-function binding as one :class:`FlowEdge`, whose
function is the binding's projected expression, and indexes the same
edge objects in a :class:`FlowIndex`; :class:`RegionPartition` splits
that index along the call graph's SCC regions. A client does not build
an index of its own: :func:`repro.framework.engine.solve_client` runs
it over stage 2's, with each edge optionally mapped through the
client's *lift* (:meth:`RegionPartition.lifted`).

A :class:`FlowEdge` is one (site, target key) transfer whose function
reads the ``source`` node's environment. The structural fast-path
fields (``const``, ``passthrough``, ``support``) are derived from the
edge function at construction so the engine's hot loop never
virtual-calls for constants or identities — the hoisting §3.1.5
charges to building a jump function rather than to every pass. Values
flow along call edges, from ``caller`` to ``callee``, and the engine
schedules over the call graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro.framework.edges import EdgeFunction
from repro.framework.lattice import Value

if TYPE_CHECKING:
    from repro.core.exprs import ValueExpr

#: (flow node, entry key) — one node of the binding multi-graph.
FlowBinding = tuple[str, object]


@dataclass(frozen=True, slots=True)
class FlowEdge:
    """One (site, target entry key) transfer in the flow index."""

    site_id: int
    #: flow source: the node whose environment ``func`` reads.
    caller: str
    #: flow target: the node whose ``key`` the result is met into.
    callee: str
    key: object
    #: the transfer: stage 2's projected
    #: :class:`~repro.core.exprs.ValueExpr`, or a client's
    #: :class:`~repro.framework.edges.EdgeFunction`. The engine calls
    #: only its ``evaluate`` and ``memo_token``.
    func: EdgeFunction | ValueExpr
    #: the keys ``func`` reads, cached in deterministic first-use order —
    #: the delta fan-in and the environment slice that keys the memo.
    support: tuple
    #: the value ``func`` folds to when it reads nothing, cached — the
    #: engine meets it directly.
    const: Value | None
    #: the one key ``func`` forwards unchanged, cached — the engine
    #: inlines the fetch.
    passthrough: object | None


def flow_edge(
    site_id: int, source: str, target: str, key: object, func: EdgeFunction
) -> FlowEdge:
    """Build a client's :class:`FlowEdge`, deriving the fast-path fields
    from its :class:`~repro.framework.edges.EdgeFunction`."""
    return FlowEdge(
        site_id,
        source,
        target,
        key,
        func,
        func.support(),
        func.constant_value(),
        func.passthrough_key(),
    )


class FlowIndex:
    """Stage 2's transfer edges in the engine's index shape, built by
    :func:`repro.core.builder.build_forward_jump_functions` alongside
    the site tables that hold the same edges.

    ``seeds[p]``
        every edge whose source is ``p`` (transferred once when ``p`` is
        first reached).
    ``kills[p]``
        ``(target, key)`` pairs floored once when ``p`` is first reached:
        callee entry keys some site in ``p`` binds *no* jump function
        for.
    ``dependents[(p, k)]``
        the edges whose support reads ``p``'s key ``k`` — the fan-out of
        one delta.
    ``callees[p]``
        distinct flow successors of ``p``, for reachability.
    """

    __slots__ = ("seeds", "kills", "dependents", "callees")

    def __init__(
        self,
        seeds: dict[str, tuple[FlowEdge, ...]],
        kills: dict[str, tuple[FlowBinding, ...]],
        dependents: dict[FlowBinding, tuple[FlowEdge, ...]],
        callees: dict[str, tuple[str, ...]],
    ):
        self.seeds = seeds
        self.kills = kills
        self.dependents = dependents
        self.callees = callees


class RegionPartition:
    """A :class:`FlowIndex` split along region boundaries.

    Region-scheduled solves converge one SCC at a time, so an edge whose
    target sits in a *different* region than its source never needs to
    see an intermediate source environment: every edge function is
    monotone, and the source's region is converged before the target's
    region starts, so transferring the edge once with the source's
    *final* environment meets the identical value into the target that
    repeated intermediate transfers would have (each intermediate result
    only re-lowers toward the final one). The partition therefore routes
    intra-region edges through the normal seed/delta discipline and
    defers every cross-region edge and kill to one
    :meth:`~repro.framework.engine.ClientEngine.flush_region` call at
    region end.

    ``index`` and ``region_of`` are the objects the split was computed
    from, so a holder can tell whether it is still current.
    """

    __slots__ = (
        "index",
        "region_of",
        "internal_seeds",
        "external_seeds",
        "internal_kills",
        "external_kills",
        "internal_dependents",
    )

    def __init__(self, index: FlowIndex, region_of: Mapping[str, int]):
        self.index = index
        self.region_of = region_of
        self.internal_seeds: dict[str, tuple[FlowEdge, ...]] = {}
        self.external_seeds: dict[str, tuple[FlowEdge, ...]] = {}
        for proc, edges in index.seeds.items():
            home = region_of[proc]
            internal = tuple(
                edge for edge in edges if region_of[edge.callee] == home
            )
            external = tuple(
                edge for edge in edges if region_of[edge.callee] != home
            )
            if internal:
                self.internal_seeds[proc] = internal
            if external:
                self.external_seeds[proc] = external
        self.internal_kills: dict[str, tuple[FlowBinding, ...]] = {}
        self.external_kills: dict[str, tuple[FlowBinding, ...]] = {}
        for proc, pairs in index.kills.items():
            home = region_of[proc]
            internal = tuple(
                pair for pair in pairs if region_of[pair[0]] == home
            )
            external = tuple(
                pair for pair in pairs if region_of[pair[0]] != home
            )
            if internal:
                self.internal_kills[proc] = internal
            if external:
                self.external_kills[proc] = external
        self.internal_dependents: dict[FlowBinding, tuple[FlowEdge, ...]] = {}
        for binding, edges in index.dependents.items():
            home = region_of[binding[0]]
            internal = tuple(
                edge for edge in edges if region_of[edge.callee] == home
            )
            if internal:
                self.internal_dependents[binding] = internal

    def lifted(self, lift: Callable[[FlowEdge], FlowEdge]) -> "RegionPartition":
        """This split with every edge mapped through ``lift``.

        Each stage-2 edge is lifted once, so an edge listed under several
        support keys stays one object (the engine dedups a delta batch by
        edge identity). ``lift`` must keep the edge's site, caller,
        callee and key, which fix its place in the split, and may narrow
        its support but never widen it: the dependents are the stage-2
        edge's. Kills carry no edge function and are shared.
        """
        lifted_edges: dict[int, FlowEdge] = {}

        def remap(table: dict) -> dict:
            mapped = {}
            for name, edges in table.items():
                row = []
                for edge in edges:
                    client_edge = lifted_edges.get(id(edge))
                    if client_edge is None:
                        client_edge = lifted_edges[id(edge)] = lift(edge)
                    row.append(client_edge)
                mapped[name] = tuple(row)
            return mapped

        partition = object.__new__(RegionPartition)
        partition.index = self.index
        partition.region_of = self.region_of
        partition.internal_seeds = remap(self.internal_seeds)
        partition.external_seeds = remap(self.external_seeds)
        partition.internal_kills = self.internal_kills
        partition.external_kills = self.external_kills
        partition.internal_dependents = remap(self.internal_dependents)
        return partition
