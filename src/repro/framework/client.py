"""The client contract: what an analysis supplies to the framework.

An :class:`AnalysisClient` packages one interprocedural dataflow
problem: the lattice, the entry keys per flow node, the seed
environment and roots, and a :class:`FlowIndex` of
:class:`FlowEdge` transfers. :func:`repro.framework.engine.solve_client`
runs the shared seed/delta/flush fixed-point discipline over that
package — constant propagation included: stage 2
(:func:`repro.core.builder.build_support_index`) emits its jump
functions directly as flow edges.

A :class:`FlowEdge` is one (site, target key) transfer whose function
reads the ``source`` node's environment. The structural fast-path
fields (``const``, ``passthrough``) are derived from the edge function
at construction so the engine's hot loop never virtual-calls for
constants or identities — the hoisting §3.1.5 charges to building a
jump function rather than to every pass. Values flow along call edges,
from ``caller`` to ``callee``, and the engine schedules over the call
graph.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping

from repro.framework.edges import EdgeFunction
from repro.framework.lattice import Lattice, Value

#: (flow node, entry key) — one node of the binding multi-graph.
FlowBinding = tuple[str, object]


@dataclass(frozen=True, slots=True)
class FlowEdge:
    """One (site, target entry key) transfer in a client's flow index."""

    site_id: int
    #: flow source: the node whose environment ``func`` reads.
    caller: str
    #: flow target: the node whose ``key`` the result is met into.
    callee: str
    key: object
    func: EdgeFunction
    #: ``func.support()``, cached in deterministic first-use order — the
    #: delta fan-in and the environment slice that keys the memo.
    support: tuple
    #: ``func.constant_value()``, cached — the engine meets it directly.
    const: Value | None
    #: ``func.passthrough_key()``, cached — the engine inlines the fetch.
    passthrough: object | None


def flow_edge(
    site_id: int, source: str, target: str, key: object, func: EdgeFunction
) -> FlowEdge:
    """Build a :class:`FlowEdge`, deriving the fast-path fields."""
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
    """A client's transfer edges in the engine's index shape.

    ``seeds[p]``
        every edge whose source is ``p`` (transferred once when ``p`` is
        first reached).
    ``kills[p]``
        ``(target, key)`` pairs floored once when ``p`` is first reached
        — for constant propagation, callee entry keys some site in ``p``
        binds *no* jump function for.
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

    @staticmethod
    def build(
        edges: list[FlowEdge],
        kill_sources: dict[str, list[FlowBinding]] | None = None,
    ) -> "FlowIndex":
        """Index ``edges`` by source (seeds), by read key (dependents),
        and by flow successor (callees). ``kill_sources`` maps a source
        node to the (target, key) bindings flooring when that source is
        first visited."""
        seeds: dict[str, list[FlowEdge]] = defaultdict(list)
        dependents: dict[FlowBinding, list[FlowEdge]] = defaultdict(list)
        callees: dict[str, list[str]] = defaultdict(list)
        for edge in edges:
            seeds[edge.caller].append(edge)
            if edge.callee not in callees[edge.caller]:
                callees[edge.caller].append(edge.callee)
            for support_key in edge.support:
                dependents[(edge.caller, support_key)].append(edge)
        kill_map: dict[str, list[FlowBinding]] = defaultdict(list)
        if kill_sources:
            for source, bindings in kill_sources.items():
                kill_map[source].extend(bindings)
                for target, _ in bindings:
                    if target not in callees[source]:
                        callees[source].append(target)
        return FlowIndex(
            {proc: tuple(items) for proc, items in seeds.items()},
            {proc: tuple(pairs) for proc, pairs in kill_map.items()},
            {binding: tuple(items) for binding, items in dependents.items()},
            {proc: tuple(names) for proc, names in callees.items()},
        )


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
    """

    __slots__ = (
        "internal_seeds",
        "external_seeds",
        "internal_kills",
        "external_kills",
        "internal_dependents",
        "region_of",
    )

    def __init__(self, index: FlowIndex, region_of: Mapping[str, int]):
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


class AnalysisClient:
    """One interprocedural dataflow problem, packaged for the generic
    driver. Subclasses define the four hooks; everything else — the
    worklist, region scheduling, memoization, budgets, counters — is
    shared framework machinery.
    """

    #: analysis name (CLI surface, stats reports).
    name: str = "client"
    lattice: Lattice

    def entry_keys(self, lowered, graph) -> dict[str, list]:
        """Each flow node's propagated keys (the VAL row shape)."""
        raise NotImplementedError

    def initial_env(self, lowered, graph) -> dict[str, dict]:
        """The seed VAL mapping: usually ⊤ everywhere except the roots'
        boundary facts."""
        keys = self.entry_keys(lowered, graph)
        top = self.lattice.top
        return {node: {key: top for key in node_keys} for node, node_keys in keys.items()}

    def roots(self, lowered, graph) -> tuple[str, ...]:
        """The flow nodes activated first (both shipped clients: the
        main program)."""
        raise NotImplementedError

    def flow_edges(self, lowered, graph) -> FlowIndex:
        """The client's transfer edges, indexed."""
        raise NotImplementedError

    def partition(self, lowered, graph, region_of) -> RegionPartition:
        """The flow index split along region boundaries (cached by
        concrete clients when their index is cached)."""
        return RegionPartition(self.flow_edges(lowered, graph), region_of)
