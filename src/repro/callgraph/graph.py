"""The program call graph, with its call structure derived once.

Nodes are procedure names; each edge carries the :class:`Call` instruction
it came from, so one caller/callee pair contributes one edge per call
site (the solver meets over *sites*, not over neighbours).

:func:`build_call_graph` works out everything the analyzer reads of the
call structure when the graph is built, and stores it as fields:

- each procedure's distinct callees and callers, as sorted tuples;
- one Tarjan condensation, callees first (:attr:`CallGraph.components`):
  the bottom-up walk of stage 1 (§4.1) and of MOD/REF;
- the reverse postorder from the main program, its index, and the set of
  procedures the main program reaches;
- the region schedule of stage 3 (:attr:`CallGraph.schedule`): the same
  components, callers first.

Recursive cliques appear as components of two or more members, or of one
member that calls itself. No layer recomputes any of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.ir.instructions import Call
from repro.ir.lower import LoweredProgram


@dataclass(frozen=True, slots=True)
class Region:
    """One strongly connected component of the call graph."""

    #: position in the region schedule (callers first).
    index: int
    members: tuple[str, ...]
    #: True when the region can iterate: more than one member, or a
    #: single member that calls itself.
    recursive: bool


@dataclass(frozen=True, slots=True)
class RegionSchedule:
    """The condensation in caller-first topological order.

    Interprocedural values only flow along call edges, so once every
    region that can call into region R has reached its local fixed point,
    R's entry environments are final: R can then be converged *exactly
    once*, and its cross-region call sites evaluated exactly once with
    final environments (the block-triangular solve of stage 3, the
    mirror image of stage 1's bottom-up walk over the same components).

    Regions are ordered by the least reverse-postorder index of their
    members. For components reachable from the main program this is a
    topological order of the condensation: the least-rpo member of an SCC
    is the first one the rpo DFS discovers, all other members finish
    inside its subtree, and a condensation edge A->B forces B's root to
    finish before A's. Components unreachable from the main program sort
    after the reachable ones (rpo appends them in name order); their
    relative order is name-based, not topological — harmless, because the
    solvers never seed an unreached procedure, so no value ever crosses
    between them. The solver loop relies on this order: a region's flush
    only ever reaches later regions, so each region is converged once
    (``tests/properties/test_region_law.py``).
    """

    regions: tuple[Region, ...]
    #: procedure name -> index into :attr:`regions`.
    region_of: dict[str, int]

    def region(self, proc: str) -> Region:
        return self.regions[self.region_of[proc]]

    def order(self) -> list[tuple[str, ...]]:
        """The member tuples in schedule order (for tests/reports)."""
        return [region.members for region in self.regions]

    def procedures(self) -> tuple[str, ...]:
        """Every procedure, flattened in schedule order (callers first,
        SCC members adjacent). The slab builder lays out slot ids in this
        order so one region's slots are contiguous in the flat arrays."""
        return tuple(
            name for region in self.regions for name in region.members
        )


@dataclass
class CallGraph:
    """Call multigraph with per-site edges, and its call structure."""

    #: every procedure, in name order.
    nodes: tuple[str, ...]
    main: str
    #: caller -> [(callee, call instruction)], in site order.
    out_edges: dict[str, list[tuple[str, Call]]]
    #: callee -> [(caller, call instruction)], in site order.
    in_edges: dict[str, list[tuple[str, Call]]]
    #: procedure -> its distinct callees, sorted.
    callee_names: dict[str, tuple[str, ...]]
    #: procedure -> its distinct callers, sorted.
    caller_names: dict[str, tuple[str, ...]]
    #: Tarjan's components, callees before callers (topological for
    #: unreachable components too), each the :class:`Region` the
    #: schedule holds for it.
    components: tuple[Region, ...]
    #: reverse postorder over call edges from the main program, then the
    #: procedures it does not reach, in name order.
    rpo: tuple[str, ...]
    #: procedure -> its position in :attr:`rpo` (read-only: every solve
    #: over the graph shares it).
    rpo_index: Mapping[str, int]
    #: the procedures the main program reaches, itself included.
    reached: frozenset[str]
    #: the components callers first: the order stage 3 converges them in.
    schedule: RegionSchedule

    def callees(self, name: str) -> tuple[str, ...]:
        return self.callee_names[name]

    def callers(self, name: str) -> tuple[str, ...]:
        return self.caller_names[name]

    def call_sites_into(self, name: str) -> list[tuple[str, Call]]:
        return list(self.in_edges.get(name, []))

    def call_sites_from(self, name: str) -> list[tuple[str, Call]]:
        return list(self.out_edges.get(name, []))

    def is_recursive(self, name: str) -> bool:
        """True if ``name`` sits on a call-graph cycle (incl. self-calls)."""
        return self.schedule.region(name).recursive


def build_call_graph(lowered: LoweredProgram) -> CallGraph:
    """Build the call graph from lowered call sites, and derive its call
    structure: one condensation and one reverse postorder."""
    nodes = tuple(sorted(lowered.procedures))
    main = lowered.program.main
    out_edges: dict[str, list[tuple[str, Call]]] = {name: [] for name in nodes}
    in_edges: dict[str, list[tuple[str, Call]]] = {name: [] for name in nodes}
    for site_id in sorted(lowered.call_sites):
        caller, call = lowered.call_sites[site_id]
        out_edges[caller].append((call.callee, call))
        in_edges[call.callee].append((caller, call))
    callee_names = {
        name: tuple(sorted({callee for callee, _ in edges}))
        for name, edges in out_edges.items()
    }
    caller_names = {
        name: tuple(sorted({caller for caller, _ in edges}))
        for name, edges in in_edges.items()
    }

    rpo, reached = _reverse_postorder(nodes, main, callee_names)
    rpo_index = {name: i for i, name in enumerate(rpo)}
    components = tarjan_components(nodes, callee_names)
    regions: list[Region] = []
    region_of: dict[str, int] = {}
    callers_first = sorted(
        components, key=lambda scc: min(rpo_index[name] for name in scc)
    )
    for index, members in enumerate(callers_first):
        recursive = len(members) > 1 or members[0] in callee_names[members[0]]
        regions.append(Region(index, members, recursive))
        for name in members:
            region_of[name] = index
    return CallGraph(
        nodes=nodes,
        main=main,
        out_edges=out_edges,
        in_edges=in_edges,
        callee_names=callee_names,
        caller_names=caller_names,
        components=tuple(
            regions[region_of[members[0]]] for members in components
        ),
        rpo=rpo,
        rpo_index=MappingProxyType(rpo_index),
        reached=frozenset(reached),
        schedule=RegionSchedule(tuple(regions), region_of),
    )


def _reverse_postorder(
    nodes: Sequence[str], main: str, callees: Mapping[str, tuple[str, ...]]
) -> tuple[tuple[str, ...], set[str]]:
    """Reverse postorder over call edges from ``main``, and the set it
    reaches.

    Callers come before their callees on every acyclic path, which is
    the direction interprocedural constants flow — the solver uses it
    as a worklist priority so each sweep evaluates a call site at most
    once before its callee is visited (§3.1.5's cost model counts
    passes under exactly this schedule). Procedures unreachable from
    the main program follow in name order, so the index is total.
    """
    postorder: list[str] = []
    seen = {main}
    stack = [(main, iter(callees[main]))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(callees[child])))
                break
        else:
            postorder.append(node)
            stack.pop()
    order = postorder[::-1]
    order.extend(name for name in nodes if name not in seen)
    return tuple(order), seen


def tarjan_components(
    nodes: Sequence[str], callees: Mapping[str, tuple[str, ...]]
) -> list[tuple[str, ...]]:
    """Strongly connected components in *reverse topological order*
    (callees before callers) — the bottom-up walk of §4.1 stage 1.
    Each component is sorted; Tarjan runs iteratively to dodge
    recursion limits on deep graphs."""
    index_counter = 0
    stack: list[str] = []
    lowlink: dict[str, int] = {}
    index: dict[str, int] = {}
    on_stack: set[str] = set()
    result: list[tuple[str, ...]] = []

    for node in nodes:
        if node in index:
            continue
        work = [(node, iter(callees[node]))]
        index[node] = lowlink[node] = index_counter
        index_counter += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = index_counter
                    index_counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(callees[child])))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[current] = min(lowlink[current], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                result.append(tuple(sorted(component)))
    return result
