"""The program call graph.

Nodes are procedure names; each edge carries the :class:`Call` instruction
it came from, so one caller/callee pair contributes one edge per call
site (the solver meets over *sites*, not over neighbours).

SCC condensation (Tarjan) supports the bottom-up return-jump-function pass
and gives the solver a good initial ordering. Recursive cliques appear as
non-trivial SCCs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.ir.instructions import Call
from repro.ir.lower import LoweredProgram


@dataclass
class CallGraph:
    """Call multigraph with per-site edges."""

    nodes: list[str] = field(default_factory=list)
    #: caller -> [(callee, call instruction)]
    out_edges: dict[str, list[tuple[str, Call]]] = field(default_factory=dict)
    #: callee -> [(caller, call instruction)]
    in_edges: dict[str, list[tuple[str, Call]]] = field(default_factory=dict)
    main: str = ""

    def callees(self, name: str) -> list[str]:
        return sorted({callee for callee, _ in self.out_edges.get(name, [])})

    def callers(self, name: str) -> list[str]:
        return sorted({caller for caller, _ in self.in_edges.get(name, [])})

    def call_sites_into(self, name: str) -> list[tuple[str, Call]]:
        return list(self.in_edges.get(name, []))

    def call_sites_from(self, name: str) -> list[tuple[str, Call]]:
        return list(self.out_edges.get(name, []))

    def reachable_from_main(self) -> set[str]:
        seen: set[str] = set()
        stack = [self.main]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.callees(name))
        return seen

    # -- orderings ------------------------------------------------------------

    def reverse_postorder(self) -> list[str]:
        """Reverse postorder over call edges from the main program.

        Callers come before their callees on every acyclic path, which is
        the direction interprocedural constants flow — the solver uses it
        as a worklist priority so each sweep evaluates a call site at most
        once before its callee is visited (§3.1.5's cost model counts
        passes under exactly this schedule). Procedures unreachable from
        the main program follow in name order, so the index is total.
        """
        postorder: list[str] = []
        seen = {self.main}
        stack = [(self.main, iter(self.callees(self.main)))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(self.callees(child))))
                    break
            else:
                postorder.append(node)
                stack.pop()
        order = list(reversed(postorder))
        order.extend(name for name in self.nodes if name not in seen)
        return order

    def rpo_index(self) -> Mapping[str, int]:
        """Map each procedure to its reverse-postorder position. Computed
        once per graph, like its region schedule, and read-only: every
        solve over the graph shares it."""
        index = self.__dict__.get("_rpo_index")
        if index is None:
            index = self._rpo_index = MappingProxyType(
                {name: i for i, name in enumerate(self.reverse_postorder())}
            )
        return index

    # -- SCC condensation -----------------------------------------------------

    def sccs(self) -> list[list[str]]:
        """Strongly connected components in *reverse topological order*
        (callees before callers) — the bottom-up walk of §4.1 stage 1.
        Each component is sorted; Tarjan runs iteratively to dodge
        recursion limits on deep graphs."""
        index_counter = 0
        stack: list[str] = []
        lowlink: dict[str, int] = {}
        index: dict[str, int] = {}
        on_stack: set[str] = set()
        result: list[list[str]] = []

        for node in self.nodes:
            if node in index:
                continue
            work = [(node, iter(self.callees(node)))]
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
                        work.append((child, iter(self.callees(child))))
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
                    result.append(sorted(component))
        return result

    def is_recursive(self, name: str) -> bool:
        """True if ``name`` sits on a call-graph cycle (incl. self-calls)."""
        for scc in self.sccs():
            if name in scc:
                if len(scc) > 1:
                    return True
                return any(callee == name for callee in self.callees(name))
        return False

    def bottom_up_sccs(self) -> list[list[str]]:
        """Alias for :meth:`sccs` (already callees-first)."""
        return self.sccs()

    def top_down_sccs(self) -> list[list[str]]:
        return list(reversed(self.sccs()))


def build_call_graph(lowered: LoweredProgram) -> CallGraph:
    """Build the call graph from lowered call sites."""
    graph = CallGraph(
        nodes=sorted(lowered.procedures),
        main=lowered.program.main,
    )
    graph.out_edges = {name: [] for name in graph.nodes}
    graph.in_edges = {name: [] for name in graph.nodes}
    for site_id in sorted(lowered.call_sites):
        caller, call = lowered.call_sites[site_id]
        graph.out_edges[caller].append((call.callee, call))
        graph.in_edges[call.callee].append((caller, call))
    return graph
