"""Flow graphs: the scheduling skeleton of a framework client.

The region scheduler (:mod:`repro.core.regions`) and the priority
worklist only need four things from a graph: ``nodes``, ``callees()``
(flow successors), ``rpo_index()``, and ``sccs()``. The program's
:class:`~repro.callgraph.graph.CallGraph` provides them directly, and
forward clients (constprop, copyprop) simply schedule over it. Clients
whose facts flow *against* call edges — MOD/REF summaries rise from
callees to callers — instead build a :class:`FlowGraph` with the edges
they actually propagate along; :func:`reverse_flow_graph` derives the
call graph's mirror image once per graph instance.

A :class:`FlowGraph` supports multiple roots (the MOD/REF client seeds
every procedure); the call graph's DFS is the ``roots=(main,)`` case of
the same traversal (:func:`repro.callgraph.graph.dfs_reverse_postorder`):
reverse postorder runs from each root in order, and nodes no root
reaches follow in node order so the priority index stays total. The
``_region_schedule`` cache attribute matches the call graph's, so
:func:`repro.core.regions.region_schedule` memoizes on either kind.
"""

from __future__ import annotations

from repro.callgraph.graph import dfs_reverse_postorder, tarjan_sccs


class FlowGraph:
    """A directed flow graph over procedure names, duck-typed to the
    scheduling surface of :class:`repro.callgraph.graph.CallGraph`."""

    def __init__(
        self,
        nodes: list[str],
        successors: dict[str, tuple[str, ...]],
        roots: tuple[str, ...],
    ):
        self.nodes = list(nodes)
        self._successors = successors
        self.roots = roots
        self._rpo_index: dict[str, int] | None = None

    def callees(self, name: str) -> tuple[str, ...]:
        """Flow successors (named for CallGraph compatibility)."""
        return self._successors.get(name, ())

    def reverse_postorder(self) -> list[str]:
        return dfs_reverse_postorder(self.nodes, self.callees, self.roots)

    def rpo_index(self) -> dict[str, int]:
        if self._rpo_index is None:
            self._rpo_index = {
                name: index
                for index, name in enumerate(self.reverse_postorder())
            }
        return self._rpo_index

    def sccs(self) -> list[list[str]]:
        """Strongly connected components, successors first."""
        return tarjan_sccs(self.nodes, self.callees)


def reverse_flow_graph(graph) -> FlowGraph:
    """The call graph's mirror image: one flow edge callee → caller per
    calling pair, every procedure a root (summaries exist even for
    procedures the main program never reaches). Cached per graph
    instance, like the region schedule derived from it."""
    cached = getattr(graph, "_reverse_flow_graph", None)
    if cached is not None:
        return cached
    successors = {
        name: tuple(graph.callers(name)) for name in graph.nodes
    }
    reversed_graph = FlowGraph(
        nodes=list(graph.nodes),
        successors=successors,
        roots=tuple(sorted(graph.nodes)),
    )
    try:
        graph._reverse_flow_graph = reversed_graph
    except AttributeError:
        pass  # slotted stand-ins rebuild per solve
    return reversed_graph
