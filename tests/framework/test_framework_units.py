"""Unit tests for the framework primitives: the edge functions, the
lattice contracts, and the flow-graph scheduling skeleton."""

from repro.core.lattice import BOTTOM, TOP
from repro.framework import (
    BottomEdge,
    ConstantEdge,
    ConstantLattice,
    IdentityEdge,
    PowersetLattice,
)
from repro.framework.graph import FlowGraph, reverse_flow_graph


class TestEdgeAlgebra:
    def test_constant_ignores_environment(self):
        edge = ConstantEdge(7)
        assert edge.apply({}) == 7
        assert edge.apply({"x": 1}) == 7
        assert edge.support() == ()
        assert edge.constant_value() == 7

    def test_identity_fetches_its_key(self):
        edge = IdentityEdge("x")
        assert edge.apply({"x": 3}) == 3
        assert edge.apply({}) is BOTTOM
        assert edge.support() == ("x",)
        assert edge.passthrough_key() == "x"

    def test_bottom_is_support_free_and_not_constant(self):
        edge = BottomEdge()
        assert edge.apply({"x": 1}) is BOTTOM
        assert edge.support() == ()
        # None means "not a constant" — ⊥ must not fold away, it floors.
        assert edge.constant_value() is None

    def test_memo_token_defaults_to_edge_identity(self):
        edge = IdentityEdge("x")
        assert edge.memo_token() is edge


class TestConstantLattice:
    lattice = ConstantLattice()

    def test_top_and_bottom_singletons(self):
        assert self.lattice.top is TOP
        assert self.lattice.bottom is BOTTOM

    def test_meet_delegates_to_core(self):
        assert self.lattice.meet(3, 3) == 3
        assert self.lattice.meet(3, 4) is BOTTOM
        assert self.lattice.meet(TOP, 5) == 5

    def test_is_bottom(self):
        assert self.lattice.is_bottom(BOTTOM)
        assert not self.lattice.is_bottom(0)


class TestPowersetLattice:
    lattice = PowersetLattice()

    def test_top_is_empty_set(self):
        assert self.lattice.top == frozenset()

    def test_meet_is_union(self):
        a = frozenset({1})
        b = frozenset({2})
        assert self.lattice.meet(a, b) == frozenset({1, 2})

    def test_meet_preserves_identity_when_no_growth(self):
        a = frozenset({1, 2})
        assert self.lattice.meet(a, frozenset({1})) is a

    def test_never_bottom(self):
        # growth-only lattice: the floor short-circuit must stay inert.
        assert not self.lattice.is_bottom(frozenset())
        assert not self.lattice.is_bottom(frozenset({1, 2, 3}))


class TestFlowGraph:
    def diamond(self):
        return FlowGraph(
            nodes=["a", "b", "c", "d"],
            successors={"a": ("b", "c"), "b": ("d",), "c": ("d",)},
            roots=("a",),
        )

    def test_reverse_postorder_is_topological_on_dags(self):
        order = self.diamond().reverse_postorder()
        assert order[0] == "a"
        assert order[-1] == "d"
        assert set(order) == {"a", "b", "c", "d"}

    def test_rpo_index_is_total_and_cached(self):
        graph = self.diamond()
        index = graph.rpo_index()
        assert sorted(index.values()) == [0, 1, 2, 3]
        assert graph.rpo_index() is index

    def test_unreachable_nodes_appended(self):
        graph = FlowGraph(
            nodes=["a", "b", "orphan"],
            successors={"a": ("b",)},
            roots=("a",),
        )
        order = graph.reverse_postorder()
        assert order[-1] == "orphan"

    def test_multiple_roots(self):
        graph = FlowGraph(
            nodes=["a", "b", "x", "y"],
            successors={"a": ("b",), "x": ("y",)},
            roots=("a", "x"),
        )
        order = graph.reverse_postorder()
        assert order.index("a") < order.index("b")
        assert order.index("x") < order.index("y")

    def test_sccs_find_cycles(self):
        graph = FlowGraph(
            nodes=["a", "f", "g"],
            successors={"a": ("f",), "f": ("g",), "g": ("f",)},
            roots=("a",),
        )
        components = {tuple(scc) for scc in graph.sccs()}
        assert ("f", "g") in components
        assert ("a",) in components


class TestReverseFlowGraph:
    def test_mirrors_call_edges_and_caches(self):
        from repro.callgraph import build_call_graph
        from repro.frontend import parse_program
        from repro.ir import lower_program

        source = """
program main
  call s(1)
end
subroutine s(a)
  integer a
  write a
end
"""
        graph = build_call_graph(lower_program(parse_program(source)))
        reverse = reverse_flow_graph(graph)
        assert reverse.callees("s") == ("main",)
        assert reverse.callees("main") == ()
        assert set(reverse.roots) == set(graph.nodes)
        assert reverse_flow_graph(graph) is reverse
