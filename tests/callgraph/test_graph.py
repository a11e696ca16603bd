"""Unit tests for call graph construction, reverse postorder and SCC
condensation."""

from repro.callgraph import build_call_graph
from repro.frontend import parse_program
from repro.ir import lower_program


def graph_of(source):
    return build_call_graph(lower_program(parse_program(source)))


CHAIN = """
program main
  call a
end
subroutine a
  call b
end
subroutine b
  x = 1
end
"""

DIAMOND = """
program main
  call left
  call right
end
subroutine left
  call shared
end
subroutine right
  call shared
end
subroutine shared
  x = 1
end
"""

MUTUAL = """
program main
  call even(4)
end
subroutine even(n)
  integer n
  if (n > 0) call odd(n - 1)
end
subroutine odd(n)
  integer n
  if (n > 0) call even(n - 1)
end
"""


class TestStructure:
    def test_nodes(self):
        graph = graph_of(CHAIN)
        assert set(graph.nodes) == {"main", "a", "b"}
        assert graph.main == "main"

    def test_edges(self):
        graph = graph_of(CHAIN)
        assert graph.callees("main") == ["a"]
        assert graph.callees("a") == ["b"]
        assert graph.callers("b") == ["a"]

    def test_multiple_sites_one_pair(self):
        source = CHAIN.replace("call b\n", "call b\ncall b\n")
        graph = graph_of(source)
        assert len(graph.call_sites_from("a")) == 2
        assert graph.callees("a") == ["b"]  # deduplicated view

    def test_function_calls_are_edges(self):
        source = """
program main
  n = f(1)
end
integer function f(x)
  integer x
  f = x
end
"""
        graph = graph_of(source)
        assert graph.callees("main") == ["f"]

    def test_reachable_from_main(self):
        source = CHAIN + "subroutine orphan\nx = 1\nend\n"
        graph = graph_of(source)
        assert graph.reachable_from_main() == {"main", "a", "b"}


class TestSCCs:
    def test_chain_sccs_bottom_up(self):
        graph = graph_of(CHAIN)
        sccs = graph.sccs()
        order = [scc[0] for scc in sccs]
        assert order.index("b") < order.index("a") < order.index("main")

    def test_diamond_shared_first(self):
        graph = graph_of(DIAMOND)
        order = [scc[0] for scc in graph.sccs()]
        assert order.index("shared") < order.index("left")
        assert order.index("shared") < order.index("right")
        assert order.index("left") < order.index("main")

    def test_mutual_recursion_single_scc(self):
        graph = graph_of(MUTUAL)
        sccs = graph.sccs()
        big = [scc for scc in sccs if len(scc) > 1]
        assert big == [["even", "odd"]]

    def test_sccs_find_cycles(self):
        source = """
program main
  call f(1)
end
subroutine f(n)
  integer n
  call g(n)
end
subroutine g(n)
  integer n
  if (n > 0) call f(n - 1)
end
"""
        components = {tuple(scc) for scc in graph_of(source).sccs()}
        assert ("f", "g") in components
        assert ("main",) in components

    def test_self_recursion_detected(self):
        source = """
program main
  call fact(5)
end
subroutine fact(n)
  integer n
  if (n > 1) call fact(n - 1)
end
"""
        graph = graph_of(source)
        assert graph.is_recursive("fact")
        assert not graph.is_recursive("main")

    def test_mutual_recursion_detected(self):
        graph = graph_of(MUTUAL)
        assert graph.is_recursive("even")
        assert graph.is_recursive("odd")

    def test_top_down_is_reverse_of_bottom_up(self):
        graph = graph_of(DIAMOND)
        assert graph.top_down_sccs() == list(reversed(graph.bottom_up_sccs()))


class TestReversePostorder:
    def test_callers_before_callees(self):
        graph = graph_of(DIAMOND)
        assert graph.reverse_postorder() == ["main", "right", "left", "shared"]

    def test_unreachable_procedures_follow_in_name_order(self):
        source = CHAIN + (
            "subroutine zorphan\nx = 1\nend\n"
            "subroutine orphan\ncall zorphan\nend\n"
        )
        order = graph_of(source).reverse_postorder()
        assert order == ["main", "a", "b", "orphan", "zorphan"]

    def test_rpo_index_is_total(self):
        graph = graph_of(MUTUAL)
        index = graph.rpo_index()
        assert sorted(index) == sorted(graph.nodes)
        assert sorted(index.values()) == list(range(len(graph.nodes)))
        assert index["main"] == 0
