"""Unit tests for call graph construction, reverse postorder and SCC
condensation, all derived once when the graph is built."""

from repro import Analyzer, analyze
from repro.callgraph import build_call_graph
from repro.callgraph import graph as graph_module
from repro.core import complete, driver
from repro.core.config import TABLE2_CONFIGS, TABLE3_CONFIGS
from repro.core.driver import Stage0Cache
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
        assert graph.callees("main") == ("a",)
        assert graph.callees("a") == ("b",)
        assert graph.callers("b") == ("a",)

    def test_callees_are_stored_once(self):
        graph = graph_of(DIAMOND)
        assert graph.callees("main") is graph.callees("main")
        assert graph.callers("shared") is graph.callers("shared")
        assert graph.callers("shared") == ("left", "right")

    def test_multiple_sites_one_pair(self):
        source = CHAIN.replace("call b\n", "call b\ncall b\n")
        graph = graph_of(source)
        assert len(graph.call_sites_from("a")) == 2
        assert graph.callees("a") == ("b",)  # deduplicated view

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
        assert graph.callees("main") == ("f",)

    def test_reachable_from_main(self):
        source = CHAIN + "subroutine orphan\nx = 1\nend\n"
        graph = graph_of(source)
        assert graph.reached == {"main", "a", "b"}


class TestSCCs:
    def test_chain_sccs_bottom_up(self):
        graph = graph_of(CHAIN)
        order = [scc.members[0] for scc in graph.components]
        assert order.index("b") < order.index("a") < order.index("main")

    def test_diamond_shared_first(self):
        graph = graph_of(DIAMOND)
        order = [scc.members[0] for scc in graph.components]
        assert order.index("shared") < order.index("left")
        assert order.index("shared") < order.index("right")
        assert order.index("left") < order.index("main")

    def test_mutual_recursion_single_scc(self):
        graph = graph_of(MUTUAL)
        big = [
            scc.members for scc in graph.components if len(scc.members) > 1
        ]
        assert big == [("even", "odd")]

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
        components = {scc.members for scc in graph_of(source).components}
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


class TestReversePostorder:
    def test_callers_before_callees(self):
        graph = graph_of(DIAMOND)
        assert graph.rpo == ("main", "right", "left", "shared")

    def test_unreachable_procedures_follow_in_name_order(self):
        source = CHAIN + (
            "subroutine zorphan\nx = 1\nend\n"
            "subroutine orphan\ncall zorphan\nend\n"
        )
        order = graph_of(source).rpo
        assert order == ("main", "a", "b", "orphan", "zorphan")

    def test_rpo_index_is_total(self):
        graph = graph_of(MUTUAL)
        index = graph.rpo_index
        assert sorted(index) == sorted(graph.nodes)
        assert sorted(index.values()) == list(range(len(graph.nodes)))
        assert index["main"] == 0


class TestOneDerivation:
    """The call structure is derived once, when the graph is built: no
    later layer runs Tarjan again."""

    # complete propagation folds chain's branch, so its second round
    # builds a call graph of its own
    FOLDING = """
program main
  call chain(4)
  call even(2)
end
subroutine chain(d)
  integer d
  if (d > 0) then
    call leaf(d)
  endif
end
subroutine leaf(x)
  integer x
  write x
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

    def test_condensation_runs_once_per_graph(self, monkeypatch):
        runs = []
        condense = graph_module.tarjan_components

        def counting_condense(*args):
            runs.append("tarjan")
            return condense(*args)

        monkeypatch.setattr(graph_module, "tarjan_components", counting_condense)
        builds = []
        for module in (driver, complete):

            def counting_build(lowered, _build=module.build_call_graph):
                builds.append("graph")
                return _build(lowered)

            monkeypatch.setattr(module, "build_call_graph", counting_build)

        analyze(self.FOLDING, cache=None)
        assert len(runs) == len(builds) == 1
        runs.clear()
        builds.clear()
        results = Analyzer(self.FOLDING, cache=Stage0Cache()).sweep(
            {**TABLE2_CONFIGS, **TABLE3_CONFIGS}
        )
        assert results["complete"].complete_stats.dce_rounds_with_changes == 1
        # stage 0 once, complete propagation's second round once
        assert len(runs) == len(builds) == 2
