"""Tests for return jump function generation (stage 1, §3.2)."""

from repro.analysis.valuenum import RESULT_KEY
from repro.core.config import AnalysisConfig
from repro.core.driver import build_stage0
from repro.core.exprs import ConstExpr, EntryExpr
from repro.core.returns import build_return_jump_functions
from repro.frontend import parse_program
from repro.frontend.symbols import GlobalId


def returns_of(source, config=None):
    stage0 = build_stage0(parse_program(source))
    config = config or AnalysisConfig()
    returns = build_return_jump_functions(
        stage0.lowered, stage0.graph, config, stage0.ssa_cache
    )
    return returns, stage0.lowered


WRAP = "program t\nx = 1\nend\n"


class TestBasicReturnFunctions:
    def test_constant_assignment(self):
        result, _ = returns_of(WRAP + "subroutine s(a)\ninteger a\na = 5\nend\n")
        assert result.function("s", "a") == ConstExpr(5)

    def test_polynomial_of_entry(self):
        result, _ = returns_of(
            WRAP + "subroutine s(a, b)\ninteger a, b\na = b * 2 + 1\nend\n"
        )
        function = result.function("s", "a")
        assert function.support() == {"b"}
        assert function.evaluate({"b": 10}) == 21

    def test_identity_for_untouched_formal(self):
        result, _ = returns_of(
            WRAP + "subroutine s(a, b)\ninteger a, b\na = b\nend\n"
        )
        assert result.function("s", "b") == EntryExpr("b")

    def test_global_return_function(self):
        result, _ = returns_of(
            WRAP + "subroutine init\ncommon /c/ g\ninteger g\ng = 100\nend\n"
        )
        assert result.function("init", GlobalId("c", 0)) == ConstExpr(100)

    def test_function_result_key(self):
        result, _ = returns_of(
            WRAP + "integer function f(x)\ninteger x\nf = x + 1\nend\n"
        )
        function = result.function("f", RESULT_KEY)
        assert function.evaluate({"x": 41}) == 42

    def test_unknown_exit_value_absent(self):
        result, _ = returns_of(
            WRAP + "subroutine s(a)\ninteger a\nread a\nend\n"
        )
        assert result.function("s", "a") is None

    def test_branch_merge_same_value(self):
        result, _ = returns_of(
            WRAP
            + "subroutine s(a, c)\ninteger a, c\n"
            "if (c > 0) then\na = 7\nelse\na = 7\nendif\nend\n"
        )
        assert result.function("s", "a") == ConstExpr(7)

    def test_branch_merge_different_values_absent(self):
        result, _ = returns_of(
            WRAP
            + "subroutine s(a, c)\ninteger a, c\n"
            "if (c > 0) then\na = 7\nelse\na = 8\nendif\nend\n"
        )
        assert result.function("s", "a") is None


class TestBottomUpComposition:
    def test_constants_flow_through_chains_of_returns(self):
        source = WRAP + (
            "subroutine leaf\ncommon /c/ g\ninteger g\ng = 100\nend\n"
            "subroutine middle\ncall leaf\nend\n"
        )
        result, _ = returns_of(source)
        # middle's return function for g comes from applying leaf's
        assert result.function("middle", GlobalId("c", 0)) == ConstExpr(100)

    def test_constant_argument_flows_into_return(self):
        source = WRAP + (
            "subroutine setv(x, v)\ninteger x, v\nx = v\nend\n"
            "subroutine wrap(y)\ninteger y\ncall setv(y, 9)\nend\n"
        )
        result, _ = returns_of(source)
        assert result.function("wrap", "y") == ConstExpr(9)

    def test_nonconstant_composition_degrades(self):
        # §3.2: return functions depending on the caller's parameters
        # cannot be evaluated as constant.
        source = WRAP + (
            "subroutine inc(x)\ninteger x\nx = x + 1\nend\n"
            "subroutine wrap(y)\ninteger y\ncall inc(y)\nend\n"
        )
        result, _ = returns_of(source)
        assert result.function("wrap", "y") is None

    def test_composed_mode_keeps_symbolic_chain(self):
        source = WRAP + (
            "subroutine inc(x)\ninteger x\nx = x + 1\nend\n"
            "subroutine wrap(y)\ninteger y\ncall inc(y)\nend\n"
        )
        config = AnalysisConfig(compose_return_functions=True)
        result, _ = returns_of(source, config)
        function = result.function("wrap", "y")
        assert function is not None
        assert function.evaluate({"y": 10}) == 11

    def test_recursive_procedure_conservative(self):
        source = """
program t
  call rec(3)
end
subroutine rec(n)
  integer n
  if (n > 0) then
    call rec(n - 1)
  endif
  n = 0
end
"""
        result, _ = returns_of(source)
        # 'n = 0' dominates every exit, so even with the conservative
        # in-SCC treatment the final assignment wins.
        assert result.function("rec", "n") == ConstExpr(0)

    def test_disabled_returns_empty_table(self):
        config = AnalysisConfig(use_return_jump_functions=False)
        result, _ = returns_of(
            WRAP + "subroutine s(a)\ninteger a\na = 5\nend\n", config
        )
        assert result.table == {}

    def test_count_nontrivial(self):
        result, _ = returns_of(
            WRAP + "subroutine s(a, b)\ninteger a, b\na = 5\nend\n"
        )
        assert result.count_nontrivial() >= 1
