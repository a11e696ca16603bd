"""Unit tests for symbolic value numbering."""

from repro.analysis.ssa import build_ssa
from repro.analysis.valuenum import RESULT_KEY, entry_key_of, value_number
from repro.callgraph import build_call_graph, compute_modref, make_call_effects
from repro.core.exprs import BOTTOM_EXPR, ConstExpr, EntryExpr, OpExpr
from repro.frontend import parse_program
from repro.frontend.symbols import GlobalId
from repro.ir import lower_program


def numbering_of(source, proc, rjf_table=None, use_mod=True, compose=False):
    lowered = lower_program(parse_program(source))
    graph = build_call_graph(lowered)
    modref = compute_modref(lowered, graph) if use_mod else None
    effects = make_call_effects(lowered, proc, modref)
    ssa = build_ssa(lowered.procedure(proc), effects)
    return value_number(ssa, lowered, rjf_table, compose), lowered


def exit_expr_of(source, proc, var, **kwargs):
    numbering, lowered = numbering_of(source, proc, **kwargs)
    symbol = lowered.procedure(proc).procedure.symtab.lookup(var)
    return numbering.exit_expr(symbol)


SUB_WRAP = "program t\nx = 1\nend\n"


class TestEntryExpressions:
    def test_formal_entry_is_entry_expr(self):
        src = SUB_WRAP + "subroutine s(a)\ninteger a, b\nb = a\nend\n"
        expr = exit_expr_of(src, "s", "b")
        assert expr == EntryExpr("a")

    def test_global_entry_keyed_by_gid(self):
        src = SUB_WRAP + (
            "subroutine s\ncommon /c/ g\ninteger g, b\nb = g\nend\n"
        )
        expr = exit_expr_of(src, "s", "b")
        assert expr == EntryExpr(GlobalId("c", 0))

    def test_local_entry_is_bottom(self):
        src = SUB_WRAP + "subroutine s\ninteger u, b\nb = u\nend\n"
        assert exit_expr_of(src, "s", "b").is_bottom

    def test_real_formal_is_bottom(self):
        src = SUB_WRAP + "subroutine s(x)\nreal x\nreal y\ny = x\nend\n"
        assert exit_expr_of(src, "s", "y").is_bottom


class TestExpressionBuilding:
    def test_constant_folding(self):
        src = SUB_WRAP + "subroutine s(a)\ninteger a, b\nb = 2 * 3 + 4\nend\n"
        assert exit_expr_of(src, "s", "b") == ConstExpr(10)

    def test_polynomial_over_formal(self):
        src = SUB_WRAP + "subroutine s(a)\ninteger a, b\nb = 2 * a + 1\nend\n"
        expr = exit_expr_of(src, "s", "b")
        assert isinstance(expr, OpExpr)
        assert expr.support() == {"a"}

    def test_copy_chain_collapses(self):
        src = SUB_WRAP + (
            "subroutine s(a)\ninteger a, b, c, d\nb = a\nc = b\nd = c\nend\n"
        )
        assert exit_expr_of(src, "s", "d") == EntryExpr("a")

    def test_array_load_is_bottom(self):
        src = SUB_WRAP + (
            "subroutine s(a)\ninteger a, b\ninteger v(5)\nb = v(1)\nend\n"
        )
        assert exit_expr_of(src, "s", "b").is_bottom

    def test_read_is_bottom(self):
        src = SUB_WRAP + "subroutine s(a)\ninteger a, b\nread b\nend\n"
        assert exit_expr_of(src, "s", "b").is_bottom

    def test_intrinsic_folds(self):
        src = SUB_WRAP + "subroutine s(a)\ninteger a, b\nb = mod(7, 3) + max(1, 5)\nend\n"
        assert exit_expr_of(src, "s", "b") == ConstExpr(6)

    def test_real_conversion_is_bottom(self):
        src = SUB_WRAP + "subroutine s(a)\ninteger a, b\nb = 2.5\nend\n"
        assert exit_expr_of(src, "s", "b").is_bottom

    def test_diamond_same_value_merges(self):
        src = SUB_WRAP + (
            "subroutine s(a)\ninteger a, b\n"
            "if (a > 0) then\nb = 5\nelse\nb = 5\nendif\nend\n"
        )
        assert exit_expr_of(src, "s", "b") == ConstExpr(5)

    def test_diamond_different_values_bottom(self):
        src = SUB_WRAP + (
            "subroutine s(a)\ninteger a, b\n"
            "if (a > 0) then\nb = 5\nelse\nb = 6\nendif\nend\n"
        )
        assert exit_expr_of(src, "s", "b").is_bottom

    def test_loop_carried_value_bottom(self):
        src = SUB_WRAP + (
            "subroutine s(a)\ninteger a, b, i\nb = 0\n"
            "do i = 1, a\nb = b + 1\nenddo\nend\n"
        )
        assert exit_expr_of(src, "s", "b").is_bottom

    def test_value_restored_after_branch(self):
        # b = a both with and without the branch taken -> still entry(a)
        src = SUB_WRAP + (
            "subroutine s(a)\ninteger a, b\nb = a\n"
            "if (a > 0) then\nb = a\nendif\nend\n"
        )
        assert exit_expr_of(src, "s", "b") == EntryExpr("a")


class TestCallHandling:
    MODSUB = "subroutine m(x)\ninteger x\nx = 5\nend\n"
    NOMODSUB = "subroutine r(x)\ninteger x\ny = x\nend\n"

    def test_unmodified_var_survives_call(self):
        src = SUB_WRAP + self.NOMODSUB + (
            "subroutine s(a)\ninteger a, b\nb = a\ncall r(b)\nend\n"
        )
        assert exit_expr_of(src, "s", "b") == EntryExpr("a")

    def test_modified_var_killed_without_rjf(self):
        src = SUB_WRAP + self.MODSUB + (
            "subroutine s(a)\ninteger a, b\nb = a\ncall m(b)\nend\n"
        )
        assert exit_expr_of(src, "s", "b").is_bottom

    def test_constant_rjf_applied(self):
        src = SUB_WRAP + self.MODSUB + (
            "subroutine s(a)\ninteger a, b\nb = a\ncall m(b)\nend\n"
        )
        rjf = {"m": {"x": ConstExpr(5)}}
        assert exit_expr_of(src, "s", "b", rjf_table=rjf) == ConstExpr(5)

    def test_rjf_with_nonconstant_support_is_bottom(self):
        # R(x) = entry(x) + 1 but the actual is a formal -> §3.2 limitation
        src = SUB_WRAP + (
            "subroutine inc(x)\ninteger x\nx = x + 1\nend\n"
            "subroutine s(a)\ninteger a\ncall inc(a)\nend\n"
        )
        from repro.core.exprs import make_binary

        rjf = {"inc": {"x": make_binary("+", EntryExpr("x"), ConstExpr(1))}}
        assert exit_expr_of(src, "s", "a", rjf_table=rjf).is_bottom

    def test_rjf_with_constant_argument_evaluates(self):
        src = SUB_WRAP + (
            "subroutine inc(x)\ninteger x\nx = x + 1\nend\n"
            "subroutine s(a)\ninteger a, b\nb = 41\ncall inc(b)\nend\n"
        )
        from repro.core.exprs import make_binary

        rjf = {"inc": {"x": make_binary("+", EntryExpr("x"), ConstExpr(1))}}
        assert exit_expr_of(src, "s", "b", rjf_table=rjf) == ConstExpr(42)

    def test_composed_rjf_keeps_symbolic_form(self):
        src = SUB_WRAP + (
            "subroutine inc(x)\ninteger x\nx = x + 1\nend\n"
            "subroutine s(a)\ninteger a\ncall inc(a)\nend\n"
        )
        from repro.core.exprs import make_binary

        rjf = {"inc": {"x": make_binary("+", EntryExpr("x"), ConstExpr(1))}}
        expr = exit_expr_of(src, "s", "a", rjf_table=rjf, compose=True)
        assert expr.support() == {"a"}
        assert not expr.is_bottom

    def test_function_result_bottom_without_rjf(self):
        src = (
            "program t\nn = f(1)\nend\n"
            "integer function f(x)\ninteger x\nf = 7\nend\n"
        )
        numbering, lowered = numbering_of(src, "t")
        symbol = lowered.procedure("t").procedure.symtab.lookup("n")
        assert numbering.exit_expr(symbol).is_bottom

    def test_function_result_with_rjf(self):
        src = (
            "program t\nn = f(1)\nend\n"
            "integer function f(x)\ninteger x\nf = 7\nend\n"
        )
        rjf = {"f": {RESULT_KEY: ConstExpr(7)}}
        numbering, lowered = numbering_of(src, "t", rjf_table=rjf)
        symbol = lowered.procedure("t").procedure.symtab.lookup("n")
        assert numbering.exit_expr(symbol) == ConstExpr(7)

    def test_no_mod_mode_kills_across_any_call(self):
        src = SUB_WRAP + self.NOMODSUB + (
            "subroutine s(a)\ninteger a, b, c\nb = a\nc = 3\ncall r(b)\nend\n"
        )
        # without MOD, 'c' is not a by-ref actual here... only b is killed;
        # globals and actuals die, c survives as a pure local.
        numbering, lowered = numbering_of(src, "s", use_mod=False)
        symtab = lowered.procedure("s").procedure.symtab
        assert numbering.exit_expr(symtab.lookup("b")).is_bottom
        assert numbering.exit_expr(symtab.lookup("c")) == ConstExpr(3)


class TestArgumentExprs:
    def test_argument_expressions(self):
        src = (
            "program t\ninteger n\nn = 4\ncall s(n, n + 1, 9)\nend\n"
            "subroutine s(a, b, c)\ninteger a, b, c\na = b + c\nend\n"
        )
        numbering, lowered = numbering_of(src, "t")
        call = numbering.ssa.calls[0]
        exprs = [numbering.argument_expr(a) for a in call.args]
        assert exprs == [ConstExpr(4), ConstExpr(5), ConstExpr(9)]

    def test_array_argument_is_bottom(self):
        src = (
            "program t\ninteger v(3)\ncall s(v)\nend\n"
            "subroutine s(w)\ninteger w(3)\nw(1) = 0\nend\n"
        )
        numbering, _ = numbering_of(src, "t")
        call = numbering.ssa.calls[0]
        assert numbering.argument_expr(call.args[0]).is_bottom


class TestEntryKeys:
    def test_entry_key_of_formal(self):
        src = SUB_WRAP + "subroutine s(a)\ninteger a\na = 1\nend\n"
        _, lowered = numbering_of(src, "s")
        symbol = lowered.procedure("s").procedure.symtab.lookup("a")
        assert entry_key_of(symbol) == "a"

    def test_entry_key_of_global(self):
        src = "program t\ncommon /c/ g\ninteger g\ng = 1\nend\n"
        _, lowered = numbering_of(src, "t")
        symbol = lowered.procedure("t").procedure.symtab.lookup("g")
        assert entry_key_of(symbol) == GlobalId("c", 0)

    def test_entry_key_of_local_is_none(self):
        src = "program t\ninteger n\nn = 1\nend\n"
        _, lowered = numbering_of(src, "t")
        symbol = lowered.procedure("t").procedure.symtab.lookup("n")
        assert entry_key_of(symbol) is None
