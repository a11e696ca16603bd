"""Unit tests for the MiniFortran parser (syntax only; no resolution)."""

import pytest

from repro.frontend import astnodes as ast
from repro.frontend.errors import ParseError
from repro.frontend.parser import parse_source


def parse_main_body(body_lines):
    """Wrap statements in a PROGRAM and return the parsed body."""
    source = "program t\n" + "\n".join(body_lines) + "\nend\n"
    unit = parse_source(source)
    return unit.procedures[0].body


def parse_single(stmt_line):
    body = parse_main_body([stmt_line])
    assert len(body) == 1
    return body[0]


class TestProgramUnits:
    def test_program_unit(self):
        unit = parse_source("program main\nx = 1\nend\n")
        assert len(unit.procedures) == 1
        proc = unit.procedures[0]
        assert proc.kind is ast.ProcedureKind.PROGRAM
        assert proc.name == "main"

    def test_subroutine_with_params(self):
        unit = parse_source("subroutine s(a, b)\na = b\nend\n")
        proc = unit.procedures[0]
        assert proc.kind is ast.ProcedureKind.SUBROUTINE
        assert proc.params == ["a", "b"]

    def test_subroutine_without_params(self):
        unit = parse_source("subroutine s\nx = 1\nend\n")
        assert unit.procedures[0].params == []

    def test_subroutine_empty_parens(self):
        unit = parse_source("subroutine s()\nx = 1\nend\n")
        assert unit.procedures[0].params == []

    def test_function_unit(self):
        unit = parse_source("integer function f(x)\nf = x\nend\n")
        proc = unit.procedures[0]
        assert proc.kind is ast.ProcedureKind.FUNCTION
        assert proc.return_type is ast.Type.INTEGER
        assert proc.params == ["x"]

    def test_real_function(self):
        unit = parse_source("real function g(x)\ng = x\nend\n")
        assert unit.procedures[0].return_type is ast.Type.REAL

    def test_multiple_units(self):
        unit = parse_source(
            "program p\ncall s\nend\n\nsubroutine s\nx = 1\nend\n"
        )
        assert [p.name for p in unit.procedures] == ["p", "s"]

    def test_empty_source_rejected(self):
        with pytest.raises(ParseError):
            parse_source("\n\n")

    def test_function_requires_paren_list(self):
        with pytest.raises(ParseError):
            parse_source("integer function f\nf = 1\nend\n")

    def test_unit_span_covers_end(self):
        source = "program p\nx = 1\nend\n"
        unit = parse_source(source)
        assert unit.procedures[0].span.extract(source).startswith("program")


class TestDeclarations:
    def test_integer_decl(self):
        unit = parse_source("program p\ninteger i, j\ni = j\nend\n")
        decl = unit.procedures[0].decls[0]
        assert isinstance(decl, ast.TypeDecl)
        assert decl.type is ast.Type.INTEGER
        assert [d.name for d in decl.declarators] == ["i", "j"]

    def test_array_decl(self):
        unit = parse_source("program p\ninteger a(10, 20)\na(1,1) = 0\nend\n")
        declarator = unit.procedures[0].decls[0].declarators[0]
        assert declarator.is_array
        assert len(declarator.dims) == 2

    def test_dimension_decl(self):
        unit = parse_source("program p\ndimension v(5)\nv(1) = 0\nend\n")
        assert isinstance(unit.procedures[0].decls[0], ast.DimensionDecl)

    def test_dimension_requires_bounds(self):
        with pytest.raises(ParseError):
            parse_source("program p\ndimension v\nend\n")

    def test_common_decl(self):
        unit = parse_source("program p\ncommon /blk/ a, b\na = b\nend\n")
        decl = unit.procedures[0].decls[0]
        assert isinstance(decl, ast.CommonDecl)
        assert decl.block == "blk"
        assert [d.name for d in decl.declarators] == ["a", "b"]

    def test_data_decl(self):
        unit = parse_source("program p\ninteger n\ndata n /17/\nx = n\nend\n")
        decl = unit.procedures[0].decls[1]
        assert isinstance(decl, ast.DataDecl)
        name, lit = decl.pairs[0]
        assert name == "n"
        assert lit.value == 17

    def test_data_decl_negative(self):
        unit = parse_source("program p\ninteger n\ndata n /-3/\nx = n\nend\n")
        assert unit.procedures[0].decls[1].pairs[0][1].value == -3

    def test_parameter_decl(self):
        unit = parse_source("program p\nparameter (k = 4, m = k + 1)\nx = m\nend\n")
        decl = unit.procedures[0].decls[0]
        assert isinstance(decl, ast.ParameterDecl)
        assert [name for name, _ in decl.pairs] == ["k", "m"]

    def test_decls_must_precede_statements(self):
        with pytest.raises(ParseError):
            parse_source("program p\nx = 1\ninteger i\nend\n")


class TestStatements:
    def test_assignment(self):
        stmt = parse_single("x = 1 + 2")
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.target, ast.VarRef)
        assert stmt.target.name == "x"

    def test_array_assignment(self):
        stmt = parse_single("a(i) = 0")
        assert isinstance(stmt.target, ast.ArrayRef)
        assert stmt.target.name == "a"

    def test_labelled_statement(self):
        stmt = parse_single("10 continue")
        assert isinstance(stmt, ast.Continue)
        assert stmt.label == 10

    def test_goto(self):
        stmt = parse_single("goto 10")
        assert isinstance(stmt, ast.Goto)
        assert stmt.target == 10

    def test_return(self):
        assert isinstance(parse_single("return"), ast.ReturnStmt)

    def test_stop(self):
        assert isinstance(parse_single("stop"), ast.StopStmt)

    def test_call_no_args(self):
        stmt = parse_single("call init")
        assert isinstance(stmt, ast.CallStmt)
        assert stmt.name == "init"
        assert stmt.args == []

    def test_call_with_args(self):
        stmt = parse_single("call f(1, x, y + 1)")
        assert len(stmt.args) == 3

    def test_read(self):
        stmt = parse_single("read n, m")
        assert isinstance(stmt, ast.ReadStmt)
        assert [t.name for t in stmt.targets] == ["n", "m"]

    def test_read_array_element(self):
        stmt = parse_single("read a(1)")
        assert isinstance(stmt.targets[0], ast.ArrayRef)

    def test_read_rejects_expression(self):
        with pytest.raises(ParseError):
            parse_single("read 42")

    def test_write(self):
        stmt = parse_single("write x, y + 1, 'msg'")
        assert isinstance(stmt, ast.WriteStmt)
        assert len(stmt.values) == 3

    def test_block_if(self):
        body = parse_main_body(
            ["if (x > 0) then", "y = 1", "else", "y = 2", "endif"]
        )
        stmt = body[0]
        assert isinstance(stmt, ast.IfStmt)
        assert len(stmt.then_body) == 1
        assert len(stmt.else_body) == 1

    def test_block_if_no_else(self):
        body = parse_main_body(["if (x > 0) then", "y = 1", "endif"])
        assert body[0].else_body == []

    def test_elseif_desugars_to_nested_if(self):
        body = parse_main_body(
            [
                "if (x == 1) then",
                "y = 1",
                "elseif (x == 2) then",
                "y = 2",
                "else",
                "y = 3",
                "endif",
            ]
        )
        outer = body[0]
        assert len(outer.else_body) == 1
        inner = outer.else_body[0]
        assert isinstance(inner, ast.IfStmt)
        assert len(inner.then_body) == 1
        assert len(inner.else_body) == 1

    def test_logical_if(self):
        stmt = parse_single("if (x > 0) goto 20")
        assert isinstance(stmt, ast.IfStmt)
        assert isinstance(stmt.then_body[0], ast.Goto)
        assert stmt.else_body == []

    def test_do_loop(self):
        body = parse_main_body(["do i = 1, 10", "s = s + i", "enddo"])
        loop = body[0]
        assert isinstance(loop, ast.DoLoop)
        assert loop.var.name == "i"
        assert loop.step is None
        assert len(loop.body) == 1

    def test_do_loop_with_step(self):
        body = parse_main_body(["do i = 10, 1, -1", "s = s + i", "enddo"])
        assert body[0].step is not None

    def test_do_while(self):
        body = parse_main_body(["do while (x < 10)", "x = x + 1", "enddo"])
        loop = body[0]
        assert isinstance(loop, ast.DoWhile)

    def test_nested_loops(self):
        body = parse_main_body(
            ["do i = 1, 3", "do j = 1, 3", "x = i * j", "enddo", "enddo"]
        )
        outer = body[0]
        inner = outer.body[0]
        assert isinstance(inner, ast.DoLoop)
        assert inner.var.name == "j"

    def test_unclosed_if_rejected(self):
        with pytest.raises(ParseError):
            parse_main_body(["if (x > 0) then", "y = 1"])

    def test_unclosed_do_rejected(self):
        with pytest.raises(ParseError):
            parse_main_body(["do i = 1, 3", "x = i"])


class TestExpressions:
    def expr_of(self, text):
        return parse_single(f"x = {text}").value

    def test_precedence_mul_over_add(self):
        expr = self.expr_of("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_parens(self):
        expr = self.expr_of("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_left_associative_subtraction(self):
        expr = self.expr_of("10 - 3 - 2")
        assert expr.op == "-"
        assert expr.left.op == "-"
        assert expr.right.value == 2

    def test_power_right_associative(self):
        expr = self.expr_of("2 ** 3 ** 2")
        assert expr.op == "**"
        assert expr.right.op == "**"

    def test_power_binds_tighter_than_unary_minus(self):
        expr = self.expr_of("-2 ** 2")
        assert isinstance(expr, ast.UnaryOp)
        assert expr.operand.op == "**"

    def test_unary_minus(self):
        expr = self.expr_of("-x")
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == "-"

    def test_unary_plus_dropped(self):
        expr = self.expr_of("+x")
        assert isinstance(expr, ast.VarRef)

    def test_comparison(self):
        expr = self.expr_of("a .le. b")
        assert expr.op == "<="

    def test_modern_comparison_spelling(self):
        expr = self.expr_of("a /= b")
        assert expr.op == "/="

    def test_logical_precedence(self):
        expr = self.expr_of("a > 1 .and. b > 2 .or. c > 3")
        assert expr.op == ".or."
        assert expr.left.op == ".and."

    def test_not(self):
        expr = self.expr_of(".not. flag")
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == ".not."

    def test_call_like(self):
        expr = self.expr_of("f(1, 2)")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "f"
        assert len(expr.args) == 2

    def test_nested_calls(self):
        expr = self.expr_of("f(g(x), 1)")
        assert isinstance(expr.args[0], ast.FunctionCall)

    def test_logical_literals(self):
        assert self.expr_of(".true.").value is True
        assert self.expr_of(".false.").value is False

    def test_comparison_is_not_chainable(self):
        with pytest.raises(ParseError):
            self.expr_of("a < b < c")

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            self.expr_of("1 +")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            self.expr_of("(1 + 2")


class TestSpans:
    def test_var_ref_span_is_exact(self):
        source = "program p\nresult = alpha + 1\nend\n"
        unit = parse_source(source)
        stmt = unit.procedures[0].body[0]
        assert stmt.target.span.extract(source) == "result"
        assert stmt.value.left.span.extract(source) == "alpha"

    def test_array_index_var_span(self):
        source = "program p\nv(idx) = 0\nend\n"
        unit = parse_source(source)
        stmt = unit.procedures[0].body[0]
        assert stmt.target.indices[0].span.extract(source) == "idx"

    def test_unit_name_span_is_exact(self):
        source = (
            "program main\nend\n"
            "subroutine s\nend\n"
            "logical function flag(x)\nflag = .true.\nend\n"
        )
        unit = parse_source(source)
        assert [p.name_span.extract(source) for p in unit.procedures] == [
            "main", "s", "flag",
        ]
        function = unit.procedures[2]
        assert function.span.extract(source).startswith("logical function")
