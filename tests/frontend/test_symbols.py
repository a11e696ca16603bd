"""Unit tests for name resolution and semantic checks."""

import pytest

from repro.frontend import astnodes as ast
from repro.frontend.errors import SemanticError
from repro.frontend.symbols import GlobalId, SymbolKind, parse_program
from repro.interp import run_program


MINI = """
program main
  integer n
  n = 1
  call s(n)
end

subroutine s(k)
  integer k
  k = k + 1
end
"""


class TestProgramStructure:
    def test_procedures_registered(self):
        prog = parse_program(MINI)
        assert set(prog.procedures) == {"main", "s"}
        assert prog.main == "main"
        assert prog.main_procedure.name == "main"

    def test_missing_program_unit(self):
        with pytest.raises(SemanticError, match="no PROGRAM"):
            parse_program("subroutine s\nx = 1\nend\n")

    def test_duplicate_program_unit(self):
        source = "program a\nx = 1\nend\nprogram b\nx = 1\nend\n"
        with pytest.raises(SemanticError, match="multiple PROGRAM"):
            parse_program(source)

    def test_duplicate_procedure_name(self):
        source = MINI + "\nsubroutine s(j)\nj = 1\nend\n"
        with pytest.raises(SemanticError, match="duplicate procedure"):
            parse_program(source)

    def test_procedure_lookup_unknown(self):
        prog = parse_program(MINI)
        with pytest.raises(SemanticError):
            prog.procedure("nope")

    def test_procedure_shadowing_intrinsic_rejected(self):
        source = "program p\nx = 1\nend\nsubroutine mod(a, b)\na = b\nend\n"
        with pytest.raises(SemanticError, match="intrinsic"):
            parse_program(source)


class TestSymbolKinds:
    def test_formals(self):
        prog = parse_program(MINI)
        sub = prog.procedure("s")
        formal = sub.symtab.lookup("k")
        assert formal.kind is SymbolKind.FORMAL
        assert formal.type is ast.Type.INTEGER
        assert [f.name for f in sub.formals] == ["k"]

    def test_declared_local(self):
        prog = parse_program(MINI)
        main = prog.procedure("main")
        assert main.symtab.lookup("n").kind is SymbolKind.LOCAL

    def test_implicit_integer(self):
        prog = parse_program("program p\nidx = 1\nend\n")
        symbol = prog.procedure("p").symtab.lookup("idx")
        assert symbol.kind is SymbolKind.LOCAL
        assert symbol.type is ast.Type.INTEGER

    def test_implicit_real(self):
        prog = parse_program("program p\nx = 1.0\nend\n")
        assert prog.procedure("p").symtab.lookup("x").type is ast.Type.REAL

    def test_function_result_symbol(self):
        source = MINI + "\ninteger function f(x)\n  integer x\n  f = x\nend\n"
        prog = parse_program(source)
        func = prog.procedure("f")
        result = func.result_symbol
        assert result is not None
        assert result.kind is SymbolKind.RESULT
        assert result.type is ast.Type.INTEGER

    def test_named_constant(self):
        prog = parse_program("program p\nparameter (k = 3 * 4)\nn = k\nend\n")
        symbol = prog.procedure("p").symtab.lookup("k")
        assert symbol.kind is SymbolKind.NAMED_CONST
        assert symbol.const_value == 12

    def test_named_constant_chains(self):
        prog = parse_program(
            "program p\nparameter (a = 2, b = a * a, c = b + 1)\nn = c\nend\n"
        )
        assert prog.procedure("p").symtab.lookup("c").const_value == 5

    def test_named_constant_arithmetic_matches_statements(self):
        # FORTRAN truncates 2 ** (-1) to the INTEGER 0 in PARAMETER and
        # in a statement alike
        source = (
            "program p\n  integer n, m\n  parameter (k = 2 ** (-1) * 4)\n"
            "  n = k\n  m = 2 ** (-1) * 4\n  write n\n  write m\nend\n"
        )
        assert parse_program(source).procedure("p").symtab.lookup("k").const_value == 0
        assert run_program(source).outputs == [0, 0]

    def test_named_constant_division_by_zero_rejected(self):
        with pytest.raises(SemanticError, match="division by zero"):
            parse_program("program p\nparameter (k = 0 ** (-1))\nn = k\nend\n")

    def test_assignment_to_named_constant_rejected(self):
        with pytest.raises(SemanticError, match="named constant"):
            parse_program("program p\nparameter (k = 1)\nk = 2\nend\n")


class TestCommonBlocks:
    COMMON = """
program main
  common /cfg/ nmax, scale
  integer nmax
  real scale
  nmax = 5
  call s
end

subroutine s
  common /cfg/ limit, factor
  integer limit
  real factor
  n = limit
end
"""

    def test_storage_association_by_position(self):
        prog = parse_program(self.COMMON)
        main_sym = prog.procedure("main").symtab.lookup("nmax")
        sub_sym = prog.procedure("s").symtab.lookup("limit")
        assert main_sym.global_id == sub_sym.global_id == GlobalId("cfg", 0)

    def test_global_registry(self):
        prog = parse_program(self.COMMON)
        assert GlobalId("cfg", 0) in prog.globals
        assert GlobalId("cfg", 1) in prog.globals
        assert prog.globals[GlobalId("cfg", 0)].type is ast.Type.INTEGER

    def test_global_display_name(self):
        prog = parse_program(self.COMMON)
        assert prog.global_display(GlobalId("cfg", 0)) == "cfg.nmax"

    def test_conflicting_types_rejected(self):
        source = """
program main
  common /c/ a
  integer a
  a = 1
end
subroutine s
  common /c/ b
  real b
  b = 1.0
end
"""
        with pytest.raises(SemanticError, match="conflicting type"):
            parse_program(source)

    def test_formal_in_common_rejected(self):
        source = "program m\nx=1\nend\nsubroutine s(a)\ncommon /c/ a\na=1\nend\n"
        with pytest.raises(SemanticError, match="COMMON"):
            parse_program(source)

    def test_name_in_two_commons_rejected(self):
        source = "program m\ncommon /a/ x\ncommon /b/ x\nx = 1\nend\n"
        with pytest.raises(SemanticError, match="two COMMON"):
            parse_program(source)

    def test_globals_used(self):
        prog = parse_program(self.COMMON)
        names = {s.name for s in prog.procedure("s").globals_used()}
        assert names == {"limit", "factor"}


class TestDataStatements:
    def test_data_on_common_member(self):
        source = """
program main
  common /c/ n
  integer n
  data n /42/
  m = n
end
"""
        prog = parse_program(source)
        assert prog.globals[GlobalId("c", 0)].data_value == 42

    def test_conflicting_data_values_rejected(self):
        source = """
program main
  common /c/ n
  integer n
  data n /1/
  m = n
end
subroutine s
  common /c/ k
  integer k
  data k /2/
  m = k
end
"""
        with pytest.raises(SemanticError, match="conflicting DATA"):
            parse_program(source)

    def test_data_local_becomes_saved_global(self):
        source = "program p\ninteger n\ndata n /7/\nm = n\nend\n"
        prog = parse_program(source)
        symbol = prog.procedure("p").symtab.lookup("n")
        assert symbol.kind is SymbolKind.GLOBAL
        assert symbol.global_id.block == "save$p"
        assert symbol.data_value == 7

    def test_data_on_formal_rejected(self):
        source = "program m\nx=1\nend\nsubroutine s(a)\ninteger a\ndata a /1/\nend\n"
        with pytest.raises(SemanticError, match="DATA"):
            parse_program(source)


class TestDisambiguation:
    def test_array_vs_call(self):
        source = """
program p
  integer v(10)
  v(1) = f(2)
end
integer function f(x)
  integer x
  f = x
end
"""
        prog = parse_program(source)
        stmt = prog.procedure("p").ast.body[0]
        assert isinstance(stmt.target, ast.ArrayRef)
        assert isinstance(stmt.value, ast.FunctionCall)

    def test_intrinsic_call(self):
        prog = parse_program("program p\nn = mod(7, 3)\nend\n")
        stmt = prog.procedure("p").ast.body[0]
        assert isinstance(stmt.value, ast.FunctionCall)
        assert stmt.value.name == "mod"

    def test_unknown_call_like_rejected(self):
        with pytest.raises(SemanticError, match="neither an array"):
            parse_program("program p\nn = mystery(1)\nend\n")

    def test_subroutine_used_as_function_rejected(self):
        source = "program p\nn = s(1)\nend\nsubroutine s(a)\na = 1\nend\n"
        with pytest.raises(SemanticError, match="not a function"):
            parse_program(source)

    def test_function_called_as_subroutine_rejected(self):
        source = "program p\ncall f(1)\nend\ninteger function f(x)\nf = x\nend\n"
        with pytest.raises(SemanticError, match="not a subroutine"):
            parse_program(source)

    def test_call_to_unknown_subroutine(self):
        with pytest.raises(SemanticError, match="unknown subroutine"):
            parse_program("program p\ncall nope(1)\nend\n")

    def test_intrinsic_arity_checked(self):
        with pytest.raises(SemanticError, match="arguments"):
            parse_program("program p\nn = mod(1)\nend\n")

    def test_array_subscript_count_checked(self):
        with pytest.raises(SemanticError, match="subscripts"):
            parse_program("program p\ninteger a(2, 2)\na(1) = 0\nend\n")

    def test_scalar_with_subscripts_rejected(self):
        with pytest.raises(SemanticError, match="not an array"):
            parse_program("program p\ninteger a\na(1) = 0\nend\n")

    def test_array_without_subscripts_rejected(self):
        with pytest.raises(SemanticError, match="without subscripts"):
            parse_program("program p\ninteger a(5)\nn = a\nend\n")

    def test_procedure_name_as_variable_rejected(self):
        source = "program p\nn = s\nend\nsubroutine s\nx=1\nend\n"
        with pytest.raises(SemanticError, match="used as a variable"):
            parse_program(source)


class TestArities:
    def test_call_arity_mismatch(self):
        source = "program p\ncall s(1)\nend\nsubroutine s(a, b)\na = b\nend\n"
        with pytest.raises(SemanticError, match="expects 2 arguments"):
            parse_program(source)

    def test_function_arity_mismatch(self):
        source = (
            "program p\nn = f(1, 2)\nend\n"
            "integer function f(x)\nf = x\nend\n"
        )
        with pytest.raises(SemanticError, match="expects 1 arguments"):
            parse_program(source)

    def test_nested_call_arity_checked(self):
        source = (
            "program p\ncall s(f(1, 2))\nend\n"
            "subroutine s(a)\na = 1\nend\n"
            "integer function f(x)\nf = x\nend\n"
        )
        with pytest.raises(SemanticError, match="expects 1 arguments"):
            parse_program(source)


class TestDeclarationErrors:
    def test_duplicate_type_decl(self):
        with pytest.raises(SemanticError, match="duplicate type"):
            parse_program("program p\ninteger n\ninteger n\nn = 1\nend\n")

    def test_nonconstant_array_bound(self):
        with pytest.raises(SemanticError, match="not a named constant"):
            parse_program("program p\ninteger a(n)\na(1) = 0\nend\n")

    def test_nonpositive_array_bound(self):
        with pytest.raises(SemanticError, match="positive"):
            parse_program("program p\ninteger a(0)\nend\n")

    def test_parameter_bound_allowed(self):
        prog = parse_program(
            "program p\nparameter (n = 8)\ninteger a(n)\na(1) = 0\nend\n"
        )
        assert prog.procedure("p").symtab.lookup("a").dims == (8,)

    def test_do_over_array_rejected(self):
        with pytest.raises(SemanticError, match="induction"):
            parse_program("program p\ninteger a(3)\ndo a = 1, 3\nenddo\nend\n")


class TestCharacteristics:
    def test_noncomment_lines(self):
        source = "program p\n! comment\n\nx = 1\nend\n"
        prog = parse_program(source)
        assert prog.noncomment_lines() == 3

    def test_characteristics_keys(self):
        prog = parse_program(MINI)
        chars = prog.characteristics()
        assert chars["procedures"] == 2
        assert chars["lines"] > 0
        assert chars["mean_lines_per_proc"] > 0
        assert chars["median_lines_per_proc"] > 0
