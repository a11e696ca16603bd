"""Tests for goal-directed procedure cloning (§5 extension)."""

import re

import pytest

from repro import AnalysisConfig, JumpFunctionKind
from repro.core.cloning import (
    apply_clones,
    clone_and_reanalyze,
    plan_clone_groups,
)
from repro.interp import run_program
from repro.workloads import load, suite_names

CONFLICT = """
program main
  call kernel(8)
  call kernel(16)
  call kernel(16)
  call other(3)
end
subroutine kernel(n)
  integer n, i, acc
  acc = 0
  do i = 1, n
    acc = acc + i
  enddo
  write acc
end
subroutine other(j)
  integer j
  write j
end
"""


class TestPlanning:
    def test_conflicting_sites_grouped(self):
        report = clone_and_reanalyze(CONFLICT)
        kernel_groups = [g for g in report.groups if g.callee == "kernel"]
        assert len(kernel_groups) == 2
        vectors = {g.vector for g in kernel_groups}
        assert vectors == {(("n", 8),), (("n", 16),)}

    def test_single_site_procedure_not_cloned(self):
        report = clone_and_reanalyze(CONFLICT)
        assert all(g.callee != "other" for g in report.groups)

    def test_agreeing_sites_not_cloned(self):
        source = """
program main
  call s(5)
  call s(5)
end
subroutine s(a)
  integer a
  write a
end
"""
        report = clone_and_reanalyze(source)
        assert report.clones_created == 0
        assert report.cloned is None

    def test_clone_budget_respected(self):
        source = "program main\n" + "\n".join(
            f"  call s({c})" for c in (1, 2, 3, 4, 5, 6)
        ) + "\nend\nsubroutine s(a)\ninteger a\nwrite a\nend\n"
        report = clone_and_reanalyze(source, max_clones_per_procedure=2)
        assert report.clones_created == 2

    def test_main_never_cloned(self):
        report = clone_and_reanalyze(CONFLICT)
        assert all(g.callee != "main" for g in report.groups)


class TestTransformation:
    def test_recovers_conflicting_constants(self):
        report = clone_and_reanalyze(CONFLICT)
        assert report.constants_recovered >= 2
        assert report.cloned.constants("kernel")["n"] == 8
        assert report.cloned.constants("kernel_c1")["n"] == 16

    def test_transformed_source_parses(self):
        from repro.frontend import parse_program

        report = clone_and_reanalyze(CONFLICT)
        program = parse_program(report.transformed_source)
        assert "kernel_c1" in program.procedures

    def test_semantics_preserved(self):
        report = clone_and_reanalyze(CONFLICT)
        original_trace = run_program(CONFLICT)
        cloned_trace = run_program(report.transformed_source)
        assert original_trace.outputs == cloned_trace.outputs

    def test_code_growth_reported(self):
        report = clone_and_reanalyze(CONFLICT)
        assert report.code_growth > 1.0

    def test_apply_clones_idempotent_without_groups(self):
        from repro import analyze

        result = analyze(CONFLICT)
        assert apply_clones(result, []) == CONFLICT


def clone_text(report, clone_name: str) -> str:
    """The appended clone unit named ``clone_name``, header to ``end``."""
    unit = rf"^[^\n]*(?:subroutine|function) {clone_name}\(.*?\nend"
    return re.search(unit, report.transformed_source, re.M | re.S).group()


#: f's result variable is declared, read by READ, used in an expression,
#: passed as an actual and assigned; f(1) and f(2) conflict on n.
FUNCTION_CONFLICT = """
program main
  integer a, b
  a = f(1)
  b = f(2)
  write a, b
end
integer function f(n)
  integer n
  integer f
  read f
  f = f + n * 10
  call bump(f)
  f = f + 1
end
subroutine bump(k)
  integer k
  k = k + 100
end
"""

#: inside f, /f/ names a COMMON block and f(n - 2) a recursive call.
RECURSIVE_FUNCTION = """
program main
  integer a, b
  common /f/ calls
  integer calls
  calls = 0
  a = f(1)
  b = f(3)
  write a, b, calls
end
integer function f(n)
  integer n
  common /f/ g
  integer g
  g = g + 1
  f = n * 2
  if (n > 2) then
    f = f + f(n - 2)
  endif
end
"""


class TestCloneText:
    """A clone is its callee's own text with the unit's name respelled."""

    def test_function_clone_renames_its_result_variable(self):
        report = clone_and_reanalyze(FUNCTION_CONFLICT)
        assert report.clones_created == 1
        assert clone_text(report, "f_c1") == (
            "integer function f_c1(n)\n"
            "  integer n\n"
            "  integer f_c1\n"
            "  read f_c1\n"
            "  f_c1 = f_c1 + n * 10\n"
            "  call bump(f_c1)\n"
            "  f_c1 = f_c1 + 1\n"
            "end"
        )
        assert report.cloned.constants("f_c1")["n"] == 2
        inputs = [5, 6]
        assert (
            run_program(report.transformed_source, inputs=inputs).outputs
            == run_program(FUNCTION_CONFLICT, inputs=inputs).outputs
        )

    def test_common_block_and_recursive_call_keep_their_text(self):
        report = clone_and_reanalyze(RECURSIVE_FUNCTION)
        assert report.clones_created == 1
        clone = clone_text(report, "f_c1")
        assert "  common /f/ g\n" in clone
        assert "  f_c1 = f_c1 + f(n - 2)\n" in clone
        assert (
            run_program(report.transformed_source).outputs
            == run_program(RECURSIVE_FUNCTION).outputs
        )

    def test_comment_in_cloned_unit_survives(self):
        source = CONFLICT.replace(
            "  acc = 0\n", "  ! running sum of 1..n\n  acc = 0\n"
        )
        report = clone_and_reanalyze(source)
        assert "  ! running sum of 1..n\n" in clone_text(report, "kernel_c1")
        assert report.transformed_source.count("! running sum") == 2


class TestOnWorkloads:
    @pytest.mark.parametrize("name", ["adm", "spec77", "qcd"])
    def test_cloning_never_loses_constants(self, name):
        workload = load(name, scale=0.3)
        report = clone_and_reanalyze(workload.source)
        assert report.constants_after >= report.constants_before

    def test_conflicting_sites_idiom_recovered(self):
        # every workload contains deliberately conflicting call sites;
        # cloning must recover at least some of them somewhere
        recovered_total = 0
        for name in ("adm", "doduc", "spec77"):
            workload = load(name, scale=0.3)
            report = clone_and_reanalyze(workload.source)
            recovered_total += report.constants_recovered
        assert recovered_total > 0

    def test_semantics_preserved_on_workload(self):
        workload = load("mdg", scale=0.4)
        report = clone_and_reanalyze(workload.source)
        if report.cloned is None:
            pytest.skip("no clones planned at this scale")
        original = run_program(workload.source, inputs=workload.inputs)
        cloned = run_program(report.transformed_source, inputs=workload.inputs)
        assert original.outputs == cloned.outputs
