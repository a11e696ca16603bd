"""Unit tests for substitution counting and source transformation."""

import pytest

from repro import AnalysisConfig, JumpFunctionKind, analyze
from repro.core.substitute import format_constant, transform_source
from repro.frontend import parse_program


SOURCE = """
program main
  integer n
  n = 3
  call s(n)
  call unused_never
end
subroutine s(a)
  integer a, b
  b = a * a + a
  write b
end
subroutine unused_never
  write 0
end
"""


class TestCounting:
    def test_pairs_vs_references(self):
        result = analyze(SOURCE)
        subs = result.substitutions
        s_report = subs.per_procedure["s"]
        # 'a' has three references in s, all constant
        assert s_report.reference_count >= 3
        assert any(sym.name == "a" for sym in s_report.substituted_symbols)

    def test_pair_counted_once_per_symbol(self):
        result = analyze(SOURCE)
        s_report = result.substitutions.per_procedure["s"]
        names = [sym.name for sym in s_report.substituted_symbols]
        assert len(names) == len(set(names))

    def test_interprocedural_subset(self):
        result = analyze(SOURCE)
        subs = result.substitutions
        assert subs.interprocedural_pairs <= subs.pairs
        assert subs.interprocedural_references <= subs.references

    def test_entry_reference_classified(self):
        result = analyze(SOURCE)
        s_report = result.substitutions.per_procedure["s"]
        assert any(sym.name == "a" for sym in s_report.entry_symbols)

    def test_unreached_procedure_not_counted(self):
        orphan_source = SOURCE + (
            "subroutine orphan(q)\ninteger q\nwrite q\nend\n"
        )
        result = analyze(orphan_source)
        assert "orphan" not in result.solved.reached
        assert "orphan" not in result.substitutions.per_procedure

    def test_defs_not_counted_as_references(self):
        source = """
program main
  call s(3)
end
subroutine s(a)
  integer a, b
  b = 1
  write b
end
"""
        result = analyze(source)
        s_report = result.substitutions.per_procedure["s"]
        # 'a' is constant but never *referenced*; 'b' is referenced once
        assert all(sym.name != "a" for sym in s_report.substituted_symbols)
        assert any(sym.name == "b" for sym in s_report.substituted_symbols)

    def test_dead_branch_references_not_counted(self):
        source = """
program main
  integer n
  n = 0
  if (n /= 0) then
    write n
  endif
  write 1
end
"""
        result = analyze(source)
        report = result.substitutions.per_procedure["main"]
        # n's only non-branch use sits in an unexecutable block; the
        # condition use itself still counts
        assert report.reference_count == 1


class TestKnownVsRelevant:
    """Metzger–Stroud's distinction, quantified (paper §4.1)."""

    def test_irrelevant_constants_excluded_from_headline(self):
        source = """
program main
  common /c/ g
  integer g
  g = 7
  call uses_it
  call ignores_it(1)
end
subroutine uses_it
  common /c/ h
  integer h
  write h
end
subroutine ignores_it(a)
  integer a
  write a
end
"""
        result = analyze(source)
        subs = result.substitutions
        # 'ignores_it' knows g = 7 but never references it
        ignores = subs.per_procedure["ignores_it"]
        assert any(str(key) == "/c/[0]" for key in ignores.irrelevant_keys)
        assert subs.known_constants > subs.interprocedural_pairs
        assert subs.irrelevant_constants >= 1

    def test_counts_are_consistent(self):
        from repro.workloads import load

        result = analyze(load("mdg", scale=0.4).source)
        subs = result.substitutions
        for proc_subs in subs.per_procedure.values():
            assert len(proc_subs.irrelevant_keys) <= proc_subs.known_constants
        assert subs.irrelevant_constants <= subs.known_constants


class TestTransformedSource:
    def test_replaces_all_constant_refs(self):
        result = analyze(SOURCE)
        transformed = result.transformed_source()
        assert "b = 3 * 3 + 3" in transformed

    def test_output_reparses(self):
        result = analyze(SOURCE)
        parse_program(result.transformed_source())

    def test_transform_source_helper_ordering(self):
        # replacements applied right-to-left must not corrupt offsets
        result = analyze(SOURCE)
        transformed = transform_source(SOURCE, result.substitutions)
        assert transformed == result.transformed_source()

    def test_logical_constant_spelling(self):
        assert format_constant(True) == ".true."
        assert format_constant(False) == ".false."
        assert format_constant(42) == "42"
        assert format_constant(-1) == "-1"

    def test_logical_substitution_in_source(self):
        source = """
program main
  logical flag
  flag = .true.
  call s(flag)
end
subroutine s(f)
  logical f
  if (f) then
    write 1
  endif
end
"""
        result = analyze(source)
        transformed = result.transformed_source()
        assert "if (.true.)" in transformed

    def test_idempotent_on_no_constants(self):
        source = "program main\nread n\nwrite n\nend\n"
        result = analyze(source)
        assert result.transformed_source() == source

    def test_do_header_never_substituted(self):
        # The inner loop redefines i1, so SCCP proves the outer loop's
        # increment reads i1 = 1; the header is not a reference to it.
        source = """
program main
  integer i1, n1
  do i1 = 1, 1
    do i1 = 1, 0
      n1 = 0
    enddo
  enddo
end
"""
        result = analyze(source)
        assert result.transformed_source() == source
