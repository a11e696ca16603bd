"""Tests for the diagnostics framework: report type, registry, driver."""

import pytest

from repro.diagnostics import (
    Diagnostic,
    LintContext,
    LintPass,
    LintReport,
    Registry,
    Severity,
    default_registry,
    run_passes,
)
from repro.frontend.source import LineTable, SourceSpan

CLEAN = """
program main
  integer n
  n = 1
  call s(n)
  write n
end
subroutine s(a)
  integer a
  a = a + 1
end
"""


LINE = LineTable("program main\n")


def span_at(offset):
    """An empty span at ``offset`` on the first line of a real source."""
    return SourceSpan(offset, offset, LINE)


class TestSeverity:
    def test_rank_order(self):
        assert Severity.INFO.rank < Severity.WARNING.rank < Severity.ERROR.rank

    def test_str_is_value(self):
        assert str(Severity.ERROR) == "error"


class TestDiagnostic:
    def test_sort_orders_by_path_then_offset(self):
        a = Diagnostic("RL9", Severity.INFO, "m", span=span_at(5), path="b.f")
        b = Diagnostic("RL9", Severity.INFO, "m", span=span_at(1), path="b.f")
        c = Diagnostic("RL9", Severity.INFO, "m", span=span_at(9), path="a.f")
        assert sorted([a, b, c], key=Diagnostic.sort_key) == [c, b, a]

    def test_spanless_sorts_first_within_path(self):
        with_span = Diagnostic("RL9", Severity.INFO, "m", span=span_at(0))
        spanless = Diagnostic("RL9", Severity.INFO, "m")
        ordered = sorted([with_span, spanless], key=Diagnostic.sort_key)
        assert ordered[0] is spanless

    def test_format_text_includes_location_and_code(self):
        diag = Diagnostic(
            "RL101", Severity.ERROR, "boom", pass_name="p",
            span=span_at(3), path="x.f",
        )
        assert diag.format_text() == "x.f:1:4: error RL101 [p] boom"

    def test_to_dict_omits_absent_fields(self):
        diag = Diagnostic("RL1", Severity.WARNING, "m", pass_name="p")
        payload = diag.to_dict()
        assert "line" not in payload and "path" not in payload
        assert payload["severity"] == "warning"


class TestRegistry:
    def test_duplicate_name_rejected(self):
        class P(LintPass):
            name = "p"

        registry = Registry()
        registry.register(P())
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(P())

    def test_unknown_name_lists_available(self):
        registry = Registry()

        class P(LintPass):
            name = "only"

        registry.register(P())
        with pytest.raises(KeyError, match="only"):
            registry.get("nope")

    def test_default_passes_exclude_opt_in(self):
        registry = default_registry()
        defaults = {p.name for p in registry.default_passes()}
        assert "lattice-sanitizer" in registry.names()
        assert "lattice-sanitizer" not in defaults


class TestLintReport:
    def test_sorted_dedups(self):
        diag = Diagnostic("RL1", Severity.INFO, "m")
        report = LintReport(diagnostics=[diag, diag]).sorted()
        assert len(report.diagnostics) == 1

    def test_has_errors_and_max_severity(self):
        report = LintReport(diagnostics=[
            Diagnostic("RL1", Severity.WARNING, "w"),
            Diagnostic("RL2", Severity.ERROR, "e"),
        ])
        assert report.has_errors
        assert report.max_severity() is Severity.ERROR
        assert report.counts() == {"error": 1, "warning": 1, "info": 0}

    def test_merged_unions_passes_run(self):
        a = LintReport(passes_run=["x", "y"])
        b = LintReport(passes_run=["y", "z"])
        assert LintReport.merged([a, b]).passes_run == ["x", "y", "z"]


class TestRunPasses:
    def test_select_runs_exactly_named(self):
        report = run_passes(CLEAN, select=["dead-formal"])
        assert report.passes_run == ["dead-formal"]

    def test_enable_appends_opt_in(self):
        report = run_passes(CLEAN, enable=["lattice-sanitizer"])
        assert "lattice-sanitizer" in report.passes_run
        assert "call-binding" in report.passes_run

    def test_unknown_select_raises(self):
        with pytest.raises(KeyError):
            run_passes(CLEAN, select=["no-such-pass"])

    def test_path_stamped_onto_diagnostics(self):
        source = CLEAN + "\nsubroutine lonely\n  integer q\n  q = 1\nend\n"
        report = run_passes(source, path="prog.f")
        assert report.diagnostics
        assert all(d.path == "prog.f" for d in report.diagnostics)

    def test_deterministic_across_runs(self):
        source = CLEAN + "\nsubroutine lonely\n  integer q\n  q = 1\nend\n"
        first = run_passes(source, path="p.f")
        second = run_passes(source, path="p.f")
        assert first.diagnostics == second.diagnostics

    def test_accepts_prebuilt_context(self):
        ctx = LintContext.from_source(CLEAN)
        report = run_passes(ctx, path="ctx.f")
        assert report.passes_run  # ran over the existing analysis
        assert ctx.path == "ctx.f"

    def test_clean_program_has_no_findings(self):
        assert run_passes(CLEAN).diagnostics == []
