"""One positive and one negative case for every shipped checker.

Positives the front end cannot produce (the resolver rejects bad arity,
the builder never emits malformed jump-function tables) are staged by
mutating the analysis result before running the pass — exactly the
programmatically-built inputs those passes guard against.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.core.builder import binding_edge
from repro.core.exprs import ValueExpr, const_expr, entry_expr
from repro.core.lattice import BOTTOM, is_constant
from repro.diagnostics import LintContext, run_passes

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

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


def lint(source, pass_name):
    return run_passes(source, select=[pass_name])


def private_ctx(source):
    """A LintContext safe to mutate: bypasses the shared stage-0 cache
    (mutating a cached lowered program would poison every later analyze
    of the same source text)."""
    from repro.core.driver import analyze

    return LintContext(result=analyze(source, cache=None))


def codes(report):
    return [d.code for d in report.diagnostics]


class TestIRWellFormed:
    def test_clean_program(self):
        assert lint(CLEAN, "ir-wellformed").diagnostics == []

    def test_broken_cfg_reported(self):
        ctx = private_ctx(CLEAN)
        cfg = ctx.lowered.procedures["s"].cfg
        cfg.blocks[cfg.exit_id].instrs = []
        report = run_passes(ctx, select=["ir-wellformed"])
        assert "RL001" in codes(report)
        assert all(d.severity.value == "error" for d in report.diagnostics)


class TestCallBinding:
    def test_clean_program(self):
        assert lint(CLEAN, "call-binding").diagnostics == []

    def test_byref_type_mismatch(self):
        source = """
program main
  logical flag
  flag = .true.
  call s(flag)
end
subroutine s(a)
  integer a
  a = 1
end
"""
        report = lint(source, "call-binding")
        assert codes(report) == ["RL104"]

    def test_byvalue_logical_conversion_is_error(self):
        source = """
program main
  call s(.true.)
end
subroutine s(a)
  integer a
  a = 1
end
"""
        report = lint(source, "call-binding")
        assert codes(report) == ["RL105"]
        assert report.has_errors

    def test_shape_mismatch_on_mutated_call(self):
        # the front end rejects shape mismatches in parsed programs
        # (lower's _check_argument_shapes), so stage one by mutation
        from repro.ir.instructions import ArgumentKind

        ctx = private_ctx(CLEAN)
        (site_id,) = ctx.lowered.call_sites
        _, call = ctx.lowered.call_sites[site_id]
        call.args[0].kind = ArgumentKind.ARRAY
        report = run_passes(ctx, select=["call-binding"])
        assert codes(report) == ["RL103"]

    def test_arity_mismatch_on_mutated_call(self):
        ctx = private_ctx(CLEAN)
        (site_id,) = ctx.lowered.call_sites
        _, call = ctx.lowered.call_sites[site_id]
        call.args.pop()
        report = run_passes(ctx, select=["call-binding"])
        assert codes(report) == ["RL102"]

    def test_unknown_callee_on_mutated_call(self):
        ctx = private_ctx(CLEAN)
        (site_id,) = ctx.lowered.call_sites
        _, call = ctx.lowered.call_sites[site_id]
        call.callee = "phantom"
        report = run_passes(ctx, select=["call-binding"])
        assert codes(report) == ["RL101"]


class TestParamAliasing:
    def test_clean_program(self):
        assert lint(CLEAN, "param-aliasing").diagnostics == []

    def test_same_actual_twice_with_mod(self):
        source = """
program main
  integer n
  n = 1
  call swap(n, n)
end
subroutine swap(a, b)
  integer a, b, t
  t = a
  a = b
  b = t
end
"""
        report = lint(source, "param-aliasing")
        assert codes(report) == ["RL111"]

    def test_same_actual_twice_readonly_ok(self):
        source = """
program main
  integer n
  n = 1
  call look(n, n)
end
subroutine look(a, b)
  integer a, b
  write a + b
end
"""
        assert lint(source, "param-aliasing").diagnostics == []

    def test_global_passed_and_touched_via_common(self):
        source = """
program main
  common /c/ g
  integer g
  g = 1
  call s(g)
end
subroutine s(a)
  integer a
  common /c/ h
  integer h
  a = h + 1
end
"""
        report = lint(source, "param-aliasing")
        assert codes(report) == ["RL112"]

    def test_global_passed_but_callee_ignores_common(self):
        source = """
program main
  common /c/ g
  integer g
  g = 1
  call s(g)
  write g
end
subroutine s(a)
  integer a
  a = a + 1
end
"""
        assert lint(source, "param-aliasing").diagnostics == []


class TestDeadFormal:
    def test_used_formals_clean(self):
        assert lint(CLEAN, "dead-formal").diagnostics == []

    def test_never_referenced_formal(self):
        source = """
program main
  integer n, m
  n = 1
  m = 2
  call s(n, m)
end
subroutine s(a, pad)
  integer a, pad
  a = a + 1
end
"""
        report = lint(source, "dead-formal")
        assert codes(report) == ["RL121"]
        assert "pad" in report.diagnostics[0].message


class TestUnreferencedGlobal:
    def test_used_global_clean(self):
        source = """
program main
  common /c/ g
  integer g
  g = 1
  write g
end
"""
        assert lint(source, "unreferenced-global").diagnostics == []

    def test_untouched_common_member(self):
        source = """
program main
  common /c/ g, spare
  integer g, spare
  g = 1
  write g
end
"""
        report = lint(source, "unreferenced-global")
        assert codes(report) == ["RL122"]
        assert "spare" in report.diagnostics[0].message


class TestUnreachableProcedure:
    def test_all_reachable_clean(self):
        assert lint(CLEAN, "unreachable-procedure").diagnostics == []

    def test_never_called_procedure(self):
        source = CLEAN + """
subroutine lonely(q)
  integer q
  q = q + 1
end
"""
        report = lint(source, "unreachable-procedure")
        assert codes(report) == ["RL123"]
        assert report.diagnostics[0].procedure == "lonely"


class _ConstWithSupport(ValueExpr):
    """A malformed expression: claims constancy yet reads the environment.

    The smart constructors can never build this (folding strips support),
    which is exactly why the verifier has to check for it.
    """

    def support(self):
        return frozenset({"a"})

    def support_order(self):
        return ("a",)

    def evaluate(self, env):
        return 3

    @property
    def is_constant(self):
        return True


class TestJumpFunctionWF:
    def test_builder_output_clean(self):
        assert lint(CLEAN, "jump-function-wf").diagnostics == []

    @pytest.fixture
    def ctx(self):
        return private_ctx(CLEAN)

    def _site(self, ctx):
        (site_id,) = ctx.forward.sites
        return site_id, ctx.forward.sites[site_id]

    def _bind(self, ctx, key, expr):
        # a hand-built binding at the one site: main calls s
        site_id, site = self._site(ctx)
        site[key] = binding_edge(site_id, "main", "s", key, expr)

    def test_unknown_procedure(self, ctx):
        site_id, site = self._site(ctx)
        ctx.forward.sites[site_id] = {
            key: dataclasses.replace(edge, callee="phantom")
            for key, edge in site.items()
        }
        report = run_passes(ctx, select=["jump-function-wf"])
        assert "RL201" in codes(report)

    def test_unknown_entry_key(self, ctx):
        self._bind(ctx, "zz", const_expr(1))
        report = run_passes(ctx, select=["jump-function-wf"])
        assert "RL202" in codes(report)

    def test_support_outside_caller(self, ctx):
        self._bind(ctx, "a", entry_expr("ghost"))
        report = run_passes(ctx, select=["jump-function-wf"])
        assert "RL203" in codes(report)

    def test_constant_with_residual_support(self, ctx):
        self._bind(ctx, "a", _ConstWithSupport())
        report = run_passes(ctx, select=["jump-function-wf"])
        assert "RL204" in codes(report)


class TestLatticeSanitizerPass:
    def test_clean_program_no_findings(self):
        report = lint(CLEAN, "lattice-sanitizer")
        assert report.diagnostics == []
        assert report.passes_run == ["lattice-sanitizer"]

    def test_checks_the_production_region_schedule(self, monkeypatch):
        # a region schedule that drops one constant to ⊥ after it
        # converges must be caught: the pass cross-checks the schedule
        # every real solve runs, not a debug-only one
        from repro.core.driver import analyze
        from repro.framework import engine

        ctx = LintContext(
            result=analyze((EXAMPLES / "pipeline.f").read_text())
        )
        converge = engine.drive_region_schedule

        def corrupted(sparse, schedule, worklist, result, **kwargs):
            converge(sparse, schedule, worklist, result, **kwargs)
            proc, key = next(
                (proc, key)
                for proc, env in result.val.items()
                for key, value in env.items()
                if is_constant(value)
            )
            result.val[proc][key] = BOTTOM

        monkeypatch.setattr(engine, "drive_region_schedule", corrupted)
        report = run_passes(ctx, select=["lattice-sanitizer"])
        assert codes(report) == ["RL304"]
