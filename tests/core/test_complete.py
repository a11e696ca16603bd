"""Unit tests for the complete-propagation loop."""

import pytest

from repro import AnalysisConfig, JumpFunctionKind, analyze
from repro.core import complete
from repro.core.driver import Stage0Cache
from repro.frontend.symbols import GlobalId
from repro.interp import run_program


def complete_config(**kwargs):
    return AnalysisConfig(
        jump_function=JumpFunctionKind.POLYNOMIAL, complete=True, **kwargs
    )


class TestRounds:
    def test_clean_program_single_round(self):
        # the first round finds no dead code, so the loop stops there.
        result = analyze("program m\nn = 1\nwrite n\nend\n", complete_config())
        assert result.complete_stats.rounds == 1
        assert result.complete_stats.dce_rounds_with_changes == 0

    def test_round_cap_respected(self, monkeypatch):
        monkeypatch.setattr(complete, "MAX_COMPLETE_ROUNDS", 1)
        result = analyze(
            "program m\nn = 1\nwrite n\nend\n", complete_config()
        )
        assert result.complete_stats.rounds <= 2

    def test_per_round_stats_recorded(self):
        source = """
program m
  n = 0
  if (n /= 0) then
    write 99
  endif
  write n
end
"""
        result = analyze(source, complete_config())
        stats = result.complete_stats
        assert stats.folded_branches >= 1
        assert stats.removed_blocks >= 1
        assert len(stats.per_round) >= 1
        assert "m" in stats.per_round[0]


class TestCascades:
    def test_two_level_dead_code_cascade(self):
        """Killing one branch makes a second branch's condition constant —
        the 'exposes additional constants' chain of §4.2."""
        source = """
program m
  integer mode, level
  mode = 0
  level = 1
  if (mode /= 0) then
    level = 2
  endif
  if (level == 1) then
    call leaf(7)
  else
    call leaf(8)
  endif
end
subroutine leaf(k)
  integer k
  write k
end
"""
        plain = analyze(source)
        complete = analyze(source, complete_config())
        assert "k" not in plain.constants("leaf")
        assert complete.constants("leaf") == {"k": 7}

    def test_transformed_program_semantics_unchanged(self):
        """DCE only removes code the constants prove dead, so the original
        execution outputs must be reproducible."""
        source = """
program m
  integer flag
  flag = 0
  if (flag /= 0) then
    write 111
  endif
  write 5
end
"""
        trace = run_program(source)
        result = analyze(source, complete_config())
        assert trace.outputs == [5]
        # the dead write is gone from the analyzed IR
        from repro.ir.instructions import WriteOut

        main_cfg = result.lowered.procedure("m").cfg
        writes = [
            i for _, i in main_cfg.instructions() if isinstance(i, WriteOut)
        ]
        # the folded branch's 'write 111' must not survive
        assert len(writes) == 1
        from repro.ir.instructions import Const

        assert writes[0].values == [Const(5, type=writes[0].values[0].type)]

    def test_complete_with_no_mod(self):
        source = """
program m
  n = 0
  if (n /= 0) then
    write 1
  endif
  write 2
end
"""
        result = analyze(source, complete_config(use_mod=False))
        assert result.complete_stats.folded_branches >= 1


class TestCallSiteRefresh:
    def test_removed_call_leaves_solver_consistent(self):
        source = """
program m
  integer off
  off = 0
  if (off /= 0) then
    call leaf(1)
  endif
  call leaf(2)
  call leaf(2)
end
subroutine leaf(k)
  integer k
  write k
end
"""
        result = analyze(source, complete_config())
        assert result.constants("leaf") == {"k": 2}
        # the dead site is gone from the call-site table
        callees = [c.callee for _, c in result.lowered.call_sites.values()]
        assert callees.count("leaf") == 2


class TestRewrittenUnits:
    def test_rewrite_takes_calls_and_effects_from_its_cfg(self):
        # f is 1 at a's only call, so DCE folds a's branch and drops the
        # store to g and the call to b with its dead arm
        source = """
program main
  common /cg/ g
  integer g
  g = 0
  call a(1)
  write g
end
subroutine a(f)
  integer f
  common /cg/ g
  integer g
  if (f == 1) then
    write f
  else
    g = 5
    call b(f)
  endif
end
subroutine b(x)
  integer x
  write x
end
"""
        cache = Stage0Cache()
        original = cache.get(source).lowered.procedures["a"]
        assert [call.callee for call in original.call_instrs] == ["b"]
        assert original.effects.mod_globals == {GlobalId("cg", 0)}
        result = analyze(source, complete_config(), cache=cache)
        rewritten = result.lowered.procedures["a"]
        assert rewritten is not original
        assert rewritten.call_instrs == ()
        assert rewritten.effects.mod_globals == frozenset()
        assert result.modref.mod_globals["a"] == frozenset()
        assert result.modref.ref_formals["a"] == {"f"}
        assert result.call_graph.callees("a") == ()
        # the rewritten CFG still names its original's symbols
        assert rewritten.symbols is original.symbols
        assert rewritten.variables is original.variables


class TestDeadStores:
    def test_store_a_callee_reads_survives(self):
        # s reads g through COMMON, so the g = 0 before call s(0) is live
        # even though main never reads g again itself.
        source = """
program p
  common /cg/ g
  integer g
  g = 1
  call s(g)
  g = 0
  call s(0)
  g = 0
end

subroutine s(a)
  integer a
  common /cg/ g
  integer g
  write g
end
"""
        result = analyze(source, complete_config())
        assert result.constants("s") == {}
        assert run_program(source).outputs == [1, 0]
        assert run_program(result.transformed_source()).outputs == [1, 0]
