"""Resource budgets: solver fuel, the degradation ladder, and the
soundness of degraded results."""

import pytest

from repro import AnalysisConfig, JumpFunctionKind, analyze
from repro.core.driver import Stage0Cache
from repro.interp import run_program
from repro.interp.soundness import check_soundness
from repro.resilience import chaos
from repro.resilience.budgets import SolveBudget
from repro.resilience.chaos import ChaosSpec, Fault
from repro.resilience.errors import BudgetExhaustedError, Stage

#: mutual recursion: the call-graph cycle forces the solver past one
#: monotone pass, so a max_solver_passes=1 budget always exhausts.
RECURSIVE = """
program main
  integer n
  n = 3
  call ping(n, 8)
  write n
end
subroutine ping(a, b)
  integer a, b
  if (a > 0) then
    call pong(a - 1, b)
  endif
  write b
end
subroutine pong(c, d)
  integer c, d
  if (c > 0) then
    call ping(c - 1, d)
  endif
  write d
end
"""


class TestSolveBudget:
    def test_from_config_none_when_uncapped(self):
        assert SolveBudget.from_config(AnalysisConfig()) is None

    def test_check_passes_raises_past_cap(self):
        budget = SolveBudget(max_passes=2)
        budget.check_passes(2)
        with pytest.raises(BudgetExhaustedError) as exc_info:
            budget.check_passes(3)
        assert exc_info.value.counter == "passes"
        assert exc_info.value.limit == 2

    def test_describe_mentions_budgets(self):
        config = AnalysisConfig(max_solver_passes=5, max_meets=100)
        assert "budget[passes=5,meets=100]" in config.describe()


class TestDegradationLadder:
    def test_pathological_workload_exhausts_passes(self):
        baseline = analyze(RECURSIVE, cache=Stage0Cache())
        assert baseline.solved.passes > 1  # the budget below must blow

        result = analyze(
            RECURSIVE,
            AnalysisConfig(
                jump_function=JumpFunctionKind.POLYNOMIAL,
                max_solver_passes=1,
            ),
            cache=Stage0Cache(),
        )
        assert result.degradations  # never silent
        first = result.degradations[0]
        assert first.code == "RL510"
        assert first.from_label == "polynomial"
        assert first.counter == "passes"

    def test_degraded_result_is_sound(self):
        """Satellite: whatever rung (or the floor) the budget forces,
        CONSTANTS claims must still hold on a real execution."""
        result = analyze(
            RECURSIVE,
            AnalysisConfig(max_solver_passes=1),
            cache=Stage0Cache(),
        )
        assert result.degradations
        trace = run_program(RECURSIVE)
        assert check_soundness(result, trace) == []

    def test_floor_reached_when_every_rung_exhausts(self):
        result = analyze(
            RECURSIVE,
            AnalysisConfig(
                jump_function=JumpFunctionKind.POLYNOMIAL, max_meets=0
            ),
            cache=Stage0Cache(),
        )
        codes = [record.code for record in result.degradations]
        assert codes[-1] == "RL512"
        assert result.degradations[-1].to_label == "intraprocedural-baseline"
        # the floor is the Table 3 baseline: bottom everywhere, still a result
        assert result.solved.reached == set(result.solved.val)

    def test_no_degrade_raises(self):
        with pytest.raises(BudgetExhaustedError):
            analyze(
                RECURSIVE,
                AnalysisConfig(max_solver_passes=1, degrade_on_budget=False),
                cache=Stage0Cache(),
            )

    def test_stats_report_lists_degradations(self):
        result = analyze(
            RECURSIVE,
            AnalysisConfig(max_solver_passes=1),
            cache=Stage0Cache(),
        )
        report = result.stats_report()
        assert "resilience:" in report
        assert "RL510" in report

    def test_unbudgeted_run_records_nothing(self):
        result = analyze(RECURSIVE, cache=Stage0Cache())
        assert result.degradations == ()


class TestSparseDenseFallback:
    def test_sparse_crash_falls_back_to_dense(self):
        clean = analyze(RECURSIVE, cache=Stage0Cache())
        spec = ChaosSpec(
            faults=(
                Fault(stage=Stage.SOLVE, kind="crash", scope="sparse"),
            )
        )
        chaos.install(spec, label="recursive")
        try:
            result = analyze(RECURSIVE, cache=Stage0Cache())
        finally:
            chaos.uninstall()
        codes = [record.code for record in result.degradations]
        assert codes == ["RL511"]
        # the dense reference solver computes the same fixpoint
        assert result.solved.val == clean.solved.val
        assert result.constants_found == clean.constants_found
