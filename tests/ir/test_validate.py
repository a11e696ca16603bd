"""Tests for the IR validator — and validator-backed pipeline checks."""

import pytest

from repro.analysis.dce import eliminate_dead_code
from repro.analysis.ssa import build_ssa
from repro.analysis.valuenum import value_number
from repro.callgraph import build_call_graph, compute_modref, make_call_effects
from repro.frontend import parse_program
from repro.ir import lower_program
from repro.ir.cfg import ControlFlowGraph
from repro.ir.instructions import Copy, Jump, Return, Temp, int_const
from repro.ir.validate import (
    IRValidationError,
    collect_problems,
    validate_cfg,
    validate_program,
)
from repro.workloads import load, suite_names


def make_minimal():
    cfg = ControlFlowGraph()
    entry = cfg.new_block()
    cfg.entry_id = entry.id
    exit_block = cfg.new_block()
    exit_block.append(Return())
    cfg.exit_id = exit_block.id
    entry.append(Jump(exit_block.id))
    cfg.refresh()
    return cfg, entry, exit_block


class TestValidator:
    def test_minimal_cfg_valid(self):
        cfg, *_ = make_minimal()
        validate_cfg(cfg)

    def test_unterminated_block_detected(self):
        cfg, entry, _ = make_minimal()
        entry.instrs = [Copy(src=int_const(1), result=Temp(0))]
        assert any("not terminated" in p for p in collect_problems(cfg))

    def test_branch_to_missing_block(self):
        cfg, entry, _ = make_minimal()
        entry.instrs = [Jump(999)]
        assert any("missing B999" in p for p in collect_problems(cfg))

    def test_double_temp_definition(self):
        cfg, entry, _ = make_minimal()
        entry.instrs = [
            Copy(src=int_const(1), result=Temp(0)),
            Copy(src=int_const(2), result=Temp(0)),
            Jump(cfg.exit_id),
        ]
        assert any("defined twice" in p for p in collect_problems(cfg))

    def test_stale_preds_detected(self):
        cfg, entry, exit_block = make_minimal()
        exit_block.preds = [42]
        assert any("preds" in p for p in collect_problems(cfg))

    def test_missing_exit_return(self):
        cfg, entry, exit_block = make_minimal()
        exit_block.instrs = [Jump(entry.id)]
        assert any("Return" in p for p in collect_problems(cfg))

    def test_validate_raises(self):
        cfg, entry, _ = make_minimal()
        entry.instrs = []
        with pytest.raises(IRValidationError):
            validate_cfg(cfg)


class TestPipelineStaysValid:
    SOURCE = """
program main
  integer n, m
  common /c/ g
  integer g
  g = 5
  n = 1
  do i = 1, 4
    n = n + i
  enddo
  if (n > 3) then
    call s(n, m)
  endif
  write n
end
subroutine s(a, b)
  integer a, b
  b = a + 1
end
"""

    def lowered(self):
        lowered = lower_program(parse_program(self.SOURCE))
        return lowered

    def test_lowering_produces_valid_ir(self):
        validate_program(self.lowered(), ssa_form=False)

    def test_ssa_produces_valid_ir(self):
        lowered = self.lowered()
        graph = build_call_graph(lowered)
        modref = compute_modref(lowered, graph)
        for name in lowered.procedures:
            effects = make_call_effects(lowered, name, modref)
            ssa = build_ssa(lowered.procedure(name), effects)
            validate_cfg(ssa.cfg, ssa_form=True, source=self.SOURCE)

    def test_dce_preserves_validity(self):
        lowered = self.lowered()
        graph = build_call_graph(lowered)
        modref = compute_modref(lowered, graph)
        for name in lowered.procedures:
            effects = make_call_effects(lowered, name, modref)
            ssa = build_ssa(lowered.procedure(name), effects)
            numbering = value_number(ssa, lowered)
            eliminate_dead_code(
                lowered.procedure(name), numbering.expr_of, {}
            )
        validate_program(lowered, ssa_form=False)

    @pytest.mark.parametrize("name", suite_names())
    def test_workloads_lower_to_valid_ir(self, name):
        workload = load(name, scale=0.3)
        lowered = lower_program(parse_program(workload.source))
        validate_program(lowered, ssa_form=False)

    @pytest.mark.parametrize("name", ["mdg", "trfd"])
    def test_workloads_ssa_valid(self, name):
        workload = load(name, scale=0.3)
        lowered = lower_program(parse_program(workload.source))
        graph = build_call_graph(lowered)
        modref = compute_modref(lowered, graph)
        for proc_name in lowered.procedures:
            effects = make_call_effects(lowered, proc_name, modref)
            ssa = build_ssa(lowered.procedure(proc_name), effects)
            validate_cfg(ssa.cfg, ssa_form=True, source=workload.source)


class TestArgumentSpans:
    """_check_span must also cover call-argument operands: the Argument
    records carry their own spans (whole-array actuals have no value
    operand at all, so Call.uses() never surfaces them)."""

    SRC = """
program main
  integer n
  integer v(5)
  n = 1
  call s(n, v, v(2))
end
subroutine s(a, w, e)
  integer a, e
  integer w(5)
  a = a + w(1) + e
end
"""

    def _lowered(self):
        lowered = lower_program(parse_program(self.SRC))
        return lowered

    def test_lowered_spans_are_valid(self):
        lowered = self._lowered()
        validate_program(lowered)

    def test_tampered_var_argument_span_detected(self):
        lowered = self._lowered()
        call = lowered.procedure("main").call_instrs[0]
        bad = call.args[1].span  # covers "v", not "n"
        call.args[0].span = bad
        problems = collect_problems(
            lowered.procedure("main").cfg, source=lowered.program.source
        )
        assert any("span of argument n" in p for p in problems)

    def test_tampered_array_argument_span_detected(self):
        lowered = self._lowered()
        call = lowered.procedure("main").call_instrs[0]
        call.args[1].span = call.args[0].span  # covers "n", not "v"
        problems = collect_problems(
            lowered.procedure("main").cfg, source=lowered.program.source
        )
        assert any("span of argument v" in p for p in problems)

    def test_array_element_span_must_start_with_name(self):
        lowered = self._lowered()
        call = lowered.procedure("main").call_instrs[0]
        call.args[2].span = call.args[0].span  # covers "n", not "v(2)"
        problems = collect_problems(
            lowered.procedure("main").cfg, source=lowered.program.source
        )
        assert any("span of argument v" in p for p in problems)

    def test_synthesized_argument_span_skipped(self):
        from repro.frontend.source import DUMMY_SPAN

        lowered = self._lowered()
        call = lowered.procedure("main").call_instrs[0]
        call.args[0].span = DUMMY_SPAN
        problems = collect_problems(
            lowered.procedure("main").cfg, source=lowered.program.source
        )
        assert problems == []
