"""Hot classes carry ``__slots__``: a per-instance ``__dict__`` costs
~100 bytes and a pointer chase on every attribute read, and the IR and
solver allocate these classes by the hundred-thousand on the large
workload tier."""

import dataclasses
import inspect

import pytest

from repro.core.parallel import RegionOutcome
from repro.core.slab import SlabSegment
from repro.core.solver import SolveResult, WarmStart
from repro.framework.client import FlowEdge
from repro.frontend import parse_program
from repro.ir import instructions, lower_program

SOURCE = """
program m
  integer v(3)
  common /c/ g
  integer g
  g = 2
  v(1) = 7
  call s(g + 1, v)
  write g
end
subroutine s(a, w)
  integer a
  integer w(3)
  if (a > 0) then
    a = a - 1
  endif
  write w(1)
end
"""


def instruction_dataclasses():
    return [
        obj
        for _, obj in inspect.getmembers(instructions, inspect.isclass)
        if dataclasses.is_dataclass(obj) and obj.__module__ == instructions.__name__
    ]


class TestInstructionSlots:
    def test_every_ir_dataclass_is_slotted(self):
        classes = instruction_dataclasses()
        assert len(classes) >= 20  # operands + the full instruction set
        unslotted = [
            klass.__name__
            for klass in classes
            if "__slots__" not in klass.__dict__
        ]
        assert unslotted == []

    def test_lowered_instances_have_no_dict(self):
        lowered = lower_program(parse_program(SOURCE))
        seen = 0
        for proc in lowered.procedures.values():
            for block in proc.cfg.blocks.values():
                for instr in block.instrs:
                    assert not hasattr(instr, "__dict__"), type(instr)
                    seen += 1
        assert seen > 10

    def test_operands_have_no_dict(self):
        for operand in (
            instructions.Const(3, "integer"),
            instructions.Temp(1),
            instructions.VarUse("x"),
            instructions.SSAName("x", 2),
        ):
            assert not hasattr(operand, "__dict__"), type(operand)


class TestSolverSlots:
    def test_solver_dataclasses_are_slotted(self):
        for klass in (SolveResult, WarmStart, FlowEdge, SlabSegment, RegionOutcome):
            assert "__slots__" in klass.__dict__, klass.__name__

    def test_solve_result_instance_has_no_dict(self):
        result = SolveResult(val={})
        assert not hasattr(result, "__dict__")
        with pytest.raises(AttributeError):
            result.arbitrary_new_attribute = 1
