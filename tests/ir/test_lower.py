"""Unit tests for AST → IR lowering."""

import pytest

from repro.frontend import parse_program
from repro.frontend.astnodes import Type
from repro.frontend.errors import SemanticError
from repro.ir.instructions import (
    Argument,
    ArgumentKind,
    BinOp,
    Call,
    CJump,
    Const,
    Convert,
    Copy,
    IntrinsicOp,
    Jump,
    LoadArr,
    ReadArr,
    ReadVar,
    Return,
    Stop,
    StoreArr,
    Temp,
    UnOp,
    VarDef,
    VarUse,
    WriteOut,
)
from repro.ir.lower import lower_program, operand_type


def lower_main(body_lines, extra_units=""):
    source = "program t\n" + "\n".join(body_lines) + "\nend\n" + extra_units
    lowered = lower_program(parse_program(source))
    return lowered.procedure("t")


def instrs_of(lowered_proc, kind):
    return [i for _, i in lowered_proc.cfg.instructions() if isinstance(i, kind)]


class TestStraightLine:
    def test_assign_constant(self):
        proc = lower_main(["n = 42"])
        copies = instrs_of(proc, Copy)
        assert len(copies) == 1
        assert isinstance(copies[0].src, Const)
        assert copies[0].src.value == 42
        assert isinstance(copies[0].dest, VarDef)
        assert copies[0].dest.symbol.name == "n"

    def test_assign_expression_uses_temp(self):
        proc = lower_main(["n = 1 + 2 * 3"])
        binops = instrs_of(proc, BinOp)
        assert [b.op for b in binops] == ["*", "+"]
        assert all(isinstance(b.dest, Temp) for b in binops)

    def test_temps_single_assignment(self):
        proc = lower_main(["a = 1 + 2", "b = 3 * 4", "c = a - b"])
        defined = [i.dest for _, i in proc.cfg.instructions()
                   if isinstance(i.dest, Temp)]
        assert len(defined) == len(set(defined))

    def test_var_use_carries_span(self):
        source = "program t\nn = 1\nm = n + 2\nend\n"
        lowered = lower_program(parse_program(source))
        proc = lowered.procedure("t")
        uses = [u for _, i in proc.cfg.instructions() for u in i.uses()
                if isinstance(u, VarUse)]
        assert any(u.span.extract(source) == "n" for u in uses)

    def test_named_constant_folds_to_literal(self):
        proc = lower_main(["parameter (k = 7)", "n = k"])
        copies = instrs_of(proc, Copy)
        assert copies[0].src == Const(7, Type.INTEGER)

    def test_mixed_assignment_inserts_convert(self):
        proc = lower_main(["x = 1"])  # x implicitly REAL
        converts = instrs_of(proc, Convert)
        assert len(converts) == 1
        assert converts[0].to_type is Type.REAL

    def test_int_from_real_expression_converts(self):
        proc = lower_main(["n = 2.5"])
        converts = instrs_of(proc, Convert)
        assert converts[0].to_type is Type.INTEGER

    def test_unary_minus(self):
        proc = lower_main(["n = -3"])
        unops = instrs_of(proc, UnOp)
        assert unops[0].op == "-"

    def test_intrinsic_call(self):
        proc = lower_main(["n = mod(10, 3)"])
        intrinsics = instrs_of(proc, IntrinsicOp)
        assert intrinsics[0].name == "mod"
        assert operand_type(intrinsics[0].dest) is Type.INTEGER

    def test_write_statement(self):
        proc = lower_main(["write 1, 'msg'"])
        writes = instrs_of(proc, WriteOut)
        assert len(writes[0].values) == 2

    def test_read_scalar(self):
        proc = lower_main(["read n"])
        reads = instrs_of(proc, ReadVar)
        assert reads[0].target.symbol.name == "n"

    def test_read_array_element(self):
        proc = lower_main(["integer a(5)", "read a(2)"])
        reads = instrs_of(proc, ReadArr)
        assert reads[0].array.name == "a"

    def test_stop(self):
        proc = lower_main(["stop"])
        assert instrs_of(proc, Stop)


class TestArrays:
    def test_array_store(self):
        proc = lower_main(["integer a(5)", "a(3) = 9"])
        stores = instrs_of(proc, StoreArr)
        assert stores[0].array.name == "a"

    def test_array_load(self):
        proc = lower_main(["integer a(5)", "n = a(1)"])
        loads = instrs_of(proc, LoadArr)
        assert loads[0].array.name == "a"
        assert isinstance(loads[0].dest, Temp)


class TestControlFlow:
    def test_if_creates_diamond(self):
        proc = lower_main(["if (n > 0) then", "m = 1", "else", "m = 2", "endif"])
        cjumps = instrs_of(proc, CJump)
        assert len(cjumps) == 1
        assert cjumps[0].if_true != cjumps[0].if_false

    def test_if_without_else(self):
        proc = lower_main(["if (n > 0) then", "m = 1", "endif", "m = 3"])
        cjumps = instrs_of(proc, CJump)
        assert len(cjumps) == 1

    def test_do_loop_has_header_cycle(self):
        proc = lower_main(["do i = 1, 3", "n = n + i", "enddo"])
        cfg = proc.cfg
        cfg.refresh()
        # some block must have a predecessor with a higher id (back edge)
        has_back_edge = any(
            pred > block.id for block in cfg.blocks.values() for pred in block.preds
        )
        assert has_back_edge

    def test_do_loop_trip_count_clamped(self):
        proc = lower_main(["do i = 1, 0", "n = n + i", "enddo"])
        clamps = [i for i in instrs_of(proc, IntrinsicOp) if i.name == "max"]
        assert clamps

    def test_do_loop_requires_integer_induction(self):
        with pytest.raises(SemanticError, match="INTEGER"):
            lower_main(["do x = 1, 3", "n = 1", "enddo"])

    def test_do_while(self):
        proc = lower_main(["do while (n < 5)", "n = n + 1", "enddo"])
        assert instrs_of(proc, CJump)

    def test_goto_forward(self):
        proc = lower_main(["goto 10", "n = 1", "10 continue", "m = 2"])
        proc.cfg.refresh()
        # the n = 1 assignment is unreachable and must have been pruned
        copies = instrs_of(proc, Copy)
        assert all(c.dest.symbol.name != "n" for c in copies)

    def test_goto_backward(self):
        proc = lower_main(["10 continue", "n = n + 1", "if (n < 3) goto 10"])
        proc.cfg.refresh()
        has_back_edge = any(
            pred >= block.id
            for block in proc.cfg.blocks.values()
            for pred in block.preds
        )
        assert has_back_edge

    def test_return_routes_to_exit(self):
        proc = lower_main(["n = 1", "return", "n = 2"])
        exit_block = proc.cfg.exit
        assert isinstance(exit_block.instrs[-1], Return)
        copies = instrs_of(proc, Copy)
        assert len(copies) == 1  # 'n = 2' unreachable, pruned

    def test_single_exit(self):
        proc = lower_main(
            ["if (n > 0) then", "return", "else", "return", "endif"]
        )
        returns = instrs_of(proc, Return)
        assert len(returns) == 1

    def test_stop_does_not_reach_exit(self):
        proc = lower_main(["stop"])
        proc.cfg.refresh()
        assert proc.cfg.exit.preds == ()

    def test_labelled_statement_reachable_both_ways(self):
        proc = lower_main(
            ["n = 0", "10 n = n + 1", "if (n < 3) goto 10"]
        )
        proc.cfg.refresh()
        label_blocks = [
            b for b in proc.cfg.blocks.values() if len(b.preds) >= 2
        ]
        assert label_blocks


class TestCalls:
    SUB = "subroutine s(a, b, v)\ninteger a, b, v(10)\na = b\nv(1) = a\nend\n"
    FUN = "integer function f(x)\ninteger x\nf = x + 1\nend\n"

    def test_subroutine_call_arguments(self):
        proc = lower_main(
            ["integer w(10)", "n = 2", "call s(n, n + 1, w)"], self.SUB
        )
        call = instrs_of(proc, Call)[0]
        kinds = [a.kind for a in call.args]
        assert kinds == [ArgumentKind.VAR, ArgumentKind.VALUE, ArgumentKind.ARRAY]

    def test_literal_argument(self):
        proc = lower_main(["integer w(10)", "call s(n, 5, w)"], self.SUB)
        call = instrs_of(proc, Call)[0]
        assert call.args[1].kind is ArgumentKind.VALUE
        assert call.args[1].value == Const(5, Type.INTEGER)

    def test_array_element_argument(self):
        proc = lower_main(
            ["integer w(10)", "call s(w(1), 2, w)"], self.SUB
        )
        call = instrs_of(proc, Call)[0]
        assert call.args[0].kind is ArgumentKind.ARRAY_ELEMENT
        assert call.args[0].symbol.name == "w"

    def test_function_call_dest(self):
        proc = lower_main(["n = f(3)"], self.FUN)
        call = instrs_of(proc, Call)[0]
        assert isinstance(call.dest, Temp)
        assert operand_type(call.dest) is Type.INTEGER

    def test_site_ids_unique_program_wide(self):
        source = (
            "program t\nn = f(1)\nm = f(2)\ncall s(n, m, w)\ninteger w(10)\nend\n"
        )
        # declarations must precede statements; rebuild properly:
        source = (
            "program t\ninteger w(10)\nn = f(1)\nm = f(2)\ncall s(n, m, w)\nend\n"
            + self.SUB
            + self.FUN
        )
        lowered = lower_program(parse_program(source))
        site_ids = list(lowered.call_sites)
        assert len(site_ids) == 3
        assert len(set(site_ids)) == 3

    def test_call_sites_map_to_callers(self):
        source = (
            "program t\ninteger w(10)\ncall s(n, 1, w)\nend\n" + self.SUB
        )
        lowered = lower_program(parse_program(source))
        (caller, call), = lowered.call_sites.values()
        assert caller == "t"
        assert call.callee == "s"

    def test_scalar_passed_for_array_formal_rejected(self):
        with pytest.raises(SemanticError, match="expects an array"):
            lower_main(["call s(n, 1, m)"], self.SUB)

    def test_array_passed_for_scalar_formal_rejected(self):
        with pytest.raises(SemanticError, match="expects a scalar"):
            lower_main(["integer w(10)", "call s(w, 1, w)"], self.SUB)

    def test_expression_for_array_formal_rejected(self):
        with pytest.raises(SemanticError, match="expects an array"):
            lower_main(["call s(n, 1, 2 + 3)"], self.SUB)


class TestLoweredProgramApi:
    def test_variables_excludes_arrays_and_constants(self):
        proc = lower_main(
            ["integer a(5)", "parameter (k = 1)", "n = k", "a(1) = n"]
        )
        names = {s.name for s in proc.variables}
        assert "n" in names
        assert "a" not in names
        assert "k" not in names

    def test_synthetic_loop_symbols_registered(self):
        proc = lower_main(["do i = 1, n", "m = i", "enddo"])
        names = {s.name for s in proc.variables}
        assert any(name.startswith("$count") for name in names)
