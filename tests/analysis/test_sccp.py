"""Unit tests for sparse conditional constant propagation."""

from repro.analysis.sccp import run_sccp
from repro.analysis.ssa import build_ssa
from repro.callgraph import build_call_graph, compute_modref, make_call_effects
from repro.core.lattice import BOTTOM, is_constant
from repro.frontend import parse_program
from repro.ir import lower_program
from repro.ir.instructions import SSAName


def sccp_of(source, proc="t", entry=None, use_mod=True):
    lowered = lower_program(parse_program(source))
    graph = build_call_graph(lowered)
    modref = compute_modref(lowered, graph) if use_mod else None
    effects = make_call_effects(lowered, proc, modref)
    ssa = build_ssa(lowered.procedure(proc), effects)
    env = {}
    if entry:
        symtab = lowered.procedure(proc).procedure.symtab
        for name, value in entry.items():
            env[symtab.lookup(name)] = value
    return run_sccp(ssa, env), ssa, lowered


def final_value(result, ssa, name):
    symbol = ssa.lowered.procedure.symtab.lookup(name)
    version = ssa.exit_versions[symbol]
    return result.values.get(SSAName(symbol, version), BOTTOM)


def main_src(body_lines, extra=""):
    return "program t\n" + "\n".join(body_lines) + "\nend\n" + extra


class TestStraightLine:
    def test_constant_chain(self):
        result, ssa, _ = sccp_of(main_src(["n = 2", "m = n * 3", "k = m + 1"]))
        assert final_value(result, ssa, "k") == 7

    def test_unknown_from_read(self):
        result, ssa, _ = sccp_of(main_src(["read n", "m = n + 1"]))
        assert final_value(result, ssa, "m") is BOTTOM

    def test_fortran_integer_division(self):
        result, ssa, _ = sccp_of(main_src(["n = -7", "m = n / 2"]))
        assert final_value(result, ssa, "m") == -3

    def test_division_by_zero_is_bottom(self):
        result, ssa, _ = sccp_of(main_src(["n = 0", "m = 5 / n"]))
        assert final_value(result, ssa, "m") is BOTTOM

    def test_real_result_is_bottom(self):
        result, ssa, _ = sccp_of(main_src(["x = 1.5", "y = x + 1.0"]))
        assert final_value(result, ssa, "y") is BOTTOM

    def test_logical_constants(self):
        result, ssa, _ = sccp_of(
            main_src(["logical flag", "n = 3", "flag = n > 2"])
        )
        assert final_value(result, ssa, "flag") is True


class TestBranchPruning:
    def test_constant_true_branch_prunes_else(self):
        result, ssa, _ = sccp_of(
            main_src(
                ["n = 1", "if (n > 0) then", "m = 10", "else", "m = 20",
                 "endif", "k = m"]
            )
        )
        # only the then-branch executes, so m is 10 at the join
        assert final_value(result, ssa, "k") == 10

    def test_unknown_branch_merges_to_bottom(self):
        result, ssa, _ = sccp_of(
            main_src(
                ["read n", "if (n > 0) then", "m = 10", "else", "m = 20",
                 "endif", "k = m"]
            )
        )
        assert final_value(result, ssa, "k") is BOTTOM

    def test_unknown_branch_same_value_still_constant(self):
        result, ssa, _ = sccp_of(
            main_src(
                ["read n", "if (n > 0) then", "m = 10", "else", "m = 10",
                 "endif", "k = m"]
            )
        )
        assert final_value(result, ssa, "k") == 10

    def test_unreachable_block_not_executable(self):
        result, ssa, _ = sccp_of(
            main_src(["n = 1", "if (n > 2) then", "m = 99", "endif"])
        )
        executable = result.executable_blocks
        all_blocks = set(ssa.cfg.blocks)
        assert executable < all_blocks  # something was pruned

    def test_optimism_beats_pessimistic_vn_on_loops(self):
        # x stays 5 through the loop; SCCP's optimism proves it.
        result, ssa, _ = sccp_of(
            main_src(
                ["m = 5", "do i = 1, 10", "m = 5", "enddo", "k = m"]
            )
        )
        assert final_value(result, ssa, "k") == 5

    def test_loop_variant_value_is_bottom(self):
        result, ssa, _ = sccp_of(
            main_src(["m = 0", "do i = 1, 10", "m = m + 1", "enddo", "k = m"])
        )
        assert final_value(result, ssa, "k") is BOTTOM

    def test_constant_trip_count_loop_exit_value(self):
        # do i = 1, 0 never executes its body.
        result, ssa, _ = sccp_of(
            main_src(["m = 1", "do i = 1, 0", "m = 2", "enddo", "k = m"])
        )
        assert final_value(result, ssa, "k") == 1


class TestEntryEnvironment:
    SUB = "program t\nx = 1\nend\n"

    def test_seeded_formal_propagates(self):
        src = self.SUB + "subroutine s(a)\ninteger a, b\nb = a * 2\nend\n"
        result, ssa, _ = sccp_of(src, "s", entry={"a": 21})
        assert final_value(result, ssa, "b") == 42

    def test_unseeded_formal_is_bottom(self):
        src = self.SUB + "subroutine s(a)\ninteger a, b\nb = a * 2\nend\n"
        result, ssa, _ = sccp_of(src, "s")
        assert final_value(result, ssa, "b") is BOTTOM

    def test_seeding_prunes_branches(self):
        src = self.SUB + (
            "subroutine s(a)\ninteger a, b\n"
            "if (a == 0) then\nb = 1\nelse\nb = 2\nendif\nend\n"
        )
        result, ssa, _ = sccp_of(src, "s", entry={"a": 0})
        assert final_value(result, ssa, "b") == 1


class TestCalls:
    def test_call_kills_modified_argument(self):
        src = main_src(
            ["n = 1", "call bump(n)", "k = n"],
            "subroutine bump(x)\ninteger x\nx = x + 1\nend\n",
        )
        result, ssa, _ = sccp_of(src)
        assert final_value(result, ssa, "k") is BOTTOM

    def test_mod_preserves_untouched_argument(self):
        src = main_src(
            ["n = 1", "call peek(n)", "k = n"],
            "subroutine peek(x)\ninteger x\ny = x\nend\n",
        )
        result, ssa, _ = sccp_of(src)
        assert final_value(result, ssa, "k") == 1

    def test_without_mod_call_kills_everything(self):
        src = main_src(
            ["n = 1", "call peek(n)", "k = n"],
            "subroutine peek(x)\ninteger x\ny = x\nend\n",
        )
        result, ssa, _ = sccp_of(src, use_mod=False)
        assert final_value(result, ssa, "k") is BOTTOM

    def test_function_result_unknown(self):
        src = main_src(
            ["n = f(1)", "k = n"],
            "integer function f(x)\ninteger x\nf = 7\nend\n",
        )
        result, ssa, _ = sccp_of(src)
        assert final_value(result, ssa, "k") is BOTTOM


class TestResultApi:
    def test_constant_names_filter(self):
        result, ssa, _ = sccp_of(main_src(["n = 2", "read m"]))
        constants = result.constant_names()
        assert all(is_constant(v) for v in constants.values())
        named = {str(k) for k in constants}
        assert any(k.startswith("n.") for k in named)
