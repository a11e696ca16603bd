"""Unit tests for liveness and dead-code elimination."""

from repro.analysis.dce import eliminate_dead_code, eliminate_dead_stores, fold_constant_branches
from repro.analysis.liveness import compute_liveness, exit_live_set
from repro.analysis.ssa import build_ssa
from repro.analysis.valuenum import value_number
from repro.callgraph import build_call_graph, compute_modref, make_call_effects
from repro.frontend import parse_program
from repro.ir import lower_program
from repro.ir.instructions import Call, CJump, Copy, Jump, WriteOut


def lowered_of(source):
    lowered = lower_program(parse_program(source))
    return lowered


def vn_of(lowered, proc):
    graph = build_call_graph(lowered)
    modref = compute_modref(lowered, graph)
    effects = make_call_effects(lowered, proc, modref)
    ssa = build_ssa(lowered.procedure(proc), effects)
    return value_number(ssa, lowered)


def main_src(body_lines, extra=""):
    return "program t\n" + "\n".join(body_lines) + "\nend\n" + extra


class TestLiveness:
    def test_used_variable_live_at_entry(self):
        lowered = lowered_of(main_src(["m = n + 1", "write m"]))
        cfg = lowered.procedure("t").cfg
        liveness = compute_liveness(cfg)
        symtab = lowered.procedure("t").procedure.symtab
        assert symtab.lookup("n") in liveness.live_in[cfg.entry_id]

    def test_dead_assignment_not_live(self):
        lowered = lowered_of(main_src(["m = 1", "m = 2", "write m"]))
        cfg = lowered.procedure("t").cfg
        liveness = compute_liveness(cfg)
        # nothing is live-in at entry: m is fully defined locally
        symtab = lowered.procedure("t").procedure.symtab
        assert symtab.lookup("m") not in liveness.live_in[cfg.entry_id]

    def test_loop_carried_liveness(self):
        lowered = lowered_of(
            main_src(["m = 0", "do while (m < 5)", "m = m + 1", "enddo"])
        )
        cfg = lowered.procedure("t").cfg
        liveness = compute_liveness(cfg)
        symtab = lowered.procedure("t").procedure.symtab
        m = symtab.lookup("m")
        # m is live around the loop
        assert any(m in liveness.live_out[bid] for bid in cfg.blocks)

    def test_boundary_set_respected(self):
        source = main_src(["x = 1"], "subroutine s(a)\ninteger a\na = 1\nend\n")
        lowered = lowered_of(source)
        proc = lowered.procedure("s")
        boundary = exit_live_set(list(proc.procedure.symtab))
        liveness = compute_liveness(proc.cfg, boundary)
        a = proc.procedure.symtab.lookup("a")
        assert a in liveness.live_out[proc.cfg.entry_id] or a in boundary


class TestDeadStoreElimination:
    def test_overwritten_store_removed(self):
        lowered = lowered_of(main_src(["m = 1", "m = 2", "write m"]))
        proc = lowered.procedure("t")
        removed = eliminate_dead_stores(proc)
        assert removed >= 1
        copies = [i for _, i in proc.cfg.instructions() if isinstance(i, Copy)]
        # only 'm = 2' (and its temp chain, if any) survives
        assert len([c for c in copies if c.dest.symbol.name == "m"]) == 1

    def test_entirely_dead_local_removed(self):
        lowered = lowered_of(main_src(["m = 1 + 2", "write 0"]))
        proc = lowered.procedure("t")
        removed = eliminate_dead_stores(proc)
        assert removed >= 1

    def test_global_store_survives(self):
        lowered = lowered_of(
            "program t\ncommon /c/ g\ninteger g\ng = 1\nend\n"
        )
        proc = lowered.procedure("t")
        eliminate_dead_stores(proc)
        copies = [i for _, i in proc.cfg.instructions() if isinstance(i, Copy)]
        assert any(c.dest.symbol.name == "g" for c in copies)

    def test_formal_store_survives(self):
        source = main_src(["x=1"], "subroutine s(a)\ninteger a\na = 5\nend\n")
        lowered = lowered_of(source)
        proc = lowered.procedure("s")
        eliminate_dead_stores(proc)
        copies = [i for _, i in proc.cfg.instructions() if isinstance(i, Copy)]
        assert any(c.dest.symbol.name == "a" for c in copies)

    def test_call_never_removed(self):
        source = main_src(
            ["n = f(1)"],
            "integer function f(x)\ninteger x\nf = x\nend\n",
        )
        lowered = lowered_of(source)
        proc = lowered.procedure("t")
        eliminate_dead_stores(proc)
        assert any(isinstance(i, Call) for _, i in proc.cfg.instructions())

    def test_write_operands_stay_live(self):
        lowered = lowered_of(main_src(["m = 42", "write m"]))
        proc = lowered.procedure("t")
        removed = eliminate_dead_stores(proc)
        assert removed == 0


class TestBranchFolding:
    def test_constant_condition_folds(self):
        lowered = lowered_of(
            main_src(["n = 1", "if (n > 0) then", "m = 1", "endif", "write 0"])
        )
        vn = vn_of(lowered, "t")
        proc = lowered.procedure("t")
        folded = fold_constant_branches(proc, vn.expr_of, {})
        assert folded == 1
        assert not any(isinstance(i, CJump) for _, i in proc.cfg.instructions())

    def test_unknown_condition_kept(self):
        lowered = lowered_of(
            main_src(["read n", "if (n > 0) then", "m = 1", "endif"])
        )
        vn = vn_of(lowered, "t")
        proc = lowered.procedure("t")
        assert fold_constant_branches(proc, vn.expr_of, {}) == 0

    def test_entry_env_enables_fold(self):
        source = main_src(
            ["x=1"],
            "subroutine s(a)\ninteger a\nif (a == 0) then\nb = 1\nendif\nend\n",
        )
        lowered = lowered_of(source)
        vn = vn_of(lowered, "s")
        proc = lowered.procedure("s")
        assert fold_constant_branches(proc, vn.expr_of, {"a": 0}) == 1

    def test_fold_then_unreachable_removal(self):
        lowered = lowered_of(
            main_src(
                ["n = 0", "if (n /= 0) then", "write 111", "endif", "write 0"]
            )
        )
        vn = vn_of(lowered, "t")
        proc = lowered.procedure("t")
        stats = eliminate_dead_code(proc, vn.expr_of, {})
        assert stats.folded_branches == 1
        assert stats.removed_blocks >= 1
        writes = [
            i for _, i in proc.cfg.instructions() if isinstance(i, WriteOut)
        ]
        assert len(writes) == 1  # the 'write 111' arm is gone

    def test_dce_is_idempotent(self):
        lowered = lowered_of(
            main_src(["n = 0", "if (n /= 0) then", "write 1", "endif"])
        )
        vn = vn_of(lowered, "t")
        proc = lowered.procedure("t")
        eliminate_dead_code(proc, vn.expr_of, {})
        # the second run must find nothing to do (fresh VN over mutated CFG)
        vn2 = vn_of(lowered, "t")
        stats = eliminate_dead_code(proc, vn2.expr_of, {})
        assert not stats.any_change
