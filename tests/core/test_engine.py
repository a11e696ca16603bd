"""Tests for the sparse delta-driven engine: hash-consing, the stage-2
flow index, constant hoisting, ⊥ handling, and the evaluation memo."""

from repro import analyze
from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import build_stage0
from repro.core.exprs import (
    ConstExpr,
    EntryExpr,
    _BottomExpr,
    const_expr,
    entry_expr,
    intern_counters,
    make_binary,
)
from repro.core.lattice import BOTTOM
from repro.core.returns import build_return_jump_functions
from repro.core.solver import SolveResult, initial_val, solve, solve_dense
from repro.framework.client import FlowIndex, RegionPartition
from repro.framework.engine import ClientEngine
from repro.framework.lattice import ConstantLattice
from repro.frontend import parse_program


def pipeline(source, config=None):
    config = config or AnalysisConfig()
    stage0 = build_stage0(parse_program(source))
    lowered, graph, cache = stage0.lowered, stage0.graph, stage0.ssa_cache
    returns = build_return_jump_functions(lowered, graph, config, cache)
    forward = build_forward_jump_functions(lowered, returns, config, cache)
    return lowered, graph, forward


def engine_for(index, result):
    # one region holding every procedure: every edge is intra-region
    one_region = RegionPartition(index, dict.fromkeys(result.val, 0))
    return ClientEngine(one_region, ConstantLattice(), result.val, result)


class TestHashConsing:
    def test_const_interned(self):
        assert const_expr(7) is const_expr(7)

    def test_bool_const_distinct_from_int(self):
        # True == 1 in Python, but LOGICAL .true. is not INTEGER 1
        assert const_expr(True) is not const_expr(1)
        assert const_expr(False) is not const_expr(0)

    def test_entry_interned(self):
        assert entry_expr("x") is entry_expr("x")

    def test_op_interned_across_builds(self):
        a = make_binary("+", entry_expr("x"), const_expr(1))
        b = make_binary("+", entry_expr("x"), const_expr(1))
        assert a is b

    def test_structural_equality_without_interning(self):
        # direct construction bypasses the table but still compares equal
        assert ConstExpr(7) == const_expr(7)
        assert ConstExpr(7) is not const_expr(7)
        assert EntryExpr("x") == entry_expr("x")

    def test_counters_exposed(self):
        before = intern_counters()["expr_intern_hits"]
        const_expr(424242)  # may miss or hit
        const_expr(424242)  # certainly hits now
        assert intern_counters()["expr_intern_hits"] > before
        assert set(intern_counters()) == {
            "expr_intern_hits",
            "expr_intern_misses",
            "expr_intern_entries",
            "expr_intern_generation",
        }


SIMPLE = """
program m
  call s(1)
end
subroutine s(a)
  integer a
  write a
end
"""

PASS_THROUGH = """
program m
  call t(1)
end
subroutine t(x)
  integer x
  call s(x)
end
subroutine s(a)
  integer a
  write a
end
"""


class TestSupportIndex:
    def test_builder_precomputes_index(self):
        # the index lists the very edges the site tables hold
        lowered, graph, forward = pipeline(PASS_THROUGH)
        assert forward.index is not None
        indexed = [e for row in forward.index.seeds.values() for e in row]
        tabled = [e for site in forward.sites.values() for e in site.values()]
        assert len(indexed) == len(tabled)
        assert all(a is b for a, b in zip(indexed, tabled))

    def test_seeds_and_callees(self):
        lowered, graph, forward = pipeline(SIMPLE)
        index = forward.index
        assert [e.key for e in index.seeds["m"]] == ["a"]
        assert index.callees["m"] == ("s",)

    def test_const_hoisted_at_build(self):
        # the literal jump function folds at edge construction: §3.1.5
        # charges building it, not re-deriving its value each pass
        lowered, graph, forward = pipeline(SIMPLE)
        (edge,) = forward.index.seeds["m"]
        assert edge.const == 1
        assert edge.support == ()
        assert edge.func is const_expr(1)

    def test_pass_through_edge_has_support(self):
        lowered, graph, forward = pipeline(PASS_THROUGH)
        (edge,) = forward.index.seeds["t"]
        assert edge.const is None
        assert edge.passthrough == "x"
        assert edge.func is entry_expr("x")
        assert edge.support == ("x",)
        # one support tuple per entry key, shared through the interned node
        assert edge.support is entry_expr("x").support_order()
        assert forward.index.dependents[("t", "x")] == (edge,)

    def test_polynomial_edge_wraps_interned_expr(self):
        source = PASS_THROUGH.replace("call s(x)", "call s(x + 1)")
        config = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
        lowered, graph, forward = pipeline(source, config)
        (edge,) = forward.index.seeds["t"]
        assert edge.const is None and edge.passthrough is None
        # the edge's function, and its memo token, is the interned
        # expression itself
        expr = make_binary("+", entry_expr("x"), const_expr(1))
        assert edge.func is expr
        assert edge.func.memo_token() is expr
        assert edge.support == ("x",)

    def test_unbound_callee_key_is_killed(self):
        # hand-assemble an index whose one site binds nothing: the callee
        # formal must be killed at seed time (skipped, not evaluated)
        lowered, _, _ = pipeline(SIMPLE)
        index = FlowIndex({}, {"m": (("s", "a"),)}, {}, {"m": ("s",)})
        result = SolveResult(val=initial_val(lowered))
        engine = engine_for(index, result)
        changed = engine.seed("m")
        assert result.val["s"]["a"] is BOTTOM
        assert result.skipped == 1
        assert result.evaluations == 0
        assert changed == {"s": {"a": None}}


class TestEngineCounters:
    def test_constant_program_needs_no_evaluations(self):
        lowered, graph, forward = pipeline(SIMPLE)
        result = solve(lowered, graph, forward)
        assert result.evaluations == 0
        assert result.meets >= 1
        assert result.val["s"]["a"] == 1

    BOTTOM_SOURCE = """
program m
  read n
  call s(n)
end
subroutine s(a)
  integer a
  write a
end
"""

    def test_bottom_function_never_evaluated_by_solver(self, monkeypatch):
        # a ⊥ jump function contributes its one ⊥ by meet; the engine
        # must not call evaluate() on it even once
        lowered, graph, forward = pipeline(self.BOTTOM_SOURCE)
        calls = []
        original = _BottomExpr.evaluate

        def counting(self, env):
            calls.append(1)
            return original(self, env)

        monkeypatch.setattr(_BottomExpr, "evaluate", counting)
        result = solve(lowered, graph, forward)
        assert result.val["s"]["a"] is BOTTOM
        assert result.bottom_skips >= 1
        assert calls == []

    def test_bottom_function_evaluated_at_most_once_end_to_end(
        self, monkeypatch
    ):
        # across the whole analysis (stage-2 projection included) the ⊥
        # expression is consulted at most once per jump function
        calls = []
        original = _BottomExpr.evaluate

        def counting(self, env):
            calls.append(1)
            return original(self, env)

        monkeypatch.setattr(_BottomExpr, "evaluate", counting)
        lowered, graph, forward = pipeline(self.BOTTOM_SOURCE)
        solve(lowered, graph, forward)
        bottom_functions = sum(
            1
            for site in forward.sites.values()
            for edge in site.values()
            if edge.func.is_bottom
        )
        assert len(calls) <= bottom_functions

    def test_memo_hits_across_duplicate_sites(self):
        # two sites pass the same polynomial of the same entry key: the
        # interned expression plus equal support slice memoizes
        source = """
program m
  call t(3)
end
subroutine t(x)
  integer x
  call s(x + 1)
  call s(x + 1)
end
subroutine s(a)
  integer a
  write a
end
"""
        config = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
        lowered, graph, forward = pipeline(source, config)
        result = solve(lowered, graph, forward)
        assert result.val["s"]["a"] == 4
        assert result.memo_hits >= 1
        assert result.memo_misses >= 1

    def test_intern_clear_mid_solve_cannot_serve_stale_memo(self):
        # the evaluation memo keys edge functions by id(memo_token());
        # clearing the intern table mid-solve drops the table's references
        # to those expressions, so the memo itself pins every token it
        # keys by id — no id it can still serve can be recycled for a
        # fresh expression
        from repro.core.exprs import clear_intern_table

        source = """
program m
  call t(3)
end
subroutine t(x)
  integer x
  call s(x + 1)
end
subroutine s(a)
  integer a
  write a
end
"""
        config = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
        lowered, graph, forward = pipeline(source, config)
        result = SolveResult(val=initial_val(lowered))
        engine = engine_for(forward.index, result)
        engine.seed("m")
        engine.seed("t")  # evaluates x + 1 and memoizes it
        assert result.val["s"]["a"] == 4
        assert result.memo_misses == 1
        clear_intern_table()
        # a fresh x + 1 is a new object that cannot share a pinned id
        fresh = make_binary("+", entry_expr("x"), const_expr(1))
        pinned = {id(token) for token in engine._tokens}
        assert id(fresh) not in pinned
        assert {token_id for token_id, _ in engine._memo} <= pinned
        engine.apply_deltas("t", {"x": None})
        assert result.val["s"]["a"] == 4

    def test_stats_report_lists_engine_counters(self):
        result = analyze(SIMPLE)
        report = result.stats_report()
        for counter in ("deltas", "skipped", "memo_hits", "bottom_skips"):
            assert counter in report
        assert "expr_intern_hits" in report


class TestSolverAgreement:
    def test_three_solvers_agree_with_mutation(self):
        # dense, sparse, and flat slab: three schedules, one fixpoint
        source = """
program m
  common /c/ g
  integer g
  g = 5
  call t(2)
  call t(g)
end
subroutine t(x)
  integer x
  common /c/ g
  integer g
  call s(x + g)
  g = g + 1
end
subroutine s(a)
  integer a
  write a
end
"""
        for kind in JumpFunctionKind:
            config = AnalysisConfig(jump_function=kind)
            lowered, graph, forward = pipeline(source, config)
            dense = solve_dense(lowered, graph, forward)
            sparse = solve(lowered, graph, forward)
            flat = solve(lowered, graph, forward, flat=True)
            assert dense.val == sparse.val == flat.val, kind
            assert dense.reached == sparse.reached == flat.reached, kind
            assert (
                dense.all_constants()
                == sparse.all_constants()
                == flat.all_constants()
            ), kind
