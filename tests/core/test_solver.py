"""Unit tests for the worklist solver (stage 3)."""

import pytest

from repro import analyze
from repro.core.lattice import BOTTOM, TOP
from repro.core.solver import initial_val
from repro.frontend import parse_program
from repro.frontend.symbols import GlobalId
from repro.ir import lower_program


class TestInitialVal:
    def lowered(self, source):
        lowered = lower_program(parse_program(source))
        return lowered

    def test_formals_start_top(self):
        lowered = self.lowered(
            "program m\nx=1\nend\nsubroutine s(a, b)\ninteger a, b\na=b\nend\n"
        )
        val = initial_val(lowered)
        assert val["s"]["a"] is TOP
        assert val["s"]["b"] is TOP

    def test_real_formals_excluded(self):
        lowered = self.lowered(
            "program m\nx=1\nend\nsubroutine s(a, r)\ninteger a\nreal r\na=1\nend\n"
        )
        val = initial_val(lowered)
        assert "a" in val["s"]
        assert "r" not in val["s"]

    def test_array_formals_excluded(self):
        lowered = self.lowered(
            "program m\ninteger v(3)\ncall s(v)\nend\n"
            "subroutine s(w)\ninteger w(3)\nw(1)=1\nend\n"
        )
        val = initial_val(lowered)
        assert val["s"] == {}

    def test_main_globals_data_initialized(self):
        lowered = self.lowered(
            "program m\ncommon /c/ g, h\ninteger g, h\ndata g /9/\nh = g\nend\n"
        )
        val = initial_val(lowered)
        assert val["m"][GlobalId("c", 0)] == 9
        assert val["m"][GlobalId("c", 1)] is BOTTOM  # uninitialized

    def test_every_proc_sees_every_scalar_global(self):
        lowered = self.lowered(
            "program m\ncommon /c/ g\ninteger g\ng=1\ncall s\nend\n"
            "subroutine s\nx = 1.0\nend\n"
        )
        val = initial_val(lowered)
        assert GlobalId("c", 0) in val["s"]


class TestPropagation:
    def test_two_edges_meet(self):
        source = """
program m
  call s(4)
  call t
end
subroutine t
  call s(4)
end
subroutine s(a)
  integer a
  write a
end
"""
        result = analyze(source)
        assert result.solved.val["s"]["a"] == 4

    def test_diverging_edges_meet_to_bottom(self):
        source = """
program m
  call s(4)
  call t
end
subroutine t
  call s(5)
end
subroutine s(a)
  integer a
  write a
end
"""
        result = analyze(source)
        assert result.solved.val["s"]["a"] is BOTTOM

    def test_long_chain_propagates(self):
        chain = ["program m", "  call p1(7)", "end"]
        for i in range(1, 10):
            chain.extend(
                [
                    f"subroutine p{i}(x)",
                    "  integer x",
                    f"  call p{i + 1}(x)",
                    "end",
                ]
            )
        chain.extend(["subroutine p10(x)", "  integer x", "  write x", "end"])
        result = analyze("\n".join(chain) + "\n")
        assert result.solved.val["p10"]["x"] == 7

    def test_stats_counted(self):
        result = analyze("program m\ncall s(1)\nend\nsubroutine s(a)\ninteger a\nwrite a\nend\n")
        assert result.solved.pops >= 2
        assert result.solved.passes >= 1
        assert result.solved.passes <= result.solved.pops
        # the literal jump function folds at index build (§3.1.5 charges
        # construction, not per-pass evaluation): it is transferred by
        # meet alone and never counted as a solve-time evaluation
        assert result.solved.evaluations == 0
        assert result.solved.meets >= 1
        assert result.solved.meets >= result.solved.evaluations

    def test_pass_through_counts_evaluation(self):
        # a pass-through jump function genuinely reads the caller's
        # environment at solve time, so it *is* an evaluation
        source = """
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
        result = analyze(source)
        assert result.solved.evaluations >= 1
        assert result.solved.val["s"]["a"] == 1

    def test_self_loop_terminates(self):
        source = """
program m
  call s(3)
end
subroutine s(a)
  integer a
  if (a > 0) then
    call s(a)
  endif
end
"""
        result = analyze(source)
        # a = 3 on every path (passed through unchanged)
        assert result.solved.val["s"]["a"] == 3

    def test_bottom_never_resurrects(self):
        source = """
program m
  call s(1)
  call s(2)
  call s(1)
end
subroutine s(a)
  integer a
  write a
end
"""
        result = analyze(source)
        assert result.solved.val["s"]["a"] is BOTTOM


class TestScheduling:
    """Reverse-postorder priority scheduling and pass/pop accounting."""

    DIAMOND = """
program m
  call b(1)
  call c(1)
end
subroutine b(x)
  integer x
  call d(x)
end
subroutine c(y)
  integer y
  call d(y)
end
subroutine d(z)
  integer z
  write z
end
"""

    def test_diamond_passes_and_pops(self):
        # Priority order visits m, then b and c (both before d), then d:
        # one monotone sweep, four pops. The old LIFO worklist counted
        # every pop as a "pass", overstating the §3.1.5 cost fourfold.
        result = analyze(self.DIAMOND, cache=None)
        assert result.solved.pops == 4
        assert result.solved.passes == 1
        assert result.solved.val["d"]["z"] == 1

    def test_diamond_diverging_still_one_pass(self):
        source = self.DIAMOND.replace("call c(1)", "call c(2)")
        result = analyze(source, cache=None)
        assert result.solved.pops == 4
        assert result.solved.passes == 1
        from repro.core.lattice import BOTTOM

        assert result.solved.val["d"]["z"] is BOTTOM

    def test_recursive_clique_needs_extra_passes(self):
        source = """
program m
  call even(4)
end
subroutine even(n)
  integer n
  if (n > 0) call odd(n - 1)
end
subroutine odd(n)
  integer n
  if (n > 0) call even(n - 1)
end
"""
        result = analyze(source, cache=None)
        # the cycle forces at least one wrap of the priority order
        assert result.solved.passes >= 2
        assert result.solved.pops >= result.solved.passes

    def test_counters_mapping(self):
        result = analyze(self.DIAMOND, cache=None)
        counters = result.solved.counters()
        assert counters["pops"] == result.solved.pops
        assert counters["passes"] == result.solved.passes
        assert set(counters) == {
            "passes",
            "pops",
            "evaluations",
            "meets",
            "deltas",
            "skipped",
            "memo_hits",
            "memo_misses",
            "bottom_skips",
            "regions",
            "region_passes",
            "regions_warm",
            "waves",
            "regions_parallel",
            "slab_slots",
            "slab_bytes",
            "batch_drains",
            "slab_build_seconds",
            "slab_load_seconds",
            "slab_patched_procs",
            "slab_patched_slots",
        }
        # the diamond is acyclic: four singleton regions, one local
        # sweep each, nothing adopted from a store
        assert counters["regions"] == 4
        assert counters["region_passes"] == 4
        assert counters["regions_warm"] == 0


class TestBaselineVal:
    """bottom_val: the Table 3 intraprocedural baseline's entry state."""

    def test_bottom_everywhere_even_with_data(self):
        from repro.core.solver import bottom_val
        from repro.ir import lower_program

        lowered = lower_program(parse_program(
            "program m\ncommon /c/ g\ninteger g\ndata g /9/\nwrite g\nend\n"
        ))
        val = bottom_val(lowered)
        assert all(
            value is BOTTOM for env in val.values() for value in env.values()
        )


class TestConstantsAccessors:
    def test_constants_excludes_top_and_bottom(self):
        source = """
program m
  call s(1)
  read n
  call s2(n)
end
subroutine s(a)
  integer a
  write a
end
subroutine s2(b)
  integer b
  write b
end
subroutine orphan(c)
  integer c
  write c
end
"""
        result = analyze(source)
        assert result.solved.constants("s") != {}
        assert result.solved.constants("s2") == {}
        assert result.solved.constants("orphan") == {}

    def test_all_constants_shape(self):
        result = analyze(
            "program m\ncall s(1)\nend\nsubroutine s(a)\ninteger a\nwrite a\nend\n"
        )
        everything = result.solved.all_constants()
        assert set(everything) == {"m", "s"}
