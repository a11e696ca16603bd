"""Tests for the flat slab engine: code encoding, slab construction,
segment transport, and the invariants the integer meet relies on."""

from array import array

import pytest

from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import build_stage0
from repro.core.exprs import clear_intern_table
from repro.core.lattice import BOTTOM, TOP
from repro.core.returns import build_return_jump_functions
from repro.core.slab import (
    BOTTOM_CODE,
    KIND_KILL,
    TOP_CODE,
    ConstPool,
    SlabSegment,
    build_slab,
    encode_env,
    slab_for,
    solve_flat,
)
from repro.core.solver import solve
from repro.frontend import parse_program


def pipeline(source, config=None):
    config = config or AnalysisConfig()
    stage0 = build_stage0(parse_program(source))
    lowered, graph, cache = stage0.lowered, stage0.graph, stage0.ssa_cache
    returns = build_return_jump_functions(lowered, graph, config, cache)
    forward = build_forward_jump_functions(lowered, returns, config, cache)
    return lowered, graph, forward


DIAMOND = """
program m
  call b(1)
  call c(2)
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


class TestConstPool:
    def test_sentinels_have_fixed_codes(self):
        pool = ConstPool()
        assert pool.encode(TOP) == TOP_CODE
        assert pool.encode(BOTTOM) == BOTTOM_CODE

    def test_round_trip(self):
        pool = ConstPool()
        for value in (7, -3, 0, 10**30, True, False):
            assert pool.decode(pool.encode(value)) is value
        assert pool.decode(TOP_CODE) is TOP
        assert pool.decode(BOTTOM_CODE) is BOTTOM

    def test_interning_is_stable(self):
        pool = ConstPool()
        assert pool.encode(42) == pool.encode(42)

    def test_bool_never_aliases_int(self):
        # True == 1 under ==, but LOGICAL .true. is not INTEGER 1: equal
        # codes must imply lattice-equal values for the integer meet
        pool = ConstPool()
        assert pool.encode(True) != pool.encode(1)
        assert pool.encode(False) != pool.encode(0)
        assert pool.decode(pool.encode(True)) is True
        assert pool.decode(pool.encode(1)) == 1

    def test_codes_start_after_sentinels(self):
        pool = ConstPool()
        assert pool.encode(5) >= 2


class TestBuildSlab:
    def build(self, source, config=None):
        lowered, graph, forward = pipeline(source, config)
        return build_slab(lowered, graph, forward.index), lowered

    def test_one_slot_per_entry_key(self):
        slab, lowered = self.build(DIAMOND)
        assert slab.nslots == len(slab.keys_flat)
        assert set(slab.proc_names) == {"m", "b", "c", "d"}
        # slot_base is a proper prefix-sum over per-procedure key counts
        assert list(slab.slot_base)[0] == 0
        assert list(slab.slot_base)[-1] == slab.nslots

    def test_stream_covers_every_reached_seed_edge(self):
        slab, lowered = self.build(DIAMOND)
        index_edges = sum(
            len(edges)
            for edges in slab_edges(lowered, DIAMOND).values()
        )
        non_kill = sum(1 for kind in slab.p1_kind if kind != KIND_KILL)
        assert non_kill == index_edges

    def test_parallel_stream_arrays_agree(self):
        slab, _ = self.build(DIAMOND)
        assert (
            len(slab.p1_target)
            == len(slab.p1_kind)
            == len(slab.p1_payload)
            == len(slab.p1_enq)
        )
        assert all(0 <= t < slab.nslots for t in slab.p1_target)

    def test_dependent_csr_points_into_stream(self):
        slab, _ = self.build(DIAMOND)
        assert list(slab.dep_indptr)[0] == 0
        assert list(slab.dep_indptr)[-1] == len(slab.dep_edges)
        stream = len(slab.p1_target)
        assert all(0 <= e < stream for e in slab.dep_edges)

    def test_slab_cached_per_forward(self):
        lowered, graph, forward = pipeline(DIAMOND)
        first = slab_for(forward, lowered, graph)
        second = slab_for(forward, lowered, graph)
        assert first is second

    def test_nbytes_positive_and_memoized(self):
        slab, _ = self.build(DIAMOND)
        assert slab.nbytes() > 0
        assert slab.nbytes() == slab.nbytes()


def slab_edges(lowered, source):
    _, graph, forward = pipeline(source)
    return forward.index.seeds


class TestSolveFlat:
    def test_matches_object_engine_on_diamond(self):
        lowered, graph, forward = pipeline(DIAMOND)
        obj = solve(lowered, graph, forward)
        flat = solve_flat(lowered, graph, forward)
        assert flat.val == obj.val
        assert flat.reached == obj.reached
        assert flat.val["d"]["z"] is BOTTOM

    def test_slab_counters_populated(self):
        lowered, graph, forward = pipeline(DIAMOND)
        flat = solve_flat(lowered, graph, forward)
        assert flat.slab_slots == 3  # b.x, c.y, d.z (m has no keys)
        assert flat.slab_bytes > 0
        assert flat.passes == 1 + flat.batch_drains

    def test_flat_flag_routes_through_solve(self):
        lowered, graph, forward = pipeline(DIAMOND)
        flat = solve(lowered, graph, forward, flat=True)
        assert flat.slab_slots > 0

    def test_mid_solve_intern_clear_under_flat(self):
        # slab kernels close over slot ids and the pool, never interned
        # expression nodes: dropping the intern table between build and
        # solve (an incremental-session hazard) must not perturb VALs
        source = """
program m
  integer k
  k = 4
  call t(k + 1, 2)
end
subroutine t(x, y)
  integer x, y
  call s(x * y + 1)
end
subroutine s(a)
  integer a
  write a
end
"""
        config = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
        lowered, graph, forward = pipeline(source, config)
        expected = solve(lowered, graph, forward).val
        slab_for(forward, lowered, graph)  # build + cache the slab
        clear_intern_table()
        try:
            flat = solve_flat(lowered, graph, forward)
        finally:
            clear_intern_table()
        assert flat.val == expected
        assert flat.val["s"]["a"] == 11


class TestSlabSegment:
    def test_round_trip(self):
        env = {"a": 3, "b": TOP, "c": BOTTOM, "d": True, "e": 1}
        segment = encode_env(env)
        assert dict(segment.items()) == env
        # class-aware: the True slot decodes to bool, not int
        decoded = dict(segment.items())
        assert decoded["d"] is True
        assert decoded["e"] == 1 and decoded["e"] is not True

    def test_empty_env(self):
        segment = encode_env({})
        assert dict(segment.items()) == {}

    def test_pool_is_self_contained(self):
        env = {"a": 10**25, "b": 10**25}
        segment = encode_env(env)
        assert len(segment.pool) == 1  # interned within the segment
        assert dict(segment.items()) == env

    def test_segment_is_frozen_and_slotted(self):
        segment = encode_env({"a": 1})
        assert not hasattr(segment, "__dict__")
        with pytest.raises(AttributeError):
            segment.keys = ()

    def test_codes_are_compact_int32(self):
        segment = encode_env({"a": 1})
        assert isinstance(segment.codes, array)
        assert segment.codes.itemsize == 4
