"""Tests for the lattice sanitizer: unit-level hook behavior, the
dense-solver integration path (a hand-written non-monotone transfer
must be *reported*, not crashed on), and the sparse/dense cross-check."""

import pytest

from repro.core.builder import binding_edge
from repro.core.driver import analyze
from repro.core.exprs import ValueExpr
from repro.core.lattice import BOTTOM, TOP
from repro.core.solver import solve, solve_dense
from repro.diagnostics.sanitizer import (
    MAX_CHAIN_DEPTH,
    LatticeSanitizer,
    cross_check,
)


class TestObserveUpdate:
    def test_descending_chain_is_clean(self):
        sanitizer = LatticeSanitizer()
        sanitizer.observe_update("p", "x", TOP, 5)
        sanitizer.observe_update("p", "x", 5, BOTTOM)
        assert sanitizer.clean
        assert sanitizer.updates_observed == 2

    def test_rise_reported(self):
        sanitizer = LatticeSanitizer()
        sanitizer.observe_update("p", "x", BOTTOM, 5)
        (violation,) = sanitizer.violations
        assert violation.kind == "value-rise"
        assert violation.code == "RL302"

    def test_constant_to_different_constant_is_a_rise(self):
        # meet(3, 2) is ⊥, so 3 → 2 moves sideways, not down
        sanitizer = LatticeSanitizer()
        sanitizer.observe_update("p", "x", 3, 2)
        (violation,) = sanitizer.violations
        assert violation.kind == "value-rise"

    def test_bool_int_confusion_is_a_rise(self):
        # .true. and 1 are distinct lattice constants (True == 1 in Python)
        sanitizer = LatticeSanitizer()
        sanitizer.observe_update("p", "x", 1, True)
        assert not sanitizer.clean

    def test_chain_depth_overflow_reported(self):
        # a buggy engine that keeps re-lowering from ⊤ descends each step
        # yet lowers one binding more often than the lattice depth allows
        sanitizer = LatticeSanitizer()
        for step in range(MAX_CHAIN_DEPTH + 1):
            sanitizer.observe_update("p", "x", TOP, step + 1)
        kinds = [v.kind for v in sanitizer.violations]
        assert kinds == ["chain-depth"]
        assert sanitizer.violations[0].code == "RL303"


class TestObserveTransfer:
    def test_descending_evaluations_clean(self):
        sanitizer = LatticeSanitizer()
        sanitizer.observe_transfer(0, "q", "k", 7)
        sanitizer.observe_transfer(0, "q", "k", BOTTOM)
        assert sanitizer.clean
        assert sanitizer.transfers_observed == 2

    def test_rising_evaluation_reported(self):
        sanitizer = LatticeSanitizer()
        sanitizer.observe_transfer(3, "q", "k", BOTTOM)
        sanitizer.observe_transfer(3, "q", "k", 7)
        (violation,) = sanitizer.violations
        assert violation.kind == "non-monotone-transfer"
        assert violation.site_id == 3
        assert violation.diagnostic().code == "RL301"

    def test_sites_tracked_independently(self):
        sanitizer = LatticeSanitizer()
        sanitizer.observe_transfer(0, "q", "k", BOTTOM)
        sanitizer.observe_transfer(1, "q", "k", 7)
        assert sanitizer.clean


class TestCrossCheck:
    def test_identical_vals_clean(self):
        val = {"p": {"x": 3, "y": BOTTOM}}
        assert cross_check(val, val) == []

    def test_divergent_binding_reported(self):
        sparse = {"p": {"x": 3}}
        dense = {"p": {"x": BOTTOM}}
        (violation,) = cross_check(sparse, dense)
        assert violation.kind == "sparse-dense-divergence"
        assert violation.code == "RL304"
        assert "3" in violation.detail

    def test_missing_binding_reported(self):
        (violation,) = cross_check({"p": {}}, {"p": {"x": 1}})
        assert "missing from sparse" in violation.detail


RECURSIVE = """
program main
  integer n
  n = 3
  call t(n)
end
subroutine t(a)
  integer a
  call s(a)
  if (a > 0) then
    call t(a - 1)
  endif
end
subroutine s(b)
  integer b
  b = b + 1
end
"""


class _RisingExpr(ValueExpr):
    """A deliberately non-monotone jump function: as the caller's entry
    environment descends, successive evaluations *rise* (10, then 20).
    Nothing the builder produces behaves this way — this simulates a
    buggy future jump-function implementation."""

    def __init__(self):
        self.calls = 0

    def support(self):
        return frozenset({"a"})

    def support_order(self):
        return ("a",)

    def evaluate(self, env):
        self.calls += 1
        return 10 * min(self.calls, 2)


def _solve_with_rising_edge(sanitizer=None):
    # cache=None: the jump-function table is about to be tampered with
    result = analyze(RECURSIVE, cache=None)
    forward = result.forward
    site_to_s = next(
        site
        for site in forward.sites.values()
        if any(edge.callee == "s" for edge in site.values())
    )
    edge = site_to_s["b"]
    site_to_s["b"] = binding_edge(
        edge.site_id, edge.caller, edge.callee, "b", _RisingExpr()
    )
    return solve_dense(
        result.lowered, result.call_graph, forward, sanitizer=sanitizer
    )


class TestEngineIntegration:
    def test_clean_solve_has_no_violations(self):
        result = analyze(RECURSIVE, cache=None)
        sanitizer = LatticeSanitizer()
        solve_dense(
            result.lowered, result.call_graph, result.forward,
            sanitizer=sanitizer,
        )
        assert sanitizer.clean
        assert sanitizer.transfers_observed > 0
        assert sanitizer.updates_observed > 0

    def test_non_monotone_transfer_caught_not_crashed(self):
        sanitizer = LatticeSanitizer()
        solved = _solve_with_rising_edge(sanitizer)  # must not raise
        assert solved.val["s"]["b"] is BOTTOM  # the meet still floors it
        rises = [
            v for v in sanitizer.violations
            if v.kind == "non-monotone-transfer"
        ]
        assert rises, "the rising jump function went unnoticed"
        violation = rises[0]
        assert violation.procedure == "s"
        assert violation.key == "b"
        diagnostic = violation.diagnostic()
        assert diagnostic.code == "RL301"
        assert diagnostic.severity.value == "error"

    def test_detached_engine_result_unchanged(self):
        # attaching the sanitizer must not perturb the fixpoint
        result = analyze(RECURSIVE, cache=None)
        plain = solve_dense(result.lowered, result.call_graph, result.forward)
        observed = solve_dense(
            result.lowered, result.call_graph, result.forward,
            sanitizer=LatticeSanitizer(),
        )
        assert plain.val == observed.val

    def test_sparse_dense_cross_check_clean(self):
        result = analyze(RECURSIVE, cache=None)
        sparse = solve(result.lowered, result.call_graph, result.forward)
        dense = solve_dense(result.lowered, result.call_graph, result.forward)
        assert cross_check(sparse.val, dense.val) == []


@pytest.mark.slow
class TestFullSuite:
    def test_sanitizer_clean_on_every_workload(self):
        from repro.workloads import load_suite

        for workload in load_suite(scale=1.0).values():
            result = analyze(workload.source, cache=None)
            sanitizer = LatticeSanitizer()
            dense = solve_dense(
                result.lowered, result.call_graph, result.forward,
                sanitizer=sanitizer,
            )
            assert sanitizer.clean, (
                f"{workload.name}: {[str(v) for v in sanitizer.violations]}"
            )
            sparse = solve(result.lowered, result.call_graph, result.forward)
            assert cross_check(sparse.val, dense.val) == []
