"""§2's solver formulations: sparse worklist vs dense reference.

Both compute the same fixpoint (cross-checked exactly in the test suite
and re-asserted here); this bench measures the trade — the dense
per-procedure worklist re-evaluates whole call sites, the sparse engine
evaluates only jump functions whose support lowered (with build-time
constant hoisting and an identity-keyed memo)."""

import time

import pytest

from repro.analysis.ssa import ensure_global_symbols
from repro.callgraph import build_call_graph, compute_modref
from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig
from repro.core.returns import build_return_jump_functions
from repro.core.solver import solve, solve_dense
from repro.frontend.symbols import parse_program
from repro.ir import lower_program
from repro.workloads import load, suite_names

#: sparse must cut solve-time jump-function evaluations at least this much.
MIN_EVALUATION_REDUCTION = 0.30


@pytest.fixture(scope="module")
def prepared():
    """Stage 1+2 artifacts for the whole suite, built once."""
    config = AnalysisConfig()
    bundle = []
    for name in suite_names():
        lowered = lower_program(parse_program(load(name).source))
        ensure_global_symbols(lowered)
        graph = build_call_graph(lowered)
        modref = compute_modref(lowered, graph)
        returns = build_return_jump_functions(lowered, graph, modref, config)
        forward = build_forward_jump_functions(lowered, modref, returns, config)
        bundle.append((lowered, graph, forward))
    return bundle


def _sum_counters(results) -> dict[str, int]:
    totals: dict[str, int] = {}
    for result in results:
        for key, value in result.counters().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _solve_all(solver, prepared):
    return [solver(lowered, graph, forward)
            for lowered, graph, forward in prepared]


def _interleaved_best(solvers, prepared, repeats=7) -> list[float]:
    """Best-of-N wall-clock per solver, rounds interleaved so ambient
    machine noise hits every solver alike."""
    best = [float("inf")] * len(solvers)
    for _ in range(repeats):
        for index, solver in enumerate(solvers):
            start = time.perf_counter()
            _solve_all(solver, prepared)
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_worklist_solver(benchmark, prepared, bench_counters):
    """The sparse delta-driven solver (the default ``solve``)."""
    results = benchmark(lambda: _solve_all(solve, prepared))
    assert all(r.reached for r in results)
    bench_counters.update(_sum_counters(results))


def test_dense_reference_solver(benchmark, prepared, bench_counters):
    """The dense re-evaluate-everything reference the engine is judged
    against."""
    results = benchmark(lambda: _solve_all(solve_dense, prepared))
    assert all(r.reached for r in results)
    bench_counters.update(_sum_counters(results))


def test_sparse_vs_dense_cost(prepared, reporter, bench_counters):
    """The tentpole claims, asserted: identical VAL/CONSTANTS, ≥30% fewer
    evaluations, and sparse wall-clock no worse than dense."""
    dense_results = _solve_all(solve_dense, prepared)
    sparse_results = _solve_all(solve, prepared)

    lines = [
        f"{'program':<12} {'dense evals':>12} {'sparse evals':>13} {'saved':>7}",
        "-" * 48,
    ]
    for (lowered, _, _), dense, sparse in zip(
        prepared, dense_results, sparse_results
    ):
        assert dense.val == sparse.val  # bit-identical VAL
        assert dense.all_constants() == sparse.all_constants()
        saved = 1 - sparse.evaluations / max(dense.evaluations, 1)
        lines.append(
            f"{lowered.program.main:<12} {dense.evaluations:>12} "
            f"{sparse.evaluations:>13} {saved:>6.0%}"
        )

    dense_evals = sum(r.evaluations for r in dense_results)
    sparse_evals = sum(r.evaluations for r in sparse_results)
    reduction = 1 - sparse_evals / dense_evals
    dense_secs, sparse_secs = _interleaved_best((solve_dense, solve), prepared)
    lines.append("-" * 48)
    lines.append(
        f"{'total':<12} {dense_evals:>12} {sparse_evals:>13} {reduction:>6.0%}"
    )
    lines.append(
        f"wall-clock (best of 7): dense {dense_secs * 1000:.2f} ms, "
        f"sparse {sparse_secs * 1000:.2f} ms"
    )
    reporter("Sparse vs dense solver cost", "\n".join(lines))
    bench_counters.update(
        {
            "dense_evaluations": dense_evals,
            "sparse_evaluations": sparse_evals,
            "reduction_pct": round(reduction * 100, 1),
        }
    )

    assert reduction >= MIN_EVALUATION_REDUCTION
    # allow a whisker of timer noise over "no worse than dense"
    assert sparse_secs <= dense_secs * 1.05
