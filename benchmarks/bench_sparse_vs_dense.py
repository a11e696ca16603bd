"""Scaling: sparse vs dense solver cost as program size grows.

Sweeps the generator's scale factor on the ``spec77`` profile (the same
sizes as ``bench_scaling.py``) and compares the dense reference with the
sparse delta-driven engine on each size.
The interesting question is whether the sparse engine's advantage (fewer
solve-time evaluations) persists — or grows — with program size, and
whether its bookkeeping ever costs more wall-clock than it saves."""

import time

from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig
from repro.core.driver import build_stage0
from repro.core.returns import build_return_jump_functions
from repro.core.solver import solve, solve_dense
from repro.frontend.symbols import parse_program
from repro.workloads import load

from benchmarks.bench_scaling import SCALES

SOLVERS = (
    ("dense", solve_dense),
    ("sparse", solve),
)


def _prepare(scale):
    config = AnalysisConfig()
    workload = load("spec77", scale=scale)
    stage0 = build_stage0(parse_program(workload.source))
    lowered, graph, cache = stage0.lowered, stage0.graph, stage0.ssa_cache
    returns = build_return_jump_functions(lowered, graph, config, cache)
    forward = build_forward_jump_functions(lowered, returns, config, cache)
    return workload, lowered, graph, forward


def run_sweep():
    rows = []
    for scale in SCALES:
        workload, lowered, graph, forward = _prepare(scale)
        row = {"scale": scale, "lines": workload.line_count}
        baseline_val = None
        for label, solver in SOLVERS:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                result = solver(lowered, graph, forward)
                best = min(best, time.perf_counter() - start)
            if baseline_val is None:
                baseline_val = result.val
            else:
                assert result.val == baseline_val  # same fixpoint at every size
            row[label] = {
                "seconds": best,
                "evaluations": result.evaluations,
                "meets": result.meets,
            }
        rows.append(row)
    return rows


def test_sparse_vs_dense_scaling(benchmark, reporter, bench_counters):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    header = (
        f"{'scale':>6} {'lines':>7} "
        f"{'dense ev':>9} {'sparse ev':>10} "
        f"{'dense ms':>9} {'sparse ms':>10}"
    )
    body = [header, "-" * len(header)]
    for row in rows:
        body.append(
            f"{row['scale']:>6.2f} {row['lines']:>7} "
            f"{row['dense']['evaluations']:>9} "
            f"{row['sparse']['evaluations']:>10} "
            f"{row['dense']['seconds'] * 1000:>9.2f} "
            f"{row['sparse']['seconds'] * 1000:>10.2f}"
        )
    reporter("Sparse vs dense scaling (spec77 profile)", "\n".join(body))

    for row in rows:
        # the evaluation advantage must hold at every program size
        assert row["sparse"]["evaluations"] < row["dense"]["evaluations"]
    largest = rows[-1]
    bench_counters.update(
        {
            "largest_scale_dense_evaluations": largest["dense"]["evaluations"],
            "largest_scale_sparse_evaluations": largest["sparse"]["evaluations"],
        }
    )
