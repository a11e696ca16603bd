"""The framework's shipped clients, timed over the Table 1–3 corpus.

Constant propagation is the paper's analysis — exactly what
:func:`repro.core.solver.solve` runs — and its work counters are the
``--bench-check`` baseline. Copy propagation pays the same edge walk
plus the richer lattice."""

import pytest

from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig
from repro.core.driver import build_stage0
from repro.core.returns import build_return_jump_functions
from repro.core.solver import initial_val
from repro.framework import ConstantLattice, solve_client
from repro.framework.clients import solve_copyprop
from repro.frontend.symbols import parse_program
from repro.workloads import load, suite_names


@pytest.fixture(scope="module")
def prepared():
    """Stage 1+2 artifacts for the whole suite, built once."""
    config = AnalysisConfig()
    bundle = []
    for name in suite_names():
        stage0 = build_stage0(parse_program(load(name).source))
        lowered, graph, cache = stage0.lowered, stage0.graph, stage0.ssa_cache
        returns = build_return_jump_functions(lowered, graph, config, cache)
        forward = build_forward_jump_functions(lowered, returns, config, cache)
        bundle.append((lowered, graph, forward))
    return bundle


def _sum_counters(results) -> dict[str, int]:
    totals: dict[str, int] = {}
    for result in results:
        for key, value in result.counters().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _solve_framework(prepared):
    return [
        solve_client(
            lowered, graph, forward, ConstantLattice(), initial_val(lowered)
        )
        for lowered, graph, forward in prepared
    ]


def test_framework_constprop(benchmark, prepared, bench_counters):
    """Constant propagation: the stage-2 flow edges on the engine."""
    results = benchmark(lambda: _solve_framework(prepared))
    assert all(r.reached for r in results)
    bench_counters.update(_sum_counters(results))


def test_copyprop_client(benchmark, prepared, reporter, bench_counters):
    """The copy lattice over the same flow edges."""
    results = benchmark(
        lambda: [
            solve_copyprop(lowered, graph, forward)
            for lowered, graph, forward in prepared
        ]
    )
    assert all(r.reached for r in results)
    bench_counters.update(_sum_counters(results))

    from repro.framework.clients.copyprop import copy_facts

    lines = [f"{'program':<12} {'copy facts':>11}", "-" * 24]
    for (lowered, _, _), result in zip(prepared, results):
        facts = sum(len(env) for env in copy_facts(result).values())
        lines.append(f"{lowered.program.main:<12} {facts:>11}")
    reporter("Copy facts beyond constprop (per program)", "\n".join(lines))

