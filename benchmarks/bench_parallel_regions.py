"""Wave-parallel region solving: overlap and byte-identity.

Two measurements:

- ``test_parallel_wave_overlap_speedup`` gates the scheduler itself: every
  region task carries an injected fixed latency (a chaos ``sleep`` fault at
  the region-worker chaos point, hit identically by the inline and the
  pooled path), so the wall-clock ratio measures how much of one wave the
  pool actually overlaps — independent of how fast the machine evaluates
  jump functions. With eight independent regions in one wave and four
  workers the pooled solve must be at least 1.5x faster than the inline
  schedule. Skipped on single-CPU hosts, where the gate would only measure
  the scheduler's overhead.
- ``test_parallel_matches_sequential_on_workload`` runs a real workload
  through a real two-worker pool and requires the byte-identical VAL
  sets that the property suite checks exhaustively, recording the solver
  work counters for the regression gate.
"""

import os
import time

import pytest

from repro.analysis.ssa import ensure_global_symbols
from repro.callgraph import build_call_graph, compute_modref
from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.parallel import solve_parallel
from repro.core.returns import build_return_jump_functions
from repro.core.solver import solve
from repro.frontend.symbols import parse_program
from repro.ir import lower_program
from repro.resilience import chaos
from repro.resilience.chaos import ChaosSpec, Fault
from repro.resilience.errors import Stage
from repro.workloads import load

SPEEDUP_FLOOR = 1.5
FANOUT_WIDTH = 8
WORKERS = 4
REGION_LATENCY = 0.2  # injected seconds per region task


def _fanout_source(width=FANOUT_WIDTH):
    # main fans out to ``width`` independent leaves: wave 0 is main's
    # region, wave 1 holds all the leaves with no call path between them
    lines = ["program m"]
    lines.extend(f"  call p{i}({i + 1})" for i in range(width))
    lines.append("end")
    for i in range(width):
        lines.extend(
            [f"subroutine p{i}(a)", "  integer a", "  write a", "end"]
        )
    return "\n".join(lines) + "\n"


def _build(source, config):
    lowered = lower_program(parse_program(source))
    ensure_global_symbols(lowered)
    graph = build_call_graph(lowered)
    modref = compute_modref(lowered, graph)
    returns = build_return_jump_functions(lowered, graph, modref, config)
    forward = build_forward_jump_functions(lowered, modref, returns, config)
    return lowered, graph, forward


def run_overlap_comparison():
    source = _fanout_source()
    config = AnalysisConfig()
    lowered, graph, forward = _build(source, config)
    spec = ChaosSpec(
        faults=(
            Fault(
                stage=Stage.SOLVE,
                kind="sleep",
                scope="region-worker",
                sleep_seconds=REGION_LATENCY,
            ),
        )
    )
    chaos.install(spec, label="bench")
    try:
        start = time.perf_counter()
        seq = solve_parallel(lowered, graph, forward, workers=1)
        inline_seconds = time.perf_counter() - start
        start = time.perf_counter()
        par = solve_parallel(
            lowered,
            graph,
            forward,
            workers=WORKERS,
            source=source,
            config=config,
        )
        pooled_seconds = time.perf_counter() - start
    finally:
        chaos.uninstall()
    assert par.val == seq.val
    assert par.regions_parallel == FANOUT_WIDTH
    return {
        "inline_seconds": inline_seconds,
        "pooled_seconds": pooled_seconds,
        "speedup": inline_seconds / pooled_seconds,
        "waves": par.waves,
    }


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="wave-overlap gate needs at least two CPUs",
)
def test_parallel_wave_overlap_speedup(benchmark, reporter, bench_counters):
    row = benchmark.pedantic(run_overlap_comparison, rounds=1, iterations=1)

    reporter(
        "Wave-parallel overlap (injected region latency "
        f"{REGION_LATENCY * 1000:.0f} ms, {FANOUT_WIDTH} regions, "
        f"{WORKERS} workers)",
        f"  inline {row['inline_seconds']:>6.2f} s\n"
        f"  pooled {row['pooled_seconds']:>6.2f} s\n"
        f"  speedup {row['speedup']:>5.2f}x (floor {SPEEDUP_FLOOR}x), "
        f"{row['waves']} waves",
    )

    assert row["speedup"] >= SPEEDUP_FLOOR, (
        f"pooled waves only {row['speedup']:.2f}x faster than inline "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    bench_counters.update({"wave_overlap_speedup": round(row["speedup"], 3)})


def run_workload_comparison():
    config = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
    source = load("linpackd", scale=0.5).source
    lowered, graph, forward = _build(source, config)
    seq = solve(lowered, graph, forward)
    par = solve_parallel(
        lowered,
        graph,
        forward,
        workers=2,
        source=source,
        config=config,
    )
    assert par.val == seq.val
    assert par.reached == seq.reached
    assert par.all_constants() == seq.all_constants()
    return seq, par


def test_parallel_matches_sequential_on_workload(
    benchmark, reporter, bench_counters
):
    seq, par = benchmark.pedantic(
        run_workload_comparison, rounds=1, iterations=1
    )

    reporter(
        "Pooled solve vs sequential (linpackd, scale 0.5, 2 workers)",
        f"  VAL byte-identical over {len(par.val)} procedures\n"
        f"  {par.waves} waves, {par.regions} regions, "
        f"{par.regions_parallel} solved in pool\n"
        f"  sequential work: {seq.evaluations} evaluations, "
        f"{seq.meets} meets",
    )

    bench_counters.update(
        {
            "evaluations": seq.evaluations,
            "meets": seq.meets,
            "waves": par.waves,
            "regions_parallel": par.regions_parallel,
        }
    )
