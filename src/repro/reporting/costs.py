"""Measured jump-function costs (the §3.1.5 discussion, quantified).

The paper argues analytically that

- the literal jump function is cheapest to build (a textual scan),
- the other three require intraprocedural analysis (SSA + value
  numbering) of similar cost, and
- polynomial evaluation cost approaches pass-through in practice because
  real polynomial jump functions are small (|support| → 1).

This module measures all of that on the workload suite: per-stage
wall-clock from the analyzer's timings, plus static statistics about the
constructed jump functions (expression sizes and support sizes).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import Analyzer
from repro.workloads import load, suite_names


@dataclass(frozen=True)
class CostRow:
    kind: str
    build_seconds: float  # stages 1+2 (jump function construction)
    solve_seconds: float  # stage 3 (interprocedural propagation)
    record_seconds: float  # stage 4
    mean_cost: float  # mean jump-function expression size
    mean_support: float  # mean |support| over non-bottom functions
    constants_found: int


def run_cost_report(scale: float = 1.0) -> list[CostRow]:
    # One analyzer per program, shared across all four kinds: stage 0
    # (lowering, call graph, MOD/REF) is configuration-independent, so the
    # report prices only what differs between jump functions.
    analyzers = {
        name: Analyzer(load(name, scale).source) for name in suite_names()
    }
    rows = []
    for kind in JumpFunctionKind:
        build = solve = record = 0.0
        sizes: list[int] = []
        supports: list[int] = []
        constants = 0
        for name in suite_names():
            result = analyzers[name].run(AnalysisConfig(jump_function=kind))
            build += result.timings["returns"] + result.timings["forward"]
            solve += result.timings["solve"]
            record += result.timings["record"]
            constants += result.constants_found
            for site in result.forward.sites.values():
                for edge in site.values():
                    if edge.func.is_bottom:
                        continue
                    sizes.append(edge.func.size)
                    supports.append(len(edge.support))
        rows.append(
            CostRow(
                kind=kind.value,
                build_seconds=build,
                solve_seconds=solve,
                record_seconds=record,
                mean_cost=statistics.fmean(sizes) if sizes else 0.0,
                mean_support=statistics.fmean(supports) if supports else 0.0,
                constants_found=constants,
            )
        )
    return rows


def format_cost_report(rows: list[CostRow]) -> str:
    header = (
        f"{'Jump function':<16} {'build(s)':>9} {'solve(s)':>9} "
        f"{'record(s)':>10} {'mean size':>10} {'mean |sup|':>11} "
        f"{'constants':>10}"
    )
    lines = [
        "Jump function costs over the whole suite (paper §3.1.5, measured).",
        header,
        "-" * len(header),
    ]
    for row in rows:
        lines.append(
            f"{row.kind:<16} {row.build_seconds:>9.3f} {row.solve_seconds:>9.3f} "
            f"{row.record_seconds:>10.3f} {row.mean_cost:>10.2f} "
            f"{row.mean_support:>11.2f} {row.constants_found:>10}"
        )
    return "\n".join(lines)
