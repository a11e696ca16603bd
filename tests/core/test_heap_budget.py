"""A budget on what one cold analysis leaves on the GC-tracked heap.

CPython runs a full collection whenever the objects that survived the
last one exceed a quarter of the long-lived heap, so every object an
analysis keeps is traversed again by each later full collection. The
budget catches a change that starts retaining a build-only structure or
allocating one object per occurrence where one per value would do.
"""

import dataclasses
import gc

import pytest

from repro.analysis.dominance import DominatorTree
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import analyze
from repro.workloads.suite import load

POLYNOMIAL = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)

#: tracked objects one cold ``large_fanout`` analysis may add, per
#: procedure (about 271 when this budget was set).
BUDGET_PER_PROCEDURE = 300


@pytest.mark.slow
def test_large_fanout_analysis_stays_within_heap_budget():
    source = load("large_fanout").source
    gc.collect()
    before = len(gc.get_objects())
    result = analyze(source, POLYNOMIAL, cache=None)
    gc.collect()
    added = len(gc.get_objects()) - before
    procedures = len(result.lowered.procedures)
    assert added <= BUDGET_PER_PROCEDURE * procedures, (
        f"{added} tracked objects for {procedures} procedures "
        f"({added / procedures:.0f} each)"
    )
    for ssa in result.forward.ssas.values():
        assert not any(
            isinstance(getattr(ssa, f.name), DominatorTree)
            for f in dataclasses.fields(ssa)
        ), ssa.name
