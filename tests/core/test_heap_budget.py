"""A budget on what one cold analysis leaves on the GC-tracked heap, and
on what an edit session keeps.

CPython runs a full collection whenever the objects that survived the
last one exceed a quarter of the long-lived heap, so every object an
analysis keeps is traversed again by each later full collection. The
budget catches a change that starts retaining a build-only structure or
allocating one object per occurrence where one per value would do.

An edit carries the units it left in place into the next program
version, so a reference from a carried object back to its own version
would keep every superseded version alive.
"""

import dataclasses
import gc
import random
import re
import weakref

import pytest

from repro.analysis.dominance import DominatorTree
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import Analyzer, Stage0Cache, analyze
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


#: a standalone integer literal on an assignment's right-hand side
_LITERAL = re.compile(r"(?<== )\d+\b")


@pytest.mark.slow
def test_edit_session_keeps_one_version():
    lines = load("large_chain").source.split("\n")
    sites = [
        (index, match.start(), match.end())
        for index, line in enumerate(lines)
        for match in _LITERAL.finditer(line)
    ]
    rng = random.Random(101)

    def edit() -> str:
        index, lo, hi = rng.choice(sites)
        digit = str((int(lines[index][hi - 1]) + rng.randint(1, 8)) % 10)
        lines[index] = lines[index][: hi - 1] + digit + lines[index][hi:]
        return "\n".join(lines)

    analyzer = Analyzer("\n".join(lines), cache=Stage0Cache())
    first = analyzer.run(POLYNOMIAL)
    first_lowered = weakref.ref(first.lowered)
    first_graph = weakref.ref(first.call_graph)
    first_ssas = [weakref.ref(ssa) for ssa in first.forward.ssas.values()]
    del first
    result = analyzer.reanalyze(edit(), POLYNOMIAL)
    gc.collect()
    after_first_edit = len(gc.get_objects())
    for _ in range(9):
        result = None
        result = analyzer.reanalyze(edit(), POLYNOMIAL)
    gc.collect()
    assert first_lowered() is None and first_graph() is None
    # a superseded unit's SSA form dies with its edit's run
    carried = {id(ssa) for ssa in result.forward.ssas.values()}
    assert all(ref() is None or id(ref()) in carried for ref in first_ssas)
    assert any(ref() is None for ref in first_ssas)
    assert abs(len(gc.get_objects()) - after_first_edit) <= after_first_edit // 100
    tables = {
        id(span.lines)
        for proc in result.program.procedures.values()
        for span in (proc.ast.span, proc.ast.name_span)
    }
    assert len(tables) == 1
