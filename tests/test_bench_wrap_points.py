"""The benchmark's traced layers still wrap the functions the analyzer calls.

``bench/trace.py`` times each layer by swapping the module attributes in
its ``WRAP_POINTS`` for timing wrappers. A refactor that renames, moves
or inlines one of those functions would otherwise fail only the traced
benchmark runs. These tests read ``bench/`` and change nothing there.
"""

import importlib

from bench.trace import WRAP_POINTS, Tracer
from repro.core import driver
from repro.core.config import AnalysisConfig


def resolve(module: str, attribute: str):
    """The object that owns ``attribute`` (a module, or a class in it)
    and the attribute's own name there."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def test_every_wrap_point_resolves_and_uninstall_restores_it():
    originals = []
    for module, attribute, _, _ in WRAP_POINTS:
        owner, name = resolve(module, attribute)
        assert name in vars(owner), f"{module}.{attribute} does not resolve"
        originals.append((owner, name, vars(owner)[name]))
    tracer = Tracer()
    tracer.install()
    try:
        for owner, name, original in originals:
            wrapper = vars(owner)[name]
            assert wrapper is not original
            assert wrapper.__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, name, original in originals:
        assert vars(owner)[name] is original


# complete propagation folds the branch, so its second round builds its
# own call graph and MOD/REF through repro.core.complete
FOLDING = """
program main
  integer n
  n = 4
  call chain(n)
end
subroutine chain(d)
  integer d
  if (d > 0) then
    call leaf(d)
  endif
end
subroutine leaf(x)
  integer x
  write x
end
"""


def traced(tracer: Tracer, config: AnalysisConfig) -> dict:
    tracer.counts.clear()
    tracer.spans.clear()
    tracer.begin_op()
    start = tracer.clock()
    driver.analyze(FOLDING, config, cache=None)
    tracer.end_op(start, tracer.clock())
    return tracer.layer_metrics()


def test_call_structure_and_numbering_wrap_points_are_called():
    tracer = Tracer()
    tracer.install()
    try:
        complete = traced(tracer, AnalysisConfig(complete=True))
        # stage 1 numbers through repro.core.returns; with return jump
        # functions off only stage 2 numbers, through repro.core.builder
        no_returns = traced(
            tracer, AnalysisConfig(use_return_jump_functions=False)
        )
    finally:
        tracer.uninstall()
    assert complete["callgraph.graph.calls"] == 2
    assert complete["callgraph.modref.calls"] == 2
    assert complete["analysis.dce.calls"] >= 1
    assert complete["analysis.valuenum.calls"] >= 3
    assert complete["analysis.ssa.cache_hit_ratio"] > 0
    assert no_returns["core.returns.calls"] == 1
    assert no_returns["analysis.valuenum.calls"] == 3
