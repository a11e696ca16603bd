"""The generic engine driving the constprop client reaches the dense fixpoint.

:func:`repro.core.solver.solve` is :func:`~repro.framework.solve_client`
with the constant lattice and :func:`~repro.core.solver.initial_val`;
this file calls the framework directly, outside the core solver's entry
point, and holds it to :func:`~repro.core.solver.solve_dense` — the
reference oracle — on hypothesis-generated programs, by value and by
lattice-element class.
"""

from hypothesis import given, settings

from repro.core.solver import initial_val, solve_dense
from repro.framework import ConstantLattice, solve_client
from repro.workloads.generator import generate

from tests.framework.helpers import prepare, profile_strategy, tagged

SETTINGS = settings(max_examples=15, deadline=None)


@given(profile=profile_strategy)
@SETTINGS
def test_generated_workloads_match_dense(profile):
    workload = generate(profile)
    lowered, graph, _, forward = prepare(workload.source)
    generic = solve_client(
        lowered, graph, forward, ConstantLattice(), initial_val(lowered)
    )
    dense = solve_dense(lowered, graph, forward)
    assert generic.reached == dense.reached
    assert tagged(generic.val) == tagged(dense.val)
