"""Copy propagation subsumes constant propagation.

π projects the copy lattice onto the constant lattice (copies become ⊥).
The client is built so π commutes with every transfer, which makes
π(copyprop fixpoint) = constprop fixpoint *exactly* — asserted here on
the workload suite and hypothesis programs. Strictness (acceptance
criterion: copyprop provably subsumes constprop on at least one example
program) is pinned on a crafted chain program and on
``examples/pipeline.f``.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.core.lattice import BOTTOM, TOP
from repro.core.solver import solve
from repro.framework import solve_client
from repro.framework.clients import ConstPropClient, CopyOf, CopyPropClient
from repro.framework.clients.copyprop import CopyLattice, copy_facts, project
from repro.workloads import load_suite
from repro.workloads.generator import generate

from tests.framework.helpers import prepare, profile_strategy, tagged

SETTINGS = settings(max_examples=15, deadline=None)

SUITE = load_suite(scale=0.25)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

# An uninitialized global rides pass-throughs down a call chain:
# constprop floors every binding to ⊥ (no DATA constant), copyprop
# proves each one still equals main's global at entry.
CHAIN_SRC = """
program main
  common /io/ n
  integer n
  call outer(n)
end
subroutine outer(p)
  integer p
  call inner(p)
  write p
end
subroutine inner(q)
  integer q
  write q
end
"""


def projected(val):
    return {
        proc: {key: project(value) for key, value in env.items()}
        for proc, env in val.items()
    }


def solve_copy_and_const(source):
    lowered, graph, _, forward = prepare(source)
    const = solve_client(lowered, graph, ConstPropClient(forward))
    copy = solve_client(lowered, graph, CopyPropClient(forward))
    return const, copy


@pytest.mark.parametrize("name", sorted(SUITE))
def test_projection_equals_constprop_on_suite(name):
    const, copy = solve_copy_and_const(SUITE[name].source)
    assert copy.reached == const.reached
    assert tagged(projected(copy.val)) == tagged(const.val)


@given(profile=profile_strategy)
@SETTINGS
def test_projection_equals_constprop_on_generated(profile):
    workload = generate(profile)
    const, copy = solve_copy_and_const(workload.source)
    assert tagged(projected(copy.val)) == tagged(const.val)


def test_strict_refinement_on_chain_program():
    lowered, graph, _, forward = prepare(CHAIN_SRC)
    const = solve(lowered, graph, forward)
    copy = solve_client(lowered, graph, CopyPropClient(forward))

    # subsumption: projecting recovers constprop exactly
    assert tagged(projected(copy.val)) == tagged(const.val)

    # strictness: both formals are ⊥ to constprop but proven copies of
    # main's uninitialized global here, and every copy fact sits where
    # constprop gave up (⊥), never where it found a constant.
    facts = copy_facts(copy)
    chained = [
        value
        for env in facts.values()
        for value in env.values()
        if value.proc == "main"
    ]
    assert len(chained) >= 2
    for proc, env in facts.items():
        for key, value in env.items():
            assert isinstance(value, CopyOf)
            assert const.val[proc][key] is BOTTOM


def test_pipeline_example_has_copy_facts():
    """The shipped example the CLI smoke uses shows the refinement too."""
    source = (EXAMPLES / "pipeline.f").read_text()
    const, copy = solve_copy_and_const(source)
    extra = sum(len(env) for env in copy_facts(copy).values())
    assert extra >= 1
    assert tagged(projected(copy.val)) == tagged(const.val)


class TestCopyLattice:
    lattice = CopyLattice()
    a = CopyOf("main", "g")
    b = CopyOf("main", "h")

    def meet(self, x, y):
        return self.lattice.meet(x, y)

    def test_top_is_identity(self):
        assert self.meet(TOP, self.a) is self.a
        assert self.meet(self.a, TOP) is self.a
        assert self.meet(TOP, 7) == 7

    def test_bottom_absorbs(self):
        assert self.meet(BOTTOM, self.a) is BOTTOM
        assert self.meet(self.a, BOTTOM) is BOTTOM

    def test_equal_copies_agree(self):
        assert self.meet(self.a, CopyOf("main", "g")) == self.a

    def test_distinct_roots_conflict(self):
        assert self.meet(self.a, self.b) is BOTTOM

    def test_copy_against_constant_conflicts(self):
        # a constant is one particular value; a copy is whatever the
        # root held — nothing proves they coincide.
        assert self.meet(self.a, 4) is BOTTOM
        assert self.meet(4, self.a) is BOTTOM

    def test_constants_meet_as_before(self):
        assert self.meet(3, 3) == 3
        assert self.meet(3, 4) is BOTTOM

    def test_commutative_on_samples(self):
        samples = [TOP, BOTTOM, 0, 1, True, self.a, self.b]
        for x in samples:
            for y in samples:
                assert self.meet(x, y) == self.meet(y, x)

    def test_associative_on_samples(self):
        samples = [TOP, BOTTOM, 1, self.a, self.b]
        for x in samples:
            for y in samples:
                for z in samples:
                    assert self.meet(self.meet(x, y), z) == self.meet(
                        x, self.meet(y, z)
                    )

    def test_projection_is_meet_homomorphism(self):
        from repro.core.lattice import meet as constant_meet

        samples = [TOP, BOTTOM, 0, 1, True, self.a, self.b]
        for x in samples:
            for y in samples:
                assert project(self.meet(x, y)) == constant_meet(
                    project(x), project(y)
                )
