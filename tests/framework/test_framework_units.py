"""Unit tests for the framework primitives: the edge functions and the
lattice contract."""

from repro.core.lattice import BOTTOM, TOP, meet as core_meet
from repro.framework import (
    BottomEdge,
    ConstantEdge,
    ConstantLattice,
    IdentityEdge,
)


class TestEdgeAlgebra:
    def test_constant_ignores_environment(self):
        edge = ConstantEdge(7)
        assert edge.evaluate({}) == 7
        assert edge.evaluate({"x": 1}) == 7
        assert edge.support() == ()
        assert edge.constant_value() == 7

    def test_identity_fetches_its_key(self):
        edge = IdentityEdge("x")
        assert edge.evaluate({"x": 3}) == 3
        assert edge.evaluate({}) is BOTTOM
        assert edge.support() == ("x",)
        assert edge.passthrough_key() == "x"

    def test_bottom_is_support_free_and_not_constant(self):
        edge = BottomEdge()
        assert edge.evaluate({"x": 1}) is BOTTOM
        assert edge.support() == ()
        # None means "not a constant" — ⊥ must not fold away, it floors.
        assert edge.constant_value() is None

    def test_memo_token_defaults_to_edge_identity(self):
        edge = IdentityEdge("x")
        assert edge.memo_token() is edge


class TestConstantLattice:
    lattice = ConstantLattice()

    def test_top_and_bottom_singletons(self):
        assert self.lattice.top is TOP
        assert self.lattice.bottom is BOTTOM

    def test_meet_delegates_to_core(self):
        assert self.lattice.meet is core_meet
        assert self.lattice.meet(3, 3) == 3
        assert self.lattice.meet(3, 4) is BOTTOM
        assert self.lattice.meet(TOP, 5) == 5

