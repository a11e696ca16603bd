"""Tests for the four forward jump function projections (§3.1)."""

import pytest

from repro.core.config import JumpFunctionKind
from repro.core.exprs import (
    BOTTOM_EXPR,
    ConstExpr,
    EntryExpr,
    const_expr,
    entry_expr,
    make_binary,
)
from repro.core.builder import binding_edge
from repro.core.jump_functions import projected_expr
from repro.core.lattice import BOTTOM, is_constant
from repro.frontend.symbols import GlobalId

LITERAL_5 = const_expr(5)
PASSTHROUGH = entry_expr("k")
POLY = make_binary("+", make_binary("*", const_expr(2), entry_expr("k")), const_expr(1))

ALL_KINDS = list(JumpFunctionKind)


class TestLiteralProjection:
    def test_accepts_literal_actual(self):
        jf = projected_expr(LITERAL_5, JumpFunctionKind.LITERAL, is_literal_actual=True)
        assert jf.evaluate({}) == 5

    def test_rejects_computed_constant(self):
        # gcp finds it, but it is not a literal token at the call site
        jf = projected_expr(LITERAL_5, JumpFunctionKind.LITERAL, is_literal_actual=False)
        assert jf.is_bottom

    def test_rejects_passthrough(self):
        jf = projected_expr(PASSTHROUGH, JumpFunctionKind.LITERAL, is_literal_actual=False)
        assert jf.is_bottom

    def test_rejects_globals(self):
        # §3.1.1: literal misses constants passed implicitly via globals
        jf = projected_expr(LITERAL_5, JumpFunctionKind.LITERAL,
                     is_literal_actual=True, is_global=True)
        assert jf.is_bottom


class TestIntraproceduralProjection:
    def test_accepts_computed_constant(self):
        jf = projected_expr(LITERAL_5, JumpFunctionKind.INTRAPROCEDURAL)
        assert jf.evaluate({}) == 5

    def test_rejects_passthrough(self):
        jf = projected_expr(PASSTHROUGH, JumpFunctionKind.INTRAPROCEDURAL)
        assert jf.is_bottom

    def test_accepts_constant_global(self):
        jf = projected_expr(LITERAL_5, JumpFunctionKind.INTRAPROCEDURAL, is_global=True)
        assert jf.evaluate({}) == 5

    def test_ignores_entry_values(self):
        # even if the env knows k, the intraprocedural function is fixed ⊥
        jf = projected_expr(PASSTHROUGH, JumpFunctionKind.INTRAPROCEDURAL)
        assert jf.evaluate({"k": 3}) is BOTTOM


class TestPassThroughProjection:
    def test_accepts_passthrough(self):
        jf = projected_expr(PASSTHROUGH, JumpFunctionKind.PASS_THROUGH)
        assert jf.evaluate({"k": 3}) == 3
        assert jf.support() == {"k"}

    def test_accepts_constant(self):
        jf = projected_expr(LITERAL_5, JumpFunctionKind.PASS_THROUGH)
        assert jf.evaluate({}) == 5

    def test_rejects_polynomial(self):
        jf = projected_expr(POLY, JumpFunctionKind.PASS_THROUGH)
        assert jf.is_bottom

    def test_global_passthrough(self):
        gid = GlobalId("c", 0)
        jf = projected_expr(entry_expr(gid), JumpFunctionKind.PASS_THROUGH, is_global=True)
        assert jf.evaluate({gid: 10}) == 10

    def test_support_of_passthrough_is_single_parameter(self):
        # §3.1.5 case 2: each actual depends on exactly one formal
        jf = projected_expr(PASSTHROUGH, JumpFunctionKind.PASS_THROUGH)
        assert len(jf.support()) == 1


class TestPolynomialProjection:
    def test_accepts_polynomial(self):
        jf = projected_expr(POLY, JumpFunctionKind.POLYNOMIAL)
        assert jf.evaluate({"k": 20}) == 41

    def test_bottom_expression_stays_bottom(self):
        jf = projected_expr(BOTTOM_EXPR, JumpFunctionKind.POLYNOMIAL)
        assert jf.is_bottom

    def test_cost_tracks_expression_size(self):
        simple = projected_expr(LITERAL_5, JumpFunctionKind.POLYNOMIAL)
        poly = projected_expr(POLY, JumpFunctionKind.POLYNOMIAL)
        assert poly.size > simple.size


class TestSubsetChain:
    """§3.1: each jump function's constants ⊆ the next one's."""

    CASES = [
        (LITERAL_5, True, False),
        (LITERAL_5, False, False),
        (PASSTHROUGH, False, False),
        (POLY, False, False),
        (entry_expr(GlobalId("c", 1)), False, True),
        (BOTTOM_EXPR, False, False),
    ]

    @pytest.mark.parametrize("expr,is_lit,is_glob", CASES)
    def test_chain_on_every_expression(self, expr, is_lit, is_glob):
        env = {"k": 7, GlobalId("c", 1): 3}
        chain = [
            JumpFunctionKind.LITERAL,
            JumpFunctionKind.INTRAPROCEDURAL,
            JumpFunctionKind.PASS_THROUGH,
            JumpFunctionKind.POLYNOMIAL,
        ]
        previous_value = None
        for kind in chain:
            jf = projected_expr(expr, kind, is_literal_actual=is_lit, is_global=is_glob)
            value = jf.evaluate(env)
            if previous_value is not None and is_constant(previous_value):
                assert value == previous_value, (
                    f"{kind} lost a constant the weaker function found"
                )
            if is_constant(value):
                previous_value = value


def site_edges(bindings):
    """One hand-built call site (``p`` calls ``q``): entry key -> edge."""
    return {
        key: binding_edge(0, "p", "q", key, expr)
        for key, expr in bindings.items()
    }


def constants_subset_holds(weaker, stronger, env) -> bool:
    """The §3.1 containment over two sites' edges: everything the weaker
    jump functions prove constant, the stronger ones prove too (same
    value, same class)."""
    for key, weak_edge in weaker.items():
        weak_value = weak_edge.func.evaluate(env)
        if not is_constant(weak_value):
            continue
        strong_edge = stronger.get(key)
        strong_value = strong_edge.func.evaluate(env) if strong_edge else BOTTOM
        if (strong_value.__class__, strong_value) != (
            weak_value.__class__,
            weak_value,
        ):
            return False
    return True


class TestSubsetOverEdges:
    def test_constants_subset_holds_between_sites(self):
        # a computed constant: the literal jump function misses it
        weak_site = site_edges(
            {
                "a": projected_expr(
                    LITERAL_5, JumpFunctionKind.LITERAL, is_literal_actual=False
                )
            }
        )
        strong_site = site_edges(
            {"a": projected_expr(LITERAL_5, JumpFunctionKind.POLYNOMIAL)}
        )
        assert constants_subset_holds(weak_site, strong_site, {})
        assert not constants_subset_holds(strong_site, weak_site, {})
