"""The four forward jump function implementations (§3.1).

All four are *projections* of the symbolic value-numbering expression of
the actual parameter at the call site:

========================  ====================================================
literal                   the expression only if the actual is a literal
                          constant token at the call site (a textual scan
                          would find it); ⊥ otherwise. Globals are always ⊥
                          (they are "passed implicitly", §3.1.1).
intraprocedural           the constant the expression folds to with every
                          entry value unknown (the paper's ``gcp``); ⊥
                          otherwise.
pass-through              ``gcp`` constants, plus expressions that *are* an
                          unmodified entry value (formal or global); ⊥
                          otherwise.
polynomial                the full expression (⊥ only if the expression
                          contains an unknown).
========================  ====================================================

Each projection is an interned expression over the caller's entry values;
stage 2 (:mod:`repro.core.builder`) makes it the function of the binding's
flow edge as it is. The subset chain of §3.1 — each kind propagates a
subset of the constants of the kinds after it — holds by construction and
is asserted by tests.
"""

from __future__ import annotations

from repro.core.config import JumpFunctionKind
from repro.core.exprs import (
    BOTTOM_EXPR,
    ConstExpr,
    EntryExpr,
    ValueExpr,
    const_expr,
    constant_only_value,
)
from repro.core.lattice import is_constant


def projected_expr(
    expr: ValueExpr,
    kind: JumpFunctionKind,
    is_literal_actual: bool = False,
    is_global: bool = False,
) -> ValueExpr:
    """Project a value-numbering expression onto a jump-function kind:
    ``expr`` itself, its interned constant, or ⊥. Evaluation cost — the
    quantity the paper's complexity discussion is about — is proportional
    to the result's node count (``size``)."""
    if kind is JumpFunctionKind.LITERAL:
        if is_global or not is_literal_actual or not isinstance(expr, ConstExpr):
            return BOTTOM_EXPR
        return expr

    if kind is JumpFunctionKind.INTRAPROCEDURAL:
        value = constant_only_value(expr)
        if is_constant(value):
            return const_expr(value)  # type: ignore[arg-type]
        return BOTTOM_EXPR

    if kind is JumpFunctionKind.PASS_THROUGH:
        value = constant_only_value(expr)
        if is_constant(value):
            return const_expr(value)  # type: ignore[arg-type]
        if isinstance(expr, EntryExpr):
            return expr
        return BOTTOM_EXPR

    assert kind is JumpFunctionKind.POLYNOMIAL
    return expr
