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

The subset chain of §3.1 — each kind propagates a subset of the constants
of the kinds after it — holds by construction and is asserted by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.config import JumpFunctionKind
from repro.core.exprs import (
    BOTTOM_EXPR,
    ConstExpr,
    EntryExpr,
    EntryKey,
    ValueExpr,
    const_expr,
    constant_only_value,
)
from repro.core.lattice import BOTTOM, LatticeValue, is_constant
from repro.frontend.symbols import GlobalId


@dataclass(frozen=True, slots=True)
class JumpFunction:
    """A forward jump function for one parameter at one call site.

    ``expr`` is already projected for ``kind``; ``support`` is the exact
    set of caller entry values the function reads (paper §2). Evaluation
    cost — the quantity the paper's complexity discussion is about — is
    proportional to ``cost`` (expression node count).
    """

    expr: ValueExpr
    kind: JumpFunctionKind

    @property
    def support(self) -> frozenset[EntryKey]:
        return self.expr.support()

    def support_order(self) -> tuple[EntryKey, ...]:
        """Support keys in the expression's deterministic first-use order."""
        return self.expr.support_order()

    @property
    def cost(self) -> int:
        return self.expr.size

    @property
    def is_bottom(self) -> bool:
        return self.expr.is_bottom

    def evaluate(self, env: Mapping[EntryKey, LatticeValue]) -> LatticeValue:
        return self.expr.evaluate(env)

    def __str__(self) -> str:
        return f"{self.kind.value}[{self.expr}]"


def project(
    expr: ValueExpr,
    kind: JumpFunctionKind,
    is_literal_actual: bool = False,
    is_global: bool = False,
) -> JumpFunction:
    """Project a value-numbering expression onto a jump-function kind."""
    return JumpFunction(
        projected_expr(expr, kind, is_literal_actual, is_global), kind
    )


def projected_expr(
    expr: ValueExpr,
    kind: JumpFunctionKind,
    is_literal_actual: bool = False,
    is_global: bool = False,
) -> ValueExpr:
    """The expression :func:`project` wraps: ``expr`` itself, its
    interned constant, or ⊥."""
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


@dataclass(slots=True)
class CallSiteFunctions:
    """All forward jump functions for one call site."""

    site_id: int
    caller: str
    callee: str
    #: callee formal name -> jump function for the bound actual.
    formals: dict[str, JumpFunction] = field(default_factory=dict)
    #: global id -> jump function for the implicitly passed global.
    globals: dict[GlobalId, JumpFunction] = field(default_factory=dict)

    def all_functions(self) -> list[tuple[EntryKey, JumpFunction]]:
        pairs: list[tuple[EntryKey, JumpFunction]] = list(self.formals.items())
        pairs.extend(self.globals.items())
        return pairs

    def function_for(self, key: EntryKey) -> JumpFunction | None:
        if isinstance(key, GlobalId):
            return self.globals.get(key)
        return self.formals.get(key)

    def total_cost(self) -> int:
        return sum(jf.cost for _, jf in self.all_functions())


def evaluate_all(
    site: CallSiteFunctions, env: Mapping[EntryKey, LatticeValue]
) -> dict[EntryKey, LatticeValue]:
    """Evaluate every jump function at a site (missing keys are ⊥)."""
    return {key: jf.evaluate(env) for key, jf in site.all_functions()}


def constants_subset_holds(
    weaker: CallSiteFunctions, stronger: CallSiteFunctions, env
) -> bool:
    """Check the §3.1 containment: everything the weaker jump function
    proves constant, the stronger one proves too (same value)."""
    for key, weak_fn in weaker.all_functions():
        weak_value = weak_fn.evaluate(env)
        if not is_constant(weak_value):
            continue
        strong_fn = stronger.function_for(key)
        strong_value = strong_fn.evaluate(env) if strong_fn else BOTTOM
        if strong_value != weak_value:
            return False
    return True
