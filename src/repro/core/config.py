"""Analysis configuration: which jump function, which framework features.

The study's experimental matrix is spanned by four axes:

- :class:`JumpFunctionKind` — the forward jump function (§3.1);
- ``use_return_jump_functions`` — §3.2 (Table 2, last two columns drop it);
- ``use_mod`` — interprocedural MOD information (Table 3, column 1 drops it);
- ``complete`` — iterate propagation with dead-code elimination
  (Table 3, column 3).

``intraprocedural_only`` selects the Table 3 column 4 baseline: no
propagation between procedures at all, MOD still honoured at call sites.

``compose_return_functions`` is an *extension* beyond the paper: return
jump functions are composed symbolically with the caller's expressions
instead of being evaluated with constant-only arguments.

The ``max_*`` fields are the resource budgets of the resilient execution
layer (DESIGN.md §7): caps on solver passes, jump-function evaluations,
and lattice meets. ``None`` (the default) is unlimited and costs nothing.
When a cap is hit, ``degrade_on_budget`` walks the jump-function
degradation ladder (polynomial → pass-through → intraprocedural →
literal, then the intraprocedural-baseline floor) instead of failing.
A *crashed* sparse solve is always retried with the dense reference
solver. Both downgrades are recorded on the result and surfaced as
RL5xx diagnostics — never silent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class JumpFunctionKind(enum.Enum):
    """The four forward jump function implementations of §3.1."""

    LITERAL = "literal"
    INTRAPROCEDURAL = "intraprocedural"
    PASS_THROUGH = "pass_through"
    POLYNOMIAL = "polynomial"

    @property
    def propagates_through_bodies(self) -> bool:
        """Can this jump function carry constants along paths of length > 1
        in the call graph? (§3.1: only pass-through and polynomial can.)"""
        return self in (JumpFunctionKind.PASS_THROUGH, JumpFunctionKind.POLYNOMIAL)


@dataclass(frozen=True)
class AnalysisConfig:
    """One cell of the experimental matrix."""

    jump_function: JumpFunctionKind = JumpFunctionKind.PASS_THROUGH
    use_return_jump_functions: bool = True
    use_mod: bool = True
    complete: bool = False
    intraprocedural_only: bool = False
    compose_return_functions: bool = False
    #: solver fuel (resilience layer): None = unlimited.
    max_solver_passes: int | None = None
    max_evaluations: int | None = None
    max_meets: int | None = None
    #: walk the jump-function ladder on budget exhaustion (vs. raise).
    degrade_on_budget: bool = True
    #: solve stage 3 over a process pool of this many workers, wave by
    #: wave of the region condensation (None/0 = sequential). A failed
    #: parallel solve degrades to the sequential schedule (RL540).
    parallel_regions: int | None = None
    #: solve stage 3 over the flat slab engine — integer-coded lattice
    #: slots, CSR fan-out, batched drains (value-identical; see
    #: :mod:`repro.core.slab`). Default off until the bench gates for a
    #: deployment have been exercised; sanitized and warm-start solves
    #: fall back to the object engine regardless.
    flat_engine: bool = False

    def describe(self) -> str:
        parts = [self.jump_function.value]
        parts.append("rjf" if self.use_return_jump_functions else "no-rjf")
        parts.append("mod" if self.use_mod else "no-mod")
        if self.complete:
            parts.append("complete")
        if self.intraprocedural_only:
            parts.append("intraprocedural-only")
        if self.compose_return_functions:
            parts.append("composed")
        budgets = [
            f"{label}={cap}"
            for label, cap in (
                ("passes", self.max_solver_passes),
                ("evals", self.max_evaluations),
                ("meets", self.max_meets),
            )
            if cap is not None
        ]
        if budgets:
            parts.append("budget[" + ",".join(budgets) + "]")
        if self.parallel_regions:
            parts.append(f"parallel[{self.parallel_regions}]")
        if self.flat_engine:
            parts.append("flat")
        return "+".join(parts)


#: The configurations of Table 2, in column order.
TABLE2_CONFIGS: dict[str, AnalysisConfig] = {
    "polynomial": AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL),
    "pass_through": AnalysisConfig(jump_function=JumpFunctionKind.PASS_THROUGH),
    "intraprocedural": AnalysisConfig(
        jump_function=JumpFunctionKind.INTRAPROCEDURAL
    ),
    "literal": AnalysisConfig(jump_function=JumpFunctionKind.LITERAL),
    "polynomial_no_rjf": AnalysisConfig(
        jump_function=JumpFunctionKind.POLYNOMIAL,
        use_return_jump_functions=False,
    ),
    "pass_through_no_rjf": AnalysisConfig(
        jump_function=JumpFunctionKind.PASS_THROUGH,
        use_return_jump_functions=False,
    ),
}

#: The configurations of Table 3, in column order.
TABLE3_CONFIGS: dict[str, AnalysisConfig] = {
    "polynomial_no_mod": AnalysisConfig(
        jump_function=JumpFunctionKind.POLYNOMIAL, use_mod=False
    ),
    "polynomial_with_mod": AnalysisConfig(
        jump_function=JumpFunctionKind.POLYNOMIAL
    ),
    "complete": AnalysisConfig(
        jump_function=JumpFunctionKind.POLYNOMIAL, complete=True
    ),
    "intraprocedural_only": AnalysisConfig(intraprocedural_only=True),
}
