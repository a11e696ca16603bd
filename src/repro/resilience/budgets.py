"""Resource budgets for the stage-3 solvers and the delta engine.

A :class:`SolveBudget` caps the three quantities the §3.1.5 cost model
actually charges: monotone worklist sweeps (``passes``), jump-function
``evaluations``, and lattice ``meets``. The solvers check the pass cap on
every worklist pop; the :class:`~repro.framework.engine.ClientEngine`
checks the evaluation/meet fuel once per seed or delta batch — cheap
enough to leave enabled, tight enough that a pathological solve is cut
off within one batch of its limit.

Exhaustion raises :class:`~repro.resilience.errors.BudgetExhaustedError`;
the driver's degradation ladder turns that into a cheaper jump function
(polynomial → pass-through → intraprocedural → literal, then the
intraprocedural-baseline floor) instead of a dead sweep cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.errors import BudgetExhaustedError


@dataclass(frozen=True)
class SolveBudget:
    """Fuel for one stage-3 solve. ``None`` caps are unlimited."""

    max_passes: int | None = None
    max_evaluations: int | None = None
    max_meets: int | None = None

    @classmethod
    def from_config(cls, config) -> "SolveBudget | None":
        """The budget an :class:`~repro.core.config.AnalysisConfig` asks
        for, or ``None`` when the configuration sets no caps (the common
        case — the solvers then skip every check)."""
        if (
            config.max_solver_passes is None
            and config.max_evaluations is None
            and config.max_meets is None
        ):
            return None
        return cls(
            max_passes=config.max_solver_passes,
            max_evaluations=config.max_evaluations,
            max_meets=config.max_meets,
        )

    def check_passes(self, passes: int) -> None:
        """Per-pop check in the worklist loops."""
        if self.max_passes is not None and passes > self.max_passes:
            raise BudgetExhaustedError("passes", self.max_passes, passes)

    def check_engine(self, stats) -> None:
        """Per-batch check inside the delta engine (``stats`` is any
        object with the engine's counter attributes, e.g. a
        :class:`~repro.core.solver.SolveResult`)."""
        if (
            self.max_evaluations is not None
            and stats.evaluations > self.max_evaluations
        ):
            raise BudgetExhaustedError(
                "evaluations", self.max_evaluations, stats.evaluations
            )
        if self.max_meets is not None and stats.meets > self.max_meets:
            raise BudgetExhaustedError("meets", self.max_meets, stats.meets)

    def check_all(self, stats, passes: int) -> None:
        """The dense solver's combined per-pop check."""
        self.check_passes(passes)
        self.check_engine(stats)
