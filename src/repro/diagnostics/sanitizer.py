"""The lattice sanitizer: monotone-descent checking for the solvers.

The correctness of interprocedural propagation rests on three lattice
facts (paper §2, §3.1.5):

1. **Descent** — a binding's VAL entry may only move down the lattice
   (⊤ → constant → ⊥); a rise means a broken meet or a kill applied out
   of order.
2. **Bounded chains** — each binding strictly lowers at most twice, which
   is what bounds the number of propagation passes.
3. **Monotone transfers** — as the caller environment descends, repeated
   evaluations of one jump-function binding must descend too; a rise
   means the jump function is not a monotone transfer and the fixpoint
   (and its uniqueness) is forfeit.

A :class:`LatticeSanitizer` is handed to
:func:`repro.core.solver.solve` (or a
:class:`~repro.framework.engine.ClientEngine` directly); the engine
calls :meth:`observe_transfer` for every evaluate-and-meet and
:meth:`observe_update` for every VAL mutation, including seed-time
kills. Violations are *recorded*, never raised — a
broken transfer still solves to ⊥ via the meet, and the caller decides
what to do with the report (the lint pass turns each violation into a
:class:`~repro.diagnostics.core.Diagnostic`).

:func:`cross_check` implements the fourth guarantee — the sparse
delta-driven engine and the dense reference solver reach the same
fixpoint — by diffing two VAL maps binding by binding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lattice import LatticeValue, meet
from repro.diagnostics.core import Diagnostic, Severity, describe_code

#: The lattice's bounded chain depth: ⊤ → constant → ⊥ is two lowerings.
MAX_CHAIN_DEPTH = 2

CODE_NON_MONOTONE = describe_code(
    "RL301", "jump-function binding evaluated to a rising value sequence"
)
CODE_VALUE_RISE = describe_code(
    "RL302", "a VAL binding moved up the lattice"
)
CODE_CHAIN_DEPTH = describe_code(
    "RL303", "a VAL binding lowered more often than the lattice depth allows"
)
CODE_SPARSE_DENSE = describe_code(
    "RL304", "sparse and dense solvers disagree on a VAL binding"
)

_ABSENT = object()


def _same_value(a: LatticeValue, b: LatticeValue) -> bool:
    """Lattice equality; the class check keeps .true. distinct from 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _descends(old: LatticeValue, new: LatticeValue) -> bool:
    """True when ``new`` ⊑ ``old`` (meet(old, new) == new)."""
    return _same_value(meet(old, new), new)


@dataclass(frozen=True)
class LatticeViolation:
    """One observed breach of a lattice invariant."""

    kind: str  # "non-monotone-transfer" | "value-rise" | "chain-depth" | "sparse-dense-divergence"
    code: str
    procedure: str
    key: object
    detail: str
    site_id: int | None = None

    def __str__(self) -> str:
        where = f"site {self.site_id}, " if self.site_id is not None else ""
        return f"{self.kind}: {where}{self.procedure}[{self.key}]: {self.detail}"

    def diagnostic(self, pass_name: str = "lattice-sanitizer") -> Diagnostic:
        return Diagnostic(
            code=self.code,
            severity=Severity.ERROR,
            message=str(self),
            pass_name=pass_name,
            procedure=self.procedure,
        )


class LatticeSanitizer:
    """Observes every transfer and VAL update of one solve.

    The engine only pays for the hooks when a sanitizer is attached (one
    ``is not None`` test per edge otherwise), so production solves run at
    full speed and ``repro lint --sanitize`` turns the checking on.
    """

    __slots__ = ("violations", "transfers_observed", "updates_observed",
                 "_last_transfer", "_drops")

    def __init__(self) -> None:
        self.violations: list[LatticeViolation] = []
        self.transfers_observed = 0
        self.updates_observed = 0
        #: (site_id, callee key) -> last value the binding's jump function
        #: evaluated to; re-evaluations must descend.
        self._last_transfer: dict[tuple[int, object], LatticeValue] = {}
        #: (procedure, key) -> strict lowerings seen so far.
        self._drops: dict[tuple[str, object], int] = {}

    # -- engine hooks -------------------------------------------------------

    def observe_transfer(
        self, site_id: int, callee: str, key: object, incoming: LatticeValue
    ) -> None:
        """One evaluate-and-meet of a jump-function binding."""
        self.transfers_observed += 1
        slot = (site_id, key)
        last = self._last_transfer.get(slot, _ABSENT)
        self._last_transfer[slot] = incoming
        if last is not _ABSENT and not _descends(last, incoming):
            self.violations.append(
                LatticeViolation(
                    kind="non-monotone-transfer",
                    code=CODE_NON_MONOTONE,
                    procedure=callee,
                    key=key,
                    detail=(
                        f"jump function evaluated to {last!r} then rose to "
                        f"{incoming!r} as the caller environment descended"
                    ),
                    site_id=site_id,
                )
            )

    def observe_update(
        self, proc: str, key: object, old: LatticeValue, new: LatticeValue
    ) -> None:
        """One VAL mutation (meet result or seed-time kill)."""
        self.updates_observed += 1
        if not _descends(old, new):
            self.violations.append(
                LatticeViolation(
                    kind="value-rise",
                    code=CODE_VALUE_RISE,
                    procedure=proc,
                    key=key,
                    detail=f"VAL rose from {old!r} to {new!r}",
                )
            )
            return
        if _same_value(old, new):
            return
        slot = (proc, key)
        drops = self._drops.get(slot, 0) + 1
        self._drops[slot] = drops
        if drops > MAX_CHAIN_DEPTH:
            self.violations.append(
                LatticeViolation(
                    kind="chain-depth",
                    code=CODE_CHAIN_DEPTH,
                    procedure=proc,
                    key=key,
                    detail=(
                        f"binding lowered {drops} times "
                        f"(lattice depth allows {MAX_CHAIN_DEPTH}); "
                        f"last step {old!r} -> {new!r}"
                    ),
                )
            )

    # -- reporting ----------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.violations

    def diagnostics(
        self, pass_name: str = "lattice-sanitizer"
    ) -> list[Diagnostic]:
        return [v.diagnostic(pass_name) for v in self.violations]


def cross_check(
    sparse_val: dict[str, dict],
    dense_val: dict[str, dict],
) -> list[LatticeViolation]:
    """Diff two solvers' VAL maps binding by binding.

    Any divergence means one engine skipped (or double-applied) a meet;
    both directions are reported, keyed by procedure and entry key.
    """
    violations: list[LatticeViolation] = []
    for proc in sorted(set(sparse_val) | set(dense_val), key=str):
        sparse_env = sparse_val.get(proc, {})
        dense_env = dense_val.get(proc, {})
        for key in sorted(set(sparse_env) | set(dense_env), key=str):
            sparse_value = sparse_env.get(key, _ABSENT)
            dense_value = dense_env.get(key, _ABSENT)
            if sparse_value is _ABSENT or dense_value is _ABSENT:
                detail = (
                    "binding missing from "
                    + ("sparse" if sparse_value is _ABSENT else "dense")
                    + " VAL"
                )
            elif _same_value(sparse_value, dense_value):
                continue
            else:
                detail = (
                    f"sparse solved {sparse_value!r}, "
                    f"dense reference solved {dense_value!r}"
                )
            violations.append(
                LatticeViolation(
                    kind="sparse-dense-divergence",
                    code=CODE_SPARSE_DENSE,
                    procedure=str(proc),
                    key=key,
                    detail=detail,
                )
            )
    return violations
