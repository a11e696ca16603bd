"""IR well-formedness checking.

Invariants every CFG must satisfy, at two strictness levels:

- pre-SSA (``ssa_form=False``): no phis, no CallKills, no SSA names;
- SSA (``ssa_form=True``): phis only at block heads, one incoming value
  per predecessor, versioned definitions unique.

Shared invariants: every block ends in exactly one terminator (and has no
terminator mid-block), branch targets exist, predecessor lists match
successor edges, temporaries are single-assignment, and variable-use spans
really cover the variable's name in the source text (when provided).

The test suite validates the IR after lowering, after SSA construction,
and after every dead-code-elimination round — cheap insurance against the
classic compiler-bug pattern of a pass leaving the graph subtly broken.
"""

from __future__ import annotations

from repro.ir.cfg import ControlFlowGraph
from repro.ir.instructions import (
    Argument,
    ArgumentKind,
    Call,
    CallKill,
    Phi,
    Return,
    SSAName,
    Temp,
    VarDef,
    VarUse,
)


class IRValidationError(AssertionError):
    """An IR invariant does not hold."""


def validate_cfg(
    cfg: ControlFlowGraph,
    ssa_form: bool = False,
    source: str | None = None,
) -> None:
    """Raise :class:`IRValidationError` on the first violated invariant."""
    problems = collect_problems(cfg, ssa_form=ssa_form, source=source)
    if problems:
        raise IRValidationError("; ".join(problems))


def collect_problems(
    cfg: ControlFlowGraph,
    ssa_form: bool = False,
    source: str | None = None,
) -> list[str]:
    """All violated invariants (empty list = well-formed)."""
    problems: list[str] = []

    if cfg.entry_id not in cfg.blocks:
        problems.append(f"entry block B{cfg.entry_id} missing")
    if cfg.exit_id not in cfg.blocks:
        problems.append(f"exit block B{cfg.exit_id} missing")
    elif not isinstance(cfg.blocks[cfg.exit_id].terminator, Return):
        problems.append("exit block does not end in Return")

    temp_defs: dict[Temp, int] = {}
    ssa_defs: dict[tuple, int] = {}

    for block_id, block in cfg.blocks.items():
        # terminator discipline
        for position, instr in enumerate(block.instrs):
            is_last = position == len(block.instrs) - 1
            if instr.is_terminator and not is_last:
                problems.append(f"B{block_id}: terminator mid-block")
            if is_last and not instr.is_terminator:
                problems.append(f"B{block_id}: not terminated")
        if not block.instrs:
            problems.append(f"B{block_id}: empty block")

        # targets exist
        for succ in block.successors():
            if succ not in cfg.blocks:
                problems.append(f"B{block_id}: branch to missing B{succ}")

        # phi placement
        seen_non_phi = False
        for instr in block.instrs:
            if isinstance(instr, Phi):
                if not ssa_form:
                    problems.append(f"B{block_id}: phi in pre-SSA form")
                if seen_non_phi:
                    problems.append(f"B{block_id}: phi after non-phi")
            else:
                seen_non_phi = True
            if isinstance(instr, CallKill) and not ssa_form:
                problems.append(f"B{block_id}: CallKill in pre-SSA form")

        # definitions and uses
        for instr in block.instrs:
            dest = instr.dest
            if isinstance(dest, Temp):
                if dest in temp_defs:
                    problems.append(
                        f"B{block_id}: temp {dest} defined twice "
                        f"(also in B{temp_defs[dest]})"
                    )
                temp_defs[dest] = block_id
            elif isinstance(dest, VarDef):
                if ssa_form:
                    if dest.version is None:
                        problems.append(
                            f"B{block_id}: unversioned def of "
                            f"{dest.symbol.name} in SSA form"
                        )
                    else:
                        key = (dest.symbol, dest.version)
                        if key in ssa_defs:
                            problems.append(
                                f"B{block_id}: {dest} defined twice"
                            )
                        ssa_defs[key] = block_id
                elif dest.version is not None:
                    problems.append(
                        f"B{block_id}: versioned def in pre-SSA form"
                    )
            for operand in instr.uses():
                if isinstance(operand, SSAName) and not ssa_form:
                    problems.append(f"B{block_id}: SSA name in pre-SSA form")
                if isinstance(operand, VarUse) and ssa_form:
                    if operand.symbol in {s for s, _ in ssa_defs}:
                        problems.append(
                            f"B{block_id}: unrenamed use of "
                            f"{operand.symbol.name}"
                        )
                if source is not None:
                    _check_span(operand, source, block_id, problems)
            if source is not None and isinstance(instr, Call):
                # Call.uses() yields the argument *value* operands; the
                # Argument records carry their own spans (covering the
                # whole actual, e.g. ``a(i)``) and need checking too —
                # whole-array actuals have no value operand at all.
                for arg in instr.args:
                    _check_span(arg, source, block_id, problems)

    # predecessor consistency
    expected_preds: dict[int, set[int]] = {bid: set() for bid in cfg.blocks}
    for block_id, block in cfg.blocks.items():
        for succ in block.successors():
            if succ in expected_preds:
                expected_preds[succ].add(block_id)
    for block_id, block in cfg.blocks.items():
        if set(block.preds) != expected_preds[block_id]:
            problems.append(
                f"B{block_id}: preds {sorted(block.preds)} != edges "
                f"{sorted(expected_preds[block_id])}"
            )

    # phi inputs match predecessors
    if ssa_form:
        for block_id, block in cfg.blocks.items():
            for phi in block.phis():
                if set(phi.incoming) != set(block.preds):
                    problems.append(
                        f"B{block_id}: phi inputs {sorted(phi.incoming)} != "
                        f"preds {sorted(block.preds)}"
                    )

    return problems


def _check_span(operand, source: str, block_id: int, problems: list[str]) -> None:
    if isinstance(operand, Argument):
        if operand.symbol is None:
            return  # by-value expression: no name to cover
        span = operand.span
        if span.start_offset == span.end_offset:
            return  # synthesized argument
        text = span.extract(source).lower()
        name = operand.symbol.name
        if operand.kind is ArgumentKind.ARRAY_ELEMENT:
            # the span covers the whole actual, ``name(indices)``
            if not text.startswith(name):
                problems.append(
                    f"B{block_id}: span of argument {name} covers {text!r}"
                )
        elif text != name:
            problems.append(
                f"B{block_id}: span of argument {name} covers {text!r}"
            )
        return
    if not isinstance(operand, (VarUse, SSAName)):
        return
    span = operand.span
    if span.start_offset == span.end_offset:
        return  # synthesized use
    text = span.extract(source).lower()
    if text != operand.symbol.name:
        problems.append(
            f"B{block_id}: span of {operand.symbol.name} covers {text!r}"
        )


def validate_program(lowered, ssa_form: bool = False) -> None:
    """Validate every procedure of a lowered program."""
    source = lowered.program.source or None
    for name, lowered_proc in lowered.procedures.items():
        try:
            validate_cfg(lowered_proc.cfg, ssa_form=ssa_form, source=source)
        except IRValidationError as error:
            raise IRValidationError(f"{name}: {error}") from None
