"""Symbolic value numbering over SSA.

For every SSA name and temporary in a procedure, compute a
:class:`~repro.core.exprs.ValueExpr` describing its value as a function of
the procedure's entry values. This is the SSA-based value numbering the
paper built its jump functions on (§3, §4.1): the expression attached to
an actual parameter at a call site *is* the polynomial jump function, and
the simpler jump functions are projections of it.

Precision notes (all shared with the 1993 implementation):

- pessimistic at loop phis: a phi whose back-edge operand is not yet
  numbered gets ⊥ (single-pass value numbering);
- REAL-typed values are ⊥ everywhere (integers-only policy);
- array loads are ⊥ (arrays untracked);
- a call's effect on a scalar comes from the callee's *return jump
  function* when one exists, else ⊥. Following §3.2, a return jump
  function is evaluated with the *constant-only* values of the call's
  arguments — one that depends on the caller's own formals evaluates to ⊥.
  The ``compose_return_functions`` extension substitutes the caller's
  symbolic expressions instead, propagating pass-through chains across
  returns (off by default; benchmarked as an ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.ssa import SSAProcedure
from repro.core.exprs import (
    BOTTOM_EXPR,
    ConstExpr,
    EntryKey,
    ValueExpr,
    const_expr,
    constant_only_value,
    entry_expr,
    make_binary,
    make_intrinsic,
    make_unary,
    substitute,
)
from repro.core.lattice import is_constant
from repro.frontend.astnodes import LATTICE_TYPES, Type
from repro.frontend.symbols import Symbol, SymbolKind
from repro.ir.lower import LoweredProgram
from repro.ir.instructions import (
    Argument,
    ArgumentKind,
    BinOp,
    Call,
    CallKill,
    Const,
    Convert,
    Copy,
    IntrinsicOp,
    LoadArr,
    Operand,
    Phi,
    ReadVar,
    SSAName,
    Temp,
    UnOp,
    VarDef,
)

RESULT_KEY = "$result"
"""Return-jump-function key for a function's result value."""


def entry_key_of(symbol: Symbol) -> EntryKey | None:
    """The interprocedural identity of a symbol's entry value, if any."""
    if symbol.kind is SymbolKind.FORMAL:
        return symbol.name
    if symbol.kind is SymbolKind.GLOBAL:
        return symbol.global_id
    return None


#: proc name -> (entry key | RESULT_KEY) -> return jump function expression.
ReturnJumpTable = Mapping[str, Mapping[object, ValueExpr]]


@dataclass
class ValueNumbering:
    """Value numbering result for one procedure.

    ``exprs`` maps SSA names and temps to their expressions and omits ⊥:
    a missing key reads as ⊥ everywhere (:meth:`expr_of`,
    :meth:`exit_expr`, :meth:`global_expr_at`, phi operands). Numberings
    live as long as their stage-0 bundle (one per SSA form and the
    return functions of its callees; see
    :class:`~repro.core.driver.SSACache`), so leaving ⊥ out keeps what a
    sweep retains small.

    ``return_functions`` is the procedure's return jump functions read
    off this numbering, filled in by the first stage 1 that needs them
    (:mod:`repro.core.returns`), so every table built from one numbering
    holds one entry object.

    ``digest`` is the store's latest digest of the forward jump
    functions projected from this numbering, ``(jump-function kind,
    digest)``, set on first use (:class:`~repro.store.incremental.RunDigests`).

    A numbering names nothing program-wide: an edit carries it into the
    next program version (see :func:`~repro.core.driver.build_stage0`),
    and a reference to its own version's lowering would keep that whole
    version alive.
    """

    ssa: SSAProcedure
    exprs: dict[object, ValueExpr] = field(default_factory=dict)
    return_functions: Mapping[object, ValueExpr] | None = field(
        default=None, repr=False
    )
    digest: tuple[object, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def expr_of(self, operand: Operand) -> ValueExpr:
        """The symbolic value of an operand."""
        if isinstance(operand, Const):
            if operand.type is Type.INTEGER:
                return const_expr(int(operand.value))
            if operand.type is Type.LOGICAL:
                return const_expr(bool(operand.value))
            return BOTTOM_EXPR  # REAL / CHARACTER literals
        return self.exprs.get(operand, BOTTOM_EXPR)

    def argument_expr(self, arg: Argument) -> ValueExpr:
        """The symbolic value of an actual parameter (⊥ for arrays)."""
        if arg.kind in (ArgumentKind.ARRAY, ArgumentKind.ARRAY_ELEMENT):
            return BOTTOM_EXPR
        assert arg.value is not None
        return self.expr_of(arg.value)

    def exit_expr(self, symbol: Symbol) -> ValueExpr:
        """The symbolic value of ``symbol`` when the procedure returns."""
        if not self.ssa.exit_reachable:
            return BOTTOM_EXPR
        version = self.ssa.exit_versions.get(symbol)
        if version is None:
            return BOTTOM_EXPR
        return self.exprs.get(SSAName(symbol, version), BOTTOM_EXPR)

    def global_expr_at(self, call: Call, symbol: Symbol) -> ValueExpr:
        """The symbolic value of a global just before ``call`` executes."""
        versions = self.ssa.call_versions.get(call.site_id, {})
        version = versions.get(symbol)
        if version is None:
            return BOTTOM_EXPR
        return self.exprs.get(SSAName(symbol, version), BOTTOM_EXPR)


def _entry_value_expr(symbol: Symbol) -> ValueExpr:
    """ValueExpr of a variable's entry (version 0) value."""
    if symbol.type not in LATTICE_TYPES:
        return BOTTOM_EXPR  # REALs never participate
    key = entry_key_of(symbol)
    if key is None:
        return BOTTOM_EXPR  # locals are undefined on entry
    return entry_expr(key)


def value_number(
    ssa: SSAProcedure,
    program: LoweredProgram,
    return_jump_table: ReturnJumpTable | None = None,
    compose_return_functions: bool = False,
) -> ValueNumbering:
    """Run symbolic value numbering over ``ssa``.

    ``program`` supplies callee formal lists for return-jump-function
    application; ``return_jump_table`` holds the already-built return jump
    functions (stage 1 passes the partial table, stage 2 the full one;
    omit it to disable return jump functions, as in Table 2's final
    columns).
    """
    numbering = ValueNumbering(ssa=ssa)
    exprs = numbering.exprs
    for symbol in ssa.variables:
        entry = _entry_value_expr(symbol)
        if entry is not BOTTOM_EXPR:
            exprs[SSAName(symbol, 0)] = entry

    rjf = return_jump_table or {}
    for block_id in ssa.cfg.reverse_postorder():
        block = ssa.cfg.blocks[block_id]
        for instr in block.instrs:
            _transfer(instr, numbering, program, rjf, compose_return_functions)
    return numbering


def _transfer(
    instr,
    numbering: ValueNumbering,
    program: LoweredProgram,
    rjf: ReturnJumpTable,
    compose: bool,
) -> None:
    exprs = numbering.exprs
    expr_of = numbering.expr_of

    if isinstance(instr, Phi):
        dest = instr.dest
        assert isinstance(dest, VarDef)
        # A back-edge operand is not numbered yet, so it reads as ⊥ and
        # makes the phi ⊥: pessimistic at loops.
        incoming = [expr_of(operand) for operand in instr.incoming.values()]
        merged = incoming[0] if incoming else BOTTOM_EXPR
        for other in incoming[1:]:
            if other != merged:
                merged = BOTTOM_EXPR
                break
        _define(exprs, dest, merged)
        return

    dest = instr.dest
    if isinstance(instr, BinOp):
        _define(exprs, dest, make_binary(instr.op, expr_of(instr.left),
                                         expr_of(instr.right)))
    elif isinstance(instr, UnOp):
        _define(exprs, dest, make_unary(instr.op, expr_of(instr.operand)))
    elif isinstance(instr, IntrinsicOp):
        args = [expr_of(a) for a in instr.args]
        if instr.name == "real":
            _define(exprs, dest, BOTTOM_EXPR)
        else:
            _define(exprs, dest, make_intrinsic(instr.name, args))
    elif isinstance(instr, Convert):
        # int->real loses constancy (REALs untracked); real->int would need
        # compile-time float arithmetic, which the paper avoids (§4).
        _define(exprs, dest, BOTTOM_EXPR)
    elif isinstance(instr, Copy):
        _define(exprs, dest, expr_of(instr.src))
    elif isinstance(instr, LoadArr):
        _define(exprs, dest, BOTTOM_EXPR)
    elif isinstance(instr, ReadVar):
        _define(exprs, instr.dest, BOTTOM_EXPR)
    elif isinstance(instr, Call):
        if instr.dest is not None:
            result_expr = _apply_return_function(
                instr, RESULT_KEY, numbering, program, rjf, compose
            )
            _define(exprs, instr.dest, result_expr)
    elif isinstance(instr, CallKill):
        kind, payload = instr.binding
        callee_key = payload if kind in ("formal", "global") else None
        value = _apply_return_function(
            instr.call, callee_key, numbering, program, rjf, compose
        )
        _define(exprs, instr.dest, value)


def _define(exprs: dict, dest, expr: ValueExpr) -> None:
    if dest is None or expr is BOTTOM_EXPR:
        return
    if isinstance(dest, VarDef):
        if dest.symbol.type in LATTICE_TYPES:
            exprs[SSAName(dest.symbol, dest.version or 0)] = expr
    elif dest.type in LATTICE_TYPES:
        exprs[dest] = expr


def _apply_return_function(
    call: Call,
    callee_key,
    numbering: ValueNumbering,
    program: LoweredProgram,
    rjf: ReturnJumpTable,
    compose: bool,
) -> ValueExpr:
    """Value of a scalar after ``call`` according to the callee's return
    jump function (⊥ when there is none)."""
    if callee_key is None:
        return BOTTOM_EXPR
    callee_table = rjf.get(call.callee)
    if not callee_table:
        return BOTTOM_EXPR
    function = callee_table.get(callee_key)
    if function is None:
        return BOTTOM_EXPR
    if function.is_bottom:
        return BOTTOM_EXPR
    bindings = _call_bindings(call, numbering, program)
    if compose:
        return substitute(function, bindings)
    env = {}
    for key in function.support():
        value = constant_only_value(bindings.get(key, BOTTOM_EXPR))
        if not is_constant(value):
            return BOTTOM_EXPR  # §3.2: non-constant inputs force ⊥
        env[key] = value
    result = function.evaluate(env)
    if is_constant(result):
        return const_expr(result)  # type: ignore[arg-type]
    return BOTTOM_EXPR


def _call_bindings(
    call: Call, numbering: ValueNumbering, program: LoweredProgram
) -> dict:
    """Map callee entry keys to caller-side expressions at this call.

    Formals bind positionally to the actual-parameter expressions; globals
    bind to the caller's value of the same COMMON slot just before the
    call (globals are "implicitly passed parameters", footnote 1).
    """
    bindings: dict[EntryKey, ValueExpr] = {}
    callee = program.procedures[call.callee].procedure
    for formal, arg in zip(callee.formals, call.args):
        bindings[formal.name] = numbering.argument_expr(arg)
    for symbol in numbering.ssa.call_versions.get(call.site_id, {}):
        assert symbol.global_id is not None
        bindings[symbol.global_id] = numbering.global_expr_at(call, symbol)
    return bindings
