"""IR operands and instructions.

Operand kinds
-------------
- :class:`Const` — an integer, real, or logical literal.
- :class:`Temp` — a compiler temporary. Lowering assigns each temp exactly
  once, so temps are already in SSA form and never need phis.
- :class:`VarUse` — a use of a named variable (local, formal, or global),
  carrying the source span of the reference.
- :class:`SSAName` — a versioned variable after SSA renaming.

Instructions define at most one scalar destination (``dest``), which is a
:class:`Temp` before and after SSA, or a :class:`VarDef` / versioned
:class:`VarDef` for named variables. Array stores and reads are modelled
separately because the analysis never tracks array element values (paper
§4, limitation 2).

Calls are a single :class:`Call` instruction covering both ``call sub(...)``
statements and function calls in expressions (``dest`` is None for
subroutines). Each argument records *how* it is bound — plain value,
writable scalar variable, array element, or whole array — because FORTRAN's
call-by-reference rules drive both MOD analysis and return-jump-function
application.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.frontend.astnodes import Type
from repro.frontend.source import DUMMY_SPAN, SourceSpan
from repro.frontend.symbols import Symbol

# --------------------------------------------------------------------------
# Operands
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Const:
    """A literal. ``type`` distinguishes 1 (INTEGER) from .true. (LOGICAL)."""

    value: int | float | bool
    type: Type

    def __str__(self) -> str:
        if self.type is Type.LOGICAL:
            return ".true." if self.value else ".false."
        return str(self.value)


def int_const(value: int) -> Const:
    return Const(value, Type.INTEGER)


def bool_const(value: bool) -> Const:
    return Const(value, Type.LOGICAL)


@dataclass(frozen=True, slots=True)
class Temp:
    """A single-assignment compiler temporary.

    Identity is the index alone: lowering numbers a procedure's temps
    uniquely, so ``type`` is payload and stays out of equality and
    hashing.
    """

    index: int
    type: Type = field(default=Type.INTEGER, compare=False)

    def __str__(self) -> str:
        return f"t{self.index}"


@dataclass(frozen=True, slots=True)
class VarUse:
    """A use of a named variable; ``span`` points at the source reference."""

    symbol: Symbol
    span: SourceSpan = DUMMY_SPAN

    def __str__(self) -> str:
        return self.symbol.name


@dataclass(frozen=True, slots=True)
class SSAName:
    """A versioned named variable, produced by SSA renaming.

    ``span`` is preserved from the :class:`VarUse` it replaced so constant
    substitution can still reach the source text. Identity is
    ``(symbol, version)``: the span stays out of equality and hashing, so
    every reference to one SSA value is one dictionary key.
    """

    symbol: Symbol
    version: int
    span: SourceSpan = field(default=DUMMY_SPAN, compare=False)

    def __str__(self) -> str:
        return f"{self.symbol.name}.{self.version}"


Operand = Const | Temp | VarUse | SSAName


@dataclass(frozen=True, slots=True)
class VarDef:
    """A definition point of a named variable (pre-SSA destination)."""

    symbol: Symbol
    span: SourceSpan = DUMMY_SPAN
    version: int | None = None  # filled in by SSA renaming

    def __str__(self) -> str:
        if self.version is None:
            return self.symbol.name
        return f"{self.symbol.name}.{self.version}"


Dest = Temp | VarDef


# --------------------------------------------------------------------------
# Call arguments
# --------------------------------------------------------------------------


class ArgumentKind(enum.Enum):
    VALUE = "value"  # expression or literal: callee writes are lost
    VAR = "var"  # scalar variable: writable by reference
    ARRAY_ELEMENT = "array_element"  # a(i): writes modify the array
    ARRAY = "array"  # whole array actual


@dataclass(slots=True)
class Argument:
    """One actual parameter at a call site."""

    kind: ArgumentKind
    value: Operand | None = None  # VALUE / VAR / ARRAY_ELEMENT value operand
    symbol: Symbol | None = None  # VAR / ARRAY_ELEMENT / ARRAY symbol
    indices: tuple[Operand, ...] = ()  # ARRAY_ELEMENT subscripts
    span: SourceSpan = DUMMY_SPAN

    def __str__(self) -> str:
        if self.kind is ArgumentKind.ARRAY:
            assert self.symbol is not None
            return f"&{self.symbol.name}[]"
        if self.kind is ArgumentKind.ARRAY_ELEMENT:
            assert self.symbol is not None
            inner = ", ".join(str(i) for i in self.indices)
            return f"&{self.symbol.name}({inner})"
        if self.kind is ArgumentKind.VAR:
            return f"&{self.value}"
        return str(self.value)


# --------------------------------------------------------------------------
# Instructions
# --------------------------------------------------------------------------


@dataclass(slots=True)
class Instr:
    """Base instruction. Subclasses override ``uses``/``dest`` accessors."""

    span: SourceSpan = field(default=DUMMY_SPAN, kw_only=True)

    def uses(self) -> list[Operand]:
        """All scalar operands read by this instruction."""
        return []

    def replace_uses(self, mapping) -> None:
        """Apply ``mapping(operand) -> operand`` to every use."""

    @property
    def dest(self) -> Dest | None:
        return None

    def set_dest(self, dest: Dest) -> None:
        raise TypeError(f"{type(self).__name__} has no destination")

    @property
    def is_terminator(self) -> bool:
        return False


@dataclass(slots=True)
class _HasDest(Instr):
    """Mixin for instructions with a scalar destination (``result``)."""

    result: Dest = field(default=None, kw_only=True)  # type: ignore[assignment]

    @property
    def dest(self) -> Dest:
        return self.result

    def set_dest(self, dest: Dest) -> None:
        self.result = dest


@dataclass(slots=True)
class BinOp(_HasDest):
    """``dest = left op right`` with FORTRAN arithmetic/compare/logical ops."""

    op: str = ""
    left: Operand = None  # type: ignore[assignment]
    right: Operand = None  # type: ignore[assignment]

    def uses(self) -> list[Operand]:
        return [self.left, self.right]

    def replace_uses(self, mapping) -> None:
        self.left = mapping(self.left)
        self.right = mapping(self.right)


@dataclass(slots=True)
class UnOp(_HasDest):
    """``dest = op operand`` for unary minus and .not."""

    op: str = ""
    operand: Operand = None  # type: ignore[assignment]

    def uses(self) -> list[Operand]:
        return [self.operand]

    def replace_uses(self, mapping) -> None:
        self.operand = mapping(self.operand)


@dataclass(slots=True)
class Convert(_HasDest):
    """Type conversion inserted by mixed-type assignment (int<->real)."""

    to_type: Type = Type.INTEGER
    operand: Operand = None  # type: ignore[assignment]

    def uses(self) -> list[Operand]:
        return [self.operand]

    def replace_uses(self, mapping) -> None:
        self.operand = mapping(self.operand)


@dataclass(slots=True)
class IntrinsicOp(_HasDest):
    """``dest = intrinsic(args...)`` for mod/max/min/abs/..."""

    name: str = ""
    args: list[Operand] = field(default_factory=list)

    def uses(self) -> list[Operand]:
        return list(self.args)

    def replace_uses(self, mapping) -> None:
        self.args = [mapping(a) for a in self.args]


@dataclass(slots=True)
class Copy(_HasDest):
    """``dest = src``."""

    src: Operand = None  # type: ignore[assignment]

    def uses(self) -> list[Operand]:
        return [self.src]

    def replace_uses(self, mapping) -> None:
        self.src = mapping(self.src)


@dataclass(slots=True)
class LoadArr(_HasDest):
    """``dest = array(indices)`` — value is always ⊥ to the analysis."""

    array: Symbol = None  # type: ignore[assignment]
    indices: tuple[Operand, ...] = ()

    def uses(self) -> list[Operand]:
        return list(self.indices)

    def replace_uses(self, mapping) -> None:
        self.indices = tuple(map(mapping, self.indices))


@dataclass(slots=True)
class StoreArr(Instr):
    """``array(indices) = src`` — contributes the array to MOD only."""

    array: Symbol = None  # type: ignore[assignment]
    indices: tuple[Operand, ...] = ()
    src: Operand = None  # type: ignore[assignment]

    def uses(self) -> list[Operand]:
        return [*self.indices, self.src]

    def replace_uses(self, mapping) -> None:
        self.indices = tuple(map(mapping, self.indices))
        self.src = mapping(self.src)


@dataclass(slots=True)
class Call(_HasDest):
    """A call site. ``dest`` is None for subroutine calls.

    ``site_id`` is assigned by lowering and is unique within the program;
    jump functions are keyed on it.
    """

    callee: str = ""
    args: list[Argument] = field(default_factory=list)
    site_id: int = -1
    #: source span of the callee name (procedure cloning rewrites it).
    callee_span: SourceSpan = DUMMY_SPAN

    def uses(self) -> list[Operand]:
        found: list[Operand] = []
        for arg in self.args:
            if arg.value is not None:
                found.append(arg.value)
            found.extend(arg.indices)
        return found

    def replace_uses(self, mapping) -> None:
        for arg in self.args:
            if arg.value is not None:
                arg.value = mapping(arg.value)
            arg.indices = tuple(map(mapping, arg.indices))


@dataclass(slots=True)
class CallKill(Instr):
    """Pseudo-definition of a scalar a preceding call may modify.

    Inserted (one per potentially-modified scalar) immediately after each
    :class:`Call` before SSA construction, so calls participate in SSA as
    definitions. ``binding`` says how the scalar is bound in the callee —
    ``("formal", name)`` for a by-reference actual, ``("global", gid)``
    for a COMMON member — which is what return-jump-function application
    needs. Without MOD information every visible scalar gets a kill
    (the paper's "worst case assumptions about any call sites").
    """

    target: VarDef = None  # type: ignore[assignment]
    call: "Call" = None  # type: ignore[assignment]
    binding: tuple[str, object] = ("global", None)

    @property
    def dest(self) -> Dest:
        return self.target

    def set_dest(self, dest: Dest) -> None:
        assert isinstance(dest, VarDef)
        self.target = dest


@dataclass(slots=True)
class ReadVar(Instr):
    """``read var`` — defines ``var`` with a runtime (unknown) value."""

    target: VarDef = None  # type: ignore[assignment]

    @property
    def dest(self) -> Dest:
        return self.target

    def set_dest(self, dest: Dest) -> None:
        assert isinstance(dest, VarDef)
        self.target = dest


@dataclass(slots=True)
class ReadArr(Instr):
    """``read array(indices)`` — MODs the array, value untracked."""

    array: Symbol = None  # type: ignore[assignment]
    indices: tuple[Operand, ...] = ()

    def uses(self) -> list[Operand]:
        return list(self.indices)

    def replace_uses(self, mapping) -> None:
        self.indices = tuple(map(mapping, self.indices))


@dataclass(slots=True)
class WriteOut(Instr):
    """``write values...`` — a pure use."""

    values: list[Operand] = field(default_factory=list)

    def uses(self) -> list[Operand]:
        return list(self.values)

    def replace_uses(self, mapping) -> None:
        self.values = [mapping(v) for v in self.values]


@dataclass(slots=True)
class Phi(_HasDest):
    """SSA phi: ``dest = phi(block -> operand)``."""

    incoming: dict[int, Operand] = field(default_factory=dict)

    def uses(self) -> list[Operand]:
        return list(self.incoming.values())

    def replace_uses(self, mapping) -> None:
        self.incoming = {b: mapping(v) for b, v in self.incoming.items()}


@dataclass(slots=True)
class Jump(Instr):
    """Unconditional branch to block ``target`` (a block id)."""

    target: int = -1

    @property
    def is_terminator(self) -> bool:
        return True


@dataclass(slots=True)
class CJump(Instr):
    """Conditional branch on a logical operand."""

    cond: Operand = None  # type: ignore[assignment]
    if_true: int = -1
    if_false: int = -1

    def uses(self) -> list[Operand]:
        return [self.cond]

    def replace_uses(self, mapping) -> None:
        self.cond = mapping(self.cond)

    @property
    def is_terminator(self) -> bool:
        return True


@dataclass(slots=True)
class Return(Instr):
    """Return from the procedure (function results travel via the
    RESULT variable, not an operand)."""

    @property
    def is_terminator(self) -> bool:
        return True


@dataclass(slots=True)
class Stop(Instr):
    """Program termination; control never reaches the exit block."""

    @property
    def is_terminator(self) -> bool:
        return True
