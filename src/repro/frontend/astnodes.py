"""Abstract syntax for MiniFortran.

The AST is deliberately close to FORTRAN 77's statement forms. Every node
that *references a variable by name* (``VarRef``, ``ArrayRef``, the DO-loop
induction variable) carries the source span of the name so later passes can
substitute constants back into the program text.

Expression operators are kept as strings using the modern spellings
(``==``, ``<=``, ``.and.`` ...); the parser canonicalizes the FORTRAN 77
dot-forms onto them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.frontend.source import DUMMY_SPAN, LineTable, SourceSpan


class Type(enum.Enum):
    """MiniFortran's types. CHARACTER exists only for WRITE literals."""

    INTEGER = "integer"
    REAL = "real"
    LOGICAL = "logical"
    CHARACTER = "character"


#: The types that carry a lattice value (a tuple: enum members hash in
#: Python, but compare by identity in C).
LATTICE_TYPES = (Type.INTEGER, Type.LOGICAL)


class ProcedureKind(enum.Enum):
    PROGRAM = "program"
    SUBROUTINE = "subroutine"
    FUNCTION = "function"


ARITH_OPS = ("+", "-", "*", "/", "**")
COMPARE_OPS = ("==", "/=", "<", "<=", ">", ">=")
LOGICAL_OPS = (".and.", ".or.")
UNARY_OPS = ("-", "+", ".not.")


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions; concrete nodes set ``span``."""

    span: SourceSpan = field(default=DUMMY_SPAN, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass
class RealLit(Expr):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass
class LogicalLit(Expr):
    value: bool

    def __str__(self) -> str:
        return ".true." if self.value else ".false."


@dataclass
class StringLit(Expr):
    value: str

    def __str__(self) -> str:
        return f"'{self.value}'"


@dataclass
class VarRef(Expr):
    """A scalar variable reference. ``span`` covers exactly the name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class ArrayRef(Expr):
    """An array element reference ``name(i, j, ...)``."""

    name: str
    indices: list[Expr] = field(default_factory=list)

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.indices)
        return f"{self.name}({inner})"


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr = field(default=None)  # type: ignore[assignment]
    right: Expr = field(default=None)  # type: ignore[assignment]

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class UnaryOp(Expr):
    op: str
    operand: Expr = field(default=None)  # type: ignore[assignment]

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass
class FunctionCall(Expr):
    """A call in expression position: either an intrinsic or a user function.

    The parser cannot always distinguish ``f(i)`` (function call) from an
    array reference; symbol resolution rewrites :class:`FunctionCall` into
    :class:`ArrayRef` (or vice versa) once declarations are known.
    ``name_span`` covers exactly the callee name (procedure cloning
    rewrites it in place).
    """

    name: str
    args: list[Expr] = field(default_factory=list)
    name_span: SourceSpan = field(default=DUMMY_SPAN, kw_only=True)

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statements. ``label`` is the FORTRAN numeric label."""

    span: SourceSpan = field(default=DUMMY_SPAN, kw_only=True)
    label: int | None = field(default=None, kw_only=True)


@dataclass
class Assign(Stmt):
    target: VarRef | ArrayRef = field(default=None)  # type: ignore[assignment]
    value: Expr = field(default=None)  # type: ignore[assignment]


@dataclass
class IfStmt(Stmt):
    """Block IF with optional ELSEIF chain (desugared to nested IfStmt)."""

    cond: Expr = field(default=None)  # type: ignore[assignment]
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class DoLoop(Stmt):
    """``do var = first, last [, step]`` ... ``enddo``."""

    var: VarRef = field(default=None)  # type: ignore[assignment]
    first: Expr = field(default=None)  # type: ignore[assignment]
    last: Expr = field(default=None)  # type: ignore[assignment]
    step: Expr | None = None
    body: list[Stmt] = field(default_factory=list)


@dataclass
class DoWhile(Stmt):
    cond: Expr = field(default=None)  # type: ignore[assignment]
    body: list[Stmt] = field(default_factory=list)


@dataclass
class CallStmt(Stmt):
    name: str = ""
    args: list[Expr] = field(default_factory=list)
    name_span: SourceSpan = field(default=DUMMY_SPAN, kw_only=True)


@dataclass
class Goto(Stmt):
    target: int = 0


@dataclass
class Continue(Stmt):
    """``continue`` — a no-op, usually a GOTO landing pad."""


@dataclass
class ReturnStmt(Stmt):
    pass


@dataclass
class StopStmt(Stmt):
    pass


@dataclass
class ReadStmt(Stmt):
    """``read v1, v2, ...`` — models runtime input (values become unknown)."""

    targets: list[VarRef | ArrayRef] = field(default_factory=list)


@dataclass
class WriteStmt(Stmt):
    """``write e1, e2, ...`` — a pure use of its operands."""

    values: list[Expr] = field(default_factory=list)


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


@dataclass
class Declarator:
    """One name in a type declaration, with optional constant array dims."""

    name: str
    dims: tuple[Expr, ...] = ()
    span: SourceSpan = DUMMY_SPAN

    @property
    def is_array(self) -> bool:
        return bool(self.dims)


@dataclass
class Decl:
    span: SourceSpan = field(default=DUMMY_SPAN, kw_only=True)


@dataclass
class TypeDecl(Decl):
    type: Type = Type.INTEGER
    declarators: list[Declarator] = field(default_factory=list)


@dataclass
class DimensionDecl(Decl):
    declarators: list[Declarator] = field(default_factory=list)


@dataclass
class CommonDecl(Decl):
    """``common /block/ a, b, c`` — members are matched across procedures
    by block name and position, as in FORTRAN storage association."""

    block: str = ""
    declarators: list[Declarator] = field(default_factory=list)


@dataclass
class DataDecl(Decl):
    """``data name /literal/ [, name /literal/ ...]`` — static initializers."""

    pairs: list[tuple[str, Expr]] = field(default_factory=list)


@dataclass
class ParameterDecl(Decl):
    """``parameter (name = const-expr, ...)`` — compile-time named constants."""

    pairs: list[tuple[str, Expr]] = field(default_factory=list)


# --------------------------------------------------------------------------
# Program units
# --------------------------------------------------------------------------


@dataclass
class ProcedureDef:
    """One program unit: PROGRAM, SUBROUTINE, or FUNCTION.

    ``span`` covers the unit's text from its header to its ``end``;
    ``name_span`` covers exactly the name in the header (procedure
    cloning copies the one and renames the other).
    """

    kind: ProcedureKind
    name: str
    params: list[str] = field(default_factory=list)
    return_type: Type | None = None
    decls: list[Decl] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    span: SourceSpan = DUMMY_SPAN
    name_span: SourceSpan = DUMMY_SPAN

    @property
    def is_function(self) -> bool:
        return self.kind is ProcedureKind.FUNCTION

    @property
    def is_main(self) -> bool:
        return self.kind is ProcedureKind.PROGRAM


@dataclass
class CompilationUnit:
    """A whole MiniFortran source file: a list of program units, and the
    line table of the text."""

    procedures: list[ProcedureDef] = field(default_factory=list)
    source: str = ""
    lines: LineTable | None = field(default=None, repr=False, compare=False)

    def find(self, name: str) -> ProcedureDef | None:
        lowered = name.lower()
        for proc in self.procedures:
            if proc.name == lowered:
                return proc
        return None


def walk_expr(expr: Expr):
    """Yield ``expr`` and all sub-expressions, pre-order."""
    yield expr
    if isinstance(expr, BinaryOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, (FunctionCall, ArrayRef)):
        children = expr.args if isinstance(expr, FunctionCall) else expr.indices
        for child in children:
            yield from walk_expr(child)


def stmt_exprs(stmt: Stmt) -> list[Expr]:
    """The expressions ``stmt`` holds itself — targets and the DO variable
    included, nested statements' expressions not. Read-only: the list may
    be the statement's own."""
    if isinstance(stmt, Assign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, (IfStmt, DoWhile)):
        return [stmt.cond]
    if isinstance(stmt, DoLoop):
        exprs = [stmt.var, stmt.first, stmt.last]
        if stmt.step is not None:
            exprs.append(stmt.step)
        return exprs
    if isinstance(stmt, CallStmt):
        return stmt.args
    if isinstance(stmt, ReadStmt):
        return stmt.targets  # type: ignore[return-value]
    if isinstance(stmt, WriteStmt):
        return stmt.values
    return []


def walk_stmts(stmts: list[Stmt]):
    """Yield every statement in ``stmts``, recursing into bodies, pre-order."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, IfStmt):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, (DoLoop, DoWhile)):
            yield from walk_stmts(stmt.body)
