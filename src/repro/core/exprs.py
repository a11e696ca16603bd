"""Symbolic value expressions over procedure-entry values.

A :class:`ValueExpr` describes the value of something inside a procedure
as a function of the values its formals and globals had *on entry* — which
is precisely what a jump function is (paper §2). The same representation
serves:

- the polynomial parameter jump function (the expression itself),
- the pass-through parameter jump function (an expression that *is* an
  :class:`EntryExpr`),
- the intraprocedural constant jump function (an expression that folds to
  a constant with every entry value unknown), and
- the polynomial return jump function.

``EntryKey`` identifies an entry value: a formal parameter by name (``str``)
or a COMMON global by :class:`~repro.frontend.symbols.GlobalId`. The paper
extends "parameter" to cover globals (footnote 1); so do we.

Expressions are immutable and hashable. Construction simplifies eagerly:
constant operands fold (using the FORTRAN semantics in
:mod:`repro.semantics`), algebraic identities are applied, and any ⊥
operand collapses the whole expression to ⊥ (except multiplication by a
literal zero, which is 0 regardless). The paper observes that in practice
polynomial jump functions stay small (§3.1.5); the ``MAX_NODES`` guard
turns pathological growth into ⊥ rather than letting it slow the solver.

Expressions are also **hash-consed**: the smart constructors intern every
node in the process-wide :data:`INTERN_TABLE`, so structurally equal
expressions built through them share identity across call sites, across
procedures, and across analysis configurations. Identity sharing is what
makes the sparse solver's evaluation memo (keyed on ``id(expr)`` plus the
expression's support-slice of the environment) hit across sites, and it
lets every node cache its ``size`` and ``support`` once at construction.
The table's lifetime is the process (like
:data:`repro.core.driver.GLOBAL_STAGE0_CACHE`); call
:func:`clear_intern_table` to drop it. Equality stays structural, so
expressions constructed directly (e.g. in tests) still compare equal to
interned ones — they just don't share storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from repro import semantics
from repro.core.lattice import BOTTOM, TOP, LatticeValue
from repro.frontend.symbols import GlobalId

EntryKey = Union[str, GlobalId]

MAX_NODES = 200

_EMPTY_SUPPORT: frozenset = frozenset()


class InternTable:
    """A hash-consing table for :class:`ValueExpr` nodes.

    Keys are built by the smart constructors: constants and entry keys by
    value (and value *class* — ``ConstExpr(True)`` must never unify with
    ``ConstExpr(1)``), operator nodes by operator plus the identities of
    their already-interned operands, which makes interning O(1) per node
    instead of O(size). Operand identities stay valid because the table
    holds the parent, the parent holds the operands, and entries are only
    ever dropped all at once by :meth:`clear`.

    The table carries a **generation counter** that :meth:`clear` bumps.
    Any cache that keys on ``id(expr)`` must either include the generation
    in its keys or hold a strong reference to every expression it keys by
    id (the sparse engine's evaluation memo does the latter): after a
    clear, CPython may recycle a dropped expression's id for a brand-new
    node, and a cache with neither would silently serve the old entry for
    it.
    """

    __slots__ = ("_table", "hits", "misses", "generation")

    def __init__(self) -> None:
        self._table: dict[object, ValueExpr] = {}
        self.hits = 0
        self.misses = 0
        self.generation = 0

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key: object) -> "ValueExpr | None":
        expr = self._table.get(key)
        if expr is not None:
            self.hits += 1
        return expr

    def put(self, key: object, expr: "ValueExpr") -> "ValueExpr":
        self.misses += 1
        self._table[key] = expr
        return expr

    def clear(self) -> None:
        self._table.clear()
        self.generation += 1

    def counters(self) -> dict[str, int]:
        return {
            "expr_intern_hits": self.hits,
            "expr_intern_misses": self.misses,
            "expr_intern_entries": len(self._table),
            "expr_intern_generation": self.generation,
        }


#: The process-wide hash-consing table the smart constructors use.
INTERN_TABLE = InternTable()


def clear_intern_table() -> None:
    """Drop every interned expression (counters survive)."""
    INTERN_TABLE.clear()


def intern_counters() -> dict[str, int]:
    """Observability for the process-wide table (``--stats`` prints it)."""
    return INTERN_TABLE.counters()


class ValueExpr:
    """Base class; concrete kinds below. Immutable."""

    __slots__ = ()

    def support(self) -> frozenset[EntryKey]:
        """The exact set of entry values this expression reads (paper §2)."""
        return _EMPTY_SUPPORT

    def support_order(self) -> tuple[EntryKey, ...]:
        """The support keys in first-use order — a deterministic tuple the
        sparse engine uses to slice environments for memo keys."""
        return ()

    def evaluate(self, env: Mapping[EntryKey, LatticeValue]) -> LatticeValue:
        """Evaluate over the lattice given entry-value approximations.

        Missing keys count as ⊥. Any ⊥ operand yields ⊥; otherwise any ⊤
        operand yields ⊤ (optimism — the value may still become constant);
        otherwise the operator folds.
        """
        raise NotImplementedError

    @property
    def size(self) -> int:
        return 1

    @property
    def is_bottom(self) -> bool:
        return False

    @property
    def is_constant(self) -> bool:
        return False

    def memo_token(self) -> "ValueExpr":
        """The sparse engine's memo token for a flow edge whose function
        is this expression: the interned node itself, so every edge that
        passes one expression shares its memo entries."""
        return self


@dataclass(frozen=True, slots=True)
class ConstExpr(ValueExpr):
    """An integer or logical constant."""

    value: int | bool

    def evaluate(self, env: Mapping[EntryKey, LatticeValue]) -> LatticeValue:
        return self.value

    @property
    def is_constant(self) -> bool:
        return True

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class EntryExpr(ValueExpr):
    """The entry value of a formal parameter or global. Its one-key
    support tuple is built once, so every flow edge that passes the
    interned node shares it."""

    key: EntryKey
    _order: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_order", (self.key,))

    def support(self) -> frozenset[EntryKey]:
        return frozenset(self._order)

    def support_order(self) -> tuple[EntryKey, ...]:
        return self._order

    def evaluate(self, env: Mapping[EntryKey, LatticeValue]) -> LatticeValue:
        return env.get(self.key, BOTTOM)

    def __str__(self) -> str:
        return f"entry({self.key})"


@dataclass(frozen=True, slots=True)
class OpExpr(ValueExpr):
    """``op`` applied to sub-expressions. ``arity`` tags the operator
    family: 'bin', 'un', or 'intrinsic'. Size and support are computed
    once at construction (hash-consing makes every node long-lived and
    shared, so the caches amortize across every consumer)."""

    op: str
    args: tuple[ValueExpr, ...]
    arity: str = "bin"
    _size: int = field(default=1, init=False, repr=False, compare=False)
    _support: frozenset = field(
        default=_EMPTY_SUPPORT, init=False, repr=False, compare=False
    )
    _order: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = 1
        order: list[EntryKey] = []
        seen: set[EntryKey] = set()
        for arg in self.args:
            size += arg.size
            for key in arg.support_order():
                if key not in seen:
                    seen.add(key)
                    order.append(key)
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_support", frozenset(order))

    def support(self) -> frozenset[EntryKey]:
        return self._support

    def support_order(self) -> tuple[EntryKey, ...]:
        return self._order

    def evaluate(self, env: Mapping[EntryKey, LatticeValue]) -> LatticeValue:
        if self.op == "*" and self.arity == "bin":
            # Multiplication absorbs through the whole lattice: 0 * x is 0
            # for x ∈ {⊤, c, ⊥} alike (paper §3.1.5's folding discipline —
            # ``make_binary`` applies the same rule at construction time,
            # so evaluation must agree for trees built around a computed
            # zero). INTEGER zero only: .FALSE. == 0 in Python.
            left = self.args[0].evaluate(env)
            right = self.args[1].evaluate(env)
            if (left.__class__ is int and left == 0) or (
                right.__class__ is int and right == 0
            ):
                return 0
            if left is BOTTOM or right is BOTTOM:
                return BOTTOM
            if left is TOP or right is TOP:
                return TOP
            return fold_constant("*", "bin", [left, right])
        values = []
        saw_top = False
        for arg in self.args:
            value = arg.evaluate(env)
            if value is BOTTOM:
                return BOTTOM
            if value is TOP:
                saw_top = True
            values.append(value)
        if saw_top:
            return TOP
        return fold_constant(self.op, self.arity, values)

    @property
    def size(self) -> int:
        return self._size

    def __str__(self) -> str:
        if self.arity == "bin":
            return f"({self.args[0]} {self.op} {self.args[1]})"
        if self.arity == "un":
            return f"({self.op}{self.args[0]})"
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.op}({inner})"


class _BottomExpr(ValueExpr):
    """The unknown value. Singleton."""

    __slots__ = ()

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def evaluate(self, env: Mapping[EntryKey, LatticeValue]) -> LatticeValue:
        return BOTTOM

    @property
    def is_bottom(self) -> bool:
        return True

    def __str__(self) -> str:
        return "⊥"

    def __repr__(self) -> str:
        return "BOTTOM_EXPR"


BOTTOM_EXPR = _BottomExpr()


def fold_constant(op: str, arity: str, values: list) -> LatticeValue:
    """Apply ``op`` to constant operands with the FORTRAN semantics of
    :mod:`repro.semantics`. A fold that raises, and any result that is
    not INTEGER or LOGICAL, is ⊥. Callers handle ⊤/⊥ operands first."""
    try:
        if arity == "bin":
            result = semantics.apply_binary(op, values[0], values[1])
        elif arity == "un":
            result = semantics.apply_unary(op, values[0])
        else:
            result = semantics.apply_intrinsic(op, values)
    except (semantics.EvalError, OverflowError, ValueError):
        return BOTTOM
    if isinstance(result, int):  # LOGICAL too: bool is an int
        return result
    return BOTTOM  # REAL results are never constants (paper §4)


# --------------------------------------------------------------------------
# Smart constructors
# --------------------------------------------------------------------------


def const_expr(value: int | bool) -> ConstExpr:
    # value *class* is part of the key: True == 1 in Python, but the
    # lattice (and FORTRAN) distinguish LOGICAL from INTEGER constants.
    key = ("const", value.__class__, value)
    cached = INTERN_TABLE.get(key)
    if cached is None:
        cached = INTERN_TABLE.put(key, ConstExpr(value))
    return cached  # type: ignore[return-value]


def entry_expr(key: EntryKey) -> EntryExpr:
    table_key = ("entry", key)
    cached = INTERN_TABLE.get(table_key)
    if cached is None:
        cached = INTERN_TABLE.put(table_key, EntryExpr(key))
    return cached  # type: ignore[return-value]


def _op_expr(op: str, args: tuple[ValueExpr, ...], arity: str) -> ValueExpr:
    """Intern an operator node. Operand *identities* key the table — after
    bottom-up construction through the smart constructors every operand is
    already interned, so identical identity tuples mean identical trees."""
    key = ("op", op, arity, tuple(map(id, args)))
    cached = INTERN_TABLE.get(key)
    if cached is None:
        cached = INTERN_TABLE.put(key, OpExpr(op, args, arity))
    return cached


def _is_zero(expr: ValueExpr) -> bool:
    return isinstance(expr, ConstExpr) and expr.value == 0 and not isinstance(
        expr.value, bool
    )


def _is_one(expr: ValueExpr) -> bool:
    return isinstance(expr, ConstExpr) and expr.value == 1 and not isinstance(
        expr.value, bool
    )


def make_binary(op: str, left: ValueExpr, right: ValueExpr) -> ValueExpr:
    """Construct ``left op right`` with folding and identities."""
    if op == "*" and (_is_zero(left) or _is_zero(right)):
        return const_expr(0)  # 0 * ⊥ is still 0
    if left.is_bottom or right.is_bottom:
        return BOTTOM_EXPR
    if isinstance(left, ConstExpr) and isinstance(right, ConstExpr):
        folded = fold_constant(op, "bin", [left.value, right.value])
        if folded is BOTTOM:
            return BOTTOM_EXPR
        return const_expr(folded)  # type: ignore[arg-type]
    # Algebraic identities (sound over the integers).
    if op == "+":
        if _is_zero(left):
            return right
        if _is_zero(right):
            return left
    elif op == "-":
        if _is_zero(right):
            return left
        if left == right:
            return const_expr(0)
    elif op == "*":
        if _is_one(left):
            return right
        if _is_one(right):
            return left
    elif op == "/":
        if _is_one(right):
            return left
    elif op == "**":
        if _is_one(right):
            return left
    elif op in ("==", "<=", ">="):
        if left == right:
            return const_expr(True)
    elif op in ("/=", "<", ">"):
        if left == right:
            return const_expr(False)
    if 1 + left.size + right.size > MAX_NODES:
        return BOTTOM_EXPR
    return _op_expr(op, (left, right), "bin")


def make_unary(op: str, operand: ValueExpr) -> ValueExpr:
    if operand.is_bottom:
        return BOTTOM_EXPR
    if isinstance(operand, ConstExpr):
        folded = fold_constant(op, "un", [operand.value])
        if folded is BOTTOM:
            return BOTTOM_EXPR
        return const_expr(folded)  # type: ignore[arg-type]
    if op == "+":
        return operand
    # --x == x
    if (
        op == "-"
        and isinstance(operand, OpExpr)
        and operand.arity == "un"
        and operand.op == "-"
    ):
        return operand.args[0]
    return _op_expr(op, (operand,), "un")


def make_intrinsic(name: str, args: list[ValueExpr]) -> ValueExpr:
    if any(arg.is_bottom for arg in args):
        return BOTTOM_EXPR
    if all(isinstance(arg, ConstExpr) for arg in args):
        folded = fold_constant(name, "intrinsic", [a.value for a in args])  # type: ignore[union-attr]
        if folded is BOTTOM:
            return BOTTOM_EXPR
        return const_expr(folded)  # type: ignore[arg-type]
    if 1 + sum(arg.size for arg in args) > MAX_NODES:
        return BOTTOM_EXPR
    return _op_expr(name, tuple(args), "intrinsic")


def substitute(expr: ValueExpr, bindings: Mapping[EntryKey, ValueExpr]) -> ValueExpr:
    """Replace entry keys with expressions (used by the
    ``compose_return_functions`` extension). Missing keys become ⊥."""
    if isinstance(expr, EntryExpr):
        return bindings.get(expr.key, BOTTOM_EXPR)
    if isinstance(expr, OpExpr):
        new_args = [substitute(arg, bindings) for arg in expr.args]
        if expr.arity == "bin":
            return make_binary(expr.op, new_args[0], new_args[1])
        if expr.arity == "un":
            return make_unary(expr.op, new_args[0])
        return make_intrinsic(expr.op, new_args)
    return expr


def constant_only_value(expr: ValueExpr) -> LatticeValue:
    """Evaluate with every entry value unknown — the paper's ``gcp``:
    the constant value derivable from purely intraprocedural information."""
    return expr.evaluate({})


# --------------------------------------------------------------------------
# Compiled kernels
# --------------------------------------------------------------------------
#
# The flat slab engine (:mod:`repro.core.slab`) evaluates polynomial jump
# functions through closures instead of the ``evaluate`` tree walk: leaves
# become slot-reading lambdas and operator nodes become closures over their
# operand kernels with the lattice short-circuits inlined. Kernels fold
# through ``fold_constant``, so compiled and tree-walk evaluation are
# value-identical by construction (including the multiplicative
# absorption rule above).


def _compile_op(expr: OpExpr, kernels):
    """Build the operator closure over already-compiled operand kernels.

    The closures call their operand kernels with whatever single argument
    they themselves received and only touch the lattice values those
    return, so only the leaves know the carrier (``kernel(codes)``).
    """
    op, arity = expr.op, expr.arity
    if arity == "bin":
        ka, kb = kernels
        if op == "*":

            def mul_kernel(env):
                a = ka(env)
                b = kb(env)
                if (a.__class__ is int and a == 0) or (
                    b.__class__ is int and b == 0
                ):
                    return 0
                if a is BOTTOM or b is BOTTOM:
                    return BOTTOM
                if a is TOP or b is TOP:
                    return TOP
                return a * b

            return mul_kernel
        if op == "+":
            # On lattice constants (int/bool only) ``+`` and ``-`` cannot
            # raise and always produce int, so the ``fold_constant`` dispatch
            # inlines away — most of the kernel speedup comes from here.

            def add_kernel(env):
                a = ka(env)
                if a is BOTTOM:
                    return BOTTOM
                b = kb(env)
                if b is BOTTOM:
                    return BOTTOM
                if a is TOP or b is TOP:
                    return TOP
                return a + b

            return add_kernel
        if op == "-":

            def sub_kernel(env):
                a = ka(env)
                if a is BOTTOM:
                    return BOTTOM
                b = kb(env)
                if b is BOTTOM:
                    return BOTTOM
                if a is TOP or b is TOP:
                    return TOP
                return a - b

            return sub_kernel

        def bin_kernel(env):
            a = ka(env)
            if a is BOTTOM:
                return BOTTOM
            b = kb(env)
            if b is BOTTOM:
                return BOTTOM
            if a is TOP or b is TOP:
                return TOP
            return fold_constant(op, "bin", [a, b])

        return bin_kernel
    if arity == "un":
        (ku,) = kernels

        def un_kernel(env):
            a = ku(env)
            if a is BOTTOM:
                return BOTTOM
            if a is TOP:
                return TOP
            return fold_constant(op, "un", [a])

        return un_kernel

    def intrinsic_kernel(env):
        values = []
        saw_top = False
        for kernel in kernels:
            value = kernel(env)
            if value is BOTTOM:
                return BOTTOM
            if value is TOP:
                saw_top = True
            values.append(value)
        if saw_top:
            return TOP
        return fold_constant(op, arity, values)

    return intrinsic_kernel


def compile_slab_expr(expr: ValueExpr, slots: Mapping[EntryKey, int], constants):
    """Compile ``expr`` into a ``kernel(codes) -> LatticeValue`` closure
    that reads a flat slab (``codes[slot]`` tagged ints) instead of a
    boxed environment dict.

    ``slots`` maps the owning procedure's entry keys to slot *offsets
    within the codes carrier the kernel will be handed* and ``constants``
    is the live constant-pool value list (captured by reference, so values
    interned after compilation still decode). Entry keys outside ``slots``
    are ⊥, mirroring ``env.get(key, BOTTOM)``. Operator nodes are built
    by ``_compile_op``.

    The kernels close over plain ints and the pool list, never over
    interned expressions, so they are immune to
    :func:`clear_intern_table`; the slab caches them itself, keyed by
    structure at build time.
    """
    if isinstance(expr, ConstExpr):
        value = expr.value
        return lambda codes: value
    if isinstance(expr, EntryExpr):
        slot = slots.get(expr.key)
        if slot is None:
            return lambda codes: BOTTOM

        def leaf(codes, _slot=slot, _constants=constants):
            code = codes[_slot]
            if code >= 2:
                return _constants[code - 2]
            return TOP if code == 0 else BOTTOM

        return leaf
    if isinstance(expr, _BottomExpr):
        return lambda codes: BOTTOM
    assert isinstance(expr, OpExpr)
    kernels = tuple(
        compile_slab_expr(arg, slots, constants) for arg in expr.args
    )
    return _compile_op(expr, kernels)
