"""IR-level interpreter with entry-value tracing.

Execution model:

- every scalar lives in a :class:`Cell`; call-by-reference passes the
  caller's cell (or an :class:`ElementCell` view into an array) so callee
  writes are visible to the caller, exactly like FORTRAN;
- COMMON storage is one cell/array per :class:`GlobalId`, shared by all
  frames; DATA initializers are applied once at program start;
- expression actuals get a fresh cell — callee writes to them are lost
  (the FORTRAN "temporary actual" rule);
- reading an undefined value raises (programs under test must be
  deterministic for the differential oracle to be meaningful);
- arithmetic comes from :mod:`repro.semantics`, the same helpers the
  compile-time evaluators use.

``max_steps`` bounds execution so buggy workloads fail fast instead of
hanging the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import semantics
from repro.frontend.astnodes import LATTICE_TYPES, Type
from repro.frontend.symbols import GlobalId, Program, Symbol, SymbolKind
from repro.ir.instructions import (
    Argument,
    ArgumentKind,
    BinOp,
    Call,
    CallKill,
    CJump,
    Const,
    Convert,
    Copy,
    IntrinsicOp,
    Jump,
    LoadArr,
    Operand,
    Phi,
    ReadArr,
    ReadVar,
    Return,
    Stop,
    StoreArr,
    Temp,
    UnOp,
    VarDef,
    VarUse,
    WriteOut,
)
from repro.ir.lower import LoweredProgram, lower_program


class InterpError(Exception):
    """Any runtime failure: undefined value, bad subscript, step limit."""


class _StopSignal(Exception):
    """Raised by STOP; unwinds to the top level."""


_UNDEFINED = object()


class Cell:
    """A mutable scalar storage location."""

    __slots__ = ("value",)

    def __init__(self, value=_UNDEFINED):
        self.value = value

    def load(self, what: str):
        if self.value is _UNDEFINED:
            raise InterpError(f"read of undefined value: {what}")
        return self.value

    def store(self, value) -> None:
        self.value = value

    @property
    def is_defined(self) -> bool:
        return self.value is not _UNDEFINED


class ArrayStorage:
    """A FORTRAN array: column-major, 1-based subscripts."""

    def __init__(self, name: str, dims: tuple[int, ...]):
        self.name = name
        self.dims = dims
        total = 1
        for extent in dims:
            total *= extent
        self.data = [_UNDEFINED] * total

    def _flat(self, indices: list[int]) -> int:
        if len(indices) != len(self.dims):
            raise InterpError(f"{self.name}: wrong subscript count")
        flat = 0
        stride = 1
        for index, extent in zip(indices, self.dims):
            if not 1 <= index <= extent:
                raise InterpError(
                    f"{self.name}: subscript {index} out of bounds 1..{extent}"
                )
            flat += (index - 1) * stride
            stride *= extent
        return flat

    def load(self, indices: list[int]):
        value = self.data[self._flat(indices)]
        if value is _UNDEFINED:
            raise InterpError(f"read of undefined element {self.name}{indices}")
        return value

    def store(self, indices: list[int], value) -> None:
        self.data[self._flat(indices)] = value


class ElementCell:
    """A cell view onto one array element (array-element actuals)."""

    __slots__ = ("storage", "indices")

    def __init__(self, storage: ArrayStorage, indices: list[int]):
        self.storage = storage
        self.indices = indices

    def load(self, what: str):
        return self.storage.load(self.indices)

    def store(self, value) -> None:
        self.storage.store(self.indices, value)

    @property
    def is_defined(self) -> bool:
        try:
            self.storage.load(self.indices)
        except InterpError:
            return False
        return True


@dataclass
class ExecutionTrace:
    """What one run observed."""

    outputs: list = field(default_factory=list)
    #: proc -> list of {entry key -> value} snapshots, one per invocation.
    entries: dict[str, list[dict]] = field(default_factory=dict)
    steps: int = 0
    stopped: bool = False

    def invocations(self, proc: str) -> list[dict]:
        return self.entries.get(proc.lower(), [])


class _Frame:
    """One procedure activation."""

    __slots__ = ("proc_name", "cells", "arrays", "temps")

    def __init__(self, proc_name: str):
        self.proc_name = proc_name
        self.cells: dict[Symbol, Cell | ElementCell] = {}
        self.arrays: dict[Symbol, ArrayStorage] = {}
        self.temps: dict[Temp, object] = {}


class Interpreter:
    """Executes a lowered program."""

    def __init__(
        self,
        lowered: LoweredProgram,
        inputs: list | None = None,
        max_steps: int = 2_000_000,
    ):
        self.lowered = lowered
        self.program: Program = lowered.program
        self.inputs = list(inputs or [])
        self._input_pos = 0
        self.max_steps = max_steps
        self.trace = ExecutionTrace()
        self.global_cells: dict[GlobalId, Cell] = {}
        self.global_arrays: dict[GlobalId, ArrayStorage] = {}
        for gid, gvar in self.program.globals.items():
            if gvar.is_array:
                self.global_arrays[gid] = ArrayStorage(gvar.display, gvar.dims)
            else:
                cell = Cell()
                if gvar.data_value is not None:
                    cell.store(gvar.data_value)
                self.global_cells[gid] = cell

    # -- public API --------------------------------------------------------

    def run(self) -> ExecutionTrace:
        """Execute from the main program to completion."""
        try:
            self._invoke(self.program.main, [])
        except _StopSignal:
            self.trace.stopped = True
        return self.trace

    # -- invocation ---------------------------------------------------------

    def _invoke(self, name: str, bound_args: list) -> object:
        lowered_proc = self.lowered.procedures[name]
        procedure = lowered_proc.procedure
        frame = _Frame(name)

        formals = procedure.formals
        if len(bound_args) != len(formals):
            raise InterpError(f"{name}: argument count mismatch")
        for formal, bound in zip(formals, bound_args):
            if formal.is_array:
                if not isinstance(bound, ArrayStorage):
                    raise InterpError(f"{name}: array expected for {formal.name}")
                frame.arrays[formal] = bound
            else:
                frame.cells[formal] = bound

        # lowering's symbols: every global, declared or not, is in the frame
        for symbol in lowered_proc.symbols:
            if symbol.kind is SymbolKind.FORMAL or symbol.kind is SymbolKind.NAMED_CONST:
                continue
            if symbol.kind is SymbolKind.GLOBAL:
                assert symbol.global_id is not None
                if symbol.is_array:
                    frame.arrays[symbol] = self.global_arrays[symbol.global_id]
                else:
                    frame.cells[symbol] = self.global_cells[symbol.global_id]
            elif symbol.is_array:
                frame.arrays[symbol] = ArrayStorage(symbol.name, symbol.dims)
            else:
                frame.cells[symbol] = Cell()

        self._record_entry(name, frame)
        self._execute(lowered_proc, frame)

        result_symbol = procedure.result_symbol
        if result_symbol is not None:
            return frame.cells[result_symbol].load(f"{name} result")
        return None

    def _record_entry(self, name: str, frame: _Frame) -> None:
        snapshot: dict = {}
        for symbol, cell in frame.cells.items():
            if symbol.type not in LATTICE_TYPES:
                continue
            key = None
            if symbol.kind is SymbolKind.FORMAL:
                key = symbol.name
            elif symbol.kind is SymbolKind.GLOBAL:
                key = symbol.global_id
            if key is None or not cell.is_defined:
                continue
            snapshot[key] = cell.load(symbol.name)
        self.trace.entries.setdefault(name, []).append(snapshot)

    # -- execution ----------------------------------------------------------

    def _execute(self, lowered_proc, frame: _Frame) -> None:
        cfg = lowered_proc.cfg
        block = cfg.blocks[cfg.entry_id]
        index = 0
        while True:
            if index >= len(block.instrs):
                raise InterpError(
                    f"{frame.proc_name}: fell off block B{block.id}"
                )
            instr = block.instrs[index]
            self.trace.steps += 1
            if self.trace.steps > self.max_steps:
                raise InterpError("step limit exceeded")

            if isinstance(instr, Jump):
                block = cfg.blocks[instr.target]
                index = 0
                continue
            if isinstance(instr, CJump):
                taken = bool(self._load(instr.cond, frame))
                block = cfg.blocks[instr.if_true if taken else instr.if_false]
                index = 0
                continue
            if isinstance(instr, Return):
                return
            if isinstance(instr, Stop):
                raise _StopSignal()

            self._execute_simple(instr, frame)
            index += 1

    def _execute_simple(self, instr, frame: _Frame) -> None:
        if isinstance(instr, BinOp):
            left = self._load(instr.left, frame)
            right = self._load(instr.right, frame)
            try:
                value = semantics.apply_binary(instr.op, left, right)
            except semantics.EvalError as exc:
                raise InterpError(str(exc)) from exc
            self._store(instr.dest, value, frame)
        elif isinstance(instr, UnOp):
            operand = self._load(instr.operand, frame)
            self._store(instr.dest, semantics.apply_unary(instr.op, operand), frame)
        elif isinstance(instr, IntrinsicOp):
            args = [self._load(a, frame) for a in instr.args]
            try:
                value = semantics.apply_intrinsic(instr.name, args)
            except semantics.EvalError as exc:
                raise InterpError(str(exc)) from exc
            self._store(instr.dest, value, frame)
        elif isinstance(instr, Convert):
            value = self._load(instr.operand, frame)
            if instr.to_type is Type.INTEGER:
                value = int(value)
            elif instr.to_type is Type.REAL:
                value = float(value)
            self._store(instr.dest, value, frame)
        elif isinstance(instr, Copy):
            self._store(instr.dest, self._load(instr.src, frame), frame)
        elif isinstance(instr, LoadArr):
            storage = self._array_of(instr.array, frame)
            indices = [int(self._load(i, frame)) for i in instr.indices]
            self._store(instr.dest, storage.load(indices), frame)
        elif isinstance(instr, StoreArr):
            storage = self._array_of(instr.array, frame)
            indices = [int(self._load(i, frame)) for i in instr.indices]
            value = self._load(instr.src, frame)
            if instr.array.type is Type.INTEGER:
                value = int(value)
            elif instr.array.type is Type.REAL:
                value = float(value)
            storage.store(indices, value)
        elif isinstance(instr, Call):
            self._execute_call(instr, frame)
        elif isinstance(instr, ReadVar):
            cell = frame.cells[instr.target.symbol]
            cell.store(self._next_input(instr.target.symbol))
        elif isinstance(instr, ReadArr):
            storage = self._array_of(instr.array, frame)
            indices = [int(self._load(i, frame)) for i in instr.indices]
            storage.store(indices, self._next_input(instr.array))
        elif isinstance(instr, WriteOut):
            for operand in instr.values:
                self.trace.outputs.append(self._load(operand, frame))
        elif isinstance(instr, (Phi, CallKill)):
            raise InterpError(
                f"{type(instr).__name__} in executable IR (run on pre-SSA form)"
            )
        else:  # pragma: no cover
            raise InterpError(f"cannot execute {type(instr).__name__}")

    def _execute_call(self, call: Call, frame: _Frame) -> None:
        bound = [self._bind_argument(arg, frame) for arg in call.args]
        result = self._invoke(call.callee, bound)
        if call.dest is not None:
            self._store(call.dest, result, frame)

    def _bind_argument(self, arg: Argument, frame: _Frame):
        if arg.kind is ArgumentKind.VAR:
            assert isinstance(arg.value, VarUse)
            return frame.cells[arg.value.symbol]
        if arg.kind is ArgumentKind.ARRAY:
            assert arg.symbol is not None
            return self._array_of(arg.symbol, frame)
        if arg.kind is ArgumentKind.ARRAY_ELEMENT:
            assert arg.symbol is not None
            storage = self._array_of(arg.symbol, frame)
            indices = [int(self._load(i, frame)) for i in arg.indices]
            return ElementCell(storage, indices)
        assert arg.value is not None
        value = self._load(arg.value, frame)
        return Cell(value)

    def _next_input(self, what) -> object:
        if self._input_pos >= len(self.inputs):
            raise InterpError(f"input exhausted reading {what}")
        value = self.inputs[self._input_pos]
        self._input_pos += 1
        return value

    # -- operand access -------------------------------------------------------

    def _load(self, operand: Operand, frame: _Frame):
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, Temp):
            if operand not in frame.temps:
                raise InterpError(f"read of undefined temp {operand}")
            return frame.temps[operand]
        if isinstance(operand, VarUse):
            return frame.cells[operand.symbol].load(operand.symbol.name)
        raise InterpError(f"cannot load operand {operand!r}")

    def _store(self, dest, value, frame: _Frame) -> None:
        if isinstance(dest, Temp):
            frame.temps[dest] = value
            return
        assert isinstance(dest, VarDef)
        symbol = dest.symbol
        if symbol.type is Type.INTEGER and isinstance(value, float):
            value = int(value)
        frame.cells[symbol].store(value)

    def _array_of(self, symbol: Symbol, frame: _Frame) -> ArrayStorage:
        storage = frame.arrays.get(symbol)
        if storage is None:
            raise InterpError(f"no storage for array {symbol.name}")
        return storage


def run_program(
    source_or_program,
    inputs: list | None = None,
    max_steps: int = 2_000_000,
) -> ExecutionTrace:
    """Parse (if needed), lower, and execute a program."""
    from repro.frontend.symbols import parse_program

    if isinstance(source_or_program, str):
        program = parse_program(source_or_program)
        lowered = lower_program(program)
    elif isinstance(source_or_program, LoweredProgram):
        lowered = source_or_program
    else:
        lowered = lower_program(source_or_program)
    return Interpreter(lowered, inputs=inputs, max_steps=max_steps).run()
