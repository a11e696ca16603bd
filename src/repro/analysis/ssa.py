"""SSA construction (Cytron et al.) over a copied CFG.

Responsibilities:

- :func:`instrument_call_kills` — insert :class:`~repro.ir.instructions.CallKill`
  pseudo-definitions after each call for every scalar the call may modify,
  as dictated by MOD information (or everything visible, when running the
  paper's "no MOD" ablation).
- :func:`build_ssa` — copy the CFG (:func:`copy_cfg`), place phis at
  iterated dominance frontiers, rename, and record the entry (version-0)
  and exit versions of every scalar. Version 0 of a formal or global *is*
  its value on entry — the quantity interprocedural constant propagation
  approximates.

The scalars renamed are the lowered procedure's ``variables``: lowering
gives every procedure a (hidden) symbol for each scalar COMMON member it
does not declare, so values that merely *flow through* a procedure are
still tracked (the paper's pass-through of implicitly-passed globals).

The original :class:`~repro.ir.lower.LoweredProcedure` is never mutated;
every analysis works on its own SSA copy. The copy is structural: it owns
its blocks, instructions and call arguments and shares only frozen
operands, spans and symbols with the lowered CFG. It is about a fifth of
``build_ssa`` on the large corpus programs; dominators, phi placement and
renaming are most of the rest, and are what
:class:`~repro.core.driver.SSACache` saves by building each SSA form once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, TypeVar

from repro.analysis.dominance import DominatorTree, compute_dominators, iterated_frontier
from repro.frontend.symbols import Symbol, SymbolKind
from repro.ir.cfg import BasicBlock, ControlFlowGraph
from repro.ir.instructions import (
    Argument,
    Call,
    CallKill,
    Instr,
    Operand,
    Phi,
    SSAName,
    Temp,
    VarDef,
    VarUse,
)
from repro.ir.lower import LoweredProcedure

#: Maps a Call to the scalars it may modify: list of (symbol, binding).
CallEffects = Callable[[Call], list[tuple[Symbol, tuple[str, object]]]]


def no_call_effects(_call: Call) -> list[tuple[Symbol, tuple[str, object]]]:
    """Effects function for code with no interprocedural information needs."""
    return []


def copy_cfg(cfg: ControlFlowGraph) -> ControlFlowGraph:
    """Copy a CFG deeply enough that SSA construction, or complete
    propagation's DCE, cannot touch ``cfg``.

    New objects: the graph, every block with its ``instrs`` list, every
    instruction, every list or dict an instruction holds, and every call
    :class:`~repro.ir.instructions.Argument` (renaming assigns
    ``arg.value`` in place). Shared with ``cfg``: everything a block or
    instruction holds that is immutable — the ``preds`` tuples, the
    ``indices`` tuples of array accesses and arguments, operands
    (``Const``, ``Temp``, ``VarUse``, ``SSAName``), ``VarDef``,
    ``SourceSpan``, enums, strings and numbers — plus the ``Symbol``
    identities both forms name. Sharing is safe because nothing shared
    is ever mutated: both change only fields of their own blocks,
    instructions and arguments (``block.instrs = ...``,
    ``block.preds = ...``, ``set_dest``, ``replace_uses``, which builds
    a new tuple). A lowered CFG holds no ``Phi`` or ``CallKill`` (SSA
    construction adds both after the copy), so no instruction refers to
    another.
    """
    clone = ControlFlowGraph()
    clone.entry_id = cfg.entry_id
    clone.exit_id = cfg.exit_id
    clone._next_id = cfg._next_id
    clone.blocks = {
        block_id: BasicBlock(
            block_id, [_copy_node(instr) for instr in block.instrs], block.preds
        )
        for block_id, block in cfg.blocks.items()
    }
    return clone


@functools.cache
def _slot_names(cls: type) -> tuple[str, ...]:
    """The slots of an IR class, own and inherited (IR nodes are slotted)."""
    return tuple(
        name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ())
    )


_Node = TypeVar("_Node", Instr, Argument)


def _copy_node(node: _Node) -> _Node:
    """Copy one instruction or argument slot by slot: containers are
    fresh, arguments inside them are copied, everything else is shared."""
    cls = type(node)
    clone = object.__new__(cls)
    for name in _slot_names(cls):
        value = getattr(node, name)
        if type(value) is list:
            value = [_copy_node(v) if type(v) is Argument else v for v in value]
        elif type(value) is dict:
            value = dict(value)
        setattr(clone, name, value)
    return clone


def instrument_call_kills(
    cfg: ControlFlowGraph, effects: CallEffects
) -> tuple[Call, ...]:
    """Insert CallKill pseudo-defs after every call, per ``effects``;
    return the calls, in site-id order."""
    calls: list[Call] = []
    for block in cfg.blocks.values():
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            new_instrs.append(instr)
            if isinstance(instr, Call):
                calls.append(instr)
                for symbol, binding in effects(instr):
                    new_instrs.append(
                        CallKill(target=VarDef(symbol), call=instr, binding=binding)
                    )
        block.instrs = new_instrs
    calls.sort(key=attrgetter("site_id"))
    return tuple(calls)


@dataclass(eq=False)
class SSAProcedure:
    """A procedure in SSA form plus renaming metadata.

    Compared and hashed by identity: cache keys hold SSA forms (see
    :class:`~repro.core.driver.SSACache`). The dominator tree
    construction used is not kept: nothing reads it after renaming, and
    it costs a dict per block for as long as a cache holds the form.

    ``calls`` are this form's own calls, in site-id order; the scalars
    it renames are the lowered procedure's ``variables``.

    ``entry_reads`` lists, in first-read order, the formals and globals
    whose entry (version-0) value some operand reads, phi operands
    included. SCCP cannot see any other entry value, so the references a
    CONSTANTS(p) substitutes depend only on the constants of these.

    ``substitutions`` is the record memo of
    :func:`repro.core.substitute.compute_substitutions`, keyed by the
    constants of ``entry_reads``. It lives and dies with this SSA form,
    so whatever shares the form (configurations and daemon requests
    through the stage-0 :class:`~repro.core.driver.SSACache`, and
    complete propagation's later rounds for a procedure DCE left alone)
    shares its records, and a rewritten procedure starts with an empty
    memo.
    """

    lowered: LoweredProcedure
    cfg: ControlFlowGraph
    calls: tuple[Call, ...] = ()
    exit_versions: dict[Symbol, int] = field(default_factory=dict)
    exit_reachable: bool = True
    #: site_id -> {global symbol -> version current just before the call}.
    call_versions: dict[int, dict[Symbol, int]] = field(default_factory=dict)
    entry_reads: tuple[Symbol, ...] = ()
    #: the constants of ``entry_reads`` (class, value; ``None`` twice for
    #: a non-constant) -> the record.
    substitutions: dict[tuple, object] = field(default_factory=dict, repr=False)

    @property
    def name(self) -> str:
        return self.lowered.name

    @property
    def variables(self) -> tuple[Symbol, ...]:
        return self.lowered.variables

    def entry_name(self, symbol: Symbol) -> SSAName:
        """Version 0 — the value of ``symbol`` on procedure entry."""
        return SSAName(symbol, 0)

    def definitions(self) -> dict[object, tuple[int, Instr]]:
        """Map each defined SSAName/Temp to its (block id, instruction)."""
        defs: dict[object, tuple[int, Instr]] = {}
        for block, instr in self.cfg.instructions():
            dest = instr.dest
            if isinstance(dest, Temp):
                defs[dest] = (block.id, instr)
            elif isinstance(dest, VarDef):
                defs[SSAName(dest.symbol, dest.version or 0)] = (block.id, instr)
        return defs

    def uses(self) -> dict[object, list[tuple[int, Instr]]]:
        """Map each SSAName/Temp to the instructions that use it."""
        found: dict[object, list[tuple[int, Instr]]] = {}
        for block, instr in self.cfg.instructions():
            for operand in instr.uses():
                if isinstance(operand, (SSAName, Temp)):
                    found.setdefault(operand, []).append((block.id, instr))
        return found

    def entry_use_spans(self, symbol: Symbol) -> list:
        """Source spans of uses of ``symbol``'s entry value.

        These are exactly the references the paper's analyzer substitutes
        when the entry value turns out constant. Spans of synthesized uses
        (length 0) are excluded.
        """
        spans = []
        for _, instr in self.cfg.instructions():
            if isinstance(instr, Phi):
                continue  # phis are not source references
            for operand in instr.uses():
                if (
                    isinstance(operand, SSAName)
                    and operand.symbol is symbol
                    and operand.version == 0
                    and operand.span.start_offset != operand.span.end_offset
                ):
                    spans.append(operand.span)
        return spans


def build_ssa(
    lowered_proc: LoweredProcedure,
    effects: CallEffects = no_call_effects,
) -> SSAProcedure:
    """Copy, instrument, and convert one procedure to SSA form."""
    cfg = copy_cfg(lowered_proc.cfg)
    calls = instrument_call_kills(cfg, effects)
    cfg.refresh()
    variables = lowered_proc.variables
    domtree = compute_dominators(cfg)
    reachable = set(domtree.idom)
    _place_phis(cfg, domtree, variables, reachable)
    exit_versions, exit_reachable, call_versions, entry_reads = _rename(
        cfg, domtree, variables
    )
    return SSAProcedure(
        lowered=lowered_proc,
        cfg=cfg,
        calls=calls,
        exit_versions=exit_versions,
        exit_reachable=exit_reachable,
        call_versions=call_versions,
        entry_reads=entry_reads,
    )


def _place_phis(
    cfg: ControlFlowGraph,
    domtree: DominatorTree,
    variables: tuple[Symbol, ...],
    reachable: set[int],
) -> None:
    def_blocks: dict[Symbol, set[int]] = {s: {cfg.entry_id} for s in variables}
    for block, instr in cfg.instructions():
        if block.id not in reachable:
            continue
        dest = instr.dest
        if isinstance(dest, VarDef) and dest.symbol in def_blocks:
            def_blocks[dest.symbol].add(block.id)
    for symbol in variables:
        blocks = def_blocks[symbol]
        if len(blocks) == 1:
            continue
        for join_id in iterated_frontier(domtree, blocks):
            join = cfg.blocks[join_id]
            join.instrs.insert(0, Phi(result=VarDef(symbol)))


def _rename(
    cfg: ControlFlowGraph,
    domtree: DominatorTree,
    variables: tuple[Symbol, ...],
) -> tuple[
    dict[Symbol, int], bool, dict[int, dict[Symbol, int]], tuple[Symbol, ...]
]:
    stacks: dict[Symbol, list[int]] = {s: [0] for s in variables}
    counters: dict[Symbol, int] = {s: 0 for s in variables}
    tracked = set(variables)
    global_symbols = [s for s in variables if s.kind is SymbolKind.GLOBAL]
    exit_versions: dict[Symbol, int] = {}
    call_versions: dict[int, dict[Symbol, int]] = {}
    # formals and globals (the symbols with an entry key) read at version 0
    entry_reads: dict[Symbol, None] = {}
    exit_seen = False

    def current(symbol: Symbol) -> int:
        return stacks[symbol][-1]

    def read(symbol: Symbol) -> int:
        """:func:`current`, for an operand: notes an entry value read."""
        version = stacks[symbol][-1]
        if version == 0 and (
            symbol.kind is SymbolKind.FORMAL or symbol.kind is SymbolKind.GLOBAL
        ):
            entry_reads[symbol] = None
        return version

    def fresh(symbol: Symbol) -> int:
        counters[symbol] += 1
        stacks[symbol].append(counters[symbol])
        return counters[symbol]

    def rewrite_use(operand: Operand) -> Operand:
        if isinstance(operand, VarUse) and operand.symbol in tracked:
            return SSAName(operand.symbol, read(operand.symbol), operand.span)
        return operand

    # Iterative dominator-tree walk with explicit enter/leave events.
    work: list[tuple[str, int]] = [("enter", cfg.entry_id)]
    pushed_per_block: dict[int, list[Symbol]] = {}
    while work:
        action, block_id = work.pop()
        if action == "leave":
            for symbol in pushed_per_block.pop(block_id, ()):
                stacks[symbol].pop()
            continue
        block = cfg.blocks[block_id]
        pushed: list[Symbol] = []
        for instr in block.instrs:
            if not isinstance(instr, Phi):
                instr.replace_uses(rewrite_use)
            if isinstance(instr, Call):
                # Snapshot pre-call global versions: forward jump functions
                # for implicitly-passed globals read the value *before* the
                # call's own kills take effect.
                call_versions[instr.site_id] = {
                    s: current(s) for s in global_symbols
                }
            dest = instr.dest
            if isinstance(dest, VarDef) and dest.symbol in tracked:
                version = fresh(dest.symbol)
                instr.set_dest(VarDef(dest.symbol, dest.span, version))
                pushed.append(dest.symbol)
        if block_id == cfg.exit_id:
            exit_seen = True
            for symbol in variables:
                exit_versions[symbol] = current(symbol)
        for succ_id in block.successors():
            succ = cfg.blocks[succ_id]
            for phi in succ.phis():
                dest = phi.dest
                assert isinstance(dest, VarDef)
                phi.incoming[block_id] = SSAName(dest.symbol, read(dest.symbol))
        pushed_per_block[block_id] = pushed
        work.append(("leave", block_id))
        for child in sorted(domtree.children.get(block_id, ()), reverse=True):
            work.append(("enter", child))

    reads = tuple(entry_reads)
    if not exit_seen:
        return {}, False, call_versions, reads
    return exit_versions, True, call_versions, reads
