"""Interprocedural MOD/REF summary analysis.

For each procedure ``p``:

- ``MOD(p)``: the formals (by name) and globals (by :class:`GlobalId`)
  whose values may change as a side effect of invoking ``p`` — directly or
  through any chain of calls (Cooper–Kennedy style flow-insensitive
  side-effect analysis, computed callees-first over the call graph's
  strongly connected components, iterating only around cycles).
- ``REF(p)``: the formals and globals ``p`` may read, likewise transitive.

Table 3 shows why this matters: without MOD information the analyzer must
assume every call clobbers every visible variable, and "the presence of
any call in a routine eliminated potential constants along paths leaving
the call site".

:func:`make_call_effects` translates summaries into the per-call kill sets
SSA construction consumes (see :mod:`repro.analysis.ssa`).
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field

from repro.callgraph.graph import CallGraph
from repro.frontend.astnodes import Type
from repro.frontend.symbols import GlobalId, Symbol, SymbolKind
from repro.ir.instructions import (
    ArgumentKind,
    Call,
    LoadArr,
    ReadArr,
    ReadVar,
    StoreArr,
    VarDef,
    VarUse,
)
from repro.ir.lower import LoweredProgram


#: the one empty summary every procedure with nothing to report shares.
_EMPTY_SUMMARY: frozenset = frozenset()


@dataclass
class ModRefInfo:
    """MOD/REF summaries for every procedure.

    The summaries :func:`compute_modref` returns are frozensets, so SSA
    cache keys can hold them (:class:`~repro.core.driver.SSACache`), and
    each empty one is a single shared empty ``frozenset``.
    """

    mod_formals: dict[str, AbstractSet[str]] = field(default_factory=dict)
    mod_globals: dict[str, AbstractSet[GlobalId]] = field(default_factory=dict)
    ref_formals: dict[str, AbstractSet[str]] = field(default_factory=dict)
    ref_globals: dict[str, AbstractSet[GlobalId]] = field(default_factory=dict)

    def modifies_formal(self, proc: str, formal: str) -> bool:
        return formal in self.mod_formals.get(proc, ())

    def modifies_global(self, proc: str, gid: GlobalId) -> bool:
        return gid in self.mod_globals.get(proc, ())

    def references_formal(self, proc: str, formal: str) -> bool:
        return formal in self.ref_formals.get(proc, ())

    def references_global(self, proc: str, gid: GlobalId) -> bool:
        return gid in self.ref_globals.get(proc, ())


def _classify(symbol: Symbol) -> tuple[str, object] | None:
    """Map a symbol to its summary slot: formal name or global id."""
    if symbol.kind is SymbolKind.FORMAL:
        return ("formal", symbol.name)
    if symbol.kind is SymbolKind.GLOBAL:
        assert symbol.global_id is not None
        return ("global", symbol.global_id)
    return None


def site_binding_map(
    lowered: LoweredProgram, call: Call
) -> dict[str, tuple[str, object]]:
    """How one call site maps callee formals to caller summary slots.

    Only *bindable* actuals participate: a variable, whole array, or
    array element carries storage the callee's by-reference formal
    aliases, so the callee's effect on the formal is an effect on the
    caller's slot. Literal/expression actuals bind nothing (the callee
    writes a temporary).
    """
    callee = lowered.procedures[call.callee].procedure
    binding: dict[str, tuple[str, object]] = {}
    for formal, arg in zip(callee.formals, call.args):
        bindable = arg.symbol is not None and arg.kind in (
            ArgumentKind.VAR,
            ArgumentKind.ARRAY,
            ArgumentKind.ARRAY_ELEMENT,
        )
        if not bindable:
            continue
        slot = _classify(arg.symbol)
        if slot is not None:
            binding[formal.name] = slot
    return binding


def compute_modref(lowered: LoweredProgram, graph: CallGraph) -> ModRefInfo:
    """Compute MOD/REF summaries to a fixpoint over the call graph."""
    info = ModRefInfo(
        mod_formals={name: set() for name in lowered.procedures},
        mod_globals={name: set() for name in lowered.procedures},
        ref_formals={name: set() for name in lowered.procedures},
        ref_globals={name: set() for name in lowered.procedures},
    )
    for name, lowered_proc in lowered.procedures.items():
        _collect_direct(name, lowered_proc, info)

    # Callees first: every callee outside a component is final before the
    # component's own sites run, so one pass settles a non-recursive
    # procedure and only call-graph cycles iterate.
    for component in graph.components:
        sites = [
            (caller, call)
            for caller in component.members
            for _, call in graph.out_edges[caller]
        ]
        while True:
            changed = False
            for caller, call in sites:
                changed |= _propagate_site(lowered, caller, call, info)
            if not (component.recursive and changed):
                break
    for summaries in (
        info.mod_formals, info.mod_globals, info.ref_formals, info.ref_globals
    ):
        for name, summary in summaries.items():
            summaries[name] = frozenset(summary) if summary else _EMPTY_SUMMARY
    return info


def _collect_direct(name: str, lowered_proc, info: ModRefInfo) -> None:
    mod_f = info.mod_formals[name]
    mod_g = info.mod_globals[name]
    ref_f = info.ref_formals[name]
    ref_g = info.ref_globals[name]

    def note_mod(symbol: Symbol) -> None:
        slot = _classify(symbol)
        if slot is None:
            return
        (mod_f if slot[0] == "formal" else mod_g).add(slot[1])  # type: ignore[arg-type]

    def note_ref(symbol: Symbol) -> None:
        slot = _classify(symbol)
        if slot is None:
            return
        (ref_f if slot[0] == "formal" else ref_g).add(slot[1])  # type: ignore[arg-type]

    for _, instr in lowered_proc.cfg.instructions():
        dest = instr.dest
        if isinstance(dest, VarDef):
            note_mod(dest.symbol)
        if isinstance(instr, (StoreArr, ReadArr)):
            note_mod(instr.array)
        if isinstance(instr, LoadArr):
            note_ref(instr.array)
        if isinstance(instr, ReadVar):
            note_mod(instr.target.symbol)
        for operand in instr.uses():
            if isinstance(operand, VarUse):
                note_ref(operand.symbol)


def _propagate_site(
    lowered: LoweredProgram, caller: str, call: Call, info: ModRefInfo
) -> bool:
    """Fold one call site's callee summary into the caller's. Returns
    whether anything changed."""
    callee_name = call.callee
    changed = False

    def absorb(target_f: set, target_g: set, source_slot) -> None:
        nonlocal changed
        kind, payload = source_slot
        target = target_f if kind == "formal" else target_g
        if payload not in target:
            target.add(payload)
            changed = True

    # Globals flow up unchanged (same storage everywhere).
    for gid in info.mod_globals[callee_name]:
        if gid not in info.mod_globals[caller]:
            info.mod_globals[caller].add(gid)
            changed = True
    for gid in info.ref_globals[callee_name]:
        if gid not in info.ref_globals[caller]:
            info.ref_globals[caller].add(gid)
            changed = True

    # Formals map through the binding at this site (passing a value is
    # not itself a read or a write; the effect lands on the caller's slot
    # iff the actual is bindable storage).
    binding = site_binding_map(lowered, call)
    for formal_name, slot in binding.items():
        if formal_name in info.mod_formals[callee_name]:
            absorb(info.mod_formals[caller], info.mod_globals[caller], slot)
        if formal_name in info.ref_formals[callee_name]:
            absorb(info.ref_formals[caller], info.ref_globals[caller], slot)
    return changed


def make_call_effects(
    lowered: LoweredProgram,
    caller_name: str,
    modref: ModRefInfo | None,
):
    """Build the per-call kill-set function for SSA construction.

    With ``modref`` present, a call kills exactly the scalars the callee's
    MOD summary says it can change. With ``modref=None`` (the paper's
    "without MOD" configuration) every call makes the worst-case
    assumption: it kills every scalar global, every by-reference scalar
    actual, and every scalar formal of the *caller* — a formal's
    underlying actual may be aliased to COMMON storage the callee writes,
    and without side-effect summaries nothing rules that out ("the
    presence of any call in a routine eliminated potential constants
    along paths leaving the call site", §4.2). Alias kills carry no
    callee binding, so no return jump function can rescue them; only a
    by-reference actual that is a local of the caller is rebound to its
    formal, since no COMMON storage can alias it.
    """
    caller = lowered.procedures[caller_name].procedure
    global_symbols = [
        s
        for s in caller.symtab
        if s.kind is SymbolKind.GLOBAL
        and not s.is_array
        and s.type in (Type.INTEGER, Type.LOGICAL)
    ]
    caller_formals = [
        s
        for s in caller.formals
        if not s.is_array and s.type in (Type.INTEGER, Type.LOGICAL)
    ]
    by_gid = {s.global_id: s for s in global_symbols}
    aliased = set(global_symbols) | set(caller_formals)

    def effects(call: Call) -> list[tuple[Symbol, tuple[str, object]]]:
        callee = lowered.procedures[call.callee].procedure
        kills: list[tuple[Symbol, tuple[str, object]]] = []
        if modref is None:
            # COMMON is opaque without summaries: no return jump function
            # can be trusted to describe a slot the callee may or may not
            # even declare, so global kills carry no rescuable binding.
            for symbol in global_symbols:
                kills.append((symbol, ("alias", symbol.global_id)))
            for symbol in caller_formals:
                kills.append((symbol, ("alias", symbol.name)))
            for formal, arg in zip(callee.formals, call.args):
                if arg.kind is ArgumentKind.VAR and arg.symbol is not None:
                    if (
                        arg.symbol.type in (Type.INTEGER, Type.LOGICAL)
                        and arg.symbol not in aliased
                    ):
                        kills.append((arg.symbol, ("formal", formal.name)))
            return kills
        for gid in sorted(
            modref.mod_globals.get(call.callee, ()), key=str
        ):
            symbol = by_gid.get(gid)
            if symbol is not None:
                kills.append((symbol, ("global", gid)))
        for formal, arg in zip(callee.formals, call.args):
            if formal.name not in modref.mod_formals.get(call.callee, ()):
                continue
            if arg.kind is ArgumentKind.VAR and arg.symbol is not None:
                if arg.symbol.type in (Type.INTEGER, Type.LOGICAL):
                    kills.append((arg.symbol, ("formal", formal.name)))
        return kills

    return effects
