"""Snapshot publication, the change diff, and the warm-start plan.

A *snapshot* records, per procedure and configuration: the content
fingerprint, the canonical forward jump-function payload (by object
sha), the stage-1 return jump functions (observability only — see
:func:`repro.store.fingerprints.encode_return_jfs` for why they are
excluded from the change comparison), the solved entry environment, the
reached flag, and the call-graph adjacency at publication time.

The invalidation rule, given that stages 0–2 are rebuilt from source on
every run (they are cheap and config-independent stage 0 is cached
anyway):

    changed  = procedures whose fingerprint differs from the snapshot,
               whose freshly built forward jump-function payload differs
               from the stored one, or which are new to the program
             ∪ procedures removed since the snapshot
    INVALID  = changed ∪ descendants(changed)   (callee direction,
               over the union of the current adjacency and the
               snapshot adjacency of changed/removed procedures)
    clean    = everything else

Why descendants suffice — and ancestors are *not* needed: a procedure's
entry environment is determined by its callers' environments and their
jump functions. For a clean procedure every caller is clean (the
closure guarantees it: an invalid caller would make the procedure a
descendant of something changed), callers' jump functions are
byte-identical to the snapshot, and — inductively, in condensation
order — callers' environments are identical too, as is reachability.
Entry environments only propagate *down* the call graph, so nothing
above a changed procedure can observe the change; its substitutions are
recomputed from fresh IR every run regardless. The snapshot adjacency
of changed/removed procedures joins the closure so that a *deleted*
call edge still invalidates its former callee (whose meet lost a
contributor).

A globals-table change (COMMON layout or DATA values) shifts every
procedure's key set and the main program's seed environment, so it
marks every procedure changed — an effectively cold run, but not a
store *fallback* (the snapshot was consistent, just fully stale).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.callgraph.graph import CallGraph
from repro.core.builder import entry_keys
from repro.core.solver import SolveResult, WarmStart
from repro.ir.lower import LoweredProgram
from repro.store.artifacts import StoreError
from repro.store.fingerprints import (
    SCHEMA,
    decode_env,
    encode_env,
    encode_forward_jfs,
    encode_return_jfs,
    globals_fingerprint,
    procedure_fingerprint,
    sha256_of,
)


@dataclass(frozen=True)
class IncrementalReport:
    """What one incremental attempt did, for --stats and the benchmarks.

    ``mode`` is ``"cold"`` (no usable snapshot — including the very
    first run), ``"warm"`` (clean regions adopted), or ``"fallback"``
    (a snapshot existed but could not be trusted: the RL530 path).
    The flat engine's slab tier (:mod:`repro.store.slabs`) adds
    ``"slab"`` (a persistent slab adopted wholesale) and
    ``"slab-patch"`` (loaded, then the changed procedures' firing
    blocks spliced); its untrusted-artifact path reuses ``"fallback"``
    (RL532).
    """

    mode: str
    changed: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    invalid: tuple[str, ...] = ()
    clean: int = 0
    store_fallbacks: int = 0
    detail: str = ""

    def counters(self) -> dict[str, int]:
        return {
            "procs_changed": len(self.changed),
            "procs_invalid": len(self.invalid),
            "procs_clean": self.clean,
            "store_fallbacks": self.store_fallbacks,
        }


def publish_snapshot(
    store,
    *,
    cfg_key: str,
    lowered: LoweredProgram,
    graph: CallGraph,
    modref,
    forward,
    returns_table,
    solved: SolveResult,
) -> dict:
    """Write one configuration's artifacts and append the snapshot line.
    Returns the snapshot meta (tests inspect it)."""
    procs: dict[str, dict] = {}
    for name in sorted(lowered.procedures):
        jf_payload = encode_forward_jfs(name, lowered, forward.sites)
        procs[name] = {
            "fp": procedure_fingerprint(name, lowered, modref, cfg_key),
            "jf": store.put_object(jf_payload),
            "rjf": store.put_object(encode_return_jfs(name, returns_table)),
            "env": store.put_object(encode_env(solved.val.get(name, {}))),
            "reached": name in solved.reached,
            "callees": graph.callees(name),
        }
    meta = {
        "schema": SCHEMA,
        "main": lowered.program.main,
        "globals_fp": globals_fingerprint(lowered.program),
        "procs": procs,
    }
    store.append_snapshot(cfg_key, lowered.program.main, meta)
    return meta


def diff_snapshot(
    snapshot: dict,
    *,
    cfg_key: str,
    lowered: LoweredProgram,
    graph: CallGraph,
    modref,
    forward,
) -> tuple[set[str], set[str], set[str]]:
    """``(changed, removed, invalid)`` per the module-docstring rule.
    Raises :class:`StoreError` on a malformed snapshot."""
    try:
        if snapshot.get("schema") != SCHEMA:
            raise StoreError("snapshot schema mismatch")
        stored_procs = snapshot["procs"]
        current = set(lowered.procedures)
        removed = set(stored_procs) - current
        if snapshot.get("globals_fp") != globals_fingerprint(lowered.program):
            changed = set(current)
        else:
            changed = set()
            for name in current:
                stored = stored_procs.get(name)
                if stored is None:
                    changed.add(name)
                    continue
                fp = procedure_fingerprint(name, lowered, modref, cfg_key)
                if stored["fp"] != fp:
                    changed.add(name)
                    continue
                jf_sha = sha256_of(
                    encode_forward_jfs(name, lowered, forward.sites)
                )
                if stored["jf"] != jf_sha:
                    changed.add(name)
        # descendants over current adjacency plus the snapshot adjacency
        # of changed/removed procedures (a deleted edge must still
        # invalidate its former callee)
        stack = list(changed | removed)
        invalid = set(stack)
        while stack:
            proc = stack.pop()
            callees = list(graph.callees(proc)) if proc in current else []
            if proc in changed or proc in removed:
                stored = stored_procs.get(proc)
                if stored is not None:
                    callees.extend(stored.get("callees", ()))
            for callee in callees:
                if callee not in invalid:
                    invalid.add(callee)
                    stack.append(callee)
        invalid &= current  # removed procedures have no environment now
        return changed, removed, invalid
    except (KeyError, TypeError, AttributeError) as exc:
        raise StoreError(f"snapshot malformed: {exc}") from exc


def plan_warm_start(
    store,
    snapshot: dict,
    *,
    cfg_key: str,
    lowered: LoweredProgram,
    graph: CallGraph,
    modref,
    forward,
) -> tuple[WarmStart, IncrementalReport]:
    """Build the solver's :class:`WarmStart` from a trusted snapshot.

    Raises :class:`StoreError` whenever anything about the snapshot or
    its objects cannot be verified — the caller falls back to a cold
    run (RL530) and republishes.
    """
    changed, removed, invalid = diff_snapshot(
        snapshot,
        cfg_key=cfg_key,
        lowered=lowered,
        graph=graph,
        modref=modref,
        forward=forward,
    )
    current = set(lowered.procedures)
    clean = current - invalid
    keys_of = entry_keys(lowered)
    envs = {}
    reached = set()
    try:
        stored_procs = snapshot["procs"]
        for name in clean:
            stored = stored_procs[name]
            encoded = store.get_object(stored["env"])
            if not isinstance(encoded, dict):
                raise StoreError(f"environment object for {name} malformed")
            envs[name] = decode_env(encoded, keys_of.get(name, []))
            if stored.get("reached"):
                reached.add(name)
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"snapshot inconsistent: {exc}") from exc
    if snapshot.get("main") != lowered.program.main:
        raise StoreError("snapshot belongs to a different program")
    warm = WarmStart(
        clean=frozenset(clean),
        envs=envs,
        reached=frozenset(reached),
    )
    report = IncrementalReport(
        mode="warm",
        changed=tuple(sorted(changed)),
        removed=tuple(sorted(removed)),
        invalid=tuple(sorted(invalid)),
        clean=len(clean),
    )
    return warm, report
