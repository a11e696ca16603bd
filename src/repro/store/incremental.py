"""Snapshot publication, the change diff, and the warm-start plan.

A *snapshot* records, per procedure and configuration: the content
fingerprint, the digest of the canonical forward jump-function payload
(the payload itself is not stored), the solved entry environment (an
object), the reached flag, and the call-graph adjacency at publication
time. Return jump functions are not stored: callers' forward jump
functions absorb them during value numbering, so a change to one shows
up in the callers' payloads.

The invalidation rule, given that every run has its own stages 0–2
(built from source, or, for an edit, carried over per procedure from
the version it replaces) and digests them afresh or reads the digest
kept on the carried-over object (:class:`RunDigests`):

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
from functools import cached_property

from repro.callgraph.graph import CallGraph
from repro.core.solver import SolveResult, WarmStart
from repro.ir.lower import LoweredProgram
from repro.store.artifacts import StoreError
from repro.store.fingerprints import (
    SCHEMA,
    decode_env,
    encode_env,
    encode_forward_jfs,
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


class RunDigests:
    """One run's artifacts as the store sees them: every procedure's
    fingerprint and forward-payload digest, the globals fingerprint, and
    the stored environments the warm start verified.
    :func:`plan_warm_start` computes what its diff reads and
    :func:`publish_snapshot` reuses it.

    Each digest is kept on the object it digests, so an edit computes
    only those of the units it rebuilt: a fingerprint on the
    :class:`~repro.ir.lower.LoweredProcedure`
    (:func:`~repro.store.fingerprints.procedure_fingerprint`), a payload
    digest on the :class:`~repro.analysis.valuenum.ValueNumbering` stage
    2 projected, under the jump-function ``kind`` (the payload is the
    numbering's projection onto that kind at the procedure's own call
    sites). The object itself lives as long as the run that made it, so
    it keeps no program version alive."""

    def __init__(
        self, cfg_key: str, kind, lowered: LoweredProgram, modref, forward
    ):
        self.cfg_key = cfg_key
        self.kind = kind
        self.lowered = lowered
        self.modref = modref
        self.forward = forward
        #: procedure -> the stored environment object
        #: :func:`plan_warm_start` adopted for it (clean procedures only)
        self.env_refs: dict[str, str] = {}

    def fingerprint(self, name: str) -> str:
        return procedure_fingerprint(
            name, self.lowered, self.modref, self.cfg_key
        )

    def payload_digest(self, name: str) -> str:
        numbering = self.forward.numberings[name]
        cached = numbering.digest
        if cached is not None and cached[0] is self.kind:
            return cached[1]
        sha = sha256_of(
            encode_forward_jfs(self.lowered.procedures[name], self.forward.sites)
        )
        numbering.digest = (self.kind, sha)
        return sha

    @cached_property
    def globals_fp(self) -> str:
        return globals_fingerprint(self.lowered.program)


def publish_snapshot(
    store,
    digests: RunDigests,
    *,
    graph: CallGraph,
    solved: SolveResult,
) -> dict:
    """Write one configuration's environments and append the snapshot
    line. Returns the snapshot meta (tests inspect it).

    Payloads are recorded by digest, not written: a later run only
    compares its own digests with them. A procedure the warm start
    adopted keeps the environment object the plan verified (its solved
    environment is that object's), so an edit writes only the
    environments of the procedures it invalidated."""
    lowered = digests.lowered
    env_refs = digests.env_refs
    procs: dict[str, dict] = {}
    for name in sorted(lowered.procedures):
        env = env_refs.get(name)
        if env is None:
            env = store.put_object(encode_env(solved.val.get(name, {})))
        procs[name] = {
            "fp": digests.fingerprint(name),
            "jf": digests.payload_digest(name),
            "env": env,
            "reached": name in solved.reached,
            "callees": list(graph.callees(name)),
        }
    meta = {
        "schema": SCHEMA,
        "main": lowered.program.main,
        "globals_fp": digests.globals_fp,
        "procs": procs,
    }
    store.append_snapshot(digests.cfg_key, lowered.program.main, meta)
    return meta


def diff_snapshot(
    snapshot: dict, digests: RunDigests, *, graph: CallGraph
) -> tuple[set[str], set[str], set[str]]:
    """``(changed, removed, invalid)`` per the module-docstring rule.
    Raises :class:`StoreError` on a malformed snapshot."""
    lowered = digests.lowered
    try:
        if snapshot.get("schema") != SCHEMA:
            raise StoreError("snapshot schema mismatch")
        stored_procs = snapshot["procs"]
        current = set(lowered.procedures)
        removed = set(stored_procs) - current
        if snapshot.get("globals_fp") != digests.globals_fp:
            changed = set(current)
        else:
            changed = set()
            for name in current:
                stored = stored_procs.get(name)
                if stored is None:
                    changed.add(name)
                    continue
                if stored["fp"] != digests.fingerprint(name):
                    changed.add(name)
                    continue
                if stored["jf"] != digests.payload_digest(name):
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
    store, snapshot: dict, digests: RunDigests, *, graph: CallGraph
) -> tuple[WarmStart, IncrementalReport]:
    """Build the solver's :class:`WarmStart` from a trusted snapshot.

    Raises :class:`StoreError` whenever anything about the snapshot or
    its objects cannot be verified — the caller falls back to a cold
    run (RL530) and republishes.
    """
    changed, removed, invalid = diff_snapshot(snapshot, digests, graph=graph)
    lowered = digests.lowered
    current = set(lowered.procedures)
    clean = current - invalid
    keys_of = lowered.entry_keys
    envs = {}
    env_refs = {}
    reached = set()
    try:
        stored_procs = snapshot["procs"]
        for name in clean:
            stored = stored_procs[name]
            encoded = store.get_object(stored["env"])
            if not isinstance(encoded, dict):
                raise StoreError(f"environment object for {name} malformed")
            envs[name] = decode_env(encoded, keys_of.get(name, []))
            env_refs[name] = stored["env"]
            if stored.get("reached"):
                reached.add(name)
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"snapshot inconsistent: {exc}") from exc
    if snapshot.get("main") != lowered.program.main:
        raise StoreError("snapshot belongs to a different program")
    digests.env_refs = env_refs
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
