"""Flat slab engine: stage 3 over preallocated integer arrays.

The object engine (:class:`~repro.framework.engine.ClientEngine`)
spends its time in CPython object machinery: every VAL cell is a dict
entry holding a boxed ``_Top``/``_Bottom`` sentinel or a boxed int,
every meet is attribute dispatch, every delta fans out through
dict-of-tuples lookups keyed by ``(proc, key)`` hashes, and the region
scheduler pays heaps and sets per procedure. None of that is the
algorithm — it is representation overhead, and at the 1k–10k-procedure
corpus tier the ROADMAP targets it dominates wall-clock and memory.

This module re-represents one solve as flat arrays ("slabs"):

``slots``
    Every ``(procedure, formal/global)`` binding gets a dense integer
    id, assigned at build time in region-schedule order so one SCC's
    slots are contiguous. ``slot_base[pid] + offset`` addresses a cell.

``codes``
    The 3-level lattice is tagged ints in an ``array('q')``: ``0`` = ⊤,
    ``1`` = ⊥, ``k >= 2`` = index ``k - 2`` into a :class:`ConstPool`.
    The pool interns by ``(class, value)`` — a LOGICAL ``.true.`` never
    aliases an INTEGER ``1`` — and keeps arbitrary-precision constants
    (a folded ``**`` can exceed 64 bits) out of the arrays: the slab
    stores only pool indices. The meet collapses to integer compares::

        new = inc if old == 0 else (old if inc == 0 or old == inc else 1)

``edges / CSR``
    :class:`~repro.framework.client.FlowIndex`'s dict-of-tuples becomes
    CSR-style ``(indptr, indices)`` arrays. The retained edge store is
    the *phase-1 stream*: the structural sweep from the main program is
    value-independent, so its pop order, every seed/kill firing, and
    each firing's "owner already seeded?" test are computed once at
    build time and flattened into four parallel arrays (int32 target
    slot, int8 kind, int32 payload, int8 enqueue flag). Kinds are
    0 const / 1 pass-through / 2 polynomial / 3 bottom / 4 kill;
    payloads are a pool code, a caller slot id (-1 for a missing key),
    or a kernel index. The dependent CSR maps a slot id to the stream
    positions of the edges whose jump-function support reads it, so
    delta fan-out is a slice walk with no hashing — and the build-time
    seed/kill/callee CSR views are dropped once the stream is baked.

``kernels``
    Polynomial jump functions are compiled once per (caller, expr) at
    build time via :func:`repro.core.exprs.compile_slab_expr` —
    closures that read slot codes directly and decode through the pool,
    with the lattice short-circuits inlined. They close
    over plain ints, never interned expressions, so a mid-solve
    :func:`~repro.core.exprs.clear_intern_table` cannot invalidate them.

:func:`solve_flat` then runs two phases. Phase 1 walks reachability
from the main program over the callee CSR (depth-first, callees in
site order) and performs each procedure's seed sweep when it is
popped; a slot that lowers is queued for delta propagation only if its
owning procedure's seed already ran (an unseeded procedure's later
sweep reads the updated codes anyway). Phase 2 drains the queue in
batches: the whole queue is swapped out, each drained slot's dependent
edges re-transfer, and a generation-stamped ``in_queue`` array dedups
slots per batch — no membership hashing anywhere. Every transfer is a monotone
function of the caller slots and every lowering re-propagates, so this
chaotic iteration reaches the same greatest fixpoint as every other
schedule; the suite cross-checks byte-identical VALs against the
object engine. Counter semantics differ in the small: the flat engine
has no evaluation memo (``memo_hits``/``memo_misses`` stay 0 and
``evaluations`` may exceed the object engine's memoized count), and
``passes`` reports ``1 + batch_drains`` — the structural sweep plus
each drain batch.

:class:`SlabSegment` is the wire format the parallel solver ships
instead of boxed environment dicts: keys, codes and a self-contained
constant pool, so worker and parent never need to agree on pool
numbering.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Iterator, Mapping

from repro.callgraph.graph import CallGraph
from repro.core.exprs import EntryKey, compile_slab_expr
from repro.core.lattice import BOTTOM, TOP, LatticeValue
from repro.framework.client import FlowIndex
from repro.frontend.symbols import GlobalId
from repro.ir.lower import LoweredProgram

#: Lattice tags in the codes array.
TOP_CODE = 0
BOTTOM_CODE = 1
#: First constant-pool code; code ``k`` decodes to ``pool.values[k - 2]``.
CONST_BASE = 2

#: Edge kinds.
KIND_CONST = 0  # payload: pool code of the build-time-folded constant
KIND_PASS = 1  # payload: caller slot id, or -1 for a missing key (⊥)
KIND_POLY = 2  # payload: index into the slab's kernel table
KIND_BOTTOM = 3  # payload unused: one ⊥ contribution, never evaluated
KIND_KILL = 4  # phase-1 stream only: unconditional lower to ⊥ (MOD kill)


class ConstPool:
    """Interned constant values, numbered from :data:`CONST_BASE`.

    Interning is per-class — exactly the engine's ``_memo_value``
    discipline — so ``True`` and ``1`` get distinct codes and equal
    codes imply lattice-equal values (the integer meet relies on that
    implication). Each class keys its own dict by the value object
    itself, so an entry's intern overhead is one dict slot: the
    obvious single dict keyed on ``(class, value)`` tuples costs 56
    more bytes per entry, which adds up once a large corpus's solve
    interns its result constants into a retained slab.
    """

    __slots__ = ("values", "_codes")

    def __init__(self) -> None:
        self.values: list[LatticeValue] = []
        self._codes: dict[type, dict[LatticeValue, int]] = {}

    def encode(self, value: LatticeValue) -> int:
        if value is TOP:
            return TOP_CODE
        if value is BOTTOM:
            return BOTTOM_CODE
        by_cls = self._codes.get(value.__class__)
        if by_cls is None:
            by_cls = self._codes[value.__class__] = {}
        code = by_cls.get(value)
        if code is None:
            code = len(self.values) + CONST_BASE
            by_cls[value] = code
            self.values.append(value)
        return code

    def decode(self, code: int) -> LatticeValue:
        if code >= CONST_BASE:
            return self.values[code - CONST_BASE]
        return TOP if code == TOP_CODE else BOTTOM


class SlabProgram:
    """One configuration's support index, flattened (see module docs).

    Built once per ``(forward functions, call graph)`` pair by
    :func:`slab_for` and shared by every flat solve over it, exactly
    like the object engine's cached :class:`RegionPartition`.
    """

    __slots__ = (
        "proc_names",
        "main_id",
        "slot_base",
        "keys_flat",
        "nslots",
        "pool",
        "kernels",
        "kernel_pids",
        "kernel_exprs",
        "dep_indptr",
        "dep_edges",
        "init_slots",
        "init_vals",
        "p1_target",
        "p1_kind",
        "p1_payload",
        "p1_enq",
        "p1_block_starts",
        "pid_rank",
        "callee_indptr",
        "callee_ids",
        "reached_pids",
        "build_seconds",
        "load_seconds",
        "patched_procs",
        "patched_slots",
        "_nbytes",
    )

    def __init__(self) -> None:
        # int32 is plenty for slot/firing/pool numbering (the
        # 10k-procedure tier tops out around 10^5 slots) and int8 for
        # kinds/flags — half to an eighth the resident bytes of the
        # obvious int64. Only the structures a *solve* reads survive the
        # build: the seed/kill/callee CSR, the slot→proc map, and the
        # raw edge table exist as build locals and are baked into the
        # phase-1 stream, which doubles as the edge store the dependent
        # CSR indexes into.
        self.proc_names: tuple[str, ...] = ()
        self.main_id: int = 0
        self.slot_base = array("i")
        #: every procedure's entry keys, concatenated in slot order —
        #: slot ``s`` of proc ``pid`` is ``keys_flat[slot_base[pid] + o]``
        self.keys_flat: tuple[EntryKey, ...] = ()
        self.nslots: int = 0
        self.pool = ConstPool()
        self.kernels: list = []
        #: per-kernel provenance — ``kernel_pids[k]`` owns kernel ``k``
        #: and ``kernel_exprs[k]`` is its interned expression. Closures
        #: are not picklable, so persistence encodes the expression at
        #: publish time and recompiles against the owner's slot map on
        #: load. Parallel array + list rather than a list of tuples:
        #: the expressions are stage-2 objects the jump functions
        #: retain either way, so the slab's own cost per kernel is one
        #: int32 and one pointer instead of a 56-byte tuple.
        self.kernel_pids = array("i")
        self.kernel_exprs: list = []
        self.dep_indptr = array("i")
        self.dep_edges = array("i")
        self.init_slots = array("i")
        self.init_vals = array("i")
        self.p1_target = array("i")
        self.p1_kind = array("b")
        self.p1_payload = array("i")
        self.p1_enq = array("b")
        #: stream offset where sweep rank ``r``'s block begins;
        #: ``len(reached_pids) + 1`` entries, so rank ``r`` owns the
        #: half-open range ``[p1_block_starts[r], p1_block_starts[r+1])``.
        #: Retained (with ``pid_rank`` and the callee CSR) for slab
        #: patching and the parallel replay path.
        self.p1_block_starts = array("i")
        self.pid_rank = array("i")
        self.callee_indptr = array("i")
        self.callee_ids = array("i")
        self.reached_pids = array("i")
        #: provenance accounting surfaced through SolveResult.counters()
        self.build_seconds: float = 0.0
        self.load_seconds: float = 0.0
        self.patched_procs: int = 0
        self.patched_slots: int = 0
        self._nbytes: int | None = None

    @property
    def nedges(self) -> int:
        """Firings in the phase-1 stream (reached seed edges + kills)."""
        return len(self.p1_target)

    def nbytes(self) -> int:
        """Resident bytes of the flattened structure: the arrays, the
        constant pool, the compiled kernel closures, and one pointer per
        retained name/key reference (the strings themselves are shared
        with the frontend either way). This is what ``slab_bytes``
        reports and what the memory gate compares against a deep walk
        of the object engine's index + environments. Memoized: the
        structure is immutable after build (the pool only ever grows by
        interned result constants, a few machine words)."""
        if self._nbytes is not None:
            return self._nbytes
        total = 0
        for name in self.__slots__:
            value = getattr(self, name)
            if isinstance(value, array):
                total += sys.getsizeof(value)
        total += sys.getsizeof(self.pool.values)
        total += sum(sys.getsizeof(v) for v in self.pool.values)
        # the intern side owns the per-class dict shells; their keys
        # are the value objects counted just above, so counting the
        # shells covers the pool's full per-entry overhead
        total += sys.getsizeof(self.pool._codes)
        total += sum(sys.getsizeof(d) for d in self.pool._codes.values())
        total += sys.getsizeof(self.kernels)
        total += sum(sys.getsizeof(k) for k in self.kernels)
        # kernel_pids is an array (counted above); kernel_exprs costs
        # its pointer slots — the expressions are interned stage-2
        # objects the jump functions retain whichever engine solves
        total += sys.getsizeof(self.kernel_exprs)
        # tuple sizes include their reference slots; each *unique*
        # retained name/key costs one more pointer (the objects
        # themselves are shared with the frontend either way)
        total += sys.getsizeof(self.proc_names)
        total += sys.getsizeof(self.keys_flat)
        unique = {id(item) for item in self.proc_names}
        unique.update(id(item) for item in self.keys_flat)
        total += 8 * len(unique)
        self._nbytes = total
        return total


def build_slab(
    lowered: LoweredProgram, graph: CallGraph, index: FlowIndex
) -> SlabProgram:
    """Flatten ``index`` into a :class:`SlabProgram`.

    Procedures are numbered in region-schedule order (callers first,
    SCC members adjacent) so one region's slots are contiguous;
    procedures the schedule does not know (defensive) go last, in
    ``entry_keys`` order. Edges are stored grouped by caller in the
    site-iteration order of stage 2's flow index, making every
    per-procedure structure a contiguous slice.
    """
    started = perf_counter()
    keys_of = lowered.entry_keys
    order = [
        name
        for name in graph.schedule.procedures()
        if name in keys_of
    ]
    if len(order) < len(keys_of):
        known = set(order)
        order.extend(name for name in keys_of if name not in known)

    slab = SlabProgram()
    slab.proc_names = tuple(order)
    proc_id = {name: pid for pid, name in enumerate(order)}
    slab.main_id = proc_id[lowered.program.main]

    # Build-time-only structures: the per-proc CSR views (seed/kill/
    # callee slices) and the slot→proc map are consumed by the phase-1
    # stream construction below and then dropped — solves never read
    # them, so the retained slab does not pay for them.
    key_index: list[dict[EntryKey, int]] = []
    keys_flat: list[EntryKey] = []
    slot_proc: list[int] = []
    slab.slot_base.append(0)
    for name in order:
        base = len(slot_proc)
        keys = tuple(keys_of[name])
        keys_flat.extend(keys)
        key_index.append(
            {key: base + offset for offset, key in enumerate(keys)}
        )
        slot_proc.extend([len(key_index) - 1] * len(keys))
        slab.slot_base.append(base + len(keys))
    slab.keys_flat = tuple(keys_flat)
    slab.nslots = len(slot_proc)

    pool = slab.pool
    edge_target: list[int] = []
    edge_kind: list[int] = []
    edge_payload: list[int] = []
    edge_ids: dict[int, int] = {}
    kernel_ids: dict[tuple[int, int], int] = {}
    seed_indptr = [0]
    kill_indptr = [0]
    kill_slots: list[int] = []
    callee_indptr = [0]
    callee_ids: list[int] = []
    for pid, name in enumerate(order):
        caller_slots = key_index[pid]
        for edge in index.seeds.get(name, ()):
            target_pid = proc_id[edge.callee]
            target = key_index[target_pid][edge.key]
            if edge.const is not None:
                kind, payload = KIND_CONST, pool.encode(edge.const)
            elif edge.passthrough is not None:
                kind = KIND_PASS
                payload = caller_slots.get(edge.passthrough, -1)
            elif edge.support:
                kind = KIND_POLY
                expr = edge.func
                kernel_key = (pid, id(expr))
                payload = kernel_ids.get(kernel_key, -1)
                if payload < 0:
                    payload = len(slab.kernels)
                    kernel_ids[kernel_key] = payload
                    slab.kernels.append(
                        compile_slab_expr(expr, caller_slots, pool.values)
                    )
                    slab.kernel_pids.append(pid)
                    slab.kernel_exprs.append(expr)
            else:
                kind, payload = KIND_BOTTOM, 0
            edge_ids[id(edge)] = len(edge_target)
            edge_target.append(target)
            edge_kind.append(kind)
            edge_payload.append(payload)
        seed_indptr.append(len(edge_target))
        for callee, key in index.kills.get(name, ()):
            kill_slots.append(key_index[proc_id[callee]][key])
        kill_indptr.append(len(kill_slots))
        for callee in index.callees.get(name, ()):
            target_pid = proc_id.get(callee)
            if target_pid is not None:
                callee_ids.append(target_pid)
        callee_indptr.append(len(callee_ids))
    # Retained: patching needs each procedure's callee slice to decide
    # whether a splice is structure-preserving, and the parallel replay
    # path walks it for activations.
    slab.callee_indptr = array("i", callee_indptr)
    slab.callee_ids = array("i", callee_ids)

    # Phase-1 stream. The structural sweep is value-independent: its
    # DFS pop order, every seed/kill firing, and even each firing's
    # "owning procedure already seeded?" test (which decides whether a
    # lowered slot enters the drain queue) are fixed by the callee CSR
    # alone. Replay it here once and flatten the whole sweep into four
    # parallel arrays so solve_flat runs one contiguous loop — no
    # stack, no pushed/processed bookkeeping, no per-procedure slices.
    # The stream also *is* the retained edge store: ``p1_pos`` maps each
    # reached seed edge to its stream position so the dependent CSR can
    # point phase-2 re-transfers at the same cells.
    sweep: list[int] = []
    pushed = bytearray(len(order))
    pushed[slab.main_id] = 1
    stack = [slab.main_id]
    while stack:
        pid = stack.pop()
        sweep.append(pid)
        # Push callees in reverse so they pop in site order.
        for i in range(callee_indptr[pid + 1] - 1, callee_indptr[pid] - 1, -1):
            callee = callee_ids[i]
            if not pushed[callee]:
                pushed[callee] = 1
                stack.append(callee)
    seed_rank = [-1] * len(order)
    for rank, pid in enumerate(sweep):
        seed_rank[pid] = rank
    slab.pid_rank = array("i", seed_rank)
    p1_pos = [-1] * len(edge_target)
    for rank, pid in enumerate(sweep):
        slab.p1_block_starts.append(len(slab.p1_target))
        for e in range(seed_indptr[pid], seed_indptr[pid + 1]):
            target = edge_target[e]
            owner = seed_rank[slot_proc[target]]
            p1_pos[e] = len(slab.p1_target)
            slab.p1_target.append(target)
            slab.p1_kind.append(edge_kind[e])
            slab.p1_payload.append(edge_payload[e])
            slab.p1_enq.append(1 if 0 <= owner <= rank else 0)
        for i in range(kill_indptr[pid], kill_indptr[pid + 1]):
            target = kill_slots[i]
            owner = seed_rank[slot_proc[target]]
            slab.p1_target.append(target)
            slab.p1_kind.append(KIND_KILL)
            slab.p1_payload.append(0)
            slab.p1_enq.append(1 if 0 <= owner <= rank else 0)
    slab.p1_block_starts.append(len(slab.p1_target))
    slab.reached_pids.extend(sweep)

    dep_lists: list[list[int]] = [[] for _ in range(slab.nslots)]
    for (caller, key), edges in index.dependents.items():
        caller_pid = proc_id.get(caller)
        if caller_pid is None:
            continue
        slot = key_index[caller_pid].get(key)
        if slot is None:
            # A support key that is not a propagated entry key of the
            # caller never lowers (it is ⊥ from the first evaluation on),
            # so the object engine never fires these edges as deltas.
            continue
        deps = dep_lists[slot]
        for edge in edges:
            pos = p1_pos[edge_ids[id(edge)]]
            if pos >= 0:
                # an unreached caller's slots never lower, so edges the
                # sweep never fired can never re-fire as deltas either
                deps.append(pos)
    slab.dep_indptr.append(0)
    for deps in dep_lists:
        slab.dep_edges.extend(deps)
        slab.dep_indptr.append(len(slab.dep_edges))

    # Initial codes are almost all ⊤ (solve_flat zero-fills); only the
    # main program's DATA-initialized globals start elsewhere.
    main_base = slab.slot_base[slab.main_id]
    main_keys = slab.keys_flat[main_base:slab.slot_base[slab.main_id + 1]]
    for offset, key in enumerate(main_keys):
        if not isinstance(key, GlobalId):
            continue
        data = lowered.program.globals[key].data_value
        if isinstance(data, bool) or isinstance(data, int):
            code = pool.encode(data)
        else:
            code = BOTTOM_CODE
        slab.init_slots.append(main_base + offset)
        slab.init_vals.append(code)
    slab.build_seconds = perf_counter() - started
    return slab


def patch_slab(
    slab: SlabProgram,
    lowered: LoweredProgram,
    index: FlowIndex,
    changed: list[str],
) -> bool:
    """Splice the ``changed`` procedures' firing-stream blocks and
    dependent-CSR rows in place, leaving everything else untouched.

    A patch is *structure-preserving* re-slabbing: slot numbering, the
    reachability sweep, and every other procedure's blocks survive
    byte-identical; only the changed procedures' outgoing seed/kill
    firings (and the dep rows over their own slots, which are the only
    rows that can reference them) are rebuilt from the fresh support
    ``index``. That is sound exactly when, for every changed procedure,
    its entry-key tuple and callee list match the slab — the caller
    (:func:`repro.store.slabs.plan_slab`) has already established that
    the procedure set and the globals table are unchanged, and unchanged
    procedures have byte-identical fingerprints and jump-function
    payloads, so their keys and blocks cannot have drifted.

    Returns ``False`` — with the slab untouched — when any precondition
    fails (a changed procedure gained/lost entry keys or callees, or the
    slab does not describe this program); the caller then rebuilds cold.
    Old kernels orphaned by a splice stay in the kernel table: nothing
    references them, and the equivalence property is VAL identity, not
    slab byte identity.
    """
    from bisect import bisect_right

    keys_of = lowered.entry_keys
    name_to_pid = {name: pid for pid, name in enumerate(slab.proc_names)}
    if set(name_to_pid) != set(lowered.procedures):
        return False
    slot_base = slab.slot_base
    pid_rank = slab.pid_rank
    # -- validate every precondition before mutating anything ---------------
    for name in changed:
        pid = name_to_pid.get(name)
        if pid is None:
            return False
        sb, se = slot_base[pid], slot_base[pid + 1]
        if tuple(keys_of.get(name, ())) != slab.keys_flat[sb:se]:
            return False
        new_callees = tuple(
            name_to_pid[c]
            for c in index.callees.get(name, ())
            if c in name_to_pid
        )
        stored = tuple(
            slab.callee_ids[slab.callee_indptr[pid]:slab.callee_indptr[pid + 1]]
        )
        if new_callees != stored:
            return False
    key_index_cache: dict[int, dict[EntryKey, int]] = {}

    def key_index(pid: int) -> dict[EntryKey, int]:
        ki = key_index_cache.get(pid)
        if ki is None:
            base, end = slot_base[pid], slot_base[pid + 1]
            ki = {
                slab.keys_flat[slot]: slot for slot in range(base, end)
            }
            key_index_cache[pid] = ki
        return ki

    pool = slab.pool
    for name in changed:
        pid = name_to_pid[name]
        sb, se = slot_base[pid], slot_base[pid + 1]
        rank = pid_rank[pid]
        slab.patched_procs += 1
        slab.patched_slots += se - sb
        if rank < 0:
            # unreached: the sweep never fired this procedure's edges, so
            # there is no block to splice and its slots have no dep rows
            continue
        lo = slab.p1_block_starts[rank]
        hi = slab.p1_block_starts[rank + 1]
        caller_slots = key_index(pid)
        new_target = array("i")
        new_kind = array("b")
        new_payload = array("i")
        new_enq = array("b")
        dep_rows: list[list[int]] = [[] for _ in range(se - sb)]
        kernel_ids: dict[int, int] = {}
        pos = lo
        for edge in index.seeds.get(name, ()):
            target = key_index(name_to_pid[edge.callee])[edge.key]
            if edge.const is not None:
                kind, payload = KIND_CONST, pool.encode(edge.const)
            elif edge.passthrough is not None:
                kind = KIND_PASS
                payload = caller_slots.get(edge.passthrough, -1)
            elif edge.support:
                kind = KIND_POLY
                expr = edge.func
                payload = kernel_ids.get(id(expr), -1)
                if payload < 0:
                    payload = len(slab.kernels)
                    kernel_ids[id(expr)] = payload
                    slab.kernels.append(
                        compile_slab_expr(expr, caller_slots, pool.values)
                    )
                    slab.kernel_pids.append(pid)
                    slab.kernel_exprs.append(expr)
            else:
                kind, payload = KIND_BOTTOM, 0
            owner = pid_rank[bisect_right(slot_base, target) - 1]
            new_target.append(target)
            new_kind.append(kind)
            new_payload.append(payload)
            new_enq.append(1 if 0 <= owner <= rank else 0)
            for support_key in edge.support:
                slot = caller_slots.get(support_key)
                if slot is not None:
                    dep_rows[slot - sb].append(pos)
            pos += 1
        for callee, key in index.kills.get(name, ()):
            target = key_index(name_to_pid[callee])[key]
            owner = pid_rank[bisect_right(slot_base, target) - 1]
            new_target.append(target)
            new_kind.append(KIND_KILL)
            new_payload.append(0)
            new_enq.append(1 if 0 <= owner <= rank else 0)
            pos += 1
        delta = len(new_target) - (hi - lo)
        slab.p1_target = slab.p1_target[:lo] + new_target + slab.p1_target[hi:]
        slab.p1_kind = slab.p1_kind[:lo] + new_kind + slab.p1_kind[hi:]
        slab.p1_payload = (
            slab.p1_payload[:lo] + new_payload + slab.p1_payload[hi:]
        )
        slab.p1_enq = slab.p1_enq[:lo] + new_enq + slab.p1_enq[hi:]
        if delta:
            for r in range(rank + 1, len(slab.p1_block_starts)):
                slab.p1_block_starts[r] += delta
        # Dep rows: positions inside [lo, hi) occur only in this
        # procedure's own slot rows (dependents are keyed by the
        # *caller's* support keys), so those rows are replaced wholesale
        # and every other row only needs the post-block shift.
        old_edges, old_indptr = slab.dep_edges, slab.dep_indptr
        out_edges = array("i")
        out_indptr = array("i", [0])
        for slot in range(slab.nslots):
            if sb <= slot < se:
                out_edges.extend(dep_rows[slot - sb])
            elif delta:
                for j in range(old_indptr[slot], old_indptr[slot + 1]):
                    e = old_edges[j]
                    out_edges.append(e + delta if e >= hi else e)
            else:
                out_edges.extend(
                    old_edges[old_indptr[slot]:old_indptr[slot + 1]]
                )
            out_indptr.append(len(out_edges))
        slab.dep_edges = out_edges
        slab.dep_indptr = out_indptr
    slab._nbytes = None
    return True


def slab_for(forward, lowered: LoweredProgram, graph: CallGraph) -> SlabProgram:
    """The forward functions' slab, built once per (support index,
    schedule) pair — repeated flat solves over one stage-2 output share
    one slab, mirroring the object engine's partition cache.

    A slab the store tier already loaded (or loaded-and-patched) wins
    outright: ``forward._slab_loaded`` is stamped by the driver after
    :func:`repro.store.slabs.plan_slab` verifies fingerprints, and
    honoring it here is what lets a warm run skip ``build_slab`` and
    the phase-1 precompute entirely."""
    loaded = getattr(forward, "_slab_loaded", None)
    if loaded is not None:
        return loaded
    index = forward.index
    schedule = graph.schedule
    cached = getattr(forward, "_slab", None)
    if cached is not None:
        cached_index, cached_schedule, slab = cached
        if cached_index is index and cached_schedule is schedule:
            return slab
    slab = build_slab(lowered, graph, index)
    try:
        # keyed by index identity: a replaced forward.index gets a
        # slab of its own
        forward._slab = (index, schedule, slab)  # type: ignore[attr-defined]
    except AttributeError:
        pass  # slotted stand-ins simply rebuild per solve
    return slab


def solve_flat(
    lowered: LoweredProgram,
    graph: CallGraph,
    forward,
    *,
    budget=None,
):
    """Sparse propagation to the fixpoint over the flat slab.

    Computes VALs byte-identical to :func:`repro.core.solver.solve`
    (see the module docstring for the phase structure and the counter
    caveats). ``budget`` is checked after the structural sweep and after
    every drain batch — the same off-the-hot-path cadence as the object
    engine's per-batch checks.
    """
    from repro.core.solver import SolveResult

    loaded = getattr(forward, "_slab_loaded", None)
    cached = getattr(forward, "_slab", None)
    slab = slab_for(forward, lowered, graph)
    result = SolveResult(val={})
    # Provenance accounting: report only the slab work *this* solve
    # paid for — a cache hit from an earlier solve reports zeros, a
    # fresh build reports its build wall, a store-loaded (possibly
    # patched) slab reports the load/patch wall and patch extent.
    if loaded is not None and slab is loaded:
        result.slab_load_seconds = slab.load_seconds
        result.slab_patched_procs = slab.patched_procs
        result.slab_patched_slots = slab.patched_slots
    elif cached is None or cached[2] is not slab:
        result.slab_build_seconds = slab.build_seconds

    nslots = slab.nslots
    # zero-filled is ⊤-filled (TOP_CODE == 0); only DATA-initialized
    # globals start elsewhere
    codes = array("i", bytes(4 * nslots)) if nslots else array("i")
    for slot, code in zip(slab.init_slots, slab.init_vals):
        codes[slot] = code
    # Generation stamps instead of sets: one int compare per membership
    # test, reset by bumping the generation — never cleared.
    in_queue = array("i", bytes(4 * nslots)) if nslots else array("i")

    edge_target = slab.p1_target
    edge_kind = slab.p1_kind
    edge_payload = slab.p1_payload
    kernels = slab.kernels
    encode = slab.pool.encode
    dep_indptr = slab.dep_indptr
    dep_edges = slab.dep_edges

    queue: list[int] = []
    fill_gen = 1
    pops = len(slab.reached_pids)
    evaluations = meets = bottom_skips = skipped = 0

    # Phase 1 — replay the precomputed structural sweep (see
    # build_slab): one C-level zip over the flattened seed/kill stream.
    # ``enq`` is the build-time answer to "was the target's owning
    # procedure already seeded when this firing ran?" — a lowered slot
    # only needs a drain if so; an unseeded procedure's later sweep
    # reads the updated codes anyway.
    for target, kind, payload, enq in zip(
        slab.p1_target, slab.p1_kind, slab.p1_payload, slab.p1_enq
    ):
        old = codes[target]
        if old == 1:
            # already at the lattice floor (a kill still counts as a
            # skipped evaluation, exactly like the object engine)
            if kind == 4:
                skipped += 1
            else:
                bottom_skips += 1
            continue
        if kind == 1:
            # pass-through: the evaluation *is* the slot fetch
            evaluations += 1
            inc = codes[payload] if payload >= 0 else 1
        elif kind == 0:
            inc = payload
        elif kind == 4:
            skipped += 1
            meets += 1
            codes[target] = 1  # meet(old, ⊥) is ⊥ for every old
            if enq and in_queue[target] != fill_gen:
                in_queue[target] = fill_gen
                queue.append(target)
            continue
        elif kind == 2:
            evaluations += 1
            inc = encode(kernels[payload](codes))
        else:
            # support-free and not constant ⇒ ⊥, never evaluated
            bottom_skips += 1
            inc = 1
        meets += 1
        if old == 0:
            new = inc
        elif inc == 0 or old == inc:
            continue  # meet is a no-op
        else:
            new = 1
        if new != old:
            codes[target] = new
            if enq and in_queue[target] != fill_gen:
                in_queue[target] = fill_gen
                queue.append(target)
    result.evaluations += evaluations
    result.meets += meets
    result.bottom_skips += bottom_skips
    result.skipped += skipped
    if budget is not None:
        budget.check_engine(result)

    # Phase 2 — batched drains: swap the whole queue out, fan each
    # drained slot out through its dependent-edge slice, stamp-dedup
    # slots into the next batch. An edge supported by several slots of
    # one batch re-transfers once per slot — the transfer is monotone
    # and idempotent, so deduping edges would only buy back a little
    # work at the cost of a per-edge stamp array resident every solve.
    batch_drains = 0
    while queue:
        batch = queue
        queue = []
        fill_gen += 1
        batch_drains += 1
        evaluations = meets = bottom_skips = 0
        for slot in batch:
            for i in range(dep_indptr[slot], dep_indptr[slot + 1]):
                e = dep_edges[i]
                target = edge_target[e]
                old = codes[target]
                if old == 1:
                    bottom_skips += 1
                    continue
                kind = edge_kind[e]
                if kind == 0:
                    inc = edge_payload[e]
                elif kind == 1:
                    evaluations += 1
                    source = edge_payload[e]
                    inc = codes[source] if source >= 0 else 1
                elif kind == 2:
                    evaluations += 1
                    inc = encode(kernels[edge_payload[e]](codes))
                else:
                    bottom_skips += 1
                    inc = 1
                meets += 1
                if old == 0:
                    new = inc
                elif inc == 0 or old == inc:
                    continue
                else:
                    new = 1
                if new != old:
                    codes[target] = new
                    if in_queue[target] != fill_gen:
                        in_queue[target] = fill_gen
                        queue.append(target)
        pops += len(batch)
        result.evaluations += evaluations
        result.meets += meets
        result.bottom_skips += bottom_skips
        result.deltas += len(batch)
        if budget is not None:
            budget.check_engine(result)
            budget.check_passes(1 + batch_drains)

    # Decode back into the dict-of-dicts VAL shape every consumer
    # expects; entry_keys order reproduces initial_val's key order, so
    # the mapping is byte-identical to the object engine's. ``boxed``
    # collapses the three-way tag test into one C-level table lookup,
    # keeping the whole decode in zip/map machinery.
    boxed: list[LatticeValue] = [TOP, BOTTOM]
    boxed.extend(slab.pool.values)
    unbox = boxed.__getitem__
    slot_base = slab.slot_base
    keys_iter = iter(slab.keys_flat)
    val = result.val
    for pid, name in enumerate(slab.proc_names):
        base = slot_base[pid]
        end = slot_base[pid + 1]
        # keys_flat is consumed strictly in slot order, so one shared
        # iterator walks it without slicing tuples per procedure
        val[name] = dict(
            zip(islice(keys_iter, end - base), map(unbox, codes[base:end]))
        )
    result.reached = set(map(slab.proc_names.__getitem__, slab.reached_pids))
    result.passes = 1 + batch_drains
    result.pops = pops
    result.batch_drains = batch_drains
    result.slab_slots = nslots
    result.slab_bytes = (
        slab.nbytes() + sys.getsizeof(codes) + sys.getsizeof(in_queue)
    )
    return result


@dataclass(frozen=True, slots=True)
class SlabSegment:
    """One environment, encoded for transport (the parallel solver's
    wire format): entry keys, their tagged codes, and a self-contained
    constant pool — worker and parent never share pool numbering, so
    no cross-process agreement is needed. Decoding is allocation-light:
    ``items()`` yields ``(key, value)`` pairs without materializing an
    intermediate dict."""

    keys: tuple[EntryKey, ...]
    codes: array
    pool: tuple

    def items(self) -> Iterator[tuple[EntryKey, LatticeValue]]:
        pool = self.pool
        for key, code in zip(self.keys, self.codes):
            if code >= CONST_BASE:
                yield key, pool[code - CONST_BASE]
            elif code == TOP_CODE:
                yield key, TOP
            else:
                yield key, BOTTOM


def encode_env(env: Mapping[EntryKey, LatticeValue]) -> SlabSegment:
    """Encode one environment dict as a :class:`SlabSegment`."""
    codes = array("i", bytes(4 * len(env))) if env else array("i")
    pool: list[LatticeValue] = []
    pool_codes: dict[tuple, int] = {}
    for i, value in enumerate(env.values()):
        if value is TOP:
            continue  # cells start at TOP_CODE
        if value is BOTTOM:
            codes[i] = BOTTOM_CODE
        else:
            key = (value.__class__, value)
            code = pool_codes.get(key)
            if code is None:
                code = len(pool) + CONST_BASE
                pool_codes[key] = code
                pool.append(value)
            codes[i] = code
    return SlabSegment(tuple(env), codes, tuple(pool))
