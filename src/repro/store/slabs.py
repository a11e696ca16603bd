"""Persistent slab artifacts: serialize, publish, load, and patch.

The flat engine's :class:`~repro.core.slab.SlabProgram` is expensive to
build (the phase-1 structural sweep dominates cold wall-clock at the
10k-procedure tier) but value-independent — nothing about the 3-level
lattice requires rebuilding structure when only values change. This
module makes built slabs first-class store artifacts:

- :func:`serialize_slab` / :func:`deserialize_slab` — a compact binary
  blob: a 4-byte magic, a versioned header, an ASCII JSON manifest
  (names, the *unique* entry keys, pool values, kernel expressions,
  section table), the raw ``array.tobytes()`` sections back to back
  (including the slot→key-table map), and a sha256 trailer over
  everything preceding it. Kernel closures are not
  picklable, so the manifest stores each kernel's encoded expression
  plus its owning procedure id and the load recompiles it against the
  re-derived slot map; the constant pool is re-interned in stored order
  so every baked pool code stays valid.
- :func:`publish_slab` — puts the blob (content-addressed, binary) and
  a per-procedure ``{fingerprint, jump-function sha}`` map, then
  appends a ``slab:<main>`` snapshot line tying them to the source
  text's sha and the globals fingerprint.
- :func:`plan_slab` — the warm path. Identical source loads the blob
  outright (skipping ``build_slab`` and the phase-1 precompute
  entirely); an edited source falls back to the PR-5 fingerprint diff
  and, when the edit is structure-preserving, splices only the changed
  procedures' firing-stream blocks via
  :func:`~repro.core.slab.patch_slab`. Any header, checksum, schema, or
  object problem raises :class:`~repro.store.artifacts.StoreError`,
  which the driver converts to an RL532 cold rebuild — never a stale
  slab. A snapshot that is merely *absent* or an edit the patcher
  cannot express are plan misses, not fallbacks: the run is cold and no
  degradation is recorded.

Trust model: the blob is covered end to end by its own sha256 trailer
*and* addressed by the sha of its bytes, so truncation, bit flips, and
version skew are all detected on load. The meta line additionally pins
the fingerprint schema and the platform array layout (byte order and
``array('i')`` item size) — a store carried across heterogeneous
machines degrades to a rebuild instead of reinterpreting raw bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from time import perf_counter

from repro.callgraph.graph import CallGraph
from repro.core.exprs import compile_slab_expr
from repro.core.slab import CONST_BASE, SlabProgram, patch_slab
from repro.ir.lower import LoweredProgram
from repro.store.artifacts import StoreError
from repro.store.fingerprints import (
    SCHEMA,
    decode_expr,
    decode_key,
    decode_value,
    encode_all_forward_jfs,
    encode_expr,
    encode_key,
    encode_value,
    globals_fingerprint,
    procedure_fingerprint,
    sha256_of,
)
from repro.store.incremental import IncrementalReport

#: Blob/meta format version — bump on any layout change; a skewed blob
#: is untrusted and degrades to a cold rebuild (RL532).
SLAB_SCHEMA = 1

_MAGIC = b"RSLB"
_HEADER = struct.Struct("<II")  # (schema, manifest length)
_DIGEST_SIZE = 32

#: The slab's array sections, in serialization order. Every entry is an
#: ``array`` attribute of :class:`SlabProgram`; typecodes are pinned so
#: a manifest disagreeing with the running build is rejected.
_SECTIONS = (
    ("slot_base", "i"),
    ("dep_indptr", "i"),
    ("dep_edges", "i"),
    ("init_slots", "i"),
    ("init_vals", "i"),
    ("p1_target", "i"),
    ("p1_kind", "b"),
    ("p1_payload", "i"),
    ("p1_enq", "b"),
    ("p1_block_starts", "i"),
    ("pid_rank", "i"),
    ("callee_indptr", "i"),
    ("callee_ids", "i"),
    ("reached_pids", "i"),
)


def _source_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def serialize_slab(slab: SlabProgram) -> bytes:
    """Flatten ``slab`` into the self-verifying binary blob format.

    ``keys_flat`` is huge (one entry per slot) but massively repetitive
    (every procedure shares the program's global ids), so the manifest
    carries only the *unique* encoded keys and a trailing binary section
    maps each slot to its table row — at the 10k tier this more than
    halves the blob and keeps the load's key decoding out of JSON."""
    key_ids: dict = {}
    key_table: list[str] = []
    key_refs = array("i")
    for key in slab.keys_flat:
        ref = key_ids.get(key)
        if ref is None:
            ref = key_ids[key] = len(key_table)
            key_table.append(encode_key(key))
        key_refs.append(ref)
    manifest = {
        "main_id": slab.main_id,
        "nslots": slab.nslots,
        "proc_names": list(slab.proc_names),
        "key_table": key_table,
        "pool": [encode_value(value) for value in slab.pool.values],
        "kernels": [
            [pid, encode_expr(expr)]
            for pid, expr in zip(slab.kernel_pids, slab.kernel_exprs)
        ],
        "sections": [
            [name, typecode, len(getattr(slab, name))]
            for name, typecode in _SECTIONS
        ]
        + [["key_refs", "i", len(key_refs)]],
        "byteorder": sys.byteorder,
        "itemsize": array("i").itemsize,
    }
    manifest_bytes = json.dumps(
        manifest, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")
    parts = [_MAGIC, _HEADER.pack(SLAB_SCHEMA, len(manifest_bytes)), manifest_bytes]
    for name, _typecode in _SECTIONS:
        parts.append(getattr(slab, name).tobytes())
    parts.append(key_refs.tobytes())
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


def deserialize_slab(blob: bytes) -> SlabProgram:
    """Rebuild a :class:`SlabProgram` from :func:`serialize_slab` output.

    Raises :class:`StoreError` on *any* problem — bad magic, checksum
    mismatch (truncation, bit flips), schema or platform-layout skew,
    malformed manifest, or inconsistent section shapes. The caller
    treats every failure identically: rebuild cold (RL532).
    """
    try:
        prefix = len(_MAGIC) + _HEADER.size
        if len(blob) < prefix + _DIGEST_SIZE:
            raise ValueError("blob shorter than its fixed header")
        if blob[: len(_MAGIC)] != _MAGIC:
            raise ValueError("bad magic")
        body, digest = blob[:-_DIGEST_SIZE], blob[-_DIGEST_SIZE:]
        if hashlib.sha256(body).digest() != digest:
            raise ValueError("checksum mismatch")
        schema, manifest_len = _HEADER.unpack_from(blob, len(_MAGIC))
        if schema != SLAB_SCHEMA:
            raise ValueError(f"slab blob schema {schema} != {SLAB_SCHEMA}")
        manifest = json.loads(
            blob[prefix : prefix + manifest_len].decode("ascii")
        )
        if (
            manifest["byteorder"] != sys.byteorder
            or manifest["itemsize"] != array("i").itemsize
        ):
            raise ValueError("platform array layout mismatch")

        slab = SlabProgram()
        slab.proc_names = tuple(manifest["proc_names"])
        slab.main_id = int(manifest["main_id"])
        slab.nslots = int(manifest["nslots"])
        pool = slab.pool
        for i, enc in enumerate(manifest["pool"]):
            if pool.encode(decode_value(enc)) != CONST_BASE + i:
                raise ValueError("pool re-interning disagrees with manifest")

        offset = prefix + manifest_len
        table = manifest["sections"]
        expected = [name for name, _ in _SECTIONS] + ["key_refs"]
        if [row[0] for row in table] != expected:
            raise ValueError("section table mismatch")
        key_refs = array("i")
        for (name, typecode), row in zip(
            _SECTIONS + (("key_refs", "i"),), table
        ):
            if row[1] != typecode:
                raise ValueError(f"section {name} typecode skew")
            arr = array(typecode)
            nbytes = int(row[2]) * arr.itemsize
            chunk = body[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise ValueError(f"section {name} truncated")
            arr.frombytes(chunk)
            if name == "key_refs":
                key_refs = arr
            else:
                setattr(slab, name, arr)
            offset += nbytes
        if offset != len(body):
            raise ValueError("trailing bytes after sections")
        key_table = [decode_key(enc) for enc in manifest["key_table"]]
        slab.keys_flat = tuple(map(key_table.__getitem__, key_refs))

        # Structural sanity — cheap shape invariants the engine relies on.
        nprocs = len(slab.proc_names)
        if (
            len(slab.slot_base) != nprocs + 1
            or slab.nslots != len(slab.keys_flat)
            or (slab.slot_base[-1] if nprocs else 0) != slab.nslots
            or len(slab.dep_indptr) != slab.nslots + 1
            or not (
                len(slab.p1_target)
                == len(slab.p1_kind)
                == len(slab.p1_payload)
                == len(slab.p1_enq)
            )
            or len(slab.p1_block_starts) != len(slab.reached_pids) + 1
            or (
                len(slab.p1_block_starts) > 0
                and slab.p1_block_starts[-1] != len(slab.p1_target)
            )
            or len(slab.pid_rank) != nprocs
            or len(slab.callee_indptr) != nprocs + 1
        ):
            raise ValueError("inconsistent section shapes")

        key_index_cache: dict[int, dict] = {}

        def key_index(pid: int) -> dict:
            ki = key_index_cache.get(pid)
            if ki is None:
                base, end = slab.slot_base[pid], slab.slot_base[pid + 1]
                ki = {
                    slab.keys_flat[slot]: slot for slot in range(base, end)
                }
                key_index_cache[pid] = ki
            return ki

        for pid, enc in manifest["kernels"]:
            if not 0 <= pid < nprocs:
                raise ValueError("kernel owner out of range")
            expr = decode_expr(enc)
            slab.kernels.append(
                compile_slab_expr(expr, key_index(pid), pool.values)
            )
            slab.kernel_pids.append(pid)
            slab.kernel_exprs.append(expr)
        return slab
    except StoreError:
        raise
    except Exception as exc:
        raise StoreError(f"slab blob untrusted: {exc}") from exc


# -- publish and plan ---------------------------------------------------------


def publish_slab(
    store,
    *,
    cfg_key: str,
    lowered: LoweredProgram,
    modref,
    forward,
    slab: SlabProgram,
) -> dict:
    """Write the slab blob + per-procedure identity map and append the
    ``slab:<main>`` snapshot line. Returns the meta (tests inspect it)."""
    payloads = encode_all_forward_jfs(lowered, forward.sites)
    procs = {
        name: {
            "fp": procedure_fingerprint(name, lowered, modref, cfg_key),
            "jf": sha256_of(payloads[name]),
        }
        for name in sorted(lowered.procedures)
    }
    meta = {
        "schema": SLAB_SCHEMA,
        "fingerprint_schema": SCHEMA,
        "main": lowered.program.main,
        "source_sha": _source_sha(lowered.program.source),
        "globals_fp": globals_fingerprint(lowered.program),
        "blob": store.put_blob(serialize_slab(slab)),
        "procs": store.put_object(procs),
    }
    store.append_snapshot(cfg_key, "slab:" + lowered.program.main, meta)
    return meta


def plan_slab(
    store,
    *,
    cfg_key: str,
    lowered: LoweredProgram,
    graph: CallGraph,
    modref,
    forward,
) -> tuple[SlabProgram | None, IncrementalReport]:
    """Load (or load-and-patch) the stored slab for this program/config.

    Returns ``(slab, report)`` — ``slab`` is ``None`` on a plan miss
    (no artifact, or an edit the patcher cannot express), in which case
    the report's mode is ``"cold"`` and the caller builds normally.
    A loaded slab reports mode ``"slab"``; a spliced one
    ``"slab-patch"``. ``slab.load_seconds`` covers the whole plan —
    blob fetch, deserialization, diff, and splice.

    Raises :class:`~repro.store.artifacts.StoreIndexError` when the
    snapshot index had to be reset (RL531) and :class:`StoreError` when
    an artifact exists but cannot be trusted (RL532); the driver
    degrades both to a cold rebuild.
    """
    main = lowered.program.main
    meta = store.load_snapshot(cfg_key, "slab:" + main)
    if meta is None:
        return None, IncrementalReport(mode="cold", detail="no slab artifact")
    started = perf_counter()
    try:
        if (
            meta.get("schema") != SLAB_SCHEMA
            or meta.get("fingerprint_schema") != SCHEMA
        ):
            raise StoreError("slab meta schema mismatch")
        if meta.get("main") != main:
            raise StoreError("slab artifact names a different program")
        source_sha = _source_sha(lowered.program.source)
        if meta.get("source_sha") == source_sha:
            # Identical text ⇒ identical structure: adopt wholesale.
            slab = deserialize_slab(store.get_blob(meta["blob"]))
            if set(slab.proc_names) != set(lowered.procedures):
                raise StoreError("slab blob names different procedures")
            slab.load_seconds = perf_counter() - started
            return slab, IncrementalReport(
                mode="slab", clean=len(slab.proc_names)
            )

        # Edited source: fingerprint-diff against the stored identity
        # map, then splice only the changed procedures' blocks.
        if meta.get("globals_fp") != globals_fingerprint(lowered.program):
            return None, IncrementalReport(
                mode="cold", detail="globals table changed"
            )
        procs = store.get_object(meta["procs"])
        if not isinstance(procs, dict):
            raise StoreError("slab procedure map malformed")
        current = set(lowered.procedures)
        if set(procs) != current:
            return None, IncrementalReport(
                mode="cold", detail="procedure set changed"
            )
        payloads = encode_all_forward_jfs(lowered, forward.sites)
        changed = []
        for name in sorted(current):
            stored = procs[name]
            if stored.get("fp") != procedure_fingerprint(
                name, lowered, modref, cfg_key
            ) or stored.get("jf") != sha256_of(payloads[name]):
                changed.append(name)
        slab = deserialize_slab(store.get_blob(meta["blob"]))
        if changed and not patch_slab(
            slab, lowered, forward.index, changed
        ):
            return None, IncrementalReport(
                mode="cold",
                changed=tuple(changed),
                detail="edit not structure-preserving",
            )
        slab.load_seconds = perf_counter() - started
        return slab, IncrementalReport(
            mode="slab-patch",
            changed=tuple(changed),
            clean=len(current) - len(changed),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise StoreError(f"slab meta malformed: {exc}") from exc
