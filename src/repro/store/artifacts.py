"""The persistent content-addressed artifact store.

Layout under the store directory::

    index.jsonl              append-only snapshot index (fsync'd)
    objects/<sha256>.json    canonical-JSON payloads, content-addressed
    objects/<sha256>.bin     raw binary blobs (slab artifacts), ditto

``index.jsonl`` is a headered log of :mod:`repro.store.durable`, the
module that owns the crash discipline shared with the sweep and request
journals: line 0 is a header carrying the store schema; a torn line
(crash mid-append) is skipped; a missing, foreign, or corrupt header
resets the index — every object file it pointed at simply becomes
garbage that later snapshots may re-reference (content addressing makes
re-publication free). Snapshot lines are keyed by ``(config,
program)``; the *last* matching line wins, so re-publishing is an
append, never a rewrite.

Objects are written canonically (sorted keys, no whitespace) with
:func:`~repro.store.durable.atomic_write`, and every read re-hashes the
bytes against the file's name — a truncated or tampered object can only
produce a :class:`StoreError`, never a silently wrong payload.

:class:`MemoryStore` is the in-process stand-in with the same duck type
(the default store of :class:`repro.core.driver.Analyzer`, so
``reanalyze`` works without touching disk).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

try:  # advisory index locking; POSIX-only, degrades to unlocked
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.store.durable import append_event, atomic_write, read_log, reset_log
from repro.store.fingerprints import SCHEMA, canonical_dumps

_INDEX = "index.jsonl"
_LOCK = "index.lock"
_OBJECTS = "objects"
_HEADER = {"kind": "header", "schema": SCHEMA}


class StoreError(Exception):
    """A store entry could not be trusted (missing, truncated, foreign,
    or content-hash mismatch). Callers treat this as "no snapshot" and
    fall back to a cold run — never as a fatal error."""


class StoreIndexError(StoreError):
    """The index itself was unreadable or foreign and has been reset."""


class ArtifactStore:
    """On-disk store; see the module docstring for the layout."""

    def __init__(self, path: str):
        self.path = path
        self._objects_dir = os.path.join(path, _OBJECTS)
        self._index_path = os.path.join(path, _INDEX)
        self._lock_path = os.path.join(path, _LOCK)
        os.makedirs(self._objects_dir, exist_ok=True)

    @contextlib.contextmanager
    def _index_lock(self):
        """Advisory exclusive lock serializing index mutation.

        Two daemon requests (or two sweep workers) publishing the same
        fingerprint race on ``index.jsonl``: the append itself is a
        single ``write`` on an ``O_APPEND`` descriptor, but a header
        write, reset, or compaction *replaces* the index, and a line a
        concurrent writer appends to the replaced file is lost. The lock
        lives on a separate file so readers (which tolerate torn lines
        by design) never block and the index file itself is never opened
        just to lock it.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        fd = os.open(self._lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    # -- objects and blobs ----------------------------------------------------

    def put_object(self, payload) -> str:
        """Persist one canonical-JSON payload; returns its sha256 name.
        Identical payloads across snapshots share one file."""
        return self._put(canonical_dumps(payload).encode("utf-8"), "json")

    def get_object(self, sha: str):
        """Load and verify one payload; :class:`StoreError` on any
        missing, truncated, or corrupted object."""
        data = self._get(sha, "json")
        try:
            return json.loads(data)
        except ValueError as exc:
            raise StoreError(f"object {sha} is not JSON: {exc}") from exc

    def put_blob(self, data: bytes) -> str:
        """Persist one raw binary blob (a serialized slab); returns its
        sha256 name."""
        return self._put(data, "bin")

    def get_blob(self, sha: str) -> bytes:
        """Load and verify one blob; :class:`StoreError` on any missing,
        truncated, or corrupted blob."""
        return self._get(sha, "bin")

    def _put(self, data: bytes, suffix: str) -> str:
        """Write ``objects/<sha256>.<suffix>`` atomically. Dedup only
        against a *verified* twin: a corrupted or torn file on disk gets
        rewritten, so re-publication self-heals."""
        sha = hashlib.sha256(data).hexdigest()
        target = os.path.join(self._objects_dir, f"{sha}.{suffix}")
        try:
            with open(target, "rb") as handle:
                if handle.read() == data:
                    return sha
        except OSError:
            pass
        atomic_write(target, data)
        return sha

    def _get(self, sha: str, suffix: str) -> bytes:
        """Read ``objects/<sha>.<suffix>`` and re-hash it against its
        name. A verified read refreshes the file's mtime — the "recently
        verified" signal :meth:`gc` evicts by."""
        target = os.path.join(self._objects_dir, f"{sha}.{suffix}")
        try:
            with open(target, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise StoreError(f"object {sha}.{suffix} unreadable: {exc}") from exc
        digest = hashlib.sha256(data).hexdigest()
        if digest != sha:
            raise StoreError(
                f"object {sha}.{suffix} failed content verification (got {digest})"
            )
        self._touch(target)
        return data

    @staticmethod
    def _touch(target: str) -> None:
        """Refresh mtime after a successful verification (best-effort):
        eviction order becomes least-recently-*verified*, so a blob that
        keeps serving warm loads is never the first to go."""
        try:
            os.utime(target)
        except OSError:  # pragma: no cover - read-only store is still usable
            pass

    # -- size control ---------------------------------------------------------

    def gc(self, max_bytes: int) -> dict:
        """Evict least-recently-verified objects until the objects
        directory fits ``max_bytes``, then compact the snapshot index.

        Eviction order is ascending mtime — reads refresh mtime on
        successful verification, so the blobs that keep serving warm
        loads survive. The whole pass (including the index rewrite,
        which drops snapshot lines whose meta references an evicted
        sha) runs under the advisory index lock, so a concurrent
        publisher can neither append to a line set being compacted nor
        observe a half-rewritten index. Returns a report dict.
        """
        with self._index_lock():
            entries = []
            total = 0
            for name in os.listdir(self._objects_dir):
                if not name.endswith((".json", ".bin")):
                    continue
                path = os.path.join(self._objects_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, name, path))
                total += stat.st_size
            before = total
            removed = []
            for _, size, name, path in sorted(entries):
                if total <= max_bytes:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                removed.append(name.rsplit(".", 1)[0])
            dropped = 0
            if removed:
                dropped = self._compact_index(set(removed))
        return {
            "before_bytes": before,
            "after_bytes": total,
            "removed_objects": len(removed),
            "dropped_snapshots": dropped,
        }

    def _compact_index(self, removed: set[str]) -> int:
        """Rewrite the index without snapshot lines whose meta references
        an evicted sha (their objects are gone; keeping the lines would
        turn every future load into a verification failure). A foreign
        index is left for :meth:`load_snapshot` to reset and report.
        Caller holds the index lock."""
        events = read_log(self._index_path, _HEADER)
        if not events:
            return 0
        kept = [
            event
            for event in events
            if event.get("kind") != "snapshot"
            or not _references_any(event.get("meta"), removed)
        ]
        reset_log(self._index_path, _HEADER, kept)
        return len(events) - len(kept)

    # -- the snapshot index ---------------------------------------------------

    def append_snapshot(self, config_key: str, program: str, meta: dict) -> None:
        """Publish a snapshot line (fsync'd append; header written on
        first use). The whole check-header-then-append runs under the
        advisory index lock so a concurrent publisher can never append to
        a file the header write is about to replace."""
        event = {"kind": "snapshot", "config": config_key, "program": program,
                 "meta": meta}
        with self._index_lock():
            if not os.path.exists(self._index_path):
                reset_log(self._index_path, _HEADER)
            append_event(self._index_path, event)

    def load_snapshot(self, config_key: str, program: str) -> dict | None:
        """The latest snapshot for ``(config, program)``, or ``None``.

        Torn/malformed body lines are skipped (earlier snapshots still
        count). A missing index means "no snapshot yet". An unreadable
        or foreign *header* raises :class:`StoreIndexError` after
        resetting the index — the caller reports the reset and runs
        cold.
        """
        events = read_log(self._index_path, _HEADER)
        if events is None:
            with self._index_lock():
                reset_log(self._index_path, _HEADER)
            raise StoreIndexError(
                "store index unreadable or foreign; reset to empty"
            )
        found: dict | None = None
        for event in events:
            if (
                event.get("kind") == "snapshot"
                and event.get("config") == config_key
                and event.get("program") == program
                and isinstance(event.get("meta"), dict)
            ):
                found = event["meta"]  # last matching line wins
        return found


def _references_any(meta, shas: set[str]) -> bool:
    """Whether any string anywhere inside ``meta`` names one of ``shas``
    (snapshot metas reference objects by bare sha256 hex strings)."""
    if isinstance(meta, str):
        return meta in shas
    if isinstance(meta, dict):
        return any(_references_any(v, shas) for v in meta.values())
    if isinstance(meta, (list, tuple)):
        return any(_references_any(v, shas) for v in meta)
    return False


class MemoryStore:
    """In-process stand-in with the :class:`ArtifactStore` duck type."""

    def __init__(self):
        self._objects: dict[str, str] = {}
        self._blobs: dict[str, bytes] = {}
        self._snapshots: dict[tuple[str, str], dict] = {}

    def put_object(self, payload) -> str:
        text = canonical_dumps(payload)
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self._objects[sha] = text
        return sha

    def get_object(self, sha: str):
        text = self._objects.get(sha)
        if text is None:
            raise StoreError(f"object {sha} not present")
        return json.loads(text)

    def put_blob(self, data: bytes) -> str:
        sha = hashlib.sha256(data).hexdigest()
        self._blobs[sha] = data
        return sha

    def get_blob(self, sha: str) -> bytes:
        data = self._blobs.get(sha)
        if data is None:
            raise StoreError(f"blob {sha} not present")
        return data

    def append_snapshot(self, config_key: str, program: str, meta: dict) -> None:
        self._snapshots[(config_key, program)] = json.loads(json.dumps(meta))

    def load_snapshot(self, config_key: str, program: str) -> dict | None:
        return self._snapshots.get((config_key, program))
