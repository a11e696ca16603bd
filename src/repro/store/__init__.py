"""Persistent content-addressed artifact store for incremental analysis.

- :mod:`repro.store.fingerprints` — canonical serialization of lattice
  values, entry keys, jump-function expressions, and procedure-level
  content fingerprints (lowered IR + MOD/REF slice + configuration).
- :mod:`repro.store.durable` — every crash-safe file operation: the
  atomic write and the headered, fsync'd, torn-line-tolerant JSONL log
  that the store index and the sweep and request journals share.
- :mod:`repro.store.artifacts` — the on-disk store: a fingerprinted
  ``index.jsonl`` log over content-addressed ``objects/<sha256>.json``
  payloads, plus an in-memory stand-in with the same duck type.
- :mod:`repro.store.incremental` — snapshot construction, the
  fingerprint/jump-function diff, the invalidation closure, and the
  warm-start plan the solvers consume.
- :mod:`repro.store.slabs` — persistent flat-engine slabs: the
  self-verifying binary blob format, publication keyed by source sha
  and per-procedure fingerprints, and the load/patch warm plan.
"""

from repro.store.artifacts import ArtifactStore, MemoryStore, StoreError
from repro.store.incremental import IncrementalReport
from repro.store.slabs import (
    SLAB_SCHEMA,
    deserialize_slab,
    plan_slab,
    publish_slab,
    serialize_slab,
)

__all__ = [
    "ArtifactStore",
    "MemoryStore",
    "StoreError",
    "IncrementalReport",
    "SLAB_SCHEMA",
    "deserialize_slab",
    "plan_slab",
    "publish_slab",
    "serialize_slab",
]
