"""Persistent slab artifacts end to end: blob round-trips, the warm
load path, and *every* corruption vector degrading to a cold rebuild
(RL532) with correct answers — never a stale or garbage slab."""

import hashlib
import os
import re
import struct
from collections import Counter

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import Analyzer, Stage0Cache, analyze
from repro.store import fingerprints
from repro.store.artifacts import ArtifactStore, MemoryStore, StoreError
from repro.store.fingerprints import config_key
from repro.store.slabs import SLAB_SCHEMA, deserialize_slab, serialize_slab
from repro.workloads import load

SOURCE = """
program m
  call foo(3)
  call bar(7)
end
subroutine foo(a)
  integer a, b
  b = a + 1
  call bar(b)
end
subroutine bar(c)
  integer c, d
  d = c * 2
  write d
end
"""


def flat_config():
    return AnalysisConfig(flat_engine=True)


def canonical(val):
    """Class-aware VAL image (``True == 1`` under plain ``==``)."""
    return {
        proc: {key: (type(v), v) for key, v in env.items()}
        for proc, env in val.items()
    }


def publish(store):
    """One cold store-backed run; returns (analyzer, slab meta, blob)."""
    analyzer = Analyzer(SOURCE, store=store)
    analyzer.run(flat_config())
    meta = store.load_snapshot(config_key(flat_config()), "slab:m")
    assert meta is not None, "cold flat run must publish its slab"
    return analyzer, meta, store.get_blob(meta["blob"])


def assert_cold_fallback(result):
    """The degraded run: RL532 recorded, store fallback counted, and
    the answers identical to a from-scratch flat analyze."""
    assert any(d.code == "RL532" for d in result.degradations)
    assert result.incremental is not None
    assert result.incremental.store_fallbacks == 1
    fresh = analyze(SOURCE, flat_config())
    assert canonical(result.solved.val) == canonical(fresh.solved.val)
    assert result.solved.reached == fresh.solved.reached


class TestRoundtrip:
    def test_reserialization_is_byte_stable(self):
        _, _, blob = publish(MemoryStore())
        assert serialize_slab(deserialize_slab(blob)) == blob

    def test_blob_magic_and_schema(self):
        _, _, blob = publish(MemoryStore())
        assert blob[:4] == b"RSLB"
        schema, _ = struct.unpack_from("<II", blob, 4)
        assert schema == SLAB_SCHEMA

    def test_warm_run_loads_instead_of_building(self):
        analyzer, _, _ = publish(MemoryStore())
        warm = analyzer.run(flat_config())
        assert warm.incremental.mode == "slab"
        assert warm.solved.slab_load_seconds > 0.0
        assert warm.solved.slab_build_seconds == 0.0
        fresh = analyze(SOURCE, flat_config())
        assert canonical(warm.solved.val) == canonical(fresh.solved.val)

    def test_survives_disk_restart(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        publish(store)
        reborn = Analyzer(SOURCE, store=ArtifactStore(str(tmp_path / "store")))
        warm = reborn.run(flat_config())
        assert warm.incremental.mode == "slab"


class TestCorruption:
    """Tampered blobs hit two independent guards: the disk store's
    content addressing, and the deserializer's own magic/checksum/schema
    checks (which also protect stores that do not verify reads)."""

    def test_truncated_blob_rebuilds_cold(self):
        store = MemoryStore()
        analyzer, meta, blob = publish(store)
        store._blobs[meta["blob"]] = blob[: len(blob) // 2]
        assert_cold_fallback(analyzer.run(flat_config()))

    def test_bit_flipped_blob_rebuilds_cold(self):
        store = MemoryStore()
        analyzer, meta, blob = publish(store)
        flipped = bytearray(blob)
        flipped[len(flipped) // 2] ^= 0x40
        store._blobs[meta["blob"]] = bytes(flipped)
        assert_cold_fallback(analyzer.run(flat_config()))

    def test_version_skewed_blob_rebuilds_cold(self):
        # a blob legitimately written by a future layout carries a
        # *valid* trailer, so the schema check alone must reject it
        store = MemoryStore()
        analyzer, meta, blob = publish(store)
        body = bytearray(blob[:-32])
        struct.pack_into("<I", body, 4, SLAB_SCHEMA + 1)
        skewed = bytes(body) + hashlib.sha256(bytes(body)).digest()
        with pytest.raises(StoreError, match="schema"):
            deserialize_slab(skewed)
        store._blobs[meta["blob"]] = skewed
        assert_cold_fallback(analyzer.run(flat_config()))

    def test_disk_tamper_caught_by_content_addressing(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        analyzer, meta, blob = publish(store)
        target = os.path.join(store.path, "objects", f"{meta['blob']}.bin")
        with open(target, "wb") as handle:
            handle.write(blob[:-1] + bytes([blob[-1] ^ 1]))
        assert_cold_fallback(analyzer.run(flat_config()))

    def test_deserialize_rejects_bad_magic(self):
        _, _, blob = publish(MemoryStore())
        with pytest.raises(StoreError, match="untrusted"):
            deserialize_slab(b"XXXX" + blob[4:])

    def test_deserialize_rejects_truncation(self):
        _, _, blob = publish(MemoryStore())
        with pytest.raises(StoreError):
            deserialize_slab(blob[:-7])

    def test_degraded_run_republishes_a_good_slab(self):
        store = MemoryStore()
        analyzer, meta, blob = publish(store)
        store._blobs[meta["blob"]] = blob[:10]
        assert_cold_fallback(analyzer.run(flat_config()))
        # the cold rebuild published a fresh blob: next run is warm again
        healed = analyzer.run(flat_config())
        assert healed.incremental.mode == "slab"
        assert not healed.degradations


class TestSlabFingerprints:
    """The slab path reads fingerprints through the cache each lowered
    procedure keeps, so planning and publishing render each IR listing
    once, and an edit renders only the listings of the units it
    re-lowered."""

    def test_flat_reanalyze_renders_each_listing_at_most_once(
        self, monkeypatch
    ):
        source = load("ocean").source
        lines = source.split("\n")
        index = next(
            i for i, line in enumerate(lines) if re.fullmatch(r"  \w+ = \d+", line)
        )
        digit = lines[index][-1]
        lines[index] = lines[index][:-1] + ("1" if digit != "1" else "2")
        analyzer = Analyzer(source, cache=Stage0Cache())
        first = analyzer.run(flat_config())
        listings = Counter()
        original = fingerprints.format_cfg

        def counting(cfg, name):
            listings[name] += 1
            return original(cfg, name)

        monkeypatch.setattr(fingerprints, "format_cfg", counting)
        result = analyzer.reanalyze("\n".join(lines), flat_config())
        assert result.incremental.mode == "slab-patch"
        relowered = {
            name
            for name, lowered_proc in result.lowered.procedures.items()
            if lowered_proc is not first.lowered.procedures[name]
        }
        assert listings and set(listings) <= relowered
        assert max(listings.values()) == 1
