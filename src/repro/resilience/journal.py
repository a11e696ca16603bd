"""JSONL checkpoint journal for interruptible sweeps.

One line per event, append-only, so a sweep killed at any instant loses
at most the line being written. On resume the executor replays the
journal and skips every completed (program, configuration) cell. The
file is a headered log of :mod:`repro.store.durable`, which owns the
crash discipline (fsync'd appends, torn lines skipped, atomic resets).

Layout::

    {"kind": "header", "schema": 1, "fingerprint": "..."}
    {"kind": "cell", "program": "trfd", "config": "polynomial", "summary": {...}}
    {"kind": "failure", "program": "bad", "config": "literal", ...}

The header fingerprint hashes the program sources and the configuration
reprs: resuming against different inputs silently restarting from zero is
correct, resuming stale cells would not be — a mismatched journal is
reset, never trusted. A torn final line (the crash case) is ignored;
failure lines are informational and always re-attempted on resume.
"""

from __future__ import annotations

import hashlib
from typing import Mapping

from repro.core.driver import SweepSummary
from repro.resilience.errors import FailureRecord
from repro.store.durable import append_event, read_log, reset_log

SCHEMA = 1


def sweep_fingerprint(sources: Mapping[str, str], configs: Mapping) -> str:
    """Identity of one sweep: every program text and configuration."""
    digest = hashlib.sha256()
    for name in sorted(sources):
        digest.update(name.encode())
        digest.update(hashlib.sha256(sources[name].encode()).digest())
    for name in sorted(configs):
        digest.update(name.encode())
        digest.update(repr(configs[name]).encode())
    return digest.hexdigest()


def summary_to_json(summary: SweepSummary) -> dict:
    return {
        "constants_found": summary.constants_found,
        "references_substituted": summary.references_substituted,
        "constants": summary.constants,
        "timings": summary.timings,
        "solver_counters": summary.solver_counters,
        "degradations": list(summary.degradations),
        "stage0_cached": summary.stage0_cached,
    }


def summary_from_json(payload: dict) -> SweepSummary:
    return SweepSummary(
        constants_found=payload["constants_found"],
        references_substituted=payload["references_substituted"],
        constants=payload["constants"],
        timings=payload["timings"],
        solver_counters=payload["solver_counters"],
        degradations=tuple(payload.get("degradations", ())),
        stage0_cached=payload.get("stage0_cached", False),
    )


class SweepJournal:
    """Append-only recorder of completed cells and observed failures."""

    def __init__(self, path: str):
        self.path = path

    def load(self, fingerprint: str) -> dict[tuple[str, str], SweepSummary]:
        """Completed cells from a prior run of the *same* sweep.

        A missing journal, a foreign fingerprint, or an unreadable header
        all start fresh (the file is atomically re-headed). Torn or
        malformed lines are skipped — every cell parsed before them still
        counts.
        """
        header = {"kind": "header", "schema": SCHEMA, "fingerprint": fingerprint}
        events = read_log(self.path, header)
        if not events:
            reset_log(self.path, header)
            return {}
        cells: dict[tuple[str, str], SweepSummary] = {}
        for event in events:
            if event.get("kind") != "cell":
                continue
            try:
                key = (event["program"], event["config"])
                cells[key] = summary_from_json(event["summary"])
            except (KeyError, TypeError):
                continue
        return cells

    def record_cell(self, program: str, config: str, summary: SweepSummary) -> None:
        append_event(
            self.path,
            {
                "kind": "cell",
                "program": program,
                "config": config,
                "summary": summary_to_json(summary),
            },
        )

    def record_failure(self, record: FailureRecord) -> None:
        append_event(self.path, {"kind": "failure", **record.to_json()})
