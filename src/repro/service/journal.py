"""The crash-safe request journal.

A headered log of :mod:`repro.store.durable`, the module that owns the
crash discipline shared with the sweep journal and the artifact store:
line 0 is a header, every event is a single appended line fsync'd before
the daemon acts on it, a torn line is ignored, and a foreign or
unreadable header re-heads the file — a journal is replayed exactly or
not at all.

Events::

    {"kind": "header", "schema": 1, "fingerprint": "repro-service"}
    {"kind": "begin", "id": "r1", "fingerprint": "...", "request": {...}}
    {"kind": "done", "id": "r1", "fingerprint": "...", "status": "ok"}
    {"kind": "recovered", "id": "r1", "status": "replayed"|"refused"}

``begin`` is written *after* admission but *before* the solve, so a
daemon killed mid-request leaves a begin with no done. On restart
:meth:`RequestJournal.interrupted` surfaces exactly those requests — the
full request payload rides in the begin line, so the daemon can replay
the work (re-execute and publish, nothing stale: a replay is a complete
re-solve) or refuse it (RL556), deterministically either way. The
``recovered`` event marks the verdict so a second restart does not
replay the same request twice.
"""

from __future__ import annotations

import os

from repro.store.durable import append_event, read_log, reset_log

SCHEMA = 1
FINGERPRINT = "repro-service"
HEADER = {"kind": "header", "schema": SCHEMA, "fingerprint": FINGERPRINT}


class RequestJournal:
    """Append-only record of request admissions and completions."""

    def __init__(self, path: str):
        self.path = path
        if not os.path.exists(path):
            reset_log(path, HEADER)

    def interrupted(self) -> list[dict]:
        """Begin events with no terminal (done/recovered) event — the
        daemon's recovery work list. Each pending id appears once, at the
        position of its latest begin. A foreign journal yields nothing
        (and is re-headed)."""
        events = read_log(self.path, HEADER)
        if events is None:
            reset_log(self.path, HEADER)
            return []
        begins: dict[str, dict] = {}
        for event in events:
            kind = event.get("kind")
            request_id = event.get("id")
            if not isinstance(request_id, str):
                continue
            if kind == "begin" and isinstance(event.get("request"), dict):
                begins.pop(request_id, None)  # move to the latest begin
                begins[request_id] = event
            elif kind in ("done", "recovered"):
                begins.pop(request_id, None)
        return list(begins.values())

    def begin(self, request_id: str, fingerprint: str, request: dict) -> None:
        """Durably record an admitted request before any work happens."""
        append_event(
            self.path,
            {
                "kind": "begin",
                "id": request_id,
                "fingerprint": fingerprint,
                "request": request,
            },
        )

    def done(self, request_id: str, fingerprint: str, status: str) -> None:
        append_event(
            self.path,
            {
                "kind": "done",
                "id": request_id,
                "fingerprint": fingerprint,
                "status": status,
            },
        )

    def recovered(self, request_id: str, status: str) -> None:
        append_event(
            self.path, {"kind": "recovered", "id": request_id, "status": status}
        )
