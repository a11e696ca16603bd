"""Crash-safe files: one atomic write and one headered JSONL log.

Every file the analyzer must find intact after a crash goes through this
module: the sweep checkpoint journal (:mod:`repro.resilience.journal`),
the daemon's request journal (:mod:`repro.service.journal`), and the
artifact store's objects and snapshot index
(:mod:`repro.store.artifacts`).

A *log* is a JSONL file whose line 0 is a fixed header object. Each
event is one line, appended with a single ``write`` and fsync'd before
the caller acts on it, so a crash loses at most the line being written.
Readers skip torn or malformed lines and keep every line around them. A
missing log reads as empty; a log whose line 0 is not exactly the
expected header reads as ``None``, and each caller applies its own reset
policy. Whole-file writes go to a temp file in the target's directory
that is fsync'd and renamed over the target, so a reader sees the old
file or the new one, never a mix.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable


def atomic_write(target: str, data: bytes) -> None:
    """Replace ``target`` with ``data``: temp file, fsync, rename."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_log(path: str, header: dict) -> list[dict] | None:
    """The events of the log at ``path``.

    ``[]`` when the file does not exist; ``None`` when line 0 is not
    exactly ``header`` (a foreign, torn, or non-object first line);
    otherwise every later line that parses as a JSON object.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return []
    with handle:
        if _parse(handle.readline()) != header:
            return None
        return [event for event in map(_parse, handle) if isinstance(event, dict)]


def append_event(path: str, event: dict) -> None:
    """Append ``event`` as one fsync'd line.

    A final line left torn by a crash is ended first, so the event is not
    glued onto the fragment. The line goes out in one ``write`` on an
    ``O_APPEND`` descriptor, so concurrent appenders never interleave
    inside a line; the worst a race adds is a blank line, which readers
    skip.
    """
    line = json.dumps(event).encode() + b"\n"
    with open(path, "a+b") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                line = b"\n" + line
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())


def reset_log(path: str, header: dict, events: Iterable[dict] = ()) -> None:
    """Atomically replace the log with ``header`` followed by ``events``."""
    atomic_write(
        path, b"".join(json.dumps(e).encode() + b"\n" for e in (header, *events))
    )


def _parse(line: bytes):
    try:
        return json.loads(line)
    except ValueError:  # torn, malformed, or not UTF-8
        return None
