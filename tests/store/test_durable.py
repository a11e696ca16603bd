"""The crash contract of every headered log, checked once for all three.

The sweep journal, the daemon's request journal and the artifact store's
snapshot index all sit on :mod:`repro.store.durable`. Each case damages
a log the way a crash or a foreign writer can, then asserts the caller's
documented outcome: which events survive, or the caller's reset policy
(the journals start fresh; the store raises :class:`StoreIndexError`).
"""

import json
import sys
import threading

import pytest

from repro.core.config import AnalysisConfig
from repro.core.driver import SweepSummary
from repro.resilience.executor import SweepPolicy, run_sweep
from repro.resilience.journal import SweepJournal
from repro.service.journal import RequestJournal
from repro.store.artifacts import ArtifactStore, StoreIndexError
from repro.store.durable import read_log
from repro.store.fingerprints import SCHEMA

FOREIGN = '{"kind": "header", "schema": 999}\n'

SUMMARY = SweepSummary(
    constants_found=1,
    references_substituted=1,
    constants={},
    timings={},
    solver_counters={},
)


class SweepLog:
    """Events are completed cells ``(p<n>, cfg)``."""

    header = {"kind": "header", "schema": 1, "fingerprint": "fp"}
    reset_raises = None

    def __init__(self, tmp_path):
        self.path = str(tmp_path / "sweep.jsonl")

    def create(self):
        SweepJournal(self.path).load("fp")

    def add(self, n):
        SweepJournal(self.path).record_cell(f"p{n}", "cfg", SUMMARY)

    def read(self):
        return sorted(program for program, _ in SweepJournal(self.path).load("fp"))


class RequestLog:
    """Events are admitted requests ``p<n>`` with no ``done``."""

    header = {"kind": "header", "schema": 1, "fingerprint": "repro-service"}
    reset_raises = None

    def __init__(self, tmp_path):
        self.path = str(tmp_path / "requests.jsonl")

    def create(self):
        RequestJournal(self.path)

    def add(self, n):
        RequestJournal(self.path).begin(f"p{n}", "fp", {"source": ""})

    def read(self):
        return [event["id"] for event in RequestJournal(self.path).interrupted()]


class StoreIndex:
    """Events are published snapshots ``(cfg, p<n>)``."""

    header = {"kind": "header", "schema": SCHEMA}
    reset_raises = StoreIndexError

    def __init__(self, tmp_path):
        self.store = ArtifactStore(str(tmp_path / "store"))
        self.path = self.store._index_path

    def create(self):
        pass  # the header is written by the first publish

    def add(self, n):
        self.store.append_snapshot("cfg", f"p{n}", {"rev": n})

    def read(self):
        return [
            f"p{n}"
            for n in range(10)
            if self.store.load_snapshot("cfg", f"p{n}") is not None
        ]


@pytest.fixture(params=[SweepLog, RequestLog, StoreIndex],
                ids=["sweep", "request", "store"])
def log(request, tmp_path):
    return request.param(tmp_path)


def _written(log, count: int) -> list[str]:
    """A healthy log holding events ``p0 .. p<count-1>``, as its lines."""
    log.create()
    for n in range(count):
        log.add(n)
    with open(log.path) as handle:
        return handle.read().splitlines(keepends=True)


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w") as handle:
        handle.writelines(lines)


def _torn(line: str) -> str:
    return line[: len(line) // 2]


def _assert_reset(log) -> None:
    """The caller's reset policy, then a clean, usable log."""
    if log.reset_raises is not None:
        with pytest.raises(log.reset_raises):
            log.read()
    assert log.read() == []
    with open(log.path) as handle:
        assert handle.read() == json.dumps(log.header) + "\n"
    log.add(7)
    assert log.read() == ["p7"]


class TestCrashContract:
    def test_missing_file(self, log):
        assert log.read() == []
        log.create()
        log.add(0)
        assert log.read() == ["p0"]

    def test_empty_file(self, log):
        _write(log.path, [])
        _assert_reset(log)

    @pytest.mark.parametrize("first", ["[]\n", FOREIGN], ids=["list", "foreign"])
    def test_bad_first_line_resets(self, log, first):
        lines = _written(log, 2)
        _write(log.path, [first, *lines[1:]])
        _assert_reset(log)

    def test_non_object_body_line_is_skipped(self, log):
        lines = _written(log, 2)
        _write(log.path, [*lines[:2], "7\n", *lines[2:]])
        assert log.read() == ["p0", "p1"]

    def test_torn_final_line_is_skipped(self, log):
        lines = _written(log, 3)
        _write(log.path, [*lines[:-1], _torn(lines[-1])])
        assert log.read() == ["p0", "p1"]

    def test_event_after_torn_final_line_survives(self, log):
        lines = _written(log, 3)
        _write(log.path, [*lines[:-1], _torn(lines[-1])])
        log.add(3)
        assert log.read() == ["p0", "p1", "p3"]


def test_sweep_cell_without_program_is_skipped(tmp_path):
    log = SweepLog(tmp_path)
    lines = _written(log, 2)
    broken = json.loads(lines[1])
    del broken["program"]
    _write(log.path, [*lines, json.dumps(broken) + "\n"])
    assert log.read() == ["p0", "p1"]


def test_gc_leaves_a_foreign_index_for_load_to_reset(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    store.put_blob(b"x" * 100)
    foreign = {"kind": "snapshot", "config": "cfg", "program": "p",
               "meta": {"foreign": True}}
    _write(store._index_path, [FOREIGN, json.dumps(foreign) + "\n"])
    assert store.gc(0)["removed_objects"] == 1
    with pytest.raises(StoreIndexError):
        store.load_snapshot("cfg", "p")
    assert store.load_snapshot("cfg", "p") is None


def test_run_sweep_restarts_a_journal_that_starts_with_a_list(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    _write(path, ["[]\n"])
    outcome = run_sweep(
        {"p": "program p\n  integer n\n  n = 1\n  write n\nend\n"},
        {"default": AnalysisConfig()},
        SweepPolicy(journal_path=path),
    )
    assert outcome.complete
    assert (outcome.executed_cells, outcome.resumed_cells) == (1, 0)


class TestPrimitives:
    def test_concurrent_appends_after_a_torn_line_all_survive(self, tmp_path):
        # the daemon appends from several threads without a lock; racing
        # repairs of one torn line may add blank lines, never lose events
        path = str(tmp_path / "requests.jsonl")
        journal = RequestJournal(path)
        with open(path, "a") as handle:
            handle.write('{"kind": "begin", "id": "torn"')
        expected = [f"t{t}-{n}" for t in range(8) for n in range(25)]

        def admit(thread: int) -> None:
            for n in range(25):
                journal.begin(f"t{thread}-{n}", "fp", {})

        threads = [threading.Thread(target=admit, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        interrupted = RequestJournal(path).interrupted()
        assert sorted(event["id"] for event in interrupted) == sorted(expected)

    def test_blank_lines_from_racing_appenders_are_skipped(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind": "header"}\n{"n": 1}\n\n\n{"n": 2}\n')
        assert read_log(path, {"kind": "header"}) == [{"n": 1}, {"n": 2}]

    def test_undecodable_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "wb") as handle:
            handle.write(b'{"kind": "header"}\n"\xff\xfe"\n{"n": 1}\n')
        assert read_log(path, {"kind": "header"}) == [{"n": 1}]
