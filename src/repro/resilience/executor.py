"""The fault-tolerant sweep executor.

:func:`run_sweep` replaces the fan-out core of
:func:`repro.core.driver.sweep_programs` with an executor that treats
failure as data:

- every (program, configuration) cell either produces a
  :class:`~repro.core.driver.SweepSummary` or a typed
  :class:`~repro.resilience.errors.FailureRecord` — one crashing
  configuration never takes the program's other cells down, and one
  crashing program never takes the sweep down;
- per-task wall-clock **timeouts** (process mode) turn hung solves into
  ``timeout`` records instead of a hung table regeneration;
- transient worker loss (``BrokenProcessPool``, a chaos ``kill``) is
  **retried with exponential backoff**; after the first loss the
  executor drops to one-task-per-pool isolation so the culprit — not an
  innocent neighbour sharing its pool — accumulates the strikes;
- repeat offenders are **quarantined** after ``max_retries`` retries,
  with a terminal RL524 record, while the remaining programs' rows still
  render;
- an optional JSONL **checkpoint journal**
  (:class:`~repro.resilience.journal.SweepJournal`) persists each
  completed cell as it lands, so an interrupted sweep resumes from the
  completed cells instead of restarting.

Each cell also reports whether its stage 0 came from the stage-0 cache
of the process that ran it: the in-process sweep shares one cache,
while worker processes each build their own.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field

from repro.core.config import AnalysisConfig
from repro.core.driver import SweepSummary, analyze, summarize
from repro.frontend.symbols import parse_program
from repro.resilience import chaos
from repro.resilience.errors import FailureKind, FailureRecord
from repro.resilience.journal import SweepJournal, sweep_fingerprint

#: monkeypatchable backoff sleep (tests run with zero delay).
_sleep: Callable[[float], None] = time.sleep


@dataclass(frozen=True)
class SweepPolicy:
    """How hard the executor defends one sweep.

    ``task_timeout`` is per *task* (one program's remaining
    configurations) and only enforceable with worker processes — the
    in-process mode cannot preempt a running solve. ``max_retries``
    bounds re-attempts per program after its first failed one; backoff
    doubles per retry round from ``backoff_base`` up to ``backoff_cap``
    seconds.
    """

    processes: int | None = None
    task_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    journal_path: str | None = None
    chaos: chaos.ChaosSpec | None = None
    #: directory of a shared :class:`repro.store.artifacts.ArtifactStore`.
    #: Every cell (each worker opens the path itself — stores are not
    #: picklable) runs with ``incremental=True``: it warm-starts from the
    #: last snapshot for its (config, program) and re-publishes, so a
    #: repeated sweep only re-solves what changed between invocations.
    store_path: str | None = None


@dataclass
class SweepOutcome:
    """Everything one resilient sweep produced, including its scars."""

    summaries: dict[str, dict[str, SweepSummary]]
    failures: list[FailureRecord] = field(default_factory=list)
    quarantined: tuple[str, ...] = ()
    #: cells served straight from the journal (resume), vs. run now.
    resumed_cells: int = 0
    executed_cells: int = 0
    #: task re-attempts across all programs.
    retries: int = 0
    #: stage-0 cache hits and misses of the analyses the executed cells
    #: ran, each counted in the process that ran it (cells of equal
    #: configurations share one analysis, counted once).
    cache_counters: dict[str, int] = field(default_factory=dict)
    #: the config names every program was asked to run.
    expected_configs: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        """Every requested cell produced a summary. A transient failure
        that a retry recovered leaves its record in ``failures`` but
        does not make the sweep incomplete."""
        if self.quarantined:
            return False
        expected = set(self.expected_configs)
        return all(
            expected <= set(cells) for cells in self.summaries.values()
        )

    def failures_for(self, program: str) -> list[FailureRecord]:
        return [f for f in self.failures if f.program == program]

    def degradation_count(self) -> int:
        return sum(
            len(cell.degradations)
            for cells in self.summaries.values()
            for cell in cells.values()
        )


# -- the worker task ----------------------------------------------------------


@dataclass
class _TaskResult:
    program: str
    cells: dict[str, SweepSummary]
    failures: list[FailureRecord]


#: sentinels the batch executors report instead of a _TaskResult.
_LOST = "worker-lost"
_TIMED_OUT = "timed-out"


def _run_task(item) -> _TaskResult:
    """One program through its remaining configurations.

    Runs in a worker process (process mode) or inline (in-process mode).
    Each configuration is guarded separately: a crash becomes a
    :class:`FailureRecord` for that cell and the loop moves on, so a
    program that only dies under ``complete`` mode still fills its other
    columns. Chaos worker-kills are *not* guarded — they must surface as
    worker loss, which is their whole point.

    Equal configurations under different names (Table 3's
    ``polynomial_with_mod`` is Table 2's ``polynomial``) are analyzed
    once: every later name gets the first one's summary, or its own
    failure record for the first one's exception.
    """
    name, source, config_items, attempt, spec, in_worker, store_path = item
    if spec is not None:
        chaos.install(spec, label=name, attempt=attempt, in_worker=in_worker)
    try:
        store = None
        if store_path is not None:
            from repro.store.artifacts import ArtifactStore

            store = ArtifactStore(store_path)
        cells: dict[str, SweepSummary] = {}
        failures: list[FailureRecord] = []
        try:
            program = parse_program(source)
        except Exception as exc:  # malformed input fails every cell at once
            failures.extend(
                FailureRecord.from_exception(name, config_name, exc, attempt)
                for config_name, _ in config_items
            )
            return _TaskResult(name, cells, failures)
        # config -> its summary, or the exception it raised and when.
        runs: dict[AnalysisConfig, SweepSummary | tuple[Exception, float]] = {}
        for config_name, config in config_items:
            run = runs.get(config)
            if run is None:
                start = time.perf_counter()
                try:
                    run = summarize(
                        analyze(
                            program, config,
                            store=store, incremental=store is not None,
                        )
                    )
                except Exception as exc:
                    run = (exc, time.perf_counter() - start)
                runs[config] = run
            if isinstance(run, SweepSummary):
                cells[config_name] = run
            else:
                exc, elapsed = run
                failures.append(
                    FailureRecord.from_exception(
                        name, config_name, exc, attempt, elapsed=elapsed
                    )
                )
        return _TaskResult(name, cells, failures)
    finally:
        if spec is not None:
            chaos.uninstall()


# -- batch execution ----------------------------------------------------------


def _execute_inline(items: list) -> dict[str, object]:
    """Run tasks in this process. Chaos kills surface as worker loss."""
    results: dict[str, object] = {}
    for item in items:
        name = item[0]
        try:
            results[name] = _run_task(item)
        except chaos.ChaosWorkerLoss:
            results[name] = _LOST
    return results


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill the pool's worker processes instead of abandoning them.

    ``Future.cancel()`` cannot cancel a *running* task and
    ``shutdown(wait=False)`` merely stops feeding the workers — a hung
    solve would keep its process alive (and its CPU busy) long after the
    sweep reported the task timed out. Terminate-then-join, escalating to
    ``kill`` for a worker that ignores SIGTERM.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)


def _execute_pool(
    items: list, workers: int, timeout: float | None
) -> tuple[dict[str, object], bool]:
    """Run tasks across a fresh process pool.

    Returns (results, pool_broke). Futures that completed before a pool
    breakage keep their results; the rest are reported lost. Timeouts are
    measured against a shared deadline from batch start — every task had
    at least ``timeout`` seconds of wall clock to finish. A batch that
    saw a timeout or a pool breakage terminates its workers on the way
    out: a timed-out task's worker is hung by definition, and neither it
    nor a broken pool's survivors may outlive the batch as orphans.
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    broke = False
    hung = False
    results: dict[str, object] = {}
    try:
        futures = {item[0]: pool.submit(_run_task, item) for item in items}
        deadline = time.monotonic() + timeout if timeout is not None else None
        for name, future in futures.items():
            if broke:
                if future.done() and future.exception() is None:
                    results[name] = future.result()
                else:
                    results[name] = _LOST
                continue
            remaining: float | None = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                results[name] = future.result(timeout=remaining)
            except FutureTimeoutError:
                future.cancel()
                hung = True
                results[name] = _TIMED_OUT
            except BrokenExecutor:
                broke = True
                results[name] = _LOST
            except Exception:
                # the future itself failed (e.g. unpicklable payload):
                # report as loss so the retry/quarantine path owns it
                results[name] = _LOST
    finally:
        if hung or broke:
            _terminate_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
    return results, broke


# -- the driver loop ----------------------------------------------------------


def run_sweep(
    sources: Mapping[str, str],
    configs: Mapping[str, AnalysisConfig],
    policy: SweepPolicy | None = None,
) -> SweepOutcome:
    """Sweep ``sources`` × ``configs`` to completion or quarantine."""
    policy = policy or SweepPolicy()
    config_items = tuple(configs.items())
    outcome = SweepOutcome(
        summaries={name: {} for name in sources},
        cache_counters={"stage0_cache_hits": 0, "stage0_cache_misses": 0},
        expected_configs=tuple(configs),
    )

    journal: SweepJournal | None = None
    if policy.journal_path:
        journal = SweepJournal(policy.journal_path)
        for (name, config_name), summary in journal.load(
            sweep_fingerprint(sources, configs)
        ).items():
            if name in outcome.summaries and config_name in configs:
                outcome.summaries[name][config_name] = summary
                outcome.resumed_cells += 1

    pending: dict[str, list[str]] = {}
    for name in sources:
        todo = [c for c in configs if c not in outcome.summaries[name]]
        if todo:
            pending[name] = todo

    attempts: dict[str, int] = {name: 0 for name in pending}
    quarantined: list[str] = []
    use_processes = bool(policy.processes and policy.processes > 0)
    isolate = False  # flip after the first worker loss: one task per pool
    round_no = 0

    while pending:
        if round_no > 0:
            delay = min(
                policy.backoff_cap, policy.backoff_base * (2 ** (round_no - 1))
            )
            if delay > 0:
                _sleep(delay)
        items = [
            (
                name,
                sources[name],
                tuple((c, configs[c]) for c in pending[name]),
                attempts[name],
                policy.chaos,
                use_processes,
                policy.store_path,
            )
            for name in pending
        ]
        if not use_processes:
            results = _execute_inline(items)
        elif isolate:
            results = {}
            for item in items:
                batch, broke = _execute_pool([item], 1, policy.task_timeout)
                results.update(batch)
        else:
            results, broke = _execute_pool(
                items, policy.processes, policy.task_timeout
            )
            if broke:
                isolate = True

        next_pending: dict[str, list[str]] = {}
        for name in list(pending):
            result = results.get(name, _LOST)
            failed_configs: list[str]
            if isinstance(result, _TaskResult):
                counted: set[int] = set()
                for config_name, cell in result.cells.items():
                    outcome.summaries[name][config_name] = cell
                    outcome.executed_cells += 1
                    if id(cell) not in counted:
                        counted.add(id(cell))
                        key = (
                            "stage0_cache_hits" if cell.stage0_cached
                            else "stage0_cache_misses"
                        )
                        outcome.cache_counters[key] += 1
                    if journal is not None:
                        journal.record_cell(name, config_name, cell)
                for record in result.failures:
                    outcome.failures.append(record)
                    if journal is not None:
                        journal.record_failure(record)
                failed_configs = [
                    f.config for f in result.failures if f.config is not None
                ]
            else:
                kind = (
                    FailureKind.TIMEOUT
                    if result == _TIMED_OUT
                    else FailureKind.WORKER_LOST
                )
                record = FailureRecord(
                    program=name,
                    config=None,
                    stage=None,
                    kind=kind,
                    message=(
                        "task exceeded its wall-clock budget"
                        if kind is FailureKind.TIMEOUT
                        else "worker process lost while running this task"
                    ),
                    attempt=attempts[name],
                )
                outcome.failures.append(record)
                if journal is not None:
                    journal.record_failure(record)
                failed_configs = list(pending[name])

            if not failed_configs:
                continue
            attempts[name] += 1
            if attempts[name] > policy.max_retries:
                quarantined.append(name)
                terminal = FailureRecord(
                    program=name,
                    config=None,
                    stage=None,
                    kind=(
                        FailureKind.TIMEOUT
                        if result == _TIMED_OUT
                        else FailureKind.WORKER_LOST
                        if result == _LOST
                        else FailureKind.CRASH
                    ),
                    message=(
                        f"quarantined after {attempts[name]} attempt(s); "
                        f"unfinished cells: {', '.join(failed_configs)}"
                    ),
                    attempt=attempts[name] - 1,
                    quarantined=True,
                )
                outcome.failures.append(terminal)
                if journal is not None:
                    journal.record_failure(terminal)
            else:
                outcome.retries += 1
                next_pending[name] = failed_configs
        pending = next_pending
        round_no += 1

    outcome.quarantined = tuple(quarantined)
    return outcome
