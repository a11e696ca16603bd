"""The fault-tolerant sweep executor, driven by the chaos harness.

Everything here runs in-process (fast, deterministic); the process-pool
behaviours (real worker kills, wall-clock timeouts) live in
``test_executor_process.py`` under the ``slow`` marker.
"""

import pytest

from repro.core.config import (
    TABLE2_CONFIGS,
    TABLE3_CONFIGS,
    AnalysisConfig,
    JumpFunctionKind,
)
from repro.core.driver import GLOBAL_STAGE0_CACHE, SweepError, sweep_programs
from repro.resilience import chaos
from repro.resilience.chaos import ChaosSpec, Fault
from repro.resilience.errors import FailureKind, Stage
from repro.resilience import executor
from repro.resilience.executor import SweepPolicy, run_sweep
from repro.resilience.journal import SweepJournal, sweep_fingerprint

GOOD = (
    "program m\nn = 5\ncall s(n)\nend\n"
    "subroutine s(a)\ninteger a\nwrite a\nend\n"
)
OTHER = (
    "program m\nk = 7\ncall t(k)\nend\n"
    "subroutine t(b)\ninteger b\nwrite b * 3\nend\n"
)

CONFIGS = {
    "pass_through": AnalysisConfig(),
    "literal": AnalysisConfig(jump_function=JumpFunctionKind.LITERAL),
}


@pytest.fixture(autouse=True)
def _clean_state():
    """Chaos corruption poisons live cache entries; never leak them."""
    GLOBAL_STAGE0_CACHE.clear()
    yield
    chaos.uninstall()
    GLOBAL_STAGE0_CACHE.clear()


def _no_backoff(monkeypatch):
    monkeypatch.setattr("repro.resilience.executor._sleep", lambda _: None)


class TestIsolation:
    def test_one_crashing_program_spares_the_rest(self, monkeypatch):
        _no_backoff(monkeypatch)
        spec = ChaosSpec(
            faults=(Fault(stage=Stage.SSA, kind="crash", program="bad"),)
        )
        outcome = run_sweep(
            {"good": GOOD, "bad": OTHER, "also_good": GOOD + "\n"},
            CONFIGS,
            SweepPolicy(max_retries=1, chaos=spec),
        )
        assert set(outcome.summaries["good"]) == set(CONFIGS)
        assert set(outcome.summaries["also_good"]) == set(CONFIGS)
        assert outcome.summaries["bad"] == {}
        assert outcome.quarantined == ("bad",)
        records = outcome.failures_for("bad")
        assert records
        assert all(
            r.stage is Stage.SSA for r in records if not r.quarantined
        )
        assert records[-1].quarantined
        assert records[-1].diagnostic().code == "RL524"

    def test_one_crashing_config_spares_other_cells(self, monkeypatch):
        _no_backoff(monkeypatch)
        # a transient SUBSTITUTE crash (first attempt only): the first
        # config's cell fails, the same task's later cells still fill,
        # and the retry completes the failed cell
        spec = ChaosSpec(
            faults=(
                Fault(
                    stage=Stage.SUBSTITUTE, kind="crash", program="bad",
                    max_firings=1, max_attempt=1,
                ),
            )
        )
        outcome = run_sweep(
            {"good": GOOD, "bad": OTHER},
            CONFIGS,
            SweepPolicy(max_retries=1, chaos=spec),
        )
        # the single firing killed one cell; the retry completed it
        assert set(outcome.summaries["bad"]) == set(CONFIGS)
        assert outcome.quarantined == ()
        assert outcome.retries == 1
        failed = outcome.failures_for("bad")
        assert len(failed) == 1
        assert failed[0].kind is FailureKind.CRASH
        assert failed[0].stage is Stage.SUBSTITUTE

    def test_parse_failure_fails_every_cell_at_once(self, monkeypatch):
        _no_backoff(monkeypatch)
        outcome = run_sweep(
            {"good": GOOD, "bad": "program p\nn = \nend\n"},
            CONFIGS,
            SweepPolicy(max_retries=0),
        )
        assert set(outcome.summaries["good"]) == set(CONFIGS)
        records = [r for r in outcome.failures_for("bad") if not r.quarantined]
        assert {r.config for r in records} == set(CONFIGS)
        assert all(r.stage is Stage.FRONTEND for r in records)


class TestRetry:
    def test_transient_worker_loss_is_retried(self, monkeypatch):
        _no_backoff(monkeypatch)
        spec = ChaosSpec(
            faults=(
                Fault(
                    stage=Stage.SOLVE, kind="kill", program="flaky",
                    max_attempt=1,
                ),
            )
        )
        outcome = run_sweep(
            {"flaky": GOOD},
            CONFIGS,
            SweepPolicy(max_retries=2, chaos=spec),
        )
        # attempt 0 died, attempt 1 survived (max_attempt gates the fault)
        assert set(outcome.summaries["flaky"]) == set(CONFIGS)
        assert outcome.quarantined == ()
        # the recovered sweep is complete — the transient failure stays
        # on the record without demoting the result to partial
        assert outcome.complete
        assert outcome.retries == 1
        lost = outcome.failures_for("flaky")
        assert len(lost) == 1
        assert lost[0].kind is FailureKind.WORKER_LOST

    def test_backoff_delays_grow_exponentially(self, monkeypatch):
        delays = []
        monkeypatch.setattr(
            "repro.resilience.executor._sleep", delays.append
        )
        spec = ChaosSpec(
            faults=(Fault(stage=Stage.SSA, kind="crash", program="bad"),)
        )
        run_sweep(
            {"bad": GOOD},
            CONFIGS,
            SweepPolicy(
                max_retries=3, backoff_base=0.1, backoff_cap=0.25,
                chaos=spec,
            ),
        )
        assert delays == [0.1, 0.2, 0.25]  # doubled, then capped

    def test_corrupted_stage0_cache_quarantines(self, monkeypatch):
        _no_backoff(monkeypatch)
        spec = ChaosSpec(
            faults=(
                Fault(stage=Stage.LOWERING, kind="corrupt", program="bad"),
            )
        )
        outcome = run_sweep(
            {"good": GOOD, "bad": OTHER},
            CONFIGS,
            SweepPolicy(max_retries=1, chaos=spec),
        )
        assert set(outcome.summaries["good"]) == set(CONFIGS)
        assert outcome.quarantined == ("bad",)


class TestJournal:
    def test_interrupted_sweep_resumes_from_journal(self, tmp_path, monkeypatch):
        _no_backoff(monkeypatch)
        journal_path = str(tmp_path / "sweep.jsonl")
        sources = {"good": GOOD, "bad": OTHER}
        spec = ChaosSpec(
            faults=(Fault(stage=Stage.SSA, kind="crash", program="bad"),)
        )
        first = run_sweep(
            sources,
            CONFIGS,
            SweepPolicy(max_retries=0, chaos=spec, journal_path=journal_path),
        )
        assert first.quarantined == ("bad",)
        assert set(first.summaries["good"]) == set(CONFIGS)

        # "fix the crash" (no chaos) and rerun against the same journal:
        # good's cells come straight from disk, only bad executes.
        second = run_sweep(
            sources,
            CONFIGS,
            SweepPolicy(journal_path=journal_path),
        )
        assert second.complete
        assert second.resumed_cells == len(CONFIGS)
        assert second.executed_cells == len(CONFIGS)
        assert set(second.summaries["bad"]) == set(CONFIGS)
        # resumed cells carry the same numbers the live run produced
        for name in CONFIGS:
            assert (
                second.summaries["good"][name].constants_found
                == first.summaries["good"][name].constants_found
            )

    def test_foreign_fingerprint_restarts_fresh(self, tmp_path):
        journal_path = str(tmp_path / "sweep.jsonl")
        journal = SweepJournal(journal_path)
        journal.load(sweep_fingerprint({"x": "1"}, {"c": AnalysisConfig()}))
        outcome = run_sweep(
            {"good": GOOD},
            CONFIGS,
            SweepPolicy(journal_path=journal_path),
        )
        assert outcome.resumed_cells == 0
        assert outcome.complete

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal_path = str(tmp_path / "sweep.jsonl")
        sources = {"good": GOOD}
        run_sweep(sources, CONFIGS, SweepPolicy(journal_path=journal_path))
        with open(journal_path, "a") as handle:
            handle.write('{"kind": "cell", "progr')  # the crash case
        outcome = run_sweep(
            sources, CONFIGS, SweepPolicy(journal_path=journal_path)
        )
        assert outcome.resumed_cells == len(CONFIGS)
        assert outcome.executed_cells == 0


class TestLegacyFacade:
    def test_sweep_programs_raises_typed_error_on_failure(self):
        with pytest.raises(SweepError) as exc_info:
            sweep_programs(
                {"bad": "program p\nn = \nend\n"},
                {"default": AnalysisConfig()},
            )
        outcome = exc_info.value.outcome
        assert outcome.failures
        assert outcome.failures[0].stage is Stage.FRONTEND

    def test_summary_reports_worker_cache_deltas(self):
        GLOBAL_STAGE0_CACHE.clear()
        swept = sweep_programs({"good": GOOD}, CONFIGS)
        cells = list(swept["good"].values())
        # in-process: the first config misses, the second hits the cache
        assert [c.stage0_cached for c in cells] == [False, True]


class TestDegradationsInSweep:
    def test_budgeted_cells_surface_degradations(self):
        configs = {
            "budgeted": AnalysisConfig(max_meets=0),
            "healthy": AnalysisConfig(),
        }
        outcome = run_sweep({"good": GOOD}, configs, SweepPolicy())
        assert outcome.complete  # degradation is not failure
        budgeted = outcome.summaries["good"]["budgeted"]
        assert any("RL51" in d for d in budgeted.degradations)
        assert outcome.summaries["good"]["healthy"].degradations == ()
        assert outcome.degradation_count() >= 1


class TestEqualConfigurations:
    """Table 3's ``polynomial_with_mod`` equals Table 2's ``polynomial``:
    a sweep analyzes it once and reports it under both names."""

    TABLES = {**TABLE2_CONFIGS, **TABLE3_CONFIGS}

    def _count_analyses(self, monkeypatch, fail_on=None):
        calls = []
        analyze = executor.analyze

        def counting(program, config, **kwargs):
            calls.append(config)
            if config == fail_on:
                raise RuntimeError("boom")
            return analyze(program, config, **kwargs)

        monkeypatch.setattr(executor, "analyze", counting)
        return calls

    def test_equal_configurations_run_once(self, monkeypatch):
        calls = self._count_analyses(monkeypatch)
        outcome = run_sweep({"good": GOOD, "other": OTHER}, self.TABLES)
        assert outcome.complete
        assert len(self.TABLES) == 10
        assert len(calls) == 2 * 9
        for cells in outcome.summaries.values():
            assert cells["polynomial_with_mod"] == cells["polynomial"]
        assert outcome.executed_cells == 2 * 10
        assert outcome.cache_counters == {
            "stage0_cache_hits": 2 * 8,
            "stage0_cache_misses": 2,
        }

    def test_failure_yields_one_record_per_name(self, monkeypatch):
        calls = self._count_analyses(
            monkeypatch, fail_on=TABLE2_CONFIGS["polynomial"]
        )
        outcome = run_sweep(
            {"good": GOOD},
            self.TABLES,
            SweepPolicy(max_retries=0, backoff_base=0.0),
        )
        assert len(calls) == 9
        assert sorted(f.config for f in outcome.failures if f.config) == [
            "polynomial",
            "polynomial_with_mod",
        ]
        assert outcome.quarantined == ("good",)
