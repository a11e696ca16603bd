"""Incremental re-analysis end to end: warm starts, invalidation scope,
and every corruption path degrading to a cold run (RL530/RL531) instead
of crashing or going unsound."""

import json
import os

import pytest

from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import Analyzer, analyze
from repro.frontend.symbols import GlobalId
from repro.store.artifacts import ArtifactStore, MemoryStore
from repro.store.fingerprints import (
    config_key,
    encode_all_forward_jfs,
    encode_expr,
    encode_key,
)
from repro.workloads import suite

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

LEAF_EDIT = SOURCE.replace("d = c * 2", "d = c * 3")
ROOT_EDIT = SOURCE.replace("call foo(3)", "call foo(4)")


def assert_equivalent(result, source, config=None):
    cold = analyze(source, config)
    assert result.solved.val == cold.solved.val
    assert result.solved.reached == cold.solved.reached
    assert result.all_constants() == cold.all_constants()
    assert result.constants_found == cold.constants_found
    assert result.references_substituted == cold.references_substituted


class TestWarmReanalyze:
    def test_first_run_publishes_not_warm(self):
        analyzer = Analyzer(SOURCE)
        result = analyzer.run(incremental=True)
        assert result.incremental.mode == "cold"
        assert result.incremental.detail == "no snapshot"
        # ... but it published: the next incremental run is warm
        again = analyzer.run(incremental=True)
        assert again.incremental.mode == "warm"
        assert again.incremental.clean == 3
        assert again.solved.regions_warm == 3
        # each procedure's snapshot entry holds exactly what the planner
        # reads
        snapshot = analyzer.store.load_snapshot(
            config_key(AnalysisConfig()), "m"
        )
        assert set(snapshot["procs"]) == {"m", "foo", "bar"}
        for entry in snapshot["procs"].values():
            assert set(entry) == {"fp", "jf", "env", "reached", "callees"}

    def test_leaf_edit_invalidates_only_leaf(self):
        analyzer = Analyzer(SOURCE)
        analyzer.run()
        result = analyzer.reanalyze(LEAF_EDIT)
        assert result.incremental.mode == "warm"
        assert result.incremental.changed == ("bar",)
        assert result.incremental.invalid == ("bar",)
        assert result.incremental.clean == 2
        assert result.solved.regions_warm == 2
        assert not result.degradations
        assert_equivalent(result, LEAF_EDIT)

    def test_root_edit_invalidates_descendants(self):
        analyzer = Analyzer(SOURCE)
        analyzer.run()
        result = analyzer.reanalyze(ROOT_EDIT)
        assert result.incremental.mode == "warm"
        assert result.incremental.changed == ("m",)
        assert set(result.incremental.invalid) == {"m", "foo", "bar"}
        assert result.incremental.clean == 0
        assert_equivalent(result, ROOT_EDIT)

    def test_warm_run_does_less_work(self):
        analyzer = Analyzer(SOURCE)
        analyzer.run()
        warm = analyzer.reanalyze(LEAF_EDIT)
        cold = analyze(LEAF_EDIT)
        assert warm.solved.regions < cold.solved.regions
        assert warm.solved.evaluations <= cold.solved.evaluations

    def test_config_partitions_the_store(self):
        analyzer = Analyzer(SOURCE)
        analyzer.run(AnalysisConfig())
        other = AnalysisConfig(use_mod=False)
        result = analyzer.run(other, incremental=True)
        # no snapshot exists for this configuration yet: cold, no fallback
        assert result.incremental.mode == "cold"
        assert result.incremental.store_fallbacks == 0

    def test_degraded_run_is_not_published(self):
        recursive = """
program m
  call ping(9)
end
subroutine ping(n)
  integer n
  call pong(n - 1)
end
subroutine pong(n)
  integer n
  call ping(n - 1)
end
"""
        store = MemoryStore()
        config = AnalysisConfig(max_solver_passes=1)
        result = analyze(recursive, config, store=store, incremental=True)
        assert result.degradations  # the ladder stepped
        assert store.load_snapshot(config_key(config), "m") is None


class TestCorruptionDegradesToCold:
    """The RL530/RL531 chaos harness: every way the on-disk store can rot
    must produce a cold (still correct) run plus a diagnostic — never a
    crash, never a stale result."""

    def warmed_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        analyze(SOURCE, store=store)
        return store

    def test_corrupt_env_object_falls_back(self, tmp_path):
        store = self.warmed_store(tmp_path)
        snapshot = store.load_snapshot(config_key(AnalysisConfig()), "m")
        env_sha = snapshot["procs"]["foo"]["env"]
        target = os.path.join(store.path, "objects", f"{env_sha}.json")
        with open(target, "w") as handle:
            handle.write('{"tampered":true}')
        result = analyze(LEAF_EDIT, store=store, incremental=True)
        assert result.incremental.mode == "fallback"
        assert result.incremental.store_fallbacks == 1
        assert any(r.code == "RL530" for r in result.degradations)
        assert_equivalent(result, LEAF_EDIT)

    def test_missing_env_object_falls_back(self, tmp_path):
        store = self.warmed_store(tmp_path)
        snapshot = store.load_snapshot(config_key(AnalysisConfig()), "m")
        env_sha = snapshot["procs"]["bar"]["env"]
        os.unlink(os.path.join(store.path, "objects", f"{env_sha}.json"))
        result = analyze(SOURCE, store=store, incremental=True)
        assert result.incremental.mode == "fallback"
        assert_equivalent(result, SOURCE)

    def test_foreign_index_resets_with_rl531(self, tmp_path):
        store = self.warmed_store(tmp_path)
        with open(store._index_path) as handle:
            lines = handle.readlines()
        lines[0] = json.dumps({"kind": "header", "schema": 999}) + "\n"
        with open(store._index_path, "w") as handle:
            handle.writelines(lines)
        result = analyze(SOURCE, store=store, incremental=True)
        assert result.incremental.mode == "cold"
        assert any(r.code == "RL531" for r in result.degradations)
        assert_equivalent(result, SOURCE)

    def test_malformed_snapshot_meta_falls_back(self, tmp_path):
        store = self.warmed_store(tmp_path)
        store.append_snapshot(
            config_key(AnalysisConfig()), "m", {"schema": 1, "procs": "junk"}
        )
        result = analyze(SOURCE, store=store, incremental=True)
        assert result.incremental.mode == "fallback"
        assert any(r.code == "RL530" for r in result.degradations)
        assert_equivalent(result, SOURCE)

    def test_fallback_self_heals(self, tmp_path):
        store = self.warmed_store(tmp_path)
        snapshot = store.load_snapshot(config_key(AnalysisConfig()), "m")
        env_sha = snapshot["procs"]["foo"]["env"]
        target = os.path.join(store.path, "objects", f"{env_sha}.json")
        with open(target, "w") as handle:
            handle.write("garbage")
        fallback = analyze(SOURCE, store=store, incremental=True)
        assert fallback.incremental.mode == "fallback"
        # the fallback run republished: the store is trustworthy again
        healed = analyze(SOURCE, store=store, incremental=True)
        assert healed.incremental.mode == "warm"
        assert healed.incremental.store_fallbacks == 0
        assert not healed.degradations


class TestSweepSharesStore:
    def test_second_sweep_runs_warm(self, tmp_path):
        from repro.resilience.executor import SweepPolicy, run_sweep

        sources = {"prog": SOURCE}
        configs = {"pt": AnalysisConfig()}
        policy = SweepPolicy(store_path=str(tmp_path / "store"))
        first = run_sweep(sources, configs, policy)
        assert not first.failures
        assert first.summaries["prog"]["pt"].solver_counters["regions_warm"] == 0
        second = run_sweep(sources, configs, policy)
        assert not second.failures
        counters = second.summaries["prog"]["pt"].solver_counters
        assert counters["regions_warm"] == 3
        assert counters["regions"] == 0

    def test_worker_processes_share_store(self, tmp_path):
        from repro.resilience.executor import SweepPolicy, run_sweep

        # distinct main-program names: snapshots are keyed by
        # (config, program), so two programs both named "m" would
        # overwrite each other's index lines
        sources = {"prog": SOURCE, "edited": LEAF_EDIT.replace("program m", "program m2")}
        configs = {"pt": AnalysisConfig()}
        policy = SweepPolicy(
            processes=2, store_path=str(tmp_path / "store")
        )
        first = run_sweep(sources, configs, policy)
        assert not first.failures
        second = run_sweep(sources, configs, policy)
        assert not second.failures
        for name in sources:
            counters = second.summaries[name]["pt"].solver_counters
            assert counters["regions_warm"] == 3


def forward_payload_of(proc, lowered, sites) -> list:
    """The reference encoder: one procedure's call sites, filtered out of
    every site in the program, in site-id order."""
    entries = []
    for site_id in sorted(lowered.call_sites):
        caller, call = lowered.call_sites[site_id]
        site = sites.get(site_id)
        if caller != proc or site is None:
            continue
        entries.append(
            {
                "callee": call.callee,
                "formals": {
                    name: encode_expr(edge.func)
                    for name, edge in sorted(
                        (
                            (key, edge)
                            for key, edge in site.items()
                            if not isinstance(key, GlobalId)
                        ),
                        key=lambda kv: kv[0],
                    )
                },
                "globals": {
                    encode_key(gid): encode_expr(edge.func)
                    for gid, edge in sorted(
                        (
                            (key, edge)
                            for key, edge in site.items()
                            if isinstance(key, GlobalId)
                        ),
                        key=lambda kv: encode_key(kv[0]),
                    )
                },
            }
        )
    return entries


class TestForwardPayloads:
    """The one-pass encoder that publish and diff share equals the
    per-procedure filter on every procedure."""

    @pytest.mark.parametrize("name", [*suite.suite_names(), "large_chain"])
    def test_one_pass_matches_per_procedure_filter(self, name):
        result = analyze(
            suite.load(name).source,
            AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL),
            cache=None,
        )
        sites = result.forward.sites
        payloads = encode_all_forward_jfs(result.lowered, sites)
        assert set(payloads) == set(result.lowered.procedures)
        for proc, payload in payloads.items():
            assert payload == forward_payload_of(proc, result.lowered, sites), proc
