"""The user-facing surfaces of the framework: ``repro analyze
--analysis {constprop,copyprop,modref}`` and the copy-backed lint
passes RL130 (copy chains) and RL131 (dead cross-procedure copies)."""

import json

import pytest

from repro.cli import main
from repro.diagnostics import run_passes
from repro.diagnostics.core import Severity

# An uninitialized COMMON slot threaded unchanged through two hops:
# copy facts for outer.p and inner.q (RL130 chain), each alongside the
# global itself (RL131 dead copies).
CHAIN = """
program main
  common /cfg/ n
  integer n
  call outer(n)
end
subroutine outer(p)
  common /cfg/ m
  integer p, m
  call inner(p)
  write p
end
subroutine inner(q)
  common /cfg/ k
  integer q, k
  write q
end
"""

CLEAN = """
program main
  integer n
  n = 4
  call s(n)
end
subroutine s(a)
  integer a
  write a
end
"""


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.f"
    path.write_text(CHAIN)
    return str(path)


class TestAnalyzeCopyprop:
    def test_reports_copy_facts(self, chain_file, capsys):
        assert main(["analyze", chain_file, "--analysis", "copyprop"]) == 0
        out = capsys.readouterr().out
        assert "analysis: copyprop" in out
        assert "copy-of main::" in out
        assert "copy facts beyond constprop:" in out
        # the chain threads one root into at least p and q
        facts = int(out.rsplit("copy facts beyond constprop:", 1)[1].split()[0])
        assert facts >= 2

    def test_stats_use_shared_counter_keys(self, chain_file, capsys):
        assert (
            main(["analyze", chain_file, "--analysis", "copyprop", "--stats"])
            == 0
        )
        out = capsys.readouterr().out
        assert "copyprop solver counters:" in out
        assert "evaluations" in out and "region_passes" in out

    def test_constprop_output_unchanged_by_default(self, chain_file, capsys):
        assert main(["analyze", chain_file]) == 0
        out = capsys.readouterr().out
        assert "constants substituted" in out
        assert "analysis:" not in out


class TestAnalyzeModref:
    def test_prints_summaries(self, chain_file, capsys):
        assert main(["analyze", chain_file, "--analysis", "modref"]) == 0
        captured = capsys.readouterr()
        assert "analysis: modref" in captured.out
        assert "MOD(main) = {}" in captured.out
        assert "REF(main) = {cfg.n}" in captured.out
        assert "REF(inner) = {q}" in captured.out
        assert captured.err == ""

    def test_example_program_smoke(self, capsys):
        assert (
            main(["analyze", "examples/pipeline.f", "--analysis", "modref"])
            == 0
        )
        captured = capsys.readouterr()
        assert "MOD(setup) = {cfg.gmax}" in captured.out
        assert captured.err == ""


@pytest.mark.parametrize("analysis", ["copyprop", "modref"])
class TestClientAnalysesReport:
    """Every ``--analysis`` prints the run's RL5xx degradations and
    honours ``--profile-json``, not only constprop."""

    def test_degradations_reach_stderr(self, analysis, capsys):
        argv = ["analyze", "examples/pipeline.f", "--max-meets", "1"]
        assert main(argv + ["--analysis", analysis]) == 0
        err = capsys.readouterr().err
        assert err.count("RL510") == 2
        assert "RL512" in err

    def test_profile_json_written(self, analysis, chain_file, tmp_path):
        profile = tmp_path / "profile.json"
        argv = ["analyze", chain_file, "--analysis", analysis]
        assert main(argv + ["--profile-json", str(profile)]) == 0
        payload = json.loads(profile.read_text())
        assert "solve" in payload["timings_ms"]


class TestCopyLintPasses:
    def test_copy_chain_fires_on_threaded_value(self):
        report = run_passes(CHAIN, select=["copy-chain"])
        findings = [d for d in report.diagnostics if d.code == "RL130"]
        assert findings
        assert all(d.severity is Severity.INFO for d in findings)
        assert any("copied unchanged" in d.message for d in findings)

    def test_dead_copy_fires_on_redundant_formal(self):
        report = run_passes(CHAIN, select=["dead-copy"])
        findings = [d for d in report.diagnostics if d.code == "RL131"]
        assert findings
        assert all(d.severity is Severity.WARNING for d in findings)
        assert any("redundant cross-procedure copy" in d.message for d in findings)

    def test_clean_program_is_quiet(self):
        report = run_passes(CLEAN, select=["copy-chain", "dead-copy"])
        assert report.diagnostics == []

    def test_passes_run_by_default(self):
        report = run_passes(CLEAN)
        assert "copy-chain" in report.passes_run
        assert "dead-copy" in report.passes_run

    def test_lint_cli_exit_code_stays_zero(self, chain_file):
        # INFO/WARNING findings must not fail the lint gate (errors only)
        assert main(["lint", chain_file]) == 0
