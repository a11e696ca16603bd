"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.service import AnalysisService

SOURCE = """
program main
  integer n
  n = 4
  call s(n)
  call s(9)
  read m
  write m
end
subroutine s(a)
  integer a
  write a * 2
end
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.f"
    path.write_text(SOURCE)
    return str(path)


class TestAnalyze:
    def test_basic(self, source_file, capsys):
        assert main(["analyze", source_file]) == 0
        out = capsys.readouterr().out
        assert "pass_through" in out
        assert "constants substituted" in out

    def test_jump_function_choice(self, source_file, capsys):
        assert main(["analyze", source_file, "--jump-function", "literal"]) == 0
        assert "literal" in capsys.readouterr().out

    def test_flags(self, source_file, capsys):
        assert (
            main(
                [
                    "analyze",
                    source_file,
                    "--no-mod",
                    "--no-returns",
                    "--complete",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "no-mod" in out and "no-rjf" in out and "complete" in out

    def test_transform_prints_source(self, source_file, capsys):
        assert main(["analyze", source_file, "--transform"]) == 0
        assert "program main" in capsys.readouterr().out

    def test_stats_prints_timings_and_counters(self, source_file, capsys):
        assert main(["analyze", source_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "per-stage timings" in out
        assert "solve" in out and "ms" in out
        assert "pops" in out and "passes" in out
        assert "stage0_cache_hits" in out

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.f"
        bad.write_text("program p\nn = \nend\n")
        assert main(["analyze", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_ascii_digit_reported_with_location(self, tmp_path, capsys):
        """``²`` is a digit to ``str.isdigit`` but not to ``int``: analyze,
        lint and the daemon report it at its line:column."""
        source = "program p\n  integer x\n  x = ²\nend\n"
        bad = tmp_path / "bad.f"
        bad.write_text(source)
        assert main(["analyze", str(bad)]) == 1
        assert capsys.readouterr().err.strip() == (
            "error[frontend]: 3:7: unexpected character '²'"
        )
        assert main(["lint", str(bad)]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            f"{bad}:3:7: error RL000 [frontend] 3:7: unexpected character '²'"
        )
        response = AnalysisService().handle({"id": "a", "source": source})
        assert response["error"] == "error[frontend]: 3:7: unexpected character '²'"

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.f"]) == 1
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_executes_and_prints_outputs(self, source_file, capsys):
        assert main(["run", source_file, "--input", "7"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["8", "18", "7"]
        assert "steps" in captured.err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "div.f"
        path.write_text("program p\nn = 0\nwrite 1 / n\nend\n")
        assert main(["run", str(path)]) == 1
        assert "runtime error" in capsys.readouterr().err


class TestTables:
    def test_fig1(self, capsys):
        assert main(["tables", "--which", "fig1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_table1_scaled(self, capsys):
        assert main(["tables", "--which", "1", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "ocean" in out


class TestWorkload:
    def test_print_workload(self, capsys):
        assert main(["workload", "trfd", "--scale", "0.3"]) == 0
        assert "program trfd" in capsys.readouterr().out

    def test_save_workload(self, tmp_path, capsys):
        target = tmp_path / "w.f"
        assert main(
            ["workload", "mdg", "--scale", "0.3", "-o", str(target)]
        ) == 0
        assert target.exists()
        assert "wrote" in capsys.readouterr().out

    def test_unknown_name(self, capsys):
        assert main(["workload", "nope"]) == 1
        assert "unknown workload" in capsys.readouterr().err


class TestClone:
    def test_clone_reports_recovery(self, source_file, capsys):
        assert main(["clone", source_file]) == 0
        out = capsys.readouterr().out
        assert "constants before" in out
        assert "clones created:   1" in out

    def test_clone_transform(self, source_file, capsys):
        assert main(["clone", source_file, "--transform"]) == 0
        assert "s_c1" in capsys.readouterr().out
