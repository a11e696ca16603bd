"""Tests for the text/JSON/SARIF emitters: structure and determinism."""

import json

from repro.diagnostics import (
    Diagnostic,
    LintReport,
    Severity,
    emit_json,
    emit_sarif,
    emit_text,
)
from repro.frontend.source import LineTable, SourceSpan

SOURCE = "program\n  write n\nend\n"


def sample_report():
    span = SourceSpan(10, 15, LineTable(SOURCE))  # 'write', 2:3-2:8
    assert span.extract(SOURCE) == "write"
    return LintReport(
        diagnostics=[
            Diagnostic("RL104", Severity.ERROR, "type clash",
                       pass_name="call-binding", procedure="main",
                       span=span, path="a.f"),
            Diagnostic("RL121", Severity.WARNING, "dead formal",
                       pass_name="dead-formal", procedure="s", path="a.f"),
        ],
        passes_run=["call-binding", "dead-formal"],
    ).sorted()


class TestText:
    def test_lines_and_summary(self):
        text = emit_text(sample_report())
        assert "a.f:2:3: error RL104 [call-binding] type clash" in text
        assert text.rstrip().endswith(
            "2 finding(s): 1 error(s), 1 warning(s), 0 info"
        )

    def test_empty_report_is_just_summary(self):
        text = emit_text(LintReport())
        assert text == "0 finding(s): 0 error(s), 0 warning(s), 0 info\n"


class TestJson:
    def test_structure(self):
        payload = json.loads(emit_json(sample_report()))
        assert payload["version"] == 1
        assert payload["summary"] == {"error": 1, "warning": 1, "info": 0}
        assert payload["passes"] == ["call-binding", "dead-formal"]
        (first, second) = payload["diagnostics"]
        assert {first["code"], second["code"]} == {"RL104", "RL121"}

    def test_span_fields_present_only_when_known(self):
        payload = json.loads(emit_json(sample_report()))
        by_code = {d["code"]: d for d in payload["diagnostics"]}
        assert by_code["RL104"]["line"] == 2
        assert "line" not in by_code["RL121"]


class TestSarif:
    def test_envelope(self):
        log = json.loads(emit_sarif(sample_report()))
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-2.1.0.json")
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"

    def test_rules_cover_every_code(self):
        log = json.loads(emit_sarif(sample_report()))
        (run,) = log["runs"]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted({"RL104", "RL121"})
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]

    def test_levels_and_locations(self):
        log = json.loads(emit_sarif(sample_report()))
        (run,) = log["runs"]
        by_rule = {r["ruleId"]: r for r in run["results"]}
        assert by_rule["RL104"]["level"] == "error"
        assert by_rule["RL121"]["level"] == "warning"
        location = by_rule["RL104"]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "a.f"
        assert location["region"] == {
            "startLine": 2, "startColumn": 3, "endLine": 2, "endColumn": 8,
        }

    def test_info_maps_to_note(self):
        report = LintReport(
            diagnostics=[Diagnostic("RL999", Severity.INFO, "fyi")]
        )
        log = json.loads(emit_sarif(report))
        assert log["runs"][0]["results"][0]["level"] == "note"


class TestDeterminism:
    def test_all_formats_bit_identical_across_calls(self):
        for emitter in (emit_text, emit_json, emit_sarif):
            assert emitter(sample_report()) == emitter(sample_report())
