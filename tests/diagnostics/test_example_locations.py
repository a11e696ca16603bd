"""Diagnostic locations on ``examples/lint_findings.f``, pinned.

Line and column come from the source's line table, computed only when a
diagnostic is rendered; these tests hold the rendered text and the
SARIF regions to their exact values.
"""

import json

from repro.cli import main

EXAMPLE = "examples/lint_findings.f"

TEXT = f"""\
{EXAMPLE}: warning RL122 [unreferenced-global] global 'state.spare' (/state/[1]) is declared but never referenced
{EXAMPLE}: info RL130 [copy-chain] value of findings::state.spare is copied unchanged into 2 entry keys across the call graph (accum:state.spare, swap:state.spare)
{EXAMPLE}: info RL130 [copy-chain] value of findings::state.total is copied unchanged into 2 entry keys across the call graph (accum:state.total, swap:state.total)
{EXAMPLE}:7:16: warning RL111 [param-aliasing] 'n' is bound to both 'a' and 'b' of 'swap', and 'swap' modifies 'a' (FORTRAN aliasing rule violation)
{EXAMPLE}:21:14: warning RL121 [dead-formal] formal 'pad' of 'accum' is never referenced
{EXAMPLE}:27:1: warning RL123 [unreachable-procedure] procedure 'helper' is never called from the main program
6 finding(s): 0 error(s), 4 warning(s), 2 info
"""

REGIONS = [
    ("RL122", None),
    ("RL130", None),
    ("RL130", None),
    ("RL111", {"startLine": 7, "startColumn": 16, "endLine": 7, "endColumn": 17}),
    ("RL121", {"startLine": 21, "startColumn": 14, "endLine": 21, "endColumn": 17}),
    ("RL123", {"startLine": 27, "startColumn": 1, "endLine": 30, "endColumn": 4}),
]


def test_text_report(capsys):
    assert main(["lint", EXAMPLE]) == 0
    assert capsys.readouterr().out == TEXT


def test_sarif_regions(capsys):
    assert main(["lint", EXAMPLE, "--format", "sarif"]) == 0
    (run,) = json.loads(capsys.readouterr().out)["runs"]
    assert [
        (result["ruleId"], result["locations"][0]["physicalLocation"].get("region"))
        for result in run["results"]
    ] == REGIONS
