"""Expected answers: the file every benchmark op is checked against.

``expected.json`` holds, for every (program, configuration) cell the
workloads can ask for, the answer triple ``[constants_found,
references_substituted, sha256 of the CONSTANTS sets]``. It is written
by ``python -m bench expected``, which accepts a cell only after the
sparse solver's VAL matches the dense reference solver and (for each
program's polynomial cell) every claimed constant holds in the
reference interpreter's executions.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def constants_digest(constants: dict) -> str:
    """sha256 of CONSTANTS sets, as ``AnalysisResult.all_constants()``
    or a service response renders them (values compared as text,
    procedures with no constants left out)."""
    canonical = {
        proc: {name: str(value) for name, value in env.items()}
        for proc, env in constants.items()
        if env
    }
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def of_result(result) -> list:
    return [
        result.constants_found,
        result.references_substituted,
        constants_digest(result.all_constants()),
    ]


def of_summary(summary) -> list:
    return [
        summary.constants_found,
        summary.references_substituted,
        constants_digest(summary.constants),
    ]


def of_response(response: dict) -> list:
    result = response["result"]
    return [
        result["constants_found"],
        result["references_substituted"],
        constants_digest(result["constants"]),
    ]


def load_expected() -> dict[str, dict[str, list]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["cells"]


def mismatch(label: str, got: list, want: list) -> str | None:
    if got != want:
        return f"{label}: answer {got[:2]} differs from expected {want[:2]}"
    return None


def generate(path: Path = EXPECTED_PATH) -> int:
    """Recompute every cell, cross-check it, and write ``path``.
    Returns the number of failed cross-checks (the file is written only
    when there are none)."""
    from repro.core.driver import Stage0Cache, analyze
    from repro.core.solver import solve_dense
    from repro.interp import check_soundness, run_program
    from repro.workloads import suite

    from bench.workloads import EXPECTED_CELLS

    cells: dict[str, dict[str, list]] = {}
    failures = 0
    for program, configs in EXPECTED_CELLS.items():
        workload = suite.load(program)
        cache = Stage0Cache()
        cells[program] = {}
        for config_name, config in configs.items():
            result = analyze(workload.source, config, cache=cache)
            problems = [r.describe() for r in result.degradations]
            if not (config.complete or config.intraprocedural_only):
                dense = solve_dense(result.lowered, result.call_graph, result.forward)
                if dense.val != result.solved.val:
                    problems.append("VAL differs from solve_dense")
            if config_name == "polynomial":
                trace = run_program(
                    workload.source, inputs=workload.inputs, max_steps=50_000_000
                )
                problems.extend(str(v) for v in check_soundness(result, trace))
            cells[program][config_name] = of_result(result)
            status = "; ".join(problems) if problems else "ok"
            print(f"{program:<14} {config_name:<28} {cells[program][config_name][:2]} {status}")
            failures += bool(problems)
    if failures:
        print(f"{failures} cell(s) failed their cross-checks; {path} not written")
        return failures
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"cells": cells}, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)
    print(f"wrote {path}")
    return 0
