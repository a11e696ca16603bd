"""End-to-end benchmark of the analyzer, with a traced per-layer breakdown.

Run ``python -m bench run`` from the repository root; see README.md in
this directory for the workloads, metrics and GC policy.
"""

import json
from pathlib import Path

#: the checkout the benchmark measures: the analyzer is imported from
#: ``ROOT / "src"``.
ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    """``BENCHMARK.json``: the run length and every metric's name, unit,
    direction and bound. The code computes the metrics; their names,
    units and bounds live only there."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
