"""``python -m bench compare A.json... -- B.json...``

A is the parent (baseline) set of run results, B the change. For every
(workload, end-to-end metric) pair the verdict follows the
choosing-metrics rules with the bounds in ``BENCHMARK.json``:

- ``unresolved``: the run-to-run spread (quartile distance over median,
  the wider of the two sets) exceeds the bound, and B does not read
  better than A in every pairing;
- ``regressed``: B's median is worse than A's by more than the bound;
- ``improved``: B beats A in at least nine tenths of all (a, b)
  pairings, ties counting for neither, and the medians differ by more
  than A's quartile distance;
- ``same`` otherwise.

Exits non-zero on any regression or when B fails a larger share of its
ops than A.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from bench import load_spec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    pairs = [sign * (y - x) for x in a for y in b]
    if spread > bound and not all(d < 0 for d in pairs):
        return "unresolved"
    if sign * (qb[1] - qa[1]) / abs(qa[1]) > bound:
        return "regressed"
    wins = sum(d < 0 for d in pairs)
    if wins >= 0.9 * len(pairs) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "improved"
    return "same"


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def _load(paths: list[str]):
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    ops = defaultdict(lambda: [0, 0])
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        workload = result["workload"]
        ops[workload][0] += result["failed"]
        ops[workload][1] += result["attempted"]
        for name, metric in result["metrics"].items():
            values[(workload, name)].append(metric["value"])
    return values, ops


def compare(a_paths: list[str], b_paths: list[str]) -> int:
    metrics = {m["name"]: m for m in load_spec()["end_to_end"]}
    a_values, a_ops = _load(a_paths)
    b_values, b_ops = _load(b_paths)
    status = 0
    print(f"{'workload':<13} {'metric':<12} {'A median [q1, q3]':>28} {'B median [q1, q3]':>28} {'change':>8}  verdict")
    for workload, name in sorted(set(a_values) & set(b_values)):
        if name not in metrics:
            continue
        a, b = a_values[(workload, name)], b_values[(workload, name)]
        qa, qb = quartiles(a), quartiles(b)
        result = verdict(a, b, metrics[name]["better"], metrics[name]["bound"])
        status |= result == "regressed"
        change = (qb[1] - qa[1]) / abs(qa[1])
        print(
            f"{workload:<13} {name:<12} {_cell(qa):>28} {_cell(qb):>28} {change:>+8.1%}"
            f"  {result} (n={len(a)}/{len(b)}, bound {metrics[name]['bound']:.0%})"
        )
    for workload in sorted(set(a_ops) | set(b_ops)):
        (af, an), (bf, bn) = a_ops.get(workload, (0, 0)), b_ops.get(workload, (0, 0))
        a_rate, b_rate = af / an if an else 0.0, bf / bn if bn else 0.0
        print(f"{workload:<13} error_rate   A {af}/{an}   B {bf}/{bn}")
        status |= b_rate > a_rate
    return 1 if status else 0
