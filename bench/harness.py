"""``python -m bench run``: start one worker per pass, check, report.

A run of one workload starts worker processes one at a time, each
running one pass (set-up plus the workload's fixed op sequence), until
the passes' timed phases add up to ``--seconds``. With ``--trace 1`` at
least two passes run: the first untraced and the rest traced; the
untraced pass gives the answers the traced ones must repeat and the
baseline for the tracing overhead.

The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import ROOT, load_spec
from bench.trace import SPAN_NAMES
from bench.workloads import WORKLOADS

#: a worker that runs past this is killed and its ops count as failed:
#: 3x the slowest pass wall time (start-up, set-up, ops and checks)
#: measured on a 2-core x86-64 VM, or what is left of RUN_CAP_S if that
#: is less. The VM's speed drifts by up to 40% over tens of minutes.
PASS_TIMEOUT_S = {
    "table_sweep": 90.0,
    "cold_large": 45.0,
    "edit_session": 115.0,
    "serve_mix": 95.0,
}

#: every pass ends inside this many seconds from the run's start, and no
#: pass beyond the required ones starts unless its whole timeout fits.
RUN_CAP_S = 170.0

#: ``setup_s`` is the median of at least this many set-ups: when a run
#: has fewer passes, workers that only set up and exit make up the rest.
SETUPS = 3

#: 3x the slowest set-up-only worker's wall time (edit_session's).
SETUP_TIMEOUT_S = 9.0


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Set iteration order, and with it solver work order, is part of
    # what a pass measures; fix it so passes repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(
    name: str, seed: int, traced: bool, record: Path, timeout: float, setup_only: bool = False
) -> tuple[dict | None, str, float]:
    """One pass in a fresh process: (record or None, error, spawn time)."""
    record.unlink(missing_ok=True)
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", name, "--seed", str(seed),
        "--trace", "1" if traced else "0", "--record", str(record),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_worker_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s", spawned
    if done.returncode != 0 or not record.exists():
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        return None, f"worker exited {done.returncode}: {tail}", spawned
    with open(record, encoding="utf-8") as handle:
        return json.load(handle), "", spawned


def _pass_seconds(record: dict) -> float:
    return sum(op[1] for op in record["ops"])


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics, or none when no op succeeded (the run is
    then incorrect, and its errors still get reported). Each timing is
    taken per pass, then the median over passes. There is no tail
    percentile: only ``serve_mix`` has ten ops beyond its 95th, and on
    the others it would be the one slowest op, whose run-to-run spread
    is wider than any useful bound."""
    latencies = [
        [seconds * 1000.0 for _, seconds, error, _ in p["ops"] if error is None]
        for p in passes
    ]
    latencies = [pass_ms for pass_ms in latencies if pass_ms]
    if not latencies:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(map(_pass_seconds, passes)),
        "op_p50_ms": statistics.median(map(statistics.median, latencies)),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: dict, traced: list[dict]) -> dict[str, float]:
    metrics = {
        key: statistics.median(p["layers"][key] for p in traced)
        for key in traced[0]["layers"]
    }
    metrics["bench.root_coverage"] = min(p["layers"]["bench.root_coverage"] for p in traced)
    metrics["bench.trace_overhead"] = (
        statistics.median(map(_pass_seconds, traced)) / _pass_seconds(untraced) - 1.0
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    workload = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    passes: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    timed = 0.0
    started = time.monotonic()
    index = 0
    min_passes = 2 if trace else 1
    while index < min_passes or (
        timed < seconds
        and time.monotonic() - started + PASS_TIMEOUT_S[name] < RUN_CAP_S
    ):
        traced = trace and index > 0
        path = out / f"{name}-seed{seed}-trace{int(trace)}-pass{index}.json"
        timeout = min(PASS_TIMEOUT_S[name], RUN_CAP_S - (time.monotonic() - started))
        record, error, spawned = run_worker(name, seed, traced, path, timeout)
        attempted += workload.ops_per_pass
        if record is None:
            # a lost pass fails all its ops, and the run ends here
            failed += workload.ops_per_pass
            errors.append(error)
            break
        record["setup_s"] = record["timed_start"] - spawned
        record["wall_s"] = time.monotonic() - spawned
        record["traced"] = traced
        passes.append(record)
        op_errors = [op[2] for op in record["ops"] if op[2]]
        failed += len(op_errors)
        errors.extend(op_errors)
        timed += _pass_seconds(record)
        index += 1

    setups = [p["setup_s"] for p in passes]
    while (
        not trace and not errors and len(setups) < SETUPS
        and time.monotonic() - started + SETUP_TIMEOUT_S < RUN_CAP_S
    ):
        path = out / f"{name}-seed{seed}-setup{len(setups)}.json"
        record, error, spawned = run_worker(
            name, seed, False, path, SETUP_TIMEOUT_S, setup_only=True
        )
        attempted += 1
        if record is None:
            failed += 1
            errors.append(f"set-up: {error}")
            break
        setups.append(record["timed_start"] - spawned)

    # Every pass of a run does the same work, so every answer must repeat
    # the first pass's; with --trace 1 that pass is the untraced one.
    if passes:
        reference = {op[0]: op[3] for op in passes[0]["ops"]}
        for p in passes[1:]:
            for label, _, error, digest in p["ops"]:
                if error is None and reference.get(label) != digest:
                    failed += 1
                    errors.append(f"{label}: answer differs from the first pass's")

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    metrics: dict[str, float] = {}
    if trace and untraced and traced_passes:
        metrics = per_layer(untraced[0], traced_passes)
    elif not trace and passes:
        metrics = end_to_end(passes, setups)
    for error in errors[:10]:
        print(f"error: {name}: {error}", file=sys.stderr)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": passes,
        "setups": setups,
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _units() -> dict[str, str]:
    spec = load_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_report(result: dict) -> None:
    units = _units()
    passes = result["passes"]
    walls = [p["wall_s"] for p in passes] or [0.0]
    print(
        f"== {result['workload']}  seed {result['seed']}  passes {len(passes)}"
        f" (median wall {statistics.median(walls):.1f} s)"
        f"  {'traced' if result['trace'] else 'untraced'}"
    )
    per_pass = f"{len(passes[0]['ops'])}x{len(passes)}" if passes else "0"
    counts = {"setup_s": len(result["setups"]), "pass_s": len(passes), "peak_rss_mb": len(passes),
              "op_p50_ms": per_pass}
    for key, value in result["metrics"].items():
        if key.endswith(".s") and value == 0.0 or key.endswith(".calls") and value == 0:
            continue
        n = f"n={counts[key]}" if key in counts else ""
        print(f"  {key:<32} {value:>14.4f} {units[key]:<6} {n}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<32} {error_rate:>14.4f} ratio  ({result['failed']}/{result['attempted']} ops failed)")

    labels = list(dict.fromkeys(op[0] for p in passes for op in p["ops"]))
    if not labels or len(labels) > 12:
        return
    print(f"  {'op':<16} {'median_ms':>10} {'max_ms':>10}")
    for label in labels:
        times = [op[1] * 1000.0 for p in passes for op in p["ops"] if op[0] == label]
        print(f"  {label:<16} {statistics.median(times):>10.1f} {max(times):>10.1f}")
    traced = [p for p in passes if p.get("op_layers")]
    if traced:
        ops, rows = traced[0]["ops"], traced[0]["op_layers"]
        print("  self seconds per layer and op, first traced pass:")
        print(f"  {'layer':<20}" + "".join(f"{op[0]:>13}" for op in ops))
        for layer in SPAN_NAMES:
            if any(row[layer] for row in rows):
                print(f"  {layer:<20}" + "".join(f"{row[layer]:>13.3f}" for row in rows))


def summary_line(result: dict) -> dict:
    units = _units()
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in result["metrics"].items()
        },
    }


def run(workloads: list[str], seed: int, seconds: float, trace: bool, out: Path) -> int:
    results = []
    for name in workloads:
        result = run_workload(name, seed, seconds, trace, out)
        print_report(result)
        line = summary_line(result)
        with open(out / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": seed, "trace": int(trace), **line}, handle, indent=1)
        results.append((name, line))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(line["correct"] for _, line in results),
            "attempted": sum(line["attempted"] for _, line in results),
            "failed": sum(line["failed"] for _, line in results),
            "metrics": {
                f"{name}.{key}": value
                for name, line in results
                for key, value in line["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1
