"""One pass of one workload, in a fresh process.

    python -m bench.worker --workload NAME --seed N --trace 0|1 --record PATH
                           [--setup-only]

Sets the workload up, collects garbage once, then times each op and
checks its answer (untimed); with ``--setup-only`` it stops after the
collection. The JSON record is written atomically to PATH; with
``--trace 1`` the spans go next to it (``PATH.spans.json``). The
harness in :mod:`bench.harness` starts one worker per pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time

from bench.trace import Tracer
from bench.workloads import WORKLOADS


def write_atomic(path: str, payload) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, seed: int, tracer: Tracer | None, setup_only: bool = False) -> dict:
    workload.setup(seed)
    # GC policy: default thresholds, enabled; one collection here so the
    # timed phase does not pay for set-up garbage. Never during it.
    gc.collect()
    timed_start = time.monotonic()
    if setup_only:
        return {"timed_start": timed_start, "ops": [], "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.install()
    ops = []
    try:
        for label, op in workload.ops():
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                answer = op()
                error = None
            except Exception as exc:
                answer, error = None, f"{label}: {type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if tracer is not None:
                tracer.end_op(start, end)
            got = None
            if error is None:
                error, got = workload.check(label, answer)
            del answer
            digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()[:16]
            ops.append([label, end - start, error, digest])
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"timed_start": timed_start, "ops": ops, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["op_layers"] = tracer.op_layer_seconds()
    return record


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    tracer = Tracer() if args.trace else None
    record = run_pass(WORKLOADS[args.workload](), args.seed, tracer, args.setup_only)
    if tracer is not None:
        write_atomic(f"{args.record}.spans.json", tracer.span_rows())
    write_atomic(args.record, record)


if __name__ == "__main__":
    main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: freeing edit_session's heap object by
    # object takes ~3 s and measures nothing. An exception in main()
    # never gets here: it exits 1 with a traceback, the normal way.
    os._exit(0)
