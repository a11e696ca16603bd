"""Flat slab engine vs the object engine on the 1k-procedure tier.

The flat engine (:mod:`repro.core.slab`) re-represents stage 3 as
preallocated integer arrays: tagged lattice codes, CSR edge slices, a
precomputed structural sweep, and batched generation-stamped drains.
On the ``large`` workload family (ROADMAP: scale the workload axis to
1k–10k procedures) it must beat the object engine by at least
:data:`SPEEDUP_FLOOR` warm-vs-warm wall-clock on *every* corpus shape —
deep chains, wide fan-out, one giant SCC — while its resident solver
state (``slab_bytes``: the slab plus the per-solve codes/stamp arrays)
stays at least :data:`MEMORY_FLOOR` times smaller than the object
engine's resident index + region partition. Both engines are checked
value-identical on every corpus before any timing.

Timings are warm-vs-warm: both the object engine's cached partition and
the flat engine's cached slab are built before the clock starts, so the
ratio isolates the per-solve representation overhead, not build cost.
"""

import gc
import sys
import time

from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import build_stage0
from repro.core.exprs import ValueExpr
from repro.core.returns import build_return_jump_functions
from repro.core.solver import solve
from repro.frontend import parse_program
from repro.workloads.suite import large_names, load

SPEEDUP_FLOOR = 3.0
MEMORY_FLOOR = 5.0
ROUNDS = 5


def _pipeline(source, config):
    stage0 = build_stage0(parse_program(source))
    lowered, graph, cache = stage0.lowered, stage0.graph, stage0.ssa_cache
    returns = build_return_jump_functions(lowered, graph, config, cache)
    forward = build_forward_jump_functions(lowered, returns, config, cache)
    return lowered, graph, forward


def _best_of(fn, rounds=ROUNDS):
    # cyclic GC pauses from the host process's allocation churn would
    # otherwise dominate the few-millisecond solves and add noise
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def _deep_bytes(*roots):
    """Resident bytes of the object engine's solver state: an
    id-deduplicated walk over the support index and region partition.
    Strings cost one pointer (their contents are shared with the
    frontend, exactly as the slab's ``nbytes`` counts them) and interned
    expressions are counted shallow (they belong to stage 2 and are
    retained by the jump functions whichever engine solves)."""
    seen: set[int] = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            total += 8
            continue
        total += sys.getsizeof(obj)
        if isinstance(obj, ValueExpr):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        else:
            for klass in type(obj).__mro__:
                for name in getattr(klass, "__slots__", ()):
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
            if hasattr(obj, "__dict__"):
                stack.append(obj.__dict__)
    return total


def _canon(val):
    # bool-vs-int aware comparison (True == 1 under plain ==)
    return {
        proc: {key: (type(v), v) for key, v in env.items()}
        for proc, env in val.items()
    }


def run_comparison():
    rows = []
    config = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
    for name in large_names():
        workload = load(name)
        lowered, graph, forward = _pipeline(workload.source, config)

        # warm both caches and cross-check the fixpoints first
        obj = solve(lowered, graph, forward)
        flat = solve(lowered, graph, forward, flat=True)
        assert _canon(obj.val) == _canon(flat.val), name
        assert obj.reached == flat.reached, name

        t_obj = _best_of(lambda: solve(lowered, graph, forward))
        t_flat = _best_of(lambda: solve(lowered, graph, forward, flat=True))

        # what the object engine keeps resident across a solve: its
        # support index, the cached region partition, and the boxed
        # environment dicts it populates (the flat engine's codes array
        # plays the val role until the final decode)
        index = forward.index
        partition = forward.partition
        object_bytes = _deep_bytes(index, partition, obj.val)
        rows.append(
            {
                "name": name,
                "procedures": len(obj.reached),
                "object_seconds": t_obj,
                "flat_seconds": t_flat,
                "speedup": t_obj / t_flat,
                "object_bytes": object_bytes,
                "slab_bytes": flat.slab_bytes,
                "memory_ratio": object_bytes / flat.slab_bytes,
                "slab_slots": flat.slab_slots,
                "batch_drains": flat.batch_drains,
                "evaluations": flat.evaluations,
                "meets": flat.meets,
            }
        )
    return rows


def test_flat_engine_beats_object_engine(benchmark, reporter, bench_counters):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    lines = [
        f"{'corpus':<14} {'procs':>5} {'object':>9} {'flat':>9} "
        f"{'speedup':>8} {'obj KiB':>8} {'slab KiB':>9} {'mem':>7}"
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<14} {row['procedures']:>5} "
            f"{row['object_seconds'] * 1000:>7.1f}ms "
            f"{row['flat_seconds'] * 1000:>7.1f}ms "
            f"{row['speedup']:>7.2f}x "
            f"{row['object_bytes'] / 1024:>8.0f} "
            f"{row['slab_bytes'] / 1024:>9.0f} "
            f"{row['memory_ratio']:>6.1f}x"
        )
    reporter(
        "Flat slab engine vs object engine (large tier, warm-vs-warm)",
        "\n".join(lines)
        + f"\nfloors: speedup {SPEEDUP_FLOOR}x, memory {MEMORY_FLOOR}x",
    )

    for row in rows:
        assert row["speedup"] >= SPEEDUP_FLOOR, (
            f"{row['name']}: flat engine only {row['speedup']:.2f}x faster "
            f"than the object engine (floor {SPEEDUP_FLOOR}x)"
        )
        assert row["memory_ratio"] >= MEMORY_FLOOR, (
            f"{row['name']}: slab resident bytes only {row['memory_ratio']:.1f}x "
            f"smaller than the object index (floor {MEMORY_FLOOR}x)"
        )

    bench_counters.update(
        {
            "evaluations": sum(row["evaluations"] for row in rows),
            "meets": sum(row["meets"] for row in rows),
            "slab_slots": sum(row["slab_slots"] for row in rows),
            "slab_bytes": sum(row["slab_bytes"] for row in rows),
            "min_speedup": round(min(row["speedup"] for row in rows), 3),
            "min_memory_ratio": round(
                min(row["memory_ratio"] for row in rows), 3
            ),
        }
    )
