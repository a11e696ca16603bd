"""The generic fixed-point driver — the scheduling core of stage 3.

:func:`drive_region_schedule` is the SCC-condensed callers-first
schedule :func:`repro.framework.engine.solve_client` runs. It is
analysis-agnostic: the ``engine`` is duck-typed to the four-method
surface :class:`repro.framework.engine.ClientEngine` exposes —

``seed(proc) -> dict[callee, dict[key, None]]``
    first visit: evaluate every (intra-region) edge once, kill unbound
    keys, return the lowered callee bindings grouped by callee;
``apply_deltas(proc, keys) -> dict[callee, dict[key, None]]``
    re-evaluate only the edges whose support read a lowered key;
``callees(proc) -> tuple[str, ...]``
    flow successors, for reachability;
``flush_region(proc, only=None)``
    evaluate the cross-region edges exactly once.

``result`` is likewise duck-typed: the driver reads/writes ``reached``,
``passes``, ``pops``, ``regions``, ``region_passes``, and (warm starts)
``regions_warm``/``val`` — the attribute surface of
:class:`repro.framework.engine.SolveResult`.

Values flow along call edges and the region order is callers-first
(:mod:`repro.core.regions`), so every cross-region edge points from the
region being converged to a later one. A flush therefore only ever
lowers keys of procedures no region pass has visited yet: their seed
reads the flushed values, and each region is converged exactly once.
``tests/properties/test_region_law.py`` holds the driver to that on
generated programs, recursion included, cold and warm.
"""

from __future__ import annotations

import heapq
from collections import defaultdict


def drive_region_schedule(
    engine,
    schedule,
    worklist,
    result,
    *,
    root: str,
    budget=None,
    warm=None,
) -> None:
    """Converge each SCC region reached from ``root`` to its local fixed
    point exactly once, callers-first; evaluate every cross-region edge
    exactly once with its caller's final environment. Mutates ``result``
    in place (VAL through the engine, counters directly)."""
    region_of = schedule.region_of
    #: procedure -> entry keys that lowered since its last visit
    #: (insertion-ordered so counter totals are run-to-run deterministic).
    pending: dict[str, dict] = defaultdict(dict)
    #: members of recursive regions seeded so far (a singleton region
    #: is seeded once, on its one visit)
    seeded: set[str] = set()
    #: region index -> members reached but not yet processed there; a
    #: region is queued in ``dirty`` from its first activation until it
    #: is popped.
    active: dict[int, set[str]] = {}
    dirty: list[int] = []

    def activate(proc: str) -> None:
        index = region_of[proc]
        members = active.get(index)
        if members is None:
            members = active[index] = set()
            heapq.heappush(dirty, index)
        members.add(proc)

    if warm is not None:
        clean_regions = {region_of[proc] for proc in warm.clean}
        result.regions_warm = len(clean_regions)
        for proc in warm.clean:
            env = warm.envs.get(proc)
            if env:
                result.val[proc].update(env)
        result.reached.update(warm.reached)
        # The warm frontier: each reached clean caller evaluates its
        # edges into invalidated regions exactly once, from its adopted
        # (final) environment. Edges between clean procedures stay
        # unevaluated — both endpoints' stored solutions already agree.
        for proc in sorted(warm.reached, key=worklist.priority_of):
            invalid = {
                callee
                for callee in engine.callees(proc)
                if callee not in warm.clean
            }
            if not invalid:
                continue
            for callee in sorted(invalid):
                activate(callee)
            engine.flush_region(proc, only=invalid)
    if warm is None or root not in warm.clean:
        activate(root)

    max_local = 0
    while dirty:
        index = heapq.heappop(dirty)
        members = active.pop(index)
        result.regions += 1
        # Fast path: a non-recursive singleton region (every region of a
        # DAG-shaped call graph) converges in exactly one visit — reach
        # callees, flush. Bypassing the worklist machinery here is what
        # keeps region scheduling from costing wall-clock on programs
        # with no recursion at all. There is nothing to seed: an edge or
        # kill internal to the region would be a self-call, and a region
        # with one is recursive.
        region = schedule.regions[index]
        if not region.recursive and len(members) == 1:
            (proc,) = members
            if budget is not None:
                budget.check_passes(1)
            worklist.pops += 1
            result.reached.add(proc)
            for callee in engine.callees(proc):
                activate(callee)
            result.region_passes += 1
            if max_local < 1:
                max_local = 1
            engine.flush_region(proc)
            continue
        mark = worklist.begin_segment()
        for proc in sorted(members):
            worklist.push(proc, proc)
        processed: dict[str, None] = {}
        while worklist:
            caller = worklist.pop()
            if budget is not None:
                budget.check_passes(worklist.passes - mark)
            result.reached.add(caller)
            processed[caller] = None
            if caller not in seeded:
                seeded.add(caller)
                pending.pop(caller, None)  # the seed evaluates everything
                changed = engine.seed(caller)
            else:
                deltas = pending.pop(caller, None)
                changed = engine.apply_deltas(caller, deltas) if deltas else {}
            for callee, keys in changed.items():
                # intra-region by construction of the partition
                pending[callee].update(keys)
                worklist.push(callee, callee)
            for callee in engine.callees(caller):
                if region_of[callee] == index:
                    if callee not in seeded:
                        worklist.push(callee, callee)  # reach without deltas
                else:
                    activate(callee)  # cross-region reach
        local = worklist.passes - mark
        result.region_passes += local
        if local > max_local:
            max_local = local
        # The region is at its local fixed point: evaluate every
        # cross-region edge of its reached members exactly once.
        for caller in processed:
            engine.flush_region(caller)
    result.passes = max_local
    result.pops = worklist.pops
