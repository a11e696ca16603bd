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
``flush_region(proc, only=None) -> dict[callee, dict[key, None]]``
    evaluate the cross-region edges exactly once.

``result`` is likewise duck-typed: the driver reads/writes ``reached``,
``passes``, ``pops``, ``regions``, ``region_passes``, and (warm starts)
``regions_warm``/``val`` — the attribute surface of
:class:`repro.framework.engine.SolveResult`.

Both shipped clients flow along call edges, so the callers-first
condensation order is topological for them and every region converges
once. The driver does not rely on that: a delta delivered to an
already-converged region re-queues it (the ``inbox``/``activate``
machinery below), so a late delivery costs region passes, never
soundness.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Iterable


def drive_region_schedule(
    engine,
    schedule,
    worklist,
    result,
    *,
    roots: Iterable[str],
    budget=None,
    warm=None,
) -> None:
    """Converge each SCC region to its local fixed point exactly once,
    callers-first; evaluate every cross-region edge exactly once with
    its caller's final environment. Mutates ``result`` in place (VAL
    through the engine, counters directly)."""
    region_of = schedule.region_of
    #: procedure -> entry keys that lowered since its last visit
    #: (insertion-ordered so counter totals are run-to-run deterministic).
    pending: dict[str, dict] = defaultdict(dict)
    seeded: set[str] = set()
    #: region index -> members reached but not yet processed there.
    active: dict[int, set[str]] = {}
    #: region index -> deltas delivered after the region converged
    #: (defensive: cannot happen on a topologically ordered schedule).
    inbox: dict[int, dict[str, dict]] = {}
    dirty: list[int] = []
    queued: set[int] = set()

    def activate(proc: str) -> None:
        index = region_of[proc]
        active.setdefault(index, set()).add(proc)
        if index not in queued:
            queued.add(index)
            heapq.heappush(dirty, index)

    def deliver(proc: str, keys: dict) -> None:
        # A cross-region flush lowered `proc`'s entry keys. If proc has
        # not been seeded yet its future seed reads the updated — final —
        # environment, so no delta bookkeeping is needed; if it has (a
        # re-queued earlier region), the keys must re-propagate there.
        if proc in seeded:
            slot = inbox.setdefault(region_of[proc], {}).setdefault(proc, {})
            slot.update(keys)
        activate(proc)

    if warm is not None:
        clean_regions = {region_of[proc] for proc in warm.clean}
        result.regions_warm = len(clean_regions)
        for proc in warm.clean:
            env = warm.envs.get(proc)
            if env:
                result.val[proc].update(env)
            seeded.add(proc)  # adopted: never seed a clean procedure
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
            for callee, keys in engine.flush_region(proc, only=invalid).items():
                deliver(callee, keys)
    for root in roots:
        if warm is None or root not in warm.clean:
            activate(root)

    max_local = 0
    while dirty:
        index = heapq.heappop(dirty)
        queued.discard(index)
        members = active.pop(index, set())
        box = inbox.pop(index, {})
        if not members and not box:
            continue
        result.regions += 1
        # Fast path: a non-recursive singleton region (every region of a
        # DAG-shaped call graph) converges in exactly one visit — seed or
        # apply deltas, reach callees, flush. Bypassing the worklist
        # machinery here is what keeps region scheduling from costing
        # wall-clock on programs with no recursion at all.
        region = schedule.regions[index]
        if not box and not region.recursive and len(members) == 1:
            (proc,) = members
            if budget is not None:
                budget.check_passes(1)
            worklist.pops += 1
            result.reached.add(proc)
            if proc not in seeded:
                seeded.add(proc)
                pending.pop(proc, None)  # the seed evaluates everything
                engine.seed(proc)  # a singleton has no internal edges
            else:
                deltas = pending.pop(proc, None)
                if deltas:
                    engine.apply_deltas(proc, deltas)
            for callee in engine.callees(proc):
                activate(callee)
            result.region_passes += 1
            if max_local < 1:
                max_local = 1
            for callee, keys in engine.flush_region(proc).items():
                deliver(callee, keys)
            continue
        mark = worklist.begin_segment()
        for proc in sorted(members):
            worklist.push(proc, proc)
        for proc, keys in box.items():
            pending[proc].update(keys)
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
            for callee, keys in engine.flush_region(caller).items():
                deliver(callee, keys)
    result.passes = max_local
    result.pops = worklist.pops

