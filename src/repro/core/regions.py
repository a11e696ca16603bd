"""The wave schedule of the parallel region solver.

The call graph holds its condensation and the region schedule stage 3
runs (:class:`~repro.callgraph.graph.RegionSchedule`, built once by
:func:`~repro.callgraph.graph.build_call_graph`). What is left here is
the schedule only the parallel solver reads: the condensation's
dependency levels, whose regions can converge side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.callgraph.graph import CallGraph


@dataclass(frozen=True, slots=True)
class WaveSchedule:
    """The condensation's dependency levels, for parallel solving.

    ``level[i]`` is region ``i``'s longest caller-chain distance from a
    root of the condensation DAG: roots (regions no other region calls
    into) are level 0, and every cross-region call edge goes from a
    strictly lower level to a strictly higher one. All regions of one
    level — a *wave* — therefore have no call path between them: once
    every region of levels ``< L`` has converged, the activated regions
    of level ``L`` have final entry environments and can be converged
    independently, in any order, on any worker.
    """

    levels: tuple[int, ...]
    #: level -> region indices at that level, ascending (deterministic).
    waves: tuple[tuple[int, ...], ...]

    def level_of(self, region_index: int) -> int:
        return self.levels[region_index]


def build_wave_schedule(graph: CallGraph) -> WaveSchedule:
    """Longest-path levels of ``graph``'s condensation DAG.

    Computed by Kahn traversal over the region DAG rather than a dynamic
    program in region-index order: indices of *unreachable* components
    are ordered by name, not topologically (see
    :class:`~repro.callgraph.graph.RegionSchedule`), so an index-order
    DP could read a successor's level before it is final. The Kahn order
    is correct for any DAG.
    """
    schedule = graph.schedule
    region_of = schedule.region_of
    count = len(schedule.regions)
    successors: list[set[int]] = [set() for _ in range(count)]
    indegree = [0] * count
    for caller in graph.nodes:
        home = region_of[caller]
        for callee in graph.callees(caller):
            target = region_of[callee]
            if target != home and target not in successors[home]:
                successors[home].add(target)
                indegree[target] += 1
    levels = [0] * count
    ready = [index for index in range(count) if indegree[index] == 0]
    processed = 0
    while ready:
        next_ready: list[int] = []
        for index in ready:
            processed += 1
            level = levels[index] + 1
            for target in successors[index]:
                if levels[target] < level:
                    levels[target] = level
                indegree[target] -= 1
                if indegree[target] == 0:
                    next_ready.append(target)
        ready = next_ready
    # The condensation of any digraph is acyclic; every region drains.
    assert processed == count, "condensation DAG had a cycle"
    waves: dict[int, list[int]] = {}
    for index in range(count):
        waves.setdefault(levels[index], []).append(index)
    return WaveSchedule(
        tuple(levels),
        tuple(
            tuple(waves[level]) for level in range(max(levels) + 1)
        )
        if count
        else (),
    )


def wave_schedule(graph: CallGraph) -> WaveSchedule:
    """The graph's wave schedule, computed once per graph instance from
    its region schedule."""
    cached = getattr(graph, "_wave_schedule", None)
    if cached is None:
        cached = build_wave_schedule(graph)
        graph._wave_schedule = cached  # type: ignore[attr-defined]
    return cached
