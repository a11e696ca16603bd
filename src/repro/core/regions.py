"""SCC region scheduling for the stage-3 solvers.

The call graph's condensation is a DAG whose nodes — *regions* — are the
strongly connected components Tarjan finds. Interprocedural values only
flow along call edges, so once every region that can call into region R
has reached its local fixed point, R's entry environments are final: R
itself can then be converged *exactly once*, and its cross-region call
sites evaluated exactly once with final environments. The region
schedule is the topological order of the condensation that makes this
block-triangular solve legal (callers before callees — the direction
constants flow in stage 3, the mirror image of the bottom-up stage-1
walk over the same components).

Regions are ordered by the minimum reverse-postorder index of their
members. For components reachable from the main program this is a valid
topological order of the condensation: the minimum-rpo member of an SCC
is the first one the rpo DFS discovers, all other members finish inside
its subtree, and a condensation edge A->B forces B's root to finish
before A's. Components unreachable from the main program sort after the
reachable ones (rpo appends them in name order); their relative order is
name-based, not topological — harmless, because the solvers never seed
an unreached procedure, so no value ever crosses between them. The
solver loop relies on this order: a region's flush only ever reaches
later regions, so each region is converged once
(``tests/properties/test_region_law.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.callgraph.graph import CallGraph


@dataclass(frozen=True, slots=True)
class Region:
    """One strongly connected component of the call graph."""

    index: int
    members: tuple[str, ...]
    #: True when the region can iterate: more than one member, or a
    #: single member that calls itself.
    recursive: bool


@dataclass(frozen=True, slots=True)
class RegionSchedule:
    """The condensation in caller-first topological order."""

    regions: tuple[Region, ...]
    #: procedure name -> index into :attr:`regions`.
    region_of: dict[str, int]

    def region(self, proc: str) -> Region:
        return self.regions[self.region_of[proc]]

    def order(self) -> list[tuple[str, ...]]:
        """The member tuples in schedule order (for tests/reports)."""
        return [region.members for region in self.regions]

    def procedures(self) -> tuple[str, ...]:
        """Every procedure, flattened in schedule order (callers first,
        SCC members adjacent). The slab builder lays out slot ids in this
        order so one region's slots are contiguous in the flat arrays."""
        return tuple(
            name for region in self.regions for name in region.members
        )


def build_region_schedule(graph: CallGraph) -> RegionSchedule:
    """Condense ``graph`` and order the components callers-first."""
    rpo = graph.rpo_index()
    components = sorted(
        graph.sccs(), key=lambda scc: min(rpo[name] for name in scc)
    )
    regions = []
    region_of: dict[str, int] = {}
    for index, members in enumerate(components):
        recursive = len(members) > 1 or any(
            callee == members[0] for callee in graph.callees(members[0])
        )
        regions.append(Region(index, tuple(members), recursive))
        for name in members:
            region_of[name] = index
    return RegionSchedule(tuple(regions), region_of)


def region_schedule(graph: CallGraph) -> RegionSchedule:
    """The graph's region schedule, computed once per graph instance.

    Stage 0 is shared across a whole configuration sweep, so every solve
    of every config reuses one condensation.
    """
    cached = getattr(graph, "_region_schedule", None)
    if cached is None:
        cached = build_region_schedule(graph)
        graph._region_schedule = cached  # type: ignore[attr-defined]
    return cached


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


def build_wave_schedule(schedule: RegionSchedule, graph: CallGraph) -> WaveSchedule:
    """Longest-path levels of the condensation DAG.

    Computed by Kahn traversal over the region DAG rather than a dynamic
    program in region-index order: indices of *unreachable* components
    are ordered by name, not topologically (see the module docstring),
    so an index-order DP could read a successor's level before it is
    final. The Kahn order is correct for any DAG.
    """
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
    """The graph's wave schedule, computed once per graph instance (like
    :func:`region_schedule`, which it derives from)."""
    cached = getattr(graph, "_wave_schedule", None)
    if cached is None:
        cached = build_wave_schedule(region_schedule(graph), graph)
        graph._wave_schedule = cached  # type: ignore[attr-defined]
    return cached
