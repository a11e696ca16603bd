"""The condensation law: the call structure the call graph derives once
is a condensation of the graph's own call edges.

:func:`~repro.callgraph.graph.build_call_graph` runs Tarjan once and
reads two orders off the one condensation: callees first, for stage 1
and MOD/REF, and by least reverse-postorder index, the region schedule
the solvers run. Every layer reads those fields instead of recomputing
them, so these properties check them against the edges, on generated
programs with recursion rings (a one-member ring calls itself) plus
appended units nothing calls, which call each other, themselves and the
generated subroutines:

- every call edge's callee component comes no later than its caller's
  in the callees-first order, unreachable components included;
- every cross-region call from a reached procedure goes to a later
  region;
- a region is recursive if and only if it has two or more members or a
  self-call;
- the reverse-postorder index covers every procedure;
- the reached set is what a depth-first search from the main program
  reaches.

Components are also checked to be exactly the sets of mutually reachable
procedures, and the two orders to hold the same regions.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.callgraph import build_call_graph
from repro.frontend import parse_program
from repro.frontend.astnodes import Type
from repro.ir import lower_program
from repro.workloads.generator import generate

from .test_region_law import recursive_profiles

CONDENSATION_SETTINGS = settings(
    # tier-1 draws 40 examples; the CI soak loads conftest.py's profile
    max_examples=(
        settings.default.max_examples
        if settings.get_current_profile_name() == "soak"
        else 40
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _call(callee: str, arity: int) -> str:
    if not arity:
        return f"  call {callee}"
    return f"  call {callee}({', '.join(['1'] * arity)})"


@st.composite
def programs(draw):
    """A generated program plus 0-4 uncalled units, each calling up to
    three of: the uncalled units (itself included) and the generated
    subroutines whose formals are all scalar INTEGERs."""
    source = generate(draw(recursive_profiles)).source
    program = parse_program(source)
    arity = {
        name: len(proc.formals)
        for name, proc in program.procedures.items()
        if not proc.is_main
        and not proc.is_function
        and all(
            not formal.is_array and formal.type is Type.INTEGER
            for formal in proc.formals
        )
    }
    orphans = [
        f"uncalled{i}" for i in range(draw(st.integers(0, 4)))
    ]
    assert not set(orphans) & set(program.procedures)
    arity.update(dict.fromkeys(orphans, 0))
    targets = sorted(arity)
    units = []
    for name in orphans:
        callees = draw(st.lists(st.sampled_from(targets), max_size=3))
        units.append(
            "\n".join(
                [f"subroutine {name}"]
                + [_call(callee, arity[callee]) for callee in callees]
                + ["end"]
            )
        )
    return source + "".join(f"\n{unit}\n" for unit in units)


def reachable(graph, start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        for callee, _ in graph.out_edges[stack.pop()]:
            if callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return seen


@given(source=programs())
@CONDENSATION_SETTINGS
def test_stored_call_structure_is_a_condensation(source):
    graph = build_call_graph(lower_program(parse_program(source)))
    schedule = graph.schedule
    edges = [
        (caller, callee)
        for caller in graph.nodes
        for callee, _ in graph.out_edges[caller]
    ]

    # one condensation, two orders over the same regions
    assert sorted(
        name for region in graph.components for name in region.members
    ) == sorted(graph.nodes)
    assert {id(region) for region in graph.components} == {
        id(region) for region in schedule.regions
    }
    for index, region in enumerate(schedule.regions):
        assert region.index == index
        assert all(schedule.region_of[name] == index for name in region.members)

    # components are exactly the sets of mutually reachable procedures
    reach = {name: reachable(graph, name) for name in graph.nodes}
    for region in graph.components:
        for member in region.members:
            assert {
                other for other in reach[member] if member in reach[other]
            } == set(region.members)

    # callees first, unreachable components included
    position = {
        name: i
        for i, region in enumerate(graph.components)
        for name in region.members
    }
    for caller, callee in edges:
        assert position[callee] <= position[caller], (caller, callee)

    # callers first among the regions the main program reaches
    region_of = schedule.region_of
    for caller, callee in edges:
        if caller in graph.reached and region_of[callee] != region_of[caller]:
            assert region_of[callee] > region_of[caller], (caller, callee)

    # recursive: two or more members, or a self-call
    for region in schedule.regions:
        members = region.members
        assert region.recursive == (
            len(members) > 1 or (members[0], members[0]) in edges
        )
        assert all(graph.is_recursive(name) == region.recursive for name in members)

    # the reverse-postorder index covers every procedure
    assert sorted(graph.rpo) == sorted(graph.nodes)
    assert dict(graph.rpo_index) == {name: i for i, name in enumerate(graph.rpo)}
    assert graph.rpo[0] == graph.main

    # the reached set is a DFS from main
    assert graph.reached == reachable(graph, graph.main)
    assert set(graph.rpo[: len(graph.reached)]) == graph.reached
