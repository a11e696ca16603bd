"""The region law: every region a solve reaches converges exactly once.

The region schedule orders the call graph's SCCs callers-first and
values flow only along call edges, so a converged region's flush only
ever lowers keys of regions no pass has visited yet. The driver relies
on that and has no path that re-queues a converged region. These
properties hold it to the law on generated programs, recursion rings
(a self-recursive procedure among them) included:

- a cold solve's ``regions`` is the number of distinct regions among
  the procedures it reached;
- after a single-literal edit, a warm re-analysis converges only the
  regions of the reached invalidated procedures, each once.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import Analyzer, analyze
from repro.workloads.generator import generate

from .test_incremental_properties import edit_one_procedure
from .test_solver_equivalence import profile_strategy

REGION_SETTINGS = settings(
    # tier-1 draws 25 examples; the CI soak loads conftest.py's profile
    max_examples=(
        settings.default.max_examples
        if settings.get_current_profile_name() == "soak"
        else 25
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: the solver-equivalence profiles plus a guarded recursion ring of 0–4
#: members (a 1-member ring calls itself)
recursive_profiles = st.builds(
    lambda profile, ring, depth: dataclasses.replace(
        profile, scc_ring=ring, scc_depth=depth
    ),
    profile_strategy,
    st.integers(0, 4),
    st.integers(1, 3),
)


def regions_of(graph, procs, reached):
    region_of = graph.schedule.region_of
    return {region_of[proc] for proc in procs if proc in reached}


@given(profile=recursive_profiles, kind=st.sampled_from(list(JumpFunctionKind)))
@REGION_SETTINGS
def test_cold_solve_converges_each_reached_region_once(profile, kind):
    result = analyze(
        generate(profile).source,
        AnalysisConfig(jump_function=kind),
        cache=None,
    )
    solved = result.solved
    assert solved.regions == len(
        regions_of(result.call_graph, solved.reached, solved.reached)
    )


@given(profile=recursive_profiles, data=st.data())
@REGION_SETTINGS
def test_warm_reanalysis_converges_each_invalid_region_once(profile, data):
    source = generate(profile).source
    edited = edit_one_procedure(source, data)
    analyzer = Analyzer(source)
    analyzer.run()
    warm = analyzer.reanalyze(edited)
    report = warm.incremental
    assert report.mode == "warm"
    solved = warm.solved
    assert solved.regions == len(
        regions_of(warm.call_graph, report.invalid, solved.reached)
    )
