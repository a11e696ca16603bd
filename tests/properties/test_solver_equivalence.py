"""The stage-3 solvers are different schedules of the same monotone
fixpoint: on every program they must produce identical VAL sets, by
value and by lattice-element class.

Dense re-evaluation (the reference oracle, plain and with the lattice
sanitizer attached) and the region-scheduled sparse engine
:func:`~repro.core.solver.solve` runs all meet the same monotone
jump-function evaluations into the same lattice from ⊤, so
chaotic-iteration theory promises one greatest fixpoint. These checks
hold the implementations to it over the workload suite and randomly
generated workloads (random jump-function kinds, MOD on and off).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import build_stage0
from repro.core.returns import build_return_jump_functions
from repro.core.solver import solve, solve_dense
from repro.diagnostics.sanitizer import LatticeSanitizer
from repro.frontend import parse_program
from repro.workloads import load_suite
from repro.workloads.generator import generate
from repro.workloads.profiles import WorkloadProfile

SETTINGS = settings(
    # tier-1 draws 15 examples; the CI soak loads the soak profile of
    # tests/properties/conftest.py
    max_examples=(
        settings.default.max_examples
        if settings.get_current_profile_name() == "soak"
        else 15
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Small but structurally diverse profiles: every jump-function shape the
# generator knows (literal, intraprocedural, pass-through chains, global
# mutation, read kills, conflicting sites) in a few procedures.
profile_strategy = st.builds(
    WorkloadProfile,
    name=st.just("eqwl"),
    seed=st.integers(1, 10_000),
    phases=st.integers(1, 3),
    pad_statements=st.integers(0, 3),
    literal_args=st.integers(0, 5),
    intra_args=st.integers(0, 3),
    passthrough_chains=st.integers(0, 3),
    chain_depth=st.integers(2, 4),
    global_constants=st.integers(0, 3),
    init_routine_globals=st.integers(0, 2),
    mod_sensitive=st.integers(0, 3),
    dead_branch_constants=st.integers(0, 2),
    local_constants=st.integers(0, 3),
    read_kills=st.integers(0, 2),
    conflicting_sites=st.integers(0, 2),
    skewed=st.booleans(),
    function_results=st.integers(0, 2),
    set_use=st.integers(0, 3),
    set_use_calls=st.integers(0, 3),
    leaf_call_fraction=st.floats(0.0, 1.0),
    extra_global_leaves=st.integers(0, 3),
    shallow_globals=st.booleans(),
)

kind_strategy = st.sampled_from(list(JumpFunctionKind))

SUITE = load_suite(scale=0.25)


def pipeline(source, config=None):
    config = config or AnalysisConfig()
    stage0 = build_stage0(parse_program(source))
    lowered, graph, cache = stage0.lowered, stage0.graph, stage0.ssa_cache
    returns = build_return_jump_functions(lowered, graph, config, cache)
    forward = build_forward_jump_functions(lowered, returns, config, cache)
    return lowered, graph, forward


def tagged(val):
    """VAL with every value tagged by its class: ``1`` and ``True`` are
    ``==`` but different lattice elements."""
    return {
        proc: {key: (value.__class__, value) for key, value in env.items()}
        for proc, env in val.items()
    }


def solve_three_ways(source, config):
    lowered, graph, forward = pipeline(source, config)
    return (
        solve_dense(lowered, graph, forward),
        solve(lowered, graph, forward),
        solve_dense(lowered, graph, forward, sanitizer=LatticeSanitizer()),
    )


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_matches_dense(name):
    lowered, graph, forward = pipeline(SUITE[name].source)
    sparse = solve(lowered, graph, forward)
    dense = solve_dense(lowered, graph, forward)
    assert sparse.reached == dense.reached
    assert tagged(sparse.val) == tagged(dense.val)


def test_sanitized_schedule_agrees():
    """The sanitizer observes the dense reference solve; the region
    schedule reaches the same fixpoint, and the sanitizer sees a clean
    run."""
    lowered, graph, forward = pipeline(SUITE["fpppp"].source)
    region = solve(lowered, graph, forward)
    sanitizer = LatticeSanitizer()
    sanitized = solve_dense(lowered, graph, forward, sanitizer=sanitizer)
    assert tagged(region.val) == tagged(sanitized.val)
    assert region.reached == sanitized.reached
    assert region.regions > 0
    assert sanitized.regions == 0
    assert sanitizer.transfers_observed > 0
    assert sanitizer.violations == []


@given(profile=profile_strategy, kind=kind_strategy, use_mod=st.booleans())
@SETTINGS
def test_solvers_agree_on_generated_workloads(profile, kind, use_mod):
    workload = generate(profile)
    config = AnalysisConfig(jump_function=kind, use_mod=use_mod)
    dense, sparse, sanitized = solve_three_ways(workload.source, config)

    assert dense.reached == sparse.reached == sanitized.reached
    assert tagged(dense.val) == tagged(sparse.val) == tagged(sanitized.val)
    assert (
        dense.all_constants()
        == sparse.all_constants()
        == sanitized.all_constants()
    )


@given(profile=profile_strategy)
@SETTINGS
def test_sparse_never_evaluates_more_than_dense(profile):
    workload = generate(profile)
    dense, sparse, _ = solve_three_ways(workload.source, AnalysisConfig())
    assert sparse.evaluations <= dense.evaluations
    # the sparse engine never transfers a binding dense would not
    # (it additionally skips meets into bindings already at ⊥)
    assert sparse.meets <= dense.meets
