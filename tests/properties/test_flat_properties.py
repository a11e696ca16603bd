"""The flat slab engine is another schedule of the same monotone
fixpoint: on every generated program, every jump-function kind, it must
produce VAL sets byte-identical to the object engine's — including the
lattice *class* of each value (``True == 1`` under ``==``, so a plain
dict compare would miss a LOGICAL/INTEGER confusion in the pool).

The parallel comparison also exercises the SlabSegment transport: the
wave solver ships worker environments back as encoded segments, so
value identity across ``solve_parallel`` and ``solve_flat`` covers
encode/decode round-trips over real solver output.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.exprs import clear_intern_table
from repro.core.driver import Analyzer, analyze, build_stage0
from repro.core.parallel import solve_parallel
from repro.core.returns import build_return_jump_functions
from repro.core.slab import slab_for
from repro.core.solver import solve
from repro.frontend import parse_program
from repro.workloads.generator import generate
from repro.workloads.profiles import WorkloadProfile

from .test_incremental_properties import edit_one_procedure

SETTINGS = settings(max_examples=12, deadline=None)

profile_strategy = st.builds(
    WorkloadProfile,
    name=st.just("flatwl"),
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
    scc_ring=st.integers(0, 6),
    scc_depth=st.integers(2, 4),
)

kind_strategy = st.sampled_from(list(JumpFunctionKind))


def build(source, config):
    stage0 = build_stage0(parse_program(source))
    lowered, graph, cache = stage0.lowered, stage0.graph, stage0.ssa_cache
    returns = build_return_jump_functions(lowered, graph, config, cache)
    forward = build_forward_jump_functions(lowered, returns, config, cache)
    return lowered, graph, forward


def canonical(val):
    """Class-aware VAL image: catches a bool decoded as int (or vice
    versa) that ``==`` would wave through."""
    return {
        proc: {key: (type(v), v) for key, v in env.items()}
        for proc, env in val.items()
    }


@given(profile=profile_strategy, kind=kind_strategy)
@SETTINGS
def test_flat_matches_object_engine(profile, kind):
    workload = generate(profile)
    config = AnalysisConfig(jump_function=kind)
    lowered, graph, forward = build(workload.source, config)
    obj = solve(lowered, graph, forward)
    flat = solve(lowered, graph, forward, flat=True)
    assert flat.reached == obj.reached
    assert canonical(flat.val) == canonical(obj.val)
    assert flat.all_constants() == obj.all_constants()


@given(profile=profile_strategy, kind=kind_strategy)
@SETTINGS
def test_flat_matches_parallel_segments(profile, kind):
    workload = generate(profile)
    config = AnalysisConfig(jump_function=kind)
    lowered, graph, forward = build(workload.source, config)
    par = solve_parallel(lowered, graph, forward, workers=1)
    flat = solve(lowered, graph, forward, flat=True)
    assert canonical(flat.val) == canonical(par.val)


@given(profile=profile_strategy)
@SETTINGS
def test_flat_survives_intern_table_clear(profile):
    # slab kernels close over slot ids and pool entries, never interned
    # expression nodes — clearing the table between build and solve
    # (the incremental-session hazard) must not change any VAL
    workload = generate(profile)
    config = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
    lowered, graph, forward = build(workload.source, config)
    expected = canonical(solve(lowered, graph, forward).val)
    slab_for(forward, lowered, graph)
    clear_intern_table()
    try:
        flat = solve(lowered, graph, forward, flat=True)
    finally:
        clear_intern_table()
    assert canonical(flat.val) == expected


@given(profile=profile_strategy, kind=kind_strategy)
@SETTINGS
def test_flat_parallel_replay_matches_flat(profile, kind):
    # the parallel wave solver under --flat replays the slab's baked
    # firing-stream blocks per region instead of running the object
    # engine: same greatest fixpoint, byte-identical VALs
    workload = generate(profile)
    config = AnalysisConfig(jump_function=kind, flat_engine=True)
    lowered, graph, forward = build(workload.source, config)
    par = solve_parallel(lowered, graph, forward, workers=1, config=config)
    flat = solve(lowered, graph, forward, flat=True)
    assert par.reached == flat.reached
    assert canonical(par.val) == canonical(flat.val)


@given(profile=profile_strategy, data=st.data())
@SETTINGS
def test_patched_slab_matches_rebuild(profile, data):
    # patch-then-solve == rebuild-then-solve: a single-procedure edit
    # spliced into the retained slab must be indistinguishable from a
    # from-scratch flat analyze of the edited source
    workload = generate(profile)
    config = AnalysisConfig(
        jump_function=JumpFunctionKind.POLYNOMIAL, flat_engine=True
    )
    edited = edit_one_procedure(workload.source, data)
    analyzer = Analyzer(workload.source)
    analyzer.run(config)
    patched = analyzer.reanalyze(edited, config)
    scratch = analyze(edited, config)
    assert canonical(patched.solved.val) == canonical(scratch.solved.val)
    assert patched.solved.reached == scratch.solved.reached
    assert patched.all_constants() == scratch.all_constants()
