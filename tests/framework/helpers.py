"""Shared pipeline helpers for the framework test package."""

from hypothesis import strategies as st

from repro.analysis.ssa import ensure_global_symbols
from repro.callgraph import build_call_graph, compute_modref
from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig
from repro.core.returns import build_return_jump_functions
from repro.frontend import parse_program
from repro.ir import lower_program
from repro.workloads.profiles import WorkloadProfile

#: Small generated programs covering every jump-function shape the
#: generator knows, for hypothesis properties over the clients.
profile_strategy = st.builds(
    WorkloadProfile,
    name=st.just("fweq"),
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


def prepare(source, config=None):
    """Run the stage-0..2 pipeline, returning everything a client needs:
    ``(lowered, graph, modref, forward)``."""
    config = config or AnalysisConfig()
    program = parse_program(source)
    lowered = lower_program(program)
    ensure_global_symbols(lowered)
    graph = build_call_graph(lowered)
    modref = compute_modref(lowered, graph)
    returns = build_return_jump_functions(lowered, graph, modref, config)
    forward = build_forward_jump_functions(lowered, modref, returns, config)
    return lowered, graph, modref, forward


def tagged(val):
    """VAL with every value tagged by its class: ``1`` and ``True`` meet
    to the same ``==`` but are different lattice elements, so byte-level
    identity means class-level identity too."""
    return {
        proc: {key: (value.__class__, value) for key, value in env.items()}
        for proc, env in val.items()
    }
