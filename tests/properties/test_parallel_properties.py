"""The wave-parallel solver is another schedule of the same monotone
fixpoint: its VAL sets must be byte-identical to the sequential region
schedule's on every program — generated, hand-built, and the full
workload suite — and any pool failure must degrade (RL540), never crash.

Inline execution (``workers=1``, or any wave with a single activated
region) runs the *same* task function the pool runs, so the cheap inline
comparisons here cover the task logic itself; the ``slow``-marked tests
add real process pools on top (startup cost, pickling, worker rebuild,
worker death).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import analyze
from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import build_stage0
from repro.core.parallel import solve_parallel
from repro.core.returns import build_return_jump_functions
from repro.core.solver import solve
from repro.frontend import parse_program
from repro.resilience import chaos
from repro.resilience.chaos import ChaosSpec, Fault
from repro.resilience.errors import Stage
from repro.workloads import load, suite_names
from repro.workloads.generator import generate
from repro.workloads.profiles import WorkloadProfile

SETTINGS = settings(max_examples=12, deadline=None)

profile_strategy = st.builds(
    WorkloadProfile,
    name=st.just("parwl"),
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


def build(source, config=None):
    config = config or AnalysisConfig()
    stage0 = build_stage0(parse_program(source))
    lowered, graph, cache = stage0.lowered, stage0.graph, stage0.ssa_cache
    returns = build_return_jump_functions(lowered, graph, config, cache)
    forward = build_forward_jump_functions(lowered, returns, config, cache)
    return lowered, graph, forward


def assert_equivalent(source, config=None):
    lowered, graph, forward = build(source, config)
    seq = solve(lowered, graph, forward)
    par = solve_parallel(lowered, graph, forward, workers=1)
    assert par.val == seq.val
    assert par.reached == seq.reached
    assert par.all_constants() == seq.all_constants()
    # schedule-shape counters agree too: both converge the same regions
    # with the same local sweep counts
    assert par.passes == seq.passes
    assert par.pops == seq.pops
    assert par.regions == seq.regions
    assert par.region_passes == seq.region_passes
    assert par.waves >= 1
    return par, seq


@given(profile=profile_strategy)
@SETTINGS
def test_parallel_matches_sequential_on_generated_workloads(profile):
    workload = generate(profile)
    assert_equivalent(workload.source)


@given(profile=profile_strategy, kind=st.sampled_from(list(JumpFunctionKind)))
@SETTINGS
def test_parallel_matches_sequential_across_jump_functions(profile, kind):
    workload = generate(profile)
    assert_equivalent(
        workload.source, AnalysisConfig(jump_function=kind)
    )


class TestCorpusShapes:
    """The call-graph shapes that stress the wave scheduler."""

    def test_giant_scc_converges_identically(self):
        # one wide recursive ring: a single multi-member region whose
        # local worklist convergence must match the sequential one
        width = 6
        lines = ["program m", "  call r0(10)", "end"]
        for i in range(width):
            succ = (i + 1) % width
            lines.extend(
                [
                    f"subroutine r{i}(n)",
                    "  integer n",
                    f"  if (n > 0) call r{succ}(n - 1)",
                    "end",
                ]
            )
        par, seq = assert_equivalent("\n".join(lines) + "\n")
        assert par.regions == 2  # main + the ring

    def test_mutual_recursion_three_wide(self):
        source = """
program m
  call a(9)
end
subroutine a(n)
  integer n
  if (n > 0) call b(n - 1)
end
subroutine b(n)
  integer n
  if (n > 0) call c(n - 1)
end
subroutine c(n)
  integer n
  if (n > 0) call a(n - 1)
end
"""
        assert_equivalent(source)

    def test_unreachable_components_stay_top(self):
        # orphan components are never activated: no wave runs them, and
        # their entries stay ⊤ exactly as in the sequential schedule
        source = """
program m
  call s(1)
end
subroutine s(a)
  integer a
  write a
end
subroutine orphan1(c)
  integer c
  call orphan2(c)
end
subroutine orphan2(d)
  integer d
  call s(d)
end
"""
        par, seq = assert_equivalent(source)
        assert "orphan1" not in par.reached
        assert all(v is not None for v in par.val["orphan2"].values())

    def test_diamond_fanout_waves(self):
        source = """
program m
  call b(1)
  call c(1)
end
subroutine b(x)
  integer x
  call d(x)
end
subroutine c(y)
  integer y
  call d(y)
end
subroutine d(z)
  integer z
  write z
end
"""
        par, _ = assert_equivalent(source)
        # m | b,c | d — three dependency levels
        assert par.waves == 3


class TestFullSuite:
    def test_suite_byte_identical_inline(self):
        # every workload program, sequential vs wave-parallel (inline
        # mode runs the identical task code the pool runs): VAL sets,
        # degradations, and diagnostics must match byte for byte
        config = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
        parallel = AnalysisConfig(
            jump_function=JumpFunctionKind.POLYNOMIAL,
            parallel_regions=1,
        )
        for name in suite_names():
            source = load(name, scale=0.3).source
            seq = analyze(source, config, cache=None)
            par = analyze(source, parallel, cache=None)
            assert par.solved.val == seq.solved.val, name
            assert par.solved.reached == seq.solved.reached, name
            assert par.all_constants() == seq.all_constants(), name
            assert par.degradations == seq.degradations == (), name
            assert [d.code for d in par.resilience_diagnostics()] == [
                d.code for d in seq.resilience_diagnostics()
            ], name


@pytest.mark.slow
class TestRealPool:
    def test_pool_solve_matches_sequential(self):
        # a real two-worker pool: fork inheritance, task pickling, and
        # deterministic merge must reproduce the sequential VAL exactly
        config = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
        parallel = AnalysisConfig(
            jump_function=JumpFunctionKind.POLYNOMIAL,
            parallel_regions=2,
        )
        for name in ("linpackd", "adm"):
            source = load(name, scale=0.3).source
            seq = analyze(source, config, cache=None)
            par = analyze(source, parallel, cache=None)
            assert par.solved.val == seq.solved.val, name
            assert par.degradations == (), name

    def test_pool_solve_matches_sequential_flat(self):
        # --flat --parallel: each spawned worker rebuilds the slab
        # deterministically and replays its regions' firing-stream
        # blocks; the merged VAL must reproduce sequential flat exactly
        flat = AnalysisConfig(
            jump_function=JumpFunctionKind.POLYNOMIAL, flat_engine=True
        )
        parallel = AnalysisConfig(
            jump_function=JumpFunctionKind.POLYNOMIAL,
            flat_engine=True,
            parallel_regions=2,
        )
        for name in ("linpackd", "adm"):
            source = load(name, scale=0.3).source
            seq = analyze(source, flat, cache=None)
            par = analyze(source, parallel, cache=None)
            assert par.solved.val == seq.solved.val, name
            assert par.degradations == (), name


FANOUT = """
program m
  call b(1)
  call c(2)
end
subroutine b(x)
  integer x
  call d(x + 1)
end
subroutine c(y)
  integer y
  call d(y)
end
subroutine d(z)
  integer z
  write z
end
"""


class TestChaosFallback:
    def test_region_worker_crash_degrades_to_sequential(self):
        # a crash inside the region task (inline mode hits the same
        # chaos point the workers do) must surface as one RL540
        # degradation and a sequential re-solve — same answer, no error
        clean = analyze(
            FANOUT, AnalysisConfig(parallel_regions=1), cache=None
        )
        spec = ChaosSpec(
            faults=(
                Fault(
                    stage=Stage.SOLVE, kind="crash",
                    scope="region-worker", max_firings=1,
                ),
            )
        )
        chaos.install(spec, label="p")
        try:
            result = analyze(
                FANOUT, AnalysisConfig(parallel_regions=1), cache=None
            )
        finally:
            chaos.uninstall()
        codes = [record.code for record in result.degradations]
        assert codes == ["RL540"]
        assert result.solved.val == clean.solved.val
        assert result.solved.regions_parallel == 0  # sequential rerun

    @pytest.mark.slow
    def test_killed_region_worker_degrades_to_sequential(self):
        # kill a real pool worker mid-wave (os._exit via the injector's
        # "region-worker" label, which only pool workers carry): the
        # parent sees BrokenProcessPool, records RL540, and re-solves
        clean = analyze(FANOUT, AnalysisConfig(), cache=None)
        spec = ChaosSpec(
            faults=(
                Fault(
                    stage=Stage.SOLVE, kind="kill",
                    program="region-worker", scope="region-worker",
                ),
            )
        )
        chaos.install(spec, label="parent")
        try:
            result = analyze(
                FANOUT, AnalysisConfig(parallel_regions=2), cache=None
            )
        finally:
            chaos.uninstall()
        codes = [record.code for record in result.degradations]
        assert codes == ["RL540"]
        assert result.solved.val == clean.solved.val
