"""The ``large`` workload family: 1k-procedure corpora for the scaling
tier. Generation and analysis of these take seconds, so everything here
is ``slow``-marked; the fast suite checks the profiles only by scaled-
down proxy (and the flat-engine benchmark gates run them in full)."""

import pytest

from repro.core.builder import build_forward_jump_functions
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import build_stage0
from repro.core.returns import build_return_jump_functions
from repro.core.solver import solve
from repro.frontend import parse_program
from repro.workloads.profiles import LARGE_PROFILES, PROFILES
from repro.workloads.suite import large_names, load, suite_names


def pipeline(source, config):
    stage0 = build_stage0(parse_program(source))
    lowered, graph, cache = stage0.lowered, stage0.graph, stage0.ssa_cache
    returns = build_return_jump_functions(lowered, graph, config, cache)
    forward = build_forward_jump_functions(lowered, returns, config, cache)
    return lowered, graph, forward


class TestTiering:
    """Fast checks: the large family must stay out of the default suite
    (Table experiments and suite-wide differential tests iterate it)."""

    def test_large_names_disjoint_from_suite(self):
        assert not set(large_names()) & set(suite_names())

    def test_large_profiles_not_in_table_profiles(self):
        assert not set(LARGE_PROFILES) & set(PROFILES)

    def test_load_resolves_large_names(self):
        # scaled far down so this stays in the fast tier
        workload = load("large_scc", scale=0.02)
        assert workload.source

    def test_scaled_preserves_ring_shape(self):
        profile = LARGE_PROFILES["large_scc"].scaled(0.01)
        assert profile.scc_ring >= 1
        assert profile.scc_depth == LARGE_PROFILES["large_scc"].scc_depth


@pytest.mark.slow
class TestLargeCorpora:
    @pytest.mark.parametrize("name", large_names())
    def test_reaches_a_thousand_procedures(self, name):
        workload = load(name)
        config = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
        lowered, graph, forward = pipeline(workload.source, config)
        result = solve(lowered, graph, forward)
        assert len(result.reached) >= 900
        assert len(lowered.procedures) >= 1000

    def test_flat_matches_object_on_the_scc_ring(self):
        # the 880-member ring is the drain-heavy shape: hundreds of
        # batches through phase 2, the flat engine's hardest path
        workload = load("large_scc")
        config = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
        lowered, graph, forward = pipeline(workload.source, config)
        obj = solve(lowered, graph, forward)
        flat = solve(lowered, graph, forward, flat=True)
        assert flat.reached == obj.reached
        assert {
            proc: {key: (type(v), v) for key, v in env.items()}
            for proc, env in flat.val.items()
        } == {
            proc: {key: (type(v), v) for key, v in env.items()}
            for proc, env in obj.val.items()
        }
        assert flat.batch_drains >= 100
