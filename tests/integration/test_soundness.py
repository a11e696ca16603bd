"""Differential soundness: every claimed constant must match execution.

The strongest validation in the project: the reference interpreter records
the actual entry values of every formal and global on every invocation,
and every CONSTANTS(p) claim from every analyzer configuration is checked
against every recorded snapshot (see DESIGN.md §5).
"""

import pytest

from repro import Analyzer, AnalysisConfig, JumpFunctionKind
from repro.interp import check_soundness, run_program
from repro.workloads import load, suite_names

SCALE = 0.4

CONFIGS = {
    "polynomial": AnalysisConfig(JumpFunctionKind.POLYNOMIAL),
    "pass_through": AnalysisConfig(JumpFunctionKind.PASS_THROUGH),
    "intraprocedural": AnalysisConfig(JumpFunctionKind.INTRAPROCEDURAL),
    "literal": AnalysisConfig(JumpFunctionKind.LITERAL),
    "no_rjf": AnalysisConfig(
        JumpFunctionKind.POLYNOMIAL, use_return_jump_functions=False
    ),
    "no_mod": AnalysisConfig(JumpFunctionKind.POLYNOMIAL, use_mod=False),
    "composed": AnalysisConfig(
        JumpFunctionKind.POLYNOMIAL, compose_return_functions=True
    ),
}


@pytest.fixture(scope="module")
def traces():
    found = {}
    for name in suite_names():
        workload = load(name, scale=SCALE)
        found[name] = run_program(
            workload.source, inputs=workload.inputs, max_steps=5_000_000
        )
    return found


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("name", suite_names())
def test_constants_sound_on_suite(traces, name, config_name):
    workload = load(name, scale=SCALE)
    result = Analyzer(workload.source).run(CONFIGS[config_name])
    violations = check_soundness(result, traces[name])
    assert violations == [], "\n".join(str(v) for v in violations)


@pytest.mark.parametrize("name", suite_names())
def test_complete_mode_sound(traces, name):
    """Complete propagation folds branches — its claims must still hold
    on the *original* program's executions."""
    workload = load(name, scale=SCALE)
    config = AnalysisConfig(JumpFunctionKind.POLYNOMIAL, complete=True)
    result = Analyzer(workload.source).run(config)
    violations = check_soundness(result, traces[name])
    assert violations == [], "\n".join(str(v) for v in violations)


def test_no_mod_aliased_actuals_stay_killed():
    """Without MOD a global or caller formal passed by reference stays
    killed after the call: the callee may write the same storage through
    COMMON (an aliasing-rule violation, RL112, that execution still
    defines), so the formal's return jump function must not rebind it."""
    source = """
program m
  common /c/ g
  integer g
  g = 1
  call s(g)
  call u(g)
  call t(g)
end
subroutine s(p)
  integer p
  common /c/ g
  integer g
  g = 0
end
subroutine u(q)
  integer q
  write q
end
subroutine t(a)
  integer a
  a = 1
  call s(a)
  call v(a)
end
subroutine v(r)
  integer r
  write r
end
"""
    config = AnalysisConfig(JumpFunctionKind.POLYNOMIAL, use_mod=False)
    result = Analyzer(source).run(config)
    violations = check_soundness(result, run_program(source))
    assert violations == [], "\n".join(str(v) for v in violations)


def test_soundness_checker_catches_lies():
    """Sanity-check the oracle itself: corrupt a VAL set and make sure a
    violation is reported."""
    source = """
program t
  call s(3)
end
subroutine s(a)
  integer a
  write a
end
"""
    from repro import analyze

    result = analyze(source)
    trace = run_program(source)
    assert check_soundness(result, trace) == []
    result.solved.val["s"]["a"] = 99  # inject a wrong claim
    violations = check_soundness(result, trace)
    assert len(violations) == 1
    assert violations[0].claimed == 99
    assert violations[0].observed == 3
