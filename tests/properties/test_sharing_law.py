"""The sharing law: per-procedure sharing cannot be seen in any answer.

A sweep over one stage-0 bundle shares each SSA form, numbering and
substitution record among the configurations (and complete
propagation's rounds) whose inputs for it agree. Every configuration of
the sweep must still answer exactly what its own uncached analysis
answers, on generated programs with call-free procedures, a recursion
ring and COMMON globals.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import TABLE2_CONFIGS, TABLE3_CONFIGS
from repro.core.driver import Analyzer, Stage0Cache, analyze
from repro.workloads.generator import generate

from .test_solver_equivalence import profile_strategy

SHARING_SETTINGS = settings(
    # tier-1 draws 10 examples; the CI soak loads conftest.py's profile
    max_examples=(
        settings.default.max_examples
        if settings.get_current_profile_name() == "soak"
        else 10
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CONFIGS = {**TABLE2_CONFIGS, **TABLE3_CONFIGS}

#: the solver-equivalence profiles with a recursion ring of 1–4 members
#: (a 1-member ring calls itself) and 1–3 COMMON constants
sharing_profiles = st.builds(
    lambda profile, ring, depth, globals_: dataclasses.replace(
        profile, scc_ring=ring, scc_depth=depth, global_constants=globals_
    ),
    profile_strategy,
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 3),
)


def tagged(val) -> dict:
    """VAL with each value's class, so ``True`` never equals ``1``."""
    return {
        proc: {key: (value.__class__, value) for key, value in keys.items()}
        for proc, keys in val.items()
    }


def records(result) -> dict:
    """Each procedure's substitution record, spelled out."""
    return {
        name: (
            [
                (span.text_range, value.__class__, value, symbol.name)
                for span, value, symbol in record.references
            ],
            record.known_constants,
            record.irrelevant_keys,
        )
        for name, record in result.substitutions.per_procedure.items()
    }


@given(profile=sharing_profiles)
@SHARING_SETTINGS
def test_swept_configurations_answer_as_fresh_runs(profile):
    source = generate(profile).source
    swept = Analyzer(source, cache=Stage0Cache()).sweep(CONFIGS)
    procedures = swept["polynomial"].lowered.procedures.values()
    assert any(not proc.call_instrs for proc in procedures)
    assert swept["polynomial"].lowered.program.globals
    for name, config in CONFIGS.items():
        shared, fresh = swept[name], analyze(source, config, cache=None)
        assert tagged(shared.solved.val) == tagged(fresh.solved.val), name
        assert tagged(shared.all_constants()) == tagged(
            fresh.all_constants()
        ), name
        assert shared.transformed_source() == fresh.transformed_source(), name
        assert records(shared) == records(fresh), name
