"""Property-based whole-pipeline fuzzing.

Random programs from :mod:`strategies` are pushed through every stage:
parse → resolve → lower → analyze (several configurations) → execute →
differential soundness audit. Failures here mean a real bug somewhere in
the stack, which is exactly the point.
"""

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AnalysisConfig, Analyzer, JumpFunctionKind
from repro.core.config import TABLE2_CONFIGS, TABLE3_CONFIGS
from repro.core.lattice import is_constant
from repro.frontend.errors import FrontendError
from repro.frontend.symbols import parse_program
from repro.interp import InterpError, check_soundness, run_program

from .strategies import programs

FUZZ_SETTINGS = settings(
    # tier-1 draws 40 examples; the CI soak loads conftest.py's profile
    max_examples=(
        settings.default.max_examples
        if settings.get_current_profile_name() == "soak"
        else 40
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(source=programs())
@FUZZ_SETTINGS
def test_pipeline_never_crashes(source):
    analyzer = Analyzer(source)
    for kind in JumpFunctionKind:
        result = analyzer.run(AnalysisConfig(jump_function=kind))
        assert result.constants_found >= 0


@given(source=programs())
@FUZZ_SETTINGS
def test_jump_function_chain_on_random_programs(source):
    analyzer = Analyzer(source)
    results = {
        kind: analyzer.run(AnalysisConfig(jump_function=kind))
        for kind in JumpFunctionKind
    }
    chain = [
        JumpFunctionKind.LITERAL,
        JumpFunctionKind.INTRAPROCEDURAL,
        JumpFunctionKind.PASS_THROUGH,
        JumpFunctionKind.POLYNOMIAL,
    ]
    for weak, strong in zip(chain, chain[1:]):
        for proc in results[weak].lowered.procedures:
            weak_constants = results[weak].constants(proc)
            strong_constants = results[strong].constants(proc)
            for key, value in weak_constants.items():
                assert strong_constants.get(key) == value, (
                    f"{strong.value} lost {proc}.{key}={value} "
                    f"found by {weak.value}"
                )


#: (weaker, stronger) Table 2/3 columns the paper finds ordered: MOD
#: information and return jump functions only ever add constants.
RICHER_THAN = (
    ("polynomial_no_mod", "polynomial_with_mod"),
    ("polynomial_no_rjf", "polynomial"),
    ("pass_through_no_rjf", "pass_through"),
)


@given(source=programs())
@FUZZ_SETTINGS
def test_mod_and_return_functions_never_lose_constants(source):
    """Every CONSTANTS(p) entry the weaker configuration finds, the
    stronger one finds too, with the same value and class."""
    analyzer = Analyzer(source)
    configs = {**TABLE2_CONFIGS, **TABLE3_CONFIGS}
    for weak_name, strong_name in RICHER_THAN:
        weak = analyzer.run(configs[weak_name])
        strong = analyzer.run(configs[strong_name])
        for proc in weak.lowered.procedures:
            strong_constants = strong.constants(proc)
            for key, value in weak.constants(proc).items():
                found = strong_constants.get(key)
                assert (found.__class__, found) == (value.__class__, value), (
                    f"{strong_name} lost {proc}.{key}={value!r} "
                    f"found by {weak_name}"
                )


@given(source=programs())
@FUZZ_SETTINGS
def test_analyzer_sound_on_random_programs(source):
    try:
        trace = run_program(source, max_steps=300_000)
    except InterpError:
        # overflow-free by construction, but a fuzzam may still divide by
        # zero via '**' folding etc.; partial traces remain valid evidence
        return
    analyzer = Analyzer(source)
    for config in (
        AnalysisConfig(JumpFunctionKind.POLYNOMIAL),
        AnalysisConfig(JumpFunctionKind.POLYNOMIAL, use_mod=False),
        AnalysisConfig(JumpFunctionKind.POLYNOMIAL, complete=True),
        AnalysisConfig(
            JumpFunctionKind.POLYNOMIAL, compose_return_functions=True
        ),
    ):
        result = analyzer.run(config)
        # complete-mode CONSTANTS describe the final DCE'd program; the
        # output laws below hold that program to the source's behaviour
        observed = (
            run_program(result.lowered, max_steps=300_000)
            if config.complete
            else trace
        )
        violations = check_soundness(result, observed)
        assert violations == [], "\n".join(str(v) for v in violations)


@given(source=programs())
@FUZZ_SETTINGS
def test_transformations_preserve_outputs_on_random_programs(source):
    """Output laws: every configuration's transformed source, and the
    program complete propagation's DCE leaves, print what the source
    prints."""
    try:
        expected = run_program(source, max_steps=300_000).outputs
    except InterpError:
        return
    results = Analyzer(source).sweep({**TABLE2_CONFIGS, **TABLE3_CONFIGS})
    for name, result in results.items():
        transformed = run_program(result.transformed_source(), max_steps=300_000)
        assert transformed.outputs == expected, name
    dce = run_program(results["complete"].lowered, max_steps=300_000)
    assert dce.outputs == expected


@given(source=programs())
@FUZZ_SETTINGS
def test_sccp_agrees_with_execution_outputs(source):
    """If the analyzer proves a WRITE operand constant, the program must
    only ever write that value at that site."""
    try:
        trace = run_program(source, max_steps=300_000)
    except InterpError:
        return
    analyzer = Analyzer(source)
    result = analyzer.run(AnalysisConfig(JumpFunctionKind.POLYNOMIAL))
    # Every claimed constant in CONSTANTS must be internally consistent:
    # is_constant values only.
    for proc in result.lowered.procedures:
        for value in result.constants(proc).values():
            assert is_constant(value)
    assert check_soundness(result, trace) == []


#: ASCII punctuation and layout, plus digits, letters, a symbol and a
#: no-break space from outside ASCII (``²`` and ``٣`` are digits to
#: ``str.isdigit``).
MUTATION_CHARS = string.punctuation + " \t\r\n" + "²٣éß€\u00a0"


@st.composite
def mutated_programs(draw) -> str:
    """A generated program after one random insert, delete or replace."""
    source = draw(programs())
    position = draw(st.integers(0, len(source) - 1))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    char = draw(st.sampled_from(MUTATION_CHARS))
    if edit == "insert":
        return source[:position] + char + source[position:]
    if edit == "delete":
        return source[:position] + source[position + 1:]
    return source[:position] + char + source[position + 1:]


@given(source=mutated_programs())
@FUZZ_SETTINGS
def test_mutated_source_parses_or_raises_frontend_error(source):
    """Malformed text is rejected with a FrontendError, never another
    exception."""
    try:
        parse_program(source)
    except FrontendError:
        pass
