"""Incremental re-analysis is invisible in the results: for any generated
workload and any sequence of edits, each ``Analyzer.reanalyze`` (warm,
diffing fingerprints against the published snapshot, and building stage
0 from the version it replaces) must answer exactly what a from-scratch
``analyze`` of the same text answers: the same call-site table, MOD/REF
summaries, VAL, reached set and CONSTANTS sets, the same substitution
records, and the same transformed source.

The edits cover what decides which program units an edit may keep:

- bump one standalone integer literal in a unit's body, keeping its
  length or making it longer (a longer one moves every later unit);
- insert a comment line anywhere (moves every unit after it);
- give one unit a new COMMON block, or rename one of its formals (the
  program context changes, so no unit is kept);
- duplicate or delete one call statement (call-site ids shift for every
  later unit).
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import Analyzer, Stage0Cache, analyze
from repro.frontend.errors import FrontendError
from repro.frontend.symbols import parse_program
from repro.workloads.generator import generate

from .test_solver_equivalence import profile_strategy

SETTINGS = settings(max_examples=15, deadline=None)

EDIT_SETTINGS = settings(
    # tier-1 draws 15 examples; the CI soak loads conftest.py's profile
    max_examples=(
        settings.default.max_examples
        if settings.get_current_profile_name() == "soak"
        else 15
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: standalone integer literal — never digits embedded in an identifier
_LITERAL = re.compile(r"(?<![\w.])\d+(?![\w.])")


def unit_spans(lines):
    """(header_index, end_index) for every program unit, header included."""
    spans, start = [], None
    for index, line in enumerate(lines):
        stripped = line.strip()
        if start is None and stripped.startswith(
            ("program", "subroutine", "function", "integer function")
        ):
            start = index
        elif start is not None and stripped == "end":
            spans.append((start, index))
            start = None
    return spans


def _body_literals(lines):
    """(line, start, end) of every integer literal in a unit body."""
    found = []
    for header, end in unit_spans(lines):
        for index in range(header + 1, end):
            if "integer" in lines[index]:
                continue  # declarations: nothing constant-bearing here
            for match in _LITERAL.finditer(lines[index]):
                found.append((index, match.start(), match.end()))
    return found


def edit_one_procedure(source, data):
    """Bump one integer literal inside one unit's body; returns the
    edited source, or the original when no literal exists to edit."""
    lines = source.splitlines()
    editable = _body_literals(lines)
    if not editable:
        return source
    index, lo, hi = data.draw(st.sampled_from(editable), label="edit site")
    bump = data.draw(st.integers(1, 7), label="bump")
    line = lines[index]
    value = int(line[lo:hi]) + bump
    lines[index] = line[:lo] + str(value) + line[hi:]
    return "\n".join(lines) + "\n"


def _bump_literal(lines, data):
    """Change one body literal's last digit (same length, never 0), or
    append a digit to it (one character longer)."""
    editable = _body_literals(lines)
    if not editable:
        return None
    index, lo, hi = data.draw(st.sampled_from(editable), label="literal")
    text = lines[index][lo:hi]
    if data.draw(st.booleans(), label="longer"):
        new = text + str(data.draw(st.integers(0, 9), label="digit"))
    else:
        digits = [d for d in "123456789" if d != text[-1]]
        new = text[:-1] + data.draw(st.sampled_from(digits), label="digit")
    lines[index] = lines[index][:lo] + new + lines[index][hi:]
    return lines


def _insert_comment(lines, data):
    index = data.draw(st.integers(0, len(lines)), label="comment line")
    lines.insert(index, "! an inserted comment")
    return lines


def _change_context(lines, data):
    """Declare a new COMMON block in one unit, or rename one formal
    throughout its unit."""
    units = unit_spans(lines)
    header, end = data.draw(st.sampled_from(units), label="unit")
    formals = re.search(r"\(([^)]*)\)\s*$", lines[header])
    if formals and data.draw(st.booleans(), label="rename formal"):
        names = [name.strip() for name in formals.group(1).split(",")]
        old = data.draw(st.sampled_from(names), label="formal")
        pattern = re.compile(rf"\b{old}\b")
        for index in range(header, end):
            lines[index] = pattern.sub(f"{old}_e", lines[index])
    else:
        lines.insert(header + 1, "  common /cedit/ jedit")
    return lines


def _edit_call(lines, data):
    """Duplicate or delete one call statement."""
    calls = [i for i, line in enumerate(lines) if line.strip().startswith("call ")]
    if not calls:
        return None
    index = data.draw(st.sampled_from(calls), label="call")
    if data.draw(st.booleans(), label="delete"):
        del lines[index]
    else:
        lines.insert(index, lines[index])
    return lines


EDITS = (_bump_literal, _insert_comment, _change_context, _edit_call)


def draw_edit(source, data):
    """One edit of ``source`` that still parses, or ``source`` itself."""
    edit = data.draw(st.sampled_from(EDITS), label="edit kind")
    lines = edit(source.splitlines(), data)
    if lines is None:
        return source
    edited = "\n".join(lines) + "\n"
    try:
        parse_program(edited)
    except FrontendError:
        return source
    return edited


def tagged(val) -> dict:
    """VAL with each value's class, so ``True`` never equals ``1``."""
    return {
        proc: {key: (value.__class__, value) for key, value in keys.items()}
        for proc, keys in val.items()
    }


def call_sites(result) -> dict:
    """Site id -> (caller, callee): ids are program-wide, so a unit kept
    from the previous version must hold the ids a cold lowering draws."""
    return {
        site_id: (caller, call.callee)
        for site_id, (caller, call) in result.lowered.call_sites.items()
    }


def records(result) -> dict:
    """Each procedure's substitution references (span offsets, value
    with its class, symbol name) and its |CONSTANTS(p)|."""
    return {
        name: (
            [
                (span.text_range, value.__class__, value, symbol.name)
                for span, value, symbol in record.references
            ],
            record.known_constants,
        )
        for name, record in result.substitutions.per_procedure.items()
    }


@given(profile=profile_strategy, kind=st.sampled_from(list(JumpFunctionKind)),
       edits=st.integers(2, 3), data=st.data())
@EDIT_SETTINGS
def test_reanalyze_matches_from_scratch(profile, kind, edits, data):
    config = AnalysisConfig(jump_function=kind)
    source = generate(profile).source
    analyzer = Analyzer(source, cache=Stage0Cache())
    analyzer.run(config)
    for _ in range(edits):
        source = draw_edit(source, data)
        warm = analyzer.reanalyze(source, config)
        cold = analyze(source, config, cache=None)

        assert warm.incremental is not None
        assert warm.incremental.mode == "warm"
        assert warm.incremental.store_fallbacks == 0
        assert call_sites(warm) == call_sites(cold)
        assert warm.modref_summaries() == cold.modref_summaries()
        assert warm.solved.reached == cold.solved.reached
        assert tagged(warm.solved.val) == tagged(cold.solved.val)
        assert tagged(warm.all_constants()) == tagged(cold.all_constants())
        assert records(warm) == records(cold)
        assert warm.transformed_source() == cold.transformed_source()


@given(profile=profile_strategy, data=st.data())
@SETTINGS
def test_identical_source_reanalyzes_fully_warm(profile, data):
    workload = generate(profile)
    analyzer = Analyzer(workload.source)
    first = analyzer.run()
    again = analyzer.reanalyze(workload.source)
    assert again.incremental.mode == "warm"
    assert again.incremental.changed == ()
    assert again.solved.regions == 0
    assert again.solved.val == first.solved.val
    assert again.all_constants() == first.all_constants()
