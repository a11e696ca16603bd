"""Incremental re-analysis is invisible in the results: for any generated
workload and any sequence of edits, each ``Analyzer.reanalyze`` (warm,
diffing fingerprints against the published snapshot, parsing only the
text between the units the edit kept, and building stage 0 from the
version it replaces) must answer exactly what a from-scratch
``analyze`` of the same text answers: the same call-site table, MOD/REF
summaries, VAL, reached set and CONSTANTS sets, the same substitution
records, and the same transformed source. Two more laws hold what an
edit keeps to what a fresh start builds: the analyzer's program is the
program a fresh parse resolves (a text that fails raises the error a
fresh parse raises, and keeps the version), and the newest snapshot is
the one a fresh analyzer publishes.

The edits cover what decides which program units an edit may keep:

- bump one standalone integer literal in a unit's body, keeping its
  length or making it longer (a longer one moves every later unit);
- insert a comment line anywhere (moves every unit after it);
- give one unit a new COMMON block, or rename one of its formals (the
  program context changes, so no unit is kept);
- duplicate or delete one call statement (call-site ids shift for every
  later unit);

and, for the two program laws, edits at unit boundaries: delete an
``end``, add text after an ``end`` on its line, insert or delete a whole
unit, add a comment-only line between units, or add an unlexable
character.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import Analyzer, Stage0Cache, analyze
from repro.frontend import astnodes as ast
from repro.frontend.errors import FrontendError
from repro.frontend.symbols import parse_program
from repro.ir.lower import lower_program
from repro.store.artifacts import MemoryStore
from repro.store.fingerprints import config_key
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


def _delete_end(lines, data):
    """Delete one unit's ``end`` line."""
    _, end = data.draw(st.sampled_from(unit_spans(lines)), label="unit")
    del lines[end]
    return lines


def _text_after_end(lines, data):
    """Add text after one unit's ``end`` on its line: blanks, a comment,
    a word, letters that make ``end`` a name, or the next non-blank line
    (the next unit's header, say), apart from the ``end`` or glued to
    it."""
    _, end = data.draw(st.sampled_from(unit_spans(lines)), label="unit")
    suffix = data.draw(
        st.sampled_from(["  ", " ! after end", " x", "x", " next", "next"]),
        label="suffix",
    )
    if suffix.endswith("next"):
        following = [i for i in range(end + 1, len(lines)) if lines[i].strip()]
        if not following:
            return None
        joined = following[0]
        suffix = suffix[:-4] + lines[joined].lstrip()
        del lines[end + 1 : joined + 1]
    lines[end] += suffix
    return lines


def _insert_or_delete_unit(lines, data):
    """Delete one whole unit, or insert a new one before or after it."""
    header, end = data.draw(st.sampled_from(unit_spans(lines)), label="unit")
    if data.draw(st.booleans(), label="delete unit"):
        del lines[header : end + 1]
    else:
        at = data.draw(st.sampled_from([header, end + 1]), label="insert at")
        lines[at:at] = ["subroutine zedit(q)", "  integer q", "  q = 1", "end"]
    return lines


def _comment_between_units(lines, data):
    """Add a comment-only line between two units (or before the first,
    or after the last)."""
    units = unit_spans(lines)
    boundaries = sorted({header for header, _ in units} | {end + 1 for _, end in units})
    at = data.draw(st.sampled_from(boundaries), label="between")
    lines.insert(at, "! between units")
    return lines


def _unlexable_character(lines, data):
    """Insert a character no token starts with (harmless in a comment)."""
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    column = data.draw(st.integers(0, len(lines[index])), label="column")
    lines[index] = lines[index][:column] + "@" + lines[index][column:]
    return lines


BOUNDARY_EDITS = (
    _delete_end,
    _text_after_end,
    _insert_or_delete_unit,
    _comment_between_units,
    _unlexable_character,
)


def fresh_error(text):
    """The error parsing and lowering ``text`` from scratch raises, or
    ``None``."""
    try:
        lower_program(parse_program(text))
    except FrontendError as exc:
        return exc
    return None


def apply_edit(source, data, kinds):
    """``source`` after one edit drawn from ``kinds``, or ``source``
    itself when the edit does not apply."""
    edit = data.draw(st.sampled_from(kinds), label="edit kind")
    lines = edit(source.splitlines(), data)
    return source if lines is None else "\n".join(lines) + "\n"


def draw_edit(source, data, kinds=EDITS):
    """One edit of ``source`` that still parses and lowers, or
    ``source`` itself."""
    edited = apply_edit(source, data, kinds)
    return source if fresh_error(edited) is not None else edited


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


def spans_of(proc) -> list:
    """Every span a unit's AST holds, by offset and line:column."""
    unit = proc.ast
    spans = [unit.span, unit.name_span]
    for decl in unit.decls:
        spans.append(decl.span)
        spans.extend(d.span for d in getattr(decl, "declarators", ()))
    for stmt in ast.walk_stmts(unit.body):
        spans.append(stmt.span)
        for expr in ast.stmt_exprs(stmt):
            spans.extend(node.span for node in ast.walk_expr(expr))
    return [(span.text_range, str(span)) for span in spans]


def _tag(value):
    return (value.__class__, value)


def program_image(program) -> tuple:
    """Unit order, each unit's spans and symbol table, and the globals
    in order."""
    units = [
        (
            name,
            spans_of(proc),
            [
                (
                    symbol.name,
                    symbol.kind,
                    symbol.type,
                    symbol.dims,
                    symbol.global_id,
                    _tag(symbol.const_value),
                    _tag(symbol.data_value),
                    symbol.decl_span.text_range,
                )
                for symbol in proc.symtab
            ],
        )
        for name, proc in program.procedures.items()
    ]
    globals_ = [
        (gid, gvar.display, gvar.type, gvar.dims, _tag(gvar.data_value))
        for gid, gvar in program.globals.items()
    ]
    return units, globals_, program.main


@given(profile=profile_strategy, edits=st.integers(2, 3), data=st.data())
@EDIT_SETTINGS
def test_reanalyzed_program_matches_a_fresh_parse(profile, edits, data):
    source = generate(profile).source
    analyzer = Analyzer(source, cache=Stage0Cache())
    analyzer.run()
    for _ in range(edits):
        text = apply_edit(source, data, EDITS + BOUNDARY_EDITS)
        expected = fresh_error(text)
        before = analyzer.program
        if expected is None:
            analyzer.reanalyze(text)
            assert program_image(analyzer.program) == program_image(
                parse_program(text)
            )
            source = text
            continue
        with pytest.raises(FrontendError) as caught:
            analyzer.reanalyze(text)
        got = caught.value
        assert (type(got), got.message, got.location) == (
            type(expected),
            expected.message,
            expected.location,
        )
        assert analyzer.program is before


@given(profile=profile_strategy, kind=st.sampled_from(list(JumpFunctionKind)),
       edits=st.integers(2, 3), data=st.data())
@EDIT_SETTINGS
def test_published_snapshot_matches_a_fresh_run(profile, kind, edits, data):
    config = AnalysisConfig(jump_function=kind)
    key = config_key(config)
    source = generate(profile).source
    analyzer = Analyzer(source, cache=Stage0Cache())
    analyzer.run(config)
    for _ in range(edits):
        source = draw_edit(source, data, EDITS + BOUNDARY_EDITS)
        main = analyzer.reanalyze(source, config).program.main
        fresh = MemoryStore()
        Analyzer(source, cache=Stage0Cache(), store=fresh).run(config)
        meta = analyzer.store.load_snapshot(key, main)
        assert meta == fresh.load_snapshot(key, main)
        for entry in meta["procs"].values():
            analyzer.store.get_object(entry["env"])
