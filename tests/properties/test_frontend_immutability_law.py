"""The frontend-immutability law: analyzing a parsed program leaves it as
resolution made it.

Lowering derives each unit's synthetic locals, hidden globals, calls and
direct effects and keeps them on the lowered procedure, so nothing an
analysis does can be seen through the frontend. For generated programs
with DO loops (a synthetic trip-count symbol each) and COMMON globals
some units do not declare (a hidden symbol each), parsed once, then run
through a Table 2 ∪ 3 sweep, an ``Analyzer`` edit and the interpreter:

- every unit's symbol table lists the names and kinds a fresh parse's
  does, in the same order, and ``globals_used()`` answers the same;
- the edited version's tables are a fresh parse's of the edited text;
- the interpreter prints what it prints on a fresh parse, and records
  the same entry values at every invocation.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.config import TABLE2_CONFIGS, TABLE3_CONFIGS
from repro.core.driver import Analyzer, Stage0Cache
from repro.frontend.symbols import parse_program
from repro.interp import InterpError, run_program
from repro.workloads.generator import generate

from .test_incremental_properties import edit_one_procedure
from .test_solver_equivalence import profile_strategy

LAW_SETTINGS = settings(
    # tier-1 draws 40 examples; the CI soak loads conftest.py's profile
    max_examples=(
        settings.default.max_examples
        if settings.get_current_profile_name() == "soak"
        else 40
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

CONFIGS = {**TABLE2_CONFIGS, **TABLE3_CONFIGS}


def tables(program) -> dict:
    """Each unit's symbols (name and kind, in table order) and the names
    of the globals it uses."""
    return {
        name: (
            [(symbol.name, symbol.kind) for symbol in proc.symtab],
            [symbol.name for symbol in proc.globals_used()],
        )
        for name, proc in program.procedures.items()
    }


def execution(program, inputs):
    """What the interpreter observes: outputs and entry traces, or the
    error that stopped it."""
    try:
        trace = run_program(program, inputs=inputs, max_steps=300_000)
    except InterpError as exc:
        return ("error", str(exc))
    return trace.outputs, trace.entries, trace.stopped


def declares_every_global(proc, program) -> bool:
    declared = {symbol.global_id for symbol in proc.symtab}
    return all(
        gid in declared
        for gid, gvar in program.globals.items()
        if not gvar.is_array
    )


@given(profile=profile_strategy, data=st.data())
@LAW_SETTINGS
def test_analyses_leave_the_frontend_as_resolved(profile, data):
    workload = generate(profile)
    program = parse_program(workload.source)
    assume("enddo" in workload.source)
    assume(
        not all(
            declares_every_global(proc, program)
            for proc in program.procedures.values()
        )
    )
    fresh = parse_program(workload.source)

    Analyzer(program, cache=Stage0Cache()).sweep(CONFIGS)
    analyzer = Analyzer(program, cache=Stage0Cache())
    analyzer.run()
    edited = edit_one_procedure(workload.source, data)
    analyzer.reanalyze(edited)
    observed = execution(program, workload.inputs)

    assert tables(program) == tables(fresh)
    assert tables(analyzer.program) == tables(parse_program(edited))
    assert observed == execution(fresh, workload.inputs)
