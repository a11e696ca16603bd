"""Cross-analysis precision properties on random programs.

SCCP is optimistic (values start ⊤, branches prune); value numbering is
pessimistic (loop phis fall to ⊥ immediately). Optimism can only *gain*
precision, so every constant the value numbering proves must also be
proved by SCCP with the same entry environment — on every random program.

(Known theoretical exception, not generated here: value numbering folds
*structurally* equal expressions — ``(a+1) == (a+1)`` through two distinct
temporaries — where SCCP only matches identical SSA names. The analyzer
never relies on that direction.)
"""

from hypothesis import HealthCheck, given, settings

from repro.analysis.sccp import run_sccp
from repro.analysis.ssa import build_ssa
from repro.analysis.valuenum import value_number
from repro.callgraph import build_call_graph, compute_modref, make_call_effects
from repro.core.lattice import BOTTOM, is_constant
from repro.frontend.symbols import parse_program
from repro.ir import lower_program
from repro.ir.instructions import SSAName

from .strategies import programs

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(source=programs())
@SETTINGS
def test_sccp_at_least_as_precise_as_value_numbering(source):
    lowered = lower_program(parse_program(source))
    graph = build_call_graph(lowered)
    modref = compute_modref(lowered, graph)
    for name, lowered_proc in lowered.procedures.items():
        effects = make_call_effects(lowered, name, modref)
        ssa = build_ssa(lowered_proc, effects)
        numbering = value_number(ssa, lowered)
        # entry env: everything unknown (what VN's gcp view assumes)
        sccp = run_sccp(ssa, {})
        for key, expr in numbering.exprs.items():
            vn_value = expr.evaluate({})
            if not is_constant(vn_value):
                continue
            if not isinstance(key, SSAName):
                continue
            sccp_value = sccp.values.get(SSAName(key.symbol, key.version))
            if sccp_value is None:
                continue  # dead code: SCCP never visited it
            from repro.core.lattice import TOP

            if sccp_value is TOP:
                continue  # unreachable per SCCP — vacuously fine
            assert sccp_value == vn_value, (
                f"{name}: {key} VN={vn_value} SCCP={sccp_value}"
            )


@given(source=programs())
@SETTINGS
def test_modref_monotone_under_extra_kills(source):
    """No-MOD kill sets always cover the MOD-based kill sets."""
    lowered = lower_program(parse_program(source))
    graph = build_call_graph(lowered)
    modref = compute_modref(lowered, graph)
    for name, lowered_proc in lowered.procedures.items():
        with_mod = make_call_effects(lowered, name, modref)
        without = make_call_effects(lowered, name, None)
        for call in lowered_proc.call_instrs:
            killed_with = {symbol for symbol, _ in with_mod(call)}
            killed_without = {symbol for symbol, _ in without(call)}
            assert killed_with <= killed_without
