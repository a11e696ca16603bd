"""Leaves and jump-function parts are shared within one build, and the
sharing never merges constants of different classes: ``.true.`` and
``1`` compare equal in Python, and so do ``-0.0`` and ``0.0``."""

import math

from repro.cli import main
from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import analyze
from repro.core.exprs import const_expr
from repro.framework.client import FlowEdge
from repro.frontend import parse_program
from repro.ir import lower_program
from repro.ir.instructions import WriteOut

SOURCE = """
program main
  real r
  parameter (r = -0.0)
  write r
  write 0.0
  call s(.true., 1)
  call s(.true., 1)
end
subroutine s(b, n)
  logical b
  integer n
  write b
  write n
end
"""

POLYNOMIAL = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)


def test_constants_keep_logical_and_integer_apart():
    constants = analyze(SOURCE, POLYNOMIAL, cache=None).constants("s")
    assert constants == {"b": True, "n": 1}
    assert constants["b"].__class__ is bool
    assert constants["n"].__class__ is int


def test_run_prints_signed_zero(tmp_path, capsys):
    path = tmp_path / "share.f"
    path.write_text(SOURCE)
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["-0.0", "0.0"]


def test_one_lowering_shares_equal_literals_only():
    main_proc = lower_program(parse_program(SOURCE)).procedures["main"]
    (b1, n1), (b2, n2) = (
        [arg.value for arg in call.args] for call in main_proc.call_instrs
    )
    assert b1 is b2 and n1 is n2
    assert b1 is not n1
    assert b1.value.__class__ is bool and n1.value.__class__ is int
    writes = [i for _, i in main_proc.cfg.instructions() if isinstance(i, WriteOut)]
    negative, positive = writes[0].values[0], writes[1].values[0]
    assert negative is not positive
    assert math.copysign(1.0, negative.value) == -1.0
    assert math.copysign(1.0, positive.value) == 1.0


def test_one_stage2_build_shares_jump_functions_by_expression_identity():
    forward = analyze(SOURCE, POLYNOMIAL, cache=None).forward
    indexed = {
        (edge.site_id, edge.key): edge
        for edges in forward.index.seeds.values()
        for edge in edges
    }
    # each binding is one FlowEdge: the site table holds the very edge
    # the flow index lists
    bindings = [
        (site_id, key, edge)
        for site_id, site in forward.sites.items()
        for key, edge in site.items()
    ]
    assert len(bindings) == len(indexed)
    for site_id, key, edge in bindings:
        assert edge.__class__ is FlowEdge
        assert indexed[(site_id, key)] is edge
    first, second = (forward.sites[i] for i in sorted(forward.sites))
    # one interned expression per constant, per class
    assert first["n"] is not second["n"]
    assert first["n"].func is second["n"].func is const_expr(1)
    assert first["b"].func is second["b"].func is const_expr(True)
    assert first["b"].func is not first["n"].func
    assert first["b"].const is True
    assert first["b"].const.__class__ is bool
    assert first["n"].const.__class__ is int
