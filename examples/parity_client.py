"""A complete framework client in ~30 lines: interprocedural parity.

The walkthrough for `repro.framework`. A client is three things: a
lattice, its seed VAL, and a lift that maps each stage-2 jump function
(a `FlowEdge`) to the client's transfer for the same binding. The shared
engine (stage 2's flow index and kills, worklist, region scheduling,
memoization, counters) does the rest. Parity tracks whether each
procedure's entry values are provably even or odd: coarser than constant
propagation on constants, and it gives up on arithmetic. The point is
the recipe, kept deliberately small.

Run:  python examples/parity_client.py
"""

from repro import AnalysisConfig
from repro.core.builder import build_forward_jump_functions
from repro.core.driver import build_stage0
from repro.core.lattice import BOTTOM, TOP, is_constant
from repro.core.returns import build_return_jump_functions
from repro.core.solver import initial_val
from repro.framework import (
    BottomEdge,
    ConstantEdge,
    IdentityEdge,
    Lattice,
    flow_edge,
    solve_client,
)
from repro.frontend import parse_program
from repro.frontend.symbols import GlobalId

# ── the client: a lattice, a seed and a lift ───────────────────────────


def parity(value):
    return "even" if int(value) % 2 == 0 else "odd"


class ParityLattice(Lattice):
    """⊤ > {even, odd} > ⊥ — Figure 1's shape with two constants."""

    top, bottom = TOP, BOTTOM

    def meet(self, a, b):
        if a is TOP:
            return b
        if b is TOP or a == b:
            return a
        return BOTTOM


def parity_seed(lowered):
    """Constprop's seed (main's DATA constants, else ⊥), as parities."""
    val = initial_val(lowered)
    main_env = val[lowered.program.main]
    for key, value in main_env.items():
        if is_constant(value):
            main_env[key] = parity(value)
    return val


def lift_parity(edge):
    """One stage-2 jump function as a parity transfer, same binding."""
    if edge.const is not None:
        func = ConstantEdge(parity(edge.const))  # fold the literal
    elif edge.passthrough is not None:
        func = IdentityEdge(edge.passthrough)  # parity rides through
    else:
        func = BottomEdge()  # arithmetic: give up (soundly)
    return flow_edge(edge.site_id, edge.caller, edge.callee, edge.key, func)


def solve_parity(lowered, graph, forward):
    lattice, seed = ParityLattice(), parity_seed(lowered)
    return solve_client(lowered, graph, forward, lattice, seed, lift_parity)


# ── drive it over a program ────────────────────────────────────────────

SOURCE = """
program demo
  common /cfg/ stride
  integer stride, n
  n = 6
  call walk(n)
  call walk(14)
  call walk(stride)
end
subroutine walk(step)
  integer step
  write step
end
"""

DATA = {GlobalId("cfg", 0): 8}  # stride starts even


def main():
    program = parse_program(SOURCE)
    for gid, value in DATA.items():
        program.globals[gid].data_value = value
    stage0 = build_stage0(program)
    lowered, graph, cache = stage0.lowered, stage0.graph, stage0.ssa_cache
    config = AnalysisConfig()
    returns = build_return_jump_functions(lowered, graph, config, cache)
    forward = build_forward_jump_functions(lowered, returns, config, cache)

    result = solve_parity(lowered, graph, forward)
    for proc in sorted(result.val):
        facts = {
            str(key): value
            for key, value in result.val[proc].items()
            if value in ("even", "odd")
        }
        print(f"PARITY({proc}) = {facts}")
    # every call site passes an even value, so the callee knows its
    # formal's parity even though 6, 14, and stride never meet to a
    # single constant:
    assert result.val["walk"]["step"] == "even"


if __name__ == "__main__":
    main()
