"""A complete framework client in ~40 lines: interprocedural parity.

The walkthrough for `repro.framework`: pick a lattice, translate the
stage-2 jump functions into edge functions, seed the roots — the shared
engine (worklist, region scheduling, memoization, counters) does the
rest. Parity tracks whether each procedure's entry values are provably
even or odd: coarser than constant propagation on constants, but it
survives *some* arithmetic constprop gives up on is irrelevant here —
the point is the recipe, kept deliberately small.

Run:  python examples/parity_client.py
"""

from repro import AnalysisConfig
from repro.analysis.ssa import ensure_global_symbols
from repro.callgraph import build_call_graph, compute_modref
from repro.core.builder import build_forward_jump_functions, entry_keys
from repro.core.lattice import BOTTOM, TOP, is_constant
from repro.core.returns import build_return_jump_functions
from repro.framework import (
    AnalysisClient,
    BottomEdge,
    ConstantEdge,
    FlowIndex,
    IdentityEdge,
    Lattice,
    flow_edge,
    solve_client,
)
from repro.frontend import parse_program
from repro.frontend.symbols import GlobalId
from repro.ir import lower_program

# ── the client: everything a new analysis needs to define ──────────────


def parity(value):
    return "even" if int(value) % 2 == 0 else "odd"


class ParityLattice(Lattice):
    """⊤ > {even, odd} > ⊥ — Figure 1's shape with two constants."""

    top = TOP
    bottom = BOTTOM

    def meet(self, a, b):
        if a is TOP:
            return b
        if b is TOP or a == b:
            return a
        return BOTTOM

    def is_bottom(self, value):
        return value is BOTTOM


class ParityClient(AnalysisClient):
    """Parity of every procedure's entry values, from the same stage-2
    jump functions constant propagation solves over."""

    name = "parity"
    lattice = ParityLattice()

    def __init__(self, forward):
        self.forward = forward

    def entry_keys(self, lowered, graph):
        return entry_keys(lowered)

    def initial_env(self, lowered, graph):
        val = super().initial_env(lowered, graph)  # ⊤ everywhere
        main_env = val[lowered.program.main]
        for gid in main_env:  # boundary facts: the main program's globals
            data = lowered.program.globals[gid].data_value
            main_env[gid] = parity(data) if isinstance(data, int) else BOTTOM
        return val

    def roots(self, lowered, graph):
        return (lowered.program.main,)

    def flow_edges(self, lowered, graph):
        index = self.forward.support_index(lowered)  # stage-2 flow edges
        edges = []
        for binding_edges in index.seeds.values():
            for e in binding_edges:
                if e.const is not None and is_constant(e.const):
                    func = ConstantEdge(parity(e.const))  # fold the literal
                elif e.passthrough is not None:
                    func = IdentityEdge(e.passthrough)  # parity rides through
                else:
                    func = BottomEdge()  # arithmetic: give up (soundly)
                edges.append(flow_edge(e.site_id, e.caller, e.callee, e.key, func))
        return FlowIndex.build(edges, kill_sources=dict(index.kills))


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
    lowered = lower_program(program)
    ensure_global_symbols(lowered)
    graph = build_call_graph(lowered)
    config = AnalysisConfig()
    modref = compute_modref(lowered, graph)
    returns = build_return_jump_functions(lowered, graph, modref, config)
    forward = build_forward_jump_functions(lowered, modref, returns, config)

    result = solve_client(lowered, graph, ParityClient(forward))
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
