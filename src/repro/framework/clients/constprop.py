"""Constant propagation as a framework client — the paper's stage 3.

The paper's pipeline already produces everything this client needs:
stage 2's :class:`~repro.core.builder.ForwardFunctions` carry one jump
function per (call site, callee entry key), and
:func:`~repro.core.builder.build_support_index` emits them as the
client's :class:`~repro.framework.client.FlowIndex` — constant,
pass-through, polynomial, and ⊥ jump functions as
:class:`~repro.framework.edges.ConstantEdge`,
:class:`~repro.framework.edges.IdentityEdge`,
:class:`~repro.framework.edges.ExprEdge`, and
:class:`~repro.framework.edges.BottomEdge` functions. This client only
names the lattice, the seed environment, and the root;
:func:`repro.core.solver.solve` runs it.

``tests/properties/test_solver_equivalence.py`` pins the result down
against the dense reference solver: identical VALs (value *and* class,
so a LOGICAL ``.true.`` never passes for an INTEGER ``1``) across the
workload suite and hypothesis-generated programs.
"""

from __future__ import annotations

from repro.core.builder import ForwardFunctions, entry_keys
from repro.core.solver import initial_val
from repro.framework.client import AnalysisClient, FlowIndex, RegionPartition
from repro.framework.lattice import ConstantLattice


class ConstPropClient(AnalysisClient):
    """The 3-level constant lattice + jump functions, as a client."""

    name = "constprop"
    lattice = ConstantLattice()

    def __init__(self, forward: ForwardFunctions):
        self.forward = forward

    def entry_keys(self, lowered, graph) -> dict[str, list]:
        return entry_keys(lowered)

    def initial_env(self, lowered, graph) -> dict[str, dict]:
        return initial_val(lowered)

    def roots(self, lowered, graph) -> tuple[str, ...]:
        return (lowered.program.main,)

    def flow_edges(self, lowered, graph) -> FlowIndex:
        return self.forward.support_index(lowered)

    def partition(self, lowered, graph, region_of) -> RegionPartition:
        """The stage-2 index split along region boundaries, computed once
        per (index, schedule) pair — repeated solves over one stage-2
        output share the split."""
        index = self.flow_edges(lowered, graph)
        cached = getattr(self.forward, "_region_partition", None)
        if cached is not None:
            cached_index, cached_region_of, partition = cached
            if cached_index is index and cached_region_of is region_of:
                return partition
        partition = RegionPartition(index, region_of)
        try:
            # keyed by index identity: tampering with the site table and
            # clearing forward.index (tests do) must invalidate the split
            self.forward._region_partition = (index, region_of, partition)
        except AttributeError:
            pass  # slotted stand-ins simply rebuild per solve
        return partition
