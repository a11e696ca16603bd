"""Analysis-agnostic interprocedural dataflow framework — stage 3.

The paper's stage 3 (§4.1) is one worklist over jump functions. This
package is that worklist, factored in the IFDS/IDE tradition (and the
value-contexts formulation of Padhye & Khedker). Every client runs over
stage 2's jump functions, from the main program: one
:class:`~repro.framework.client.FlowEdge` per binding, whose function
is the binding's projected expression. A client supplies three things:
a :class:`~repro.framework.lattice.Lattice`, its seed VAL, and
optionally a *lift* mapping each stage-2 edge to the client's transfer
for the same binding (an :class:`~repro.framework.edges.EdgeFunction`).
:func:`~repro.framework.engine.solve_client` runs the seed/delta/flush
fixed-point discipline over them. Constant propagation
(:func:`repro.core.solver.solve`) is the constant lattice with no lift.

Layering (no cycles):

- :mod:`repro.framework.worklist` and :mod:`repro.framework.driver`
  hold the scheduling core: the reverse-postorder priority worklist and
  the region schedule loop.
- :mod:`repro.framework.lattice`, :mod:`repro.framework.edges`, and
  :mod:`repro.framework.client` define the lattice and edge contracts
  and the indexed edge structure
  (:class:`~repro.framework.client.FlowIndex`,
  :class:`~repro.framework.client.RegionPartition`).
- :mod:`repro.framework.engine` is the sparse engine, the
  :class:`~repro.framework.engine.SolveResult` every solve returns, and
  :func:`~repro.framework.engine.solve_client`.
- :mod:`repro.framework.clients` hosts interprocedural copy
  propagation (subsumes constprop).
"""

from repro.framework.client import (
    FlowEdge,
    FlowIndex,
    RegionPartition,
    flow_edge,
)
from repro.framework.edges import (
    BottomEdge,
    ConstantEdge,
    EdgeFunction,
    IdentityEdge,
)
from repro.framework.engine import SolveResult, solve_client
from repro.framework.lattice import ConstantLattice, Lattice

__all__ = [
    "BottomEdge",
    "ConstantEdge",
    "ConstantLattice",
    "EdgeFunction",
    "FlowEdge",
    "FlowIndex",
    "flow_edge",
    "IdentityEdge",
    "Lattice",
    "RegionPartition",
    "SolveResult",
    "solve_client",
]
