"""Analysis-agnostic interprocedural dataflow framework — stage 3.

The paper's stage 3 (§4.1) is one worklist over jump functions. This
package is that worklist, factored in the IFDS/IDE tradition (and the
value-contexts formulation of Padhye & Khedker): a client supplies a
:class:`~repro.framework.lattice.Lattice`,
:class:`~repro.framework.edges.EdgeFunction` transfers attached to
:class:`~repro.framework.client.FlowEdge` call-graph edges, seed
environments, and roots; :func:`~repro.framework.engine.solve_client`
runs the seed/delta/flush fixed-point discipline over them. Constant
propagation is one client among three.

Layering (no cycles):

- :mod:`repro.framework.worklist` and :mod:`repro.framework.driver`
  hold the scheduling core: the reverse-postorder priority worklist and
  the region / global schedule loops.
- :mod:`repro.framework.lattice`, :mod:`repro.framework.edges`, and
  :mod:`repro.framework.client` define the client contracts and the
  indexed edge structure (:class:`~repro.framework.client.FlowIndex`,
  :class:`~repro.framework.client.RegionPartition`).
- :mod:`repro.framework.engine` is the sparse engine and the
  :class:`~repro.framework.engine.SolveResult` every solve returns.
- :mod:`repro.framework.clients` hosts the shipped analyses:
  constant propagation (what :func:`repro.core.solver.solve` runs),
  interprocedural copy propagation (subsumes constprop), and
  MOD/REF-as-dataflow (cross-checked against
  :mod:`repro.callgraph.modref`).
"""

from repro.framework.client import (
    AnalysisClient,
    FlowEdge,
    FlowIndex,
    RegionPartition,
    flow_edge,
)
from repro.framework.edges import (
    BottomEdge,
    ConstantEdge,
    EdgeFunction,
    ExprEdge,
    IdentityEdge,
)
from repro.framework.engine import SolveResult, solve_client
from repro.framework.lattice import (
    ConstantLattice,
    Lattice,
    PowersetLattice,
)

__all__ = [
    "AnalysisClient",
    "BottomEdge",
    "ConstantEdge",
    "ConstantLattice",
    "EdgeFunction",
    "ExprEdge",
    "FlowEdge",
    "FlowIndex",
    "flow_edge",
    "IdentityEdge",
    "Lattice",
    "PowersetLattice",
    "RegionPartition",
    "SolveResult",
    "solve_client",
]
