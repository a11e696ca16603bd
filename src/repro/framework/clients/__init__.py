"""The shipped framework analyses.

- :mod:`repro.framework.clients.constprop` — the paper's jump-function
  constant propagation; :func:`repro.core.solver.solve` runs it.
- :mod:`repro.framework.clients.copyprop` — interprocedural copy
  propagation over a lattice that refines the constant lattice with
  copy-of facts; provably subsumes constprop (projecting copies to ⊥
  recovers the constprop fixpoint exactly).
- :mod:`repro.framework.clients.modref` — MOD/REF side-effect
  summaries re-derived as a reverse-flow powerset dataflow problem,
  cross-checked against :func:`repro.callgraph.modref.compute_modref`.

Imported lazily (not by ``repro.framework``) so the contract layer
stays import-light; CLI and tests import the concrete client they need.
"""

from repro.framework.clients.constprop import ConstPropClient
from repro.framework.clients.copyprop import CopyOf, CopyPropClient
from repro.framework.clients.modref import ModRefClient, cross_check_modref

__all__ = [
    "ConstPropClient",
    "CopyOf",
    "CopyPropClient",
    "ModRefClient",
    "cross_check_modref",
]
