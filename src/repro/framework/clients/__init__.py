"""The shipped framework analysis beyond the paper's own.

- :mod:`repro.framework.clients.copyprop` — interprocedural copy
  propagation over a lattice that refines the constant lattice with
  copy-of facts; provably subsumes constprop (projecting copies to ⊥
  recovers the constprop fixpoint exactly). Constant propagation itself
  is :func:`repro.core.solver.solve`.

Imported lazily (not by ``repro.framework``) so the contract layer
stays import-light; CLI and tests import the client they need.
"""

from repro.framework.clients.copyprop import (
    CopyLattice,
    CopyOf,
    FactSummary,
    copy_facts,
    copy_seed,
    solve_copyprop,
    summarize_facts,
)

__all__ = [
    "CopyLattice",
    "CopyOf",
    "FactSummary",
    "copy_facts",
    "copy_seed",
    "solve_copyprop",
    "summarize_facts",
]
