"""The lattice contract and the constant lattice.

A framework lattice is a *meet* semilattice with a greatest element
(``top``) and a least element (``bottom``). The generic engine only
ever moves values *down*: every transfer is met into the target key,
and the solve terminates because each key can lower at most ``height``
times. The engine exploits two structural facts:

- ``top`` is a singleton object, so ``meet(top, x) = x`` is applied by
  identity test without a call;
- ``bottom`` is a singleton too, so the floor is detected by identity
  and edges into an already-⊥ key are skipped entirely
  (``bottom_skips``). ``bottom`` is also what a kill or a support-free
  non-constant edge meets in, and what a source key missing from an
  environment reads as.

Values must be hashable (they ride in the evaluation-memo key) and
comparable with ``==``; the memo slices pair each value with its class
(:func:`repro.framework.engine._memo_value`) so ``True`` never aliases ``1``.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.lattice import BOTTOM, TOP, meet as constant_meet

#: A framework lattice value — any hashable object the client's lattice
#: understands. The engine never inspects values beyond identity/equality
#: tests against ``top``/``bottom`` and calls to ``meet``.
Value = Hashable


class Lattice:
    """Client contract: a bounded-height meet semilattice.

    ``top`` and ``bottom`` must be singletons (compared with ``is``).
    ``meet`` must be commutative, associative, idempotent, and
    monotone-descending: ``meet(a, b) ⊑ a``.
    """

    #: the greatest element (a singleton object).
    top: Value = None
    #: the least element (a singleton object).
    bottom: Value = None

    def meet(self, a: Value, b: Value) -> Value:
        raise NotImplementedError


class ConstantLattice(Lattice):
    """The paper's 3-level lattice (§2 Figure 1) as a framework client
    lattice: ⊤ / the constants / ⊥. Its ``meet`` *is*
    :func:`repro.core.lattice.meet`, so the constprop client meets
    exactly as the dense reference solver does, with no call between."""

    top = TOP
    bottom = BOTTOM
    meet = staticmethod(constant_meet)

