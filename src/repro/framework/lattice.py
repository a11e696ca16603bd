"""The lattice contract and the shipped lattices.

A framework lattice is a *meet* semilattice with a greatest element
(``top``) and, optionally, a least element (``bottom``). The generic
engine only ever moves values *down*: every transfer is met into the
target key, and the solve terminates because each key can lower at most
``height`` times. The engine exploits two structural facts when the
lattice provides them:

- ``top`` is a singleton object, so ``meet(top, x) = x`` is applied by
  identity test without a call;
- ``is_bottom(v)`` detects the floor, so edges into an already-⊥ key
  are skipped entirely (``bottom_skips``) — lattices with no finite
  floor (e.g. powersets under union) simply return ``False`` and give
  up that short-circuit, nothing else.

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

    ``top`` must be a singleton (compared with ``is``); ``bottom`` may
    be ``None``-able semantics via :meth:`is_bottom` returning ``False``
    always (no finite floor). ``meet`` must be commutative, associative,
    idempotent, and monotone-descending: ``meet(a, b) ⊑ a``.
    """

    #: the greatest element (a singleton object).
    top: Value = None
    #: the least element, or a conventional floor; meaningful only when
    #: :meth:`is_bottom` can recognize it.
    bottom: Value = None

    def meet(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def is_bottom(self, value: Value) -> bool:
        """Whether ``value`` is the floor (enables the ⊥ short-circuit
        and seed-time kills). Default: identity with ``bottom``."""
        return value is self.bottom


class ConstantLattice(Lattice):
    """The paper's 3-level lattice (§2 Figure 1) as a framework client
    lattice: ⊤ / the constants / ⊥, delegating to
    :func:`repro.core.lattice.meet` so the constprop client meets
    exactly as the dense reference solver does."""

    top = TOP
    bottom = BOTTOM

    def meet(self, a: Value, b: Value) -> Value:
        return constant_meet(a, b)

    def is_bottom(self, value: Value) -> bool:
        return value is BOTTOM


class PowersetLattice(Lattice):
    """Sets under union, ordered by ⊇-is-lower: ⊤ is the empty set and
    meet accumulates facts. There is no finite ⊥ (the universe is not
    materialized), so :meth:`is_bottom` is constantly ``False`` and the
    engine's floor short-circuit is simply inert. Used by the MOD/REF
    client, whose "values" are frozensets of affected storage slots."""

    top: frozenset = frozenset()
    bottom = None  # no finite floor: is_bottom is constantly False

    def meet(self, a: Value, b: Value) -> Value:
        if not b:
            return a
        if not a:
            return b
        union = a | b
        # Preserve object identity when nothing new arrived — the
        # engine's `new != old` test then sees dict-equal values and
        # does not propagate a spurious delta (frozenset equality would
        # too, but identity keeps the common case allocation-free).
        if len(union) == len(a):
            return a
        return union

    def is_bottom(self, value: Value) -> bool:
        return False
