"""Edge functions: the transfer half of a framework client.

An :class:`EdgeFunction` maps a *source environment* (the flow
predecessor's entry-key → value mapping) to one lattice value for one
target key — exactly the shape of the paper's jump functions. Stage 2
needs no wrapper for them: each of its edges carries the binding's
projected :class:`~repro.core.exprs.ValueExpr`, which answers the two
calls the engine makes, ``evaluate`` and ``memo_token``. The three
structural shapes below are the toolkit a client lifts those edges into
(``examples/parity_client.py``).

The engine never calls ``evaluate`` for the three structural shapes it
can transfer directly — constants, identities, and support-free
bottoms: :class:`~repro.framework.client.FlowEdge` caches
``const``/``passthrough``/``support`` when the edge is built, the
hoisting §3.1.5 charges to constructing a jump function rather than to
every pass. ``memo_token()`` keys the evaluation memo: a function
wrapping a hash-consed structure returns the shared structure, and an
interned expression returns itself, so distinct edges carrying the same
function share memo hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.lattice import BOTTOM
from repro.framework.lattice import Value


class EdgeFunction:
    """One transfer: source environment → value for one target key."""

    def evaluate(self, env: Mapping) -> Value:
        raise NotImplementedError

    def support(self) -> tuple:
        """The source keys ``evaluate`` reads, in deterministic order —
        the environment slice that keys the memo and the delta fan-out."""
        raise NotImplementedError

    def memo_token(self) -> object:
        """Identity token for the evaluation memo. Default: the edge
        function object itself (safe — no sharing); override to return
        a hash-consed inner structure for cross-edge memo sharing."""
        return self

    def constant_value(self) -> Value | None:
        """The folded value when this function ignores its environment,
        else ``None`` (``None`` is reserved: never a lattice value)."""
        return None

    def passthrough_key(self) -> object | None:
        """The single source key this function forwards unchanged, else
        ``None`` — the engine inlines such edges as one env fetch."""
        return None


@dataclass(frozen=True, slots=True)
class ConstantEdge(EdgeFunction):
    """λenv. c — the engine transfers ``value`` by meet alone."""

    value: Value

    def evaluate(self, env: Mapping) -> Value:
        return self.value

    def support(self) -> tuple:
        return ()

    def constant_value(self) -> Value | None:
        return self.value


@dataclass(frozen=True, slots=True)
class IdentityEdge(EdgeFunction):
    """λenv. env[key] — the pass-through the engine inlines as a fetch."""

    key: object

    def evaluate(self, env: Mapping) -> Value:
        return env.get(self.key, BOTTOM)

    def support(self) -> tuple:
        return (self.key,)

    def passthrough_key(self) -> object | None:
        return self.key


@dataclass(frozen=True, slots=True)
class BottomEdge(EdgeFunction):
    """λenv. ⊥ — support-free and not constant; the engine applies its
    one floor contribution without ever evaluating it."""

    bottom: Value = BOTTOM

    def evaluate(self, env: Mapping) -> Value:
        return self.bottom

    def support(self) -> tuple:
        return ()
