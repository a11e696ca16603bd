"""Edge functions: the transfer half of a framework client.

An :class:`EdgeFunction` maps a *source environment* (the flow
predecessor's entry-key → value mapping) to one lattice value for one
target key — exactly the shape of the paper's jump functions, which is
what makes the constprop pipeline a client of this framework: stage 2
emits its jump functions as the four structural shapes below. The
IDE-style algebra is provided:

- ``identity(key)`` — the pass-through edge λenv. env[key];
- ``f.compose(bindings)`` — substitution: evaluate ``f`` in an
  environment where each bound key is produced by another edge function
  (how a call-through-call summary edge is built);
- ``f.meet_with(lattice, g)`` — the pointwise meet of two edges (how
  parallel paths into the same target key fold into one function).

The engine never calls ``apply`` for the three structural shapes it
can transfer directly — constants, identities, and support-free
bottoms — the build-time hoisting §3.1.5 charges to constructing a
jump function rather than to every pass. ``memo_token()`` keys the
evaluation memo: edge functions wrapping hash-consed structures (e.g.
:class:`ExprEdge` over interned ``ValueExpr`` trees) return the shared
structure so distinct edges carrying the same function share memo hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.exprs import ValueExpr
from repro.core.lattice import BOTTOM
from repro.framework.lattice import Lattice, Value


class EdgeFunction:
    """One transfer: source environment → value for one target key."""

    def apply(self, env: Mapping) -> Value:
        raise NotImplementedError

    def support(self) -> tuple:
        """The source keys ``apply`` reads, in deterministic order —
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

    @staticmethod
    def identity(key: object) -> "IdentityEdge":
        return IdentityEdge(key)

    def compose(self, bindings: Mapping[object, "EdgeFunction"]) -> "EdgeFunction":
        """Substitution composition: this function evaluated in an
        environment where each key of ``bindings`` is produced by the
        bound edge function (unbound keys read through unchanged)."""
        if not bindings:
            return self
        const = self.constant_value()
        if const is not None:
            return ConstantEdge(const)  # ignores its environment entirely
        through = self.passthrough_key()
        if through is not None:
            inner = bindings.get(through)
            return inner if inner is not None else self
        return SubstitutedEdge(self, dict(bindings))

    def meet_with(self, lattice: Lattice, other: "EdgeFunction") -> "EdgeFunction":
        """The pointwise meet of two edges into the same target key."""
        return MeetEdge(lattice, (self, other))


@dataclass(frozen=True, slots=True)
class ConstantEdge(EdgeFunction):
    """λenv. c — the engine transfers ``value`` by meet alone."""

    value: Value

    def apply(self, env: Mapping) -> Value:
        return self.value

    def support(self) -> tuple:
        return ()

    def constant_value(self) -> Value | None:
        return self.value


@dataclass(frozen=True, slots=True)
class IdentityEdge(EdgeFunction):
    """λenv. env[key] — the pass-through the engine inlines as a fetch."""

    key: object

    def apply(self, env: Mapping) -> Value:
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

    def apply(self, env: Mapping) -> Value:
        return self.bottom

    def support(self) -> tuple:
        return ()


@dataclass(frozen=True, slots=True)
class ExprEdge(EdgeFunction):
    """A polynomial jump function as an edge: wraps a hash-consed
    :class:`repro.core.exprs.ValueExpr` and shares its identity as the
    memo token, so distinct sites passing the same interned polynomial
    share memo entries."""

    expr: ValueExpr
    keys: tuple

    def apply(self, env: Mapping) -> Value:
        return self.expr.evaluate(env)

    def support(self) -> tuple:
        return self.keys

    def memo_token(self) -> object:
        return self.expr


class SubstitutedEdge(EdgeFunction):
    """``outer`` evaluated through per-key inner edges (composition)."""

    __slots__ = ("outer", "bindings", "_support")

    def __init__(self, outer: EdgeFunction, bindings: dict):
        self.outer = outer
        self.bindings = bindings
        keys: dict = {}
        for key in outer.support():
            inner = bindings.get(key)
            if inner is None:
                keys[key] = None
            else:
                for inner_key in inner.support():
                    keys[inner_key] = None
        self._support = tuple(keys)

    def apply(self, env: Mapping) -> Value:
        inner_env = dict(env)
        for key, inner in self.bindings.items():
            inner_env[key] = inner.apply(env)
        return self.outer.apply(inner_env)

    def support(self) -> tuple:
        return self._support


class MeetEdge(EdgeFunction):
    """The pointwise meet of several edges into one target key."""

    __slots__ = ("lattice", "members", "_support")

    def __init__(self, lattice: Lattice, members: tuple):
        flat: list[EdgeFunction] = []
        for member in members:
            if isinstance(member, MeetEdge) and member.lattice is lattice:
                flat.extend(member.members)
            else:
                flat.append(member)
        self.lattice = lattice
        self.members = tuple(flat)
        keys: dict = {}
        for member in self.members:
            for key in member.support():
                keys[key] = None
        self._support = tuple(keys)

    def apply(self, env: Mapping) -> Value:
        return self.lattice.meet_all(member.apply(env) for member in self.members)

    def support(self) -> tuple:
        return self._support
