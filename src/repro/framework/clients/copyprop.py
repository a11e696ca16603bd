"""Interprocedural copy propagation — the first genuinely new client.

The intraprocedural :mod:`repro.analysis.copyprop` rewrites ``x = y``
chains inside one procedure. This client generalizes the idea across
call bindings: its lattice refines the 3-level constant lattice with a
family of *copy facts* —

    ⊤  >  { constants }  ∪  { CopyOf(root) }  >  ⊥

where a root is a (main program, entry key) pair: ``CopyOf(root)``
means "this entry key always holds exactly the value ``root`` held at
program entry, whatever that value was". The main program executes
once, so a root names a single well-defined runtime value even when no
constant is known for it — precisely the facts constant propagation
throws away as ⊥.

**Copy propagation subsumes constant propagation.** Let π project the
copy lattice onto the constant lattice: π(⊤) = ⊤, π(c) = c,
π(CopyOf(r)) = ⊥, π(⊥) = ⊥. π is a meet-homomorphism, and it commutes
with every transfer this client builds from the stage-2 jump functions:
constant edges ignore the environment, identity (pass-through) edges
commute trivially, and polynomial edges are evaluated in the
π-projected environment (a copy fact is not a constant you can fold
arithmetic over). The initial environments satisfy π(copy seed) =
constprop seed (uninitialized main globals seed as ``CopyOf`` instead
of ⊥). Two monotone systems related by a surjective homomorphism have
π(gfp) = gfp of the projected system — so projecting this client's
fixpoint yields the constprop fixpoint *exactly*: every constant
constprop finds appears here identically, and every ⊥ is either ⊥ or
refined into a copy fact. ``tests/framework/test_copyprop_client.py``
asserts both directions, and that the refinement is strict on programs
that pass unknown entry values down call chains.

As a framework client it is three things — :class:`CopyLattice`,
:func:`copy_seed` and the edge lift :func:`_lift_edge` — and
:func:`solve_copyprop` solves them. ``repro analyze --analysis
copyprop``, the daemon's ``"analysis": "copyprop"`` and the RL130/RL131
lint passes all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.core.builder import ForwardFunctions
from repro.core.lattice import BOTTOM, TOP, is_constant, meet as constant_meet
from repro.core.solver import initial_val
from repro.framework.client import FlowEdge
from repro.framework.edges import EdgeFunction
from repro.framework.engine import solve_client
from repro.framework.lattice import Lattice, Value


@dataclass(frozen=True, slots=True)
class CopyOf:
    """The copy fact: "equal to what ``(proc, key)`` held at entry"."""

    proc: str
    key: object

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"copy-of({self.proc}, {self.key})"


def project(value: Value) -> Value:
    """π: the copy lattice onto the constant lattice (copies become ⊥)."""
    return BOTTOM if value.__class__ is CopyOf else value


class CopyLattice(Lattice):
    """The constant lattice refined with the ``CopyOf`` middle family."""

    top = TOP
    bottom = BOTTOM

    def meet(self, a: Value, b: Value) -> Value:
        if a is TOP:
            return b
        if b is TOP:
            return a
        if a is BOTTOM or b is BOTTOM:
            return BOTTOM
        a_copy = a.__class__ is CopyOf
        if a_copy or b.__class__ is CopyOf:
            # two identical copy facts agree; a copy against anything
            # else (a different root, a constant) is ⊥ — a constant is
            # *a particular* value, a copy fact *whatever the root was*,
            # and nothing proves they coincide.
            if a_copy and b.__class__ is CopyOf and a == b:
                return a
            return BOTTOM
        return constant_meet(a, b)


@dataclass(frozen=True, slots=True)
class ProjectedExprEdge(EdgeFunction):
    """A polynomial jump function lifted to the copy lattice: evaluated
    over the π-projected support slice. Arithmetic over a copy fact is
    not a copy fact (and not a constant), so copies degrade to ⊥ before
    the fold — exactly what makes π commute with this transfer."""

    expr: object
    keys: tuple

    def evaluate(self, env: Mapping) -> Value:
        projected = {
            key: project(env.get(key, BOTTOM)) for key in self.keys
        }
        return self.expr.evaluate(projected)

    def support(self) -> tuple:
        return self.keys

    def memo_token(self) -> object:
        # the interned expression: distinct edges wrapping one expr
        # share memo entries (the slice carries the projected classes,
        # so copy-valued and constant-valued slices never collide).
        return self.expr


def _lift_edge(edge: FlowEdge) -> FlowEdge:
    """One stage-2 constprop edge on the copy lattice: polynomials (not
    constant, not a pass-through, reading some support) are re-wrapped
    to evaluate over the projected slice; constants, ⊥, and
    pass-throughs (copies ride them intact) carry over unchanged."""
    if edge.const is None and edge.passthrough is None and edge.support:
        return replace(edge, func=ProjectedExprEdge(edge.func, edge.support))
    return edge


def copy_seed(lowered) -> dict[str, dict]:
    """Constprop's seed (:func:`repro.core.solver.initial_val`) with
    each *uninitialized* main-program global seeded as its own
    ``CopyOf`` root instead of ⊥ — the single place this analysis
    strictly refines constprop's seeds."""
    val = initial_val(lowered)
    main = lowered.program.main
    main_env = val[main]
    for key, value in main_env.items():
        if value is BOTTOM:
            main_env[key] = CopyOf(main, key)  # unknown but fixed
    return val


def solve_copyprop(lowered, graph, forward: ForwardFunctions):
    """Copy propagation across call bindings: the copy lattice and seed
    over the stage-2 jump functions, polynomials lifted by
    :func:`_lift_edge`. Same flow graph, root and kills as constprop."""
    return solve_client(
        lowered, graph, forward, CopyLattice(), copy_seed(lowered), _lift_edge
    )


def copy_facts(result) -> dict[str, dict]:
    """The entry keys the solve proved to be copies: VAL restricted to
    ``CopyOf`` values — the facts constant propagation cannot express."""
    return {
        proc: {
            key: value
            for key, value in env.items()
            if value.__class__ is CopyOf
        }
        for proc, env in result.val.items()
    }


@dataclass(frozen=True)
class FactSummary:
    """What ``repro analyze --analysis copyprop`` and the daemon report:
    per procedure, in name order, each entry key bound to a constant or
    a copy (⊤ and ⊥ are no facts), and how many of each there are."""

    facts: dict[str, dict]
    constant_facts: int
    copy_facts: int


def summarize_facts(result) -> FactSummary:
    """:class:`FactSummary` of a :func:`solve_copyprop` result."""
    facts = {
        proc: {
            key: value
            for key, value in result.val[proc].items()
            if value.__class__ is CopyOf or is_constant(value)
        }
        for proc in sorted(result.val)
    }
    copies = sum(len(env) for env in copy_facts(result).values())
    return FactSummary(facts, sum(map(len, facts.values())) - copies, copies)
