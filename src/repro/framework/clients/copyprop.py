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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.core.builder import ForwardFunctions, entry_keys
from repro.core.lattice import BOTTOM, TOP, meet as constant_meet
from repro.frontend.symbols import GlobalId
from repro.framework.client import AnalysisClient, FlowEdge, FlowIndex
from repro.framework.edges import EdgeFunction, ExprEdge
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

    def is_bottom(self, value: Value) -> bool:
        return value is BOTTOM


@dataclass(frozen=True, slots=True)
class ProjectedExprEdge(EdgeFunction):
    """A polynomial jump function lifted to the copy lattice: evaluated
    over the π-projected support slice. Arithmetic over a copy fact is
    not a copy fact (and not a constant), so copies degrade to ⊥ before
    the fold — exactly what makes π commute with this transfer."""

    expr: object
    keys: tuple

    def apply(self, env: Mapping) -> Value:
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
    """One stage-2 constprop edge on the copy lattice: polynomials are
    re-wrapped to evaluate over the projected slice; constants, ⊥, and
    pass-throughs (copies ride them intact) carry over unchanged."""
    func = edge.func
    if func.__class__ is not ExprEdge:
        return edge
    return replace(edge, func=ProjectedExprEdge(func.expr, edge.support))


class CopyPropClient(AnalysisClient):
    """Copy propagation across call bindings, over the stage-2 jump
    functions. Same flow graph, roots, and kill structure as constprop;
    only the lattice, the seeds, and the polynomial transfers differ."""

    name = "copyprop"
    lattice = CopyLattice()

    def __init__(self, forward: ForwardFunctions):
        self.forward = forward

    def entry_keys(self, lowered, graph) -> dict[str, list]:
        return entry_keys(lowered)

    def initial_env(self, lowered, graph) -> dict[str, dict]:
        """⊤ everywhere; the main program's globals seed at their DATA
        constants, and *uninitialized* globals seed as ``CopyOf`` roots
        — the single place this analysis strictly refines constprop's
        seeds (which floor them to ⊥)."""
        val: dict[str, dict] = {
            name: {key: TOP for key in keys}
            for name, keys in entry_keys(lowered).items()
        }
        main = lowered.program.main
        main_env = val[main]
        for gid in list(main_env):
            if not isinstance(gid, GlobalId):
                continue
            data = lowered.program.globals[gid].data_value
            if isinstance(data, bool) or isinstance(data, int):
                main_env[gid] = data
            else:
                main_env[gid] = CopyOf(main, gid)  # unknown but fixed
        return val

    def roots(self, lowered, graph) -> tuple[str, ...]:
        return (lowered.program.main,)

    def flow_edges(self, lowered, graph) -> FlowIndex:
        index = self.forward.support_index(lowered)
        cached = getattr(self.forward, "_copyprop_flow_index", None)
        if cached is not None and cached[0] is index:
            return cached[1]
        mapping: dict[int, FlowEdge] = {}

        def translated(edge: FlowEdge) -> FlowEdge:
            flow = mapping.get(id(edge))
            if flow is None:
                flow = mapping[id(edge)] = _lift_edge(edge)
            return flow

        flow_index = FlowIndex(
            {
                proc: tuple(translated(edge) for edge in edges)
                for proc, edges in index.seeds.items()
            },
            dict(index.kills),
            {
                binding: tuple(translated(edge) for edge in edges)
                for binding, edges in index.dependents.items()
            },
            dict(index.callees),
        )
        try:
            self.forward._copyprop_flow_index = (index, flow_index)
        except AttributeError:
            pass
        return flow_index


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
