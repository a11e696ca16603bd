"""Unit tests for interprocedural MOD/REF analysis, and for the
``repro analyze --analysis modref`` and daemon renderings of it."""

import glob

import pytest
from hypothesis import HealthCheck, given, settings

from repro.callgraph import (
    ModRefInfo,
    build_call_graph,
    compute_modref,
    make_call_effects,
    modref,
)
from repro.cli import main
from repro.frontend import parse_program
from repro.frontend.symbols import GlobalId
from repro.ir import lower_program
from repro.ir.cfg import ControlFlowGraph
from repro.service import AnalysisService
from repro.workloads import load, suite_names

from ..properties.strategies import programs


def modref_of(source):
    lowered = lower_program(parse_program(source))
    graph = build_call_graph(lowered)
    return compute_modref(lowered, graph), lowered


def summaries_of(source):
    """``{proc: {"mod": [...], "ref": [...]}}`` from :func:`compute_modref`:
    formals by name, globals by display name, each sorted."""
    info, lowered = modref_of(source)
    display = lowered.program.global_display
    return {
        proc: {
            "mod": sorted(
                [*info.mod_formals[proc], *map(display, info.mod_globals[proc])]
            ),
            "ref": sorted(
                [*info.ref_formals[proc], *map(display, info.ref_globals[proc])]
            ),
        }
        for proc in sorted(lowered.procedures)
    }


DIRECT_RECURSION = """
program main
  integer n
  n = 5
  call f(n)
end
subroutine f(a)
  integer a
  if (a > 0) then
    a = a - 1
    call f(a)
  endif
end
"""

# g writes its formal directly; f only does so via the f→g edge, and
# g's recursive call back to f closes the cycle the solver must iterate
# through.
MUTUAL_RECURSION = """
program main
  integer n
  n = 3
  call f(n)
end
subroutine f(a)
  integer a
  call g(a)
end
subroutine g(b)
  integer b
  if (b > 0) then
    call f(b)
  endif
  b = 0
end
"""

TWO_CHAINS = """
program main
  common /c/ g
  integer g
  call chainw
  call chainr
end
subroutine chainw
  call leafw
end
subroutine leafw
  common /c/ w
  integer w
  w = 7
end
subroutine chainr
  call leafr
end
subroutine leafr
  common /c/ r
  integer r
  write r
end
"""

ZERO_FORMALS = """
program main
  common /c/ g
  integer g
  call setup
  write g
end
subroutine setup
  common /c/ x
  integer x
  x = 42
end
"""

TRANSITIVE_NEST = """
program main
  integer n
  call outer(n)
end
subroutine outer(p)
  integer p
  call inner(p)
end
subroutine inner(q)
  integer q
  q = 9
end
"""

VALUE_ARG_BREAKS_CHAIN = TRANSITIVE_NEST.replace(
    "call inner(p)", "call inner(p + 0)"
)

RECURSIVE_TWO_FORMALS = """
program main
  integer n
  call rec(n, 3)
end
subroutine rec(a, d)
  integer a, d
  if (d > 0) then
    call rec(a, d - 1)
  else
    a = 0
  endif
end
"""

# A procedure main never calls still gets its summaries.
UNREACHED = ZERO_FORMALS + """
subroutine orphan(z)
  common /c/ y
  integer z, y
  z = y
end
"""


class TestDirectEffects:
    def test_assigned_formal_in_mod(self):
        source = """
program main
  call s(n)
end
subroutine s(a)
  integer a
  a = 1
end
"""
        info, _ = modref_of(source)
        assert info.modifies_formal("s", "a")

    def test_read_only_formal_not_in_mod(self):
        source = """
program main
  call s(n)
end
subroutine s(a)
  integer a
  b = a
end
"""
        info, _ = modref_of(source)
        assert not info.modifies_formal("s", "a")
        assert info.references_formal("s", "a")

    def test_assigned_global_in_mod(self):
        source = """
program main
  common /c/ g
  integer g
  call s
end
subroutine s
  common /c/ h
  integer h
  h = 1
end
"""
        info, _ = modref_of(source)
        assert info.modifies_global("s", GlobalId("c", 0))

    def test_array_store_mods_array(self):
        source = """
program main
  call s(v)
  integer v(5)
end
"""
        # declarations first; rebuild correctly
        source = """
program main
  integer v(5)
  call s(v)
end
subroutine s(w)
  integer w(5)
  w(1) = 0
end
"""
        info, _ = modref_of(source)
        assert info.modifies_formal("s", "w")

    def test_read_statement_is_mod(self):
        source = """
program main
  call s(n)
end
subroutine s(a)
  integer a
  read a
end
"""
        info, _ = modref_of(source)
        assert info.modifies_formal("s", "a")


class TestTransitiveEffects:
    def test_mod_propagates_through_binding(self):
        info, _ = modref_of(TRANSITIVE_NEST)
        assert info.modifies_formal("inner", "q")
        assert info.modifies_formal("outer", "p")

    def test_global_mod_propagates_to_callers(self):
        source = """
program main
  call middle
end
subroutine middle
  call leaf
end
subroutine leaf
  common /c/ g
  integer g
  g = 1
end
"""
        info, _ = modref_of(source)
        assert info.modifies_global("middle", GlobalId("c", 0))
        assert info.modifies_global("main", GlobalId("c", 0))

    def test_value_argument_breaks_mod_chain(self):
        info, _ = modref_of(VALUE_ARG_BREAKS_CHAIN)
        assert info.modifies_formal("inner", "q")
        assert not info.modifies_formal("outer", "p")

    def test_value_argument_breaks_binding(self):
        """``p + 0`` still reads p, but q's MOD does not bind back to it."""
        info, _ = modref_of(VALUE_ARG_BREAKS_CHAIN)
        assert info.mod_formals["inner"] == {"q"}
        assert info.mod_formals["outer"] == set()
        assert info.ref_formals["outer"] == {"p"}

    def test_global_passed_as_actual(self):
        source = """
program main
  common /c/ g
  integer g
  call s(g)
end
subroutine s(a)
  integer a
  a = 3
end
"""
        info, _ = modref_of(source)
        assert info.modifies_global("main", GlobalId("c", 0))

    def test_recursive_mod_converges(self):
        info, _ = modref_of(RECURSIVE_TWO_FORMALS)
        assert info.modifies_formal("rec", "a")
        assert not info.modifies_formal("rec", "d")


class TestCallEffectsFactory:
    SRC = """
program main
  common /c/ g, h
  integer g, h
  integer n, m
  call s(n, m)
end
subroutine s(a, b)
  integer a, b
  common /c/ x, y
  integer x, y
  a = 1
  x = 2
end
"""

    def test_with_mod_kills_exact_set(self):
        info, lowered = modref_of(self.SRC)
        effects = make_call_effects(lowered, "main", info)
        call = lowered.procedure("main").call_instrs[0]
        kills = effects(call)
        killed = {symbol.name for symbol, _ in kills}
        assert killed == {"n", "g"}

    def test_without_mod_kills_all_visible(self):
        info, lowered = modref_of(self.SRC)
        effects = make_call_effects(lowered, "main", None)
        call = lowered.procedure("main").call_instrs[0]
        killed = {symbol.name for symbol, _ in effects(call)}
        assert killed == {"n", "m", "g", "h"}

    def test_bindings_describe_callee_keys(self):
        info, lowered = modref_of(self.SRC)
        effects = make_call_effects(lowered, "main", info)
        call = lowered.procedure("main").call_instrs[0]
        bindings = {binding for _, binding in effects(call)}
        assert ("formal", "a") in bindings
        assert ("global", GlobalId("c", 0)) in bindings


class TestRecursion:
    """MOD/REF must reach a fixpoint through recursive call cycles."""

    def test_direct_recursion_propagates_effects(self):
        info, _ = modref_of(DIRECT_RECURSION)
        assert info.modifies_formal("f", "a")
        assert info.references_formal("f", "a")

    def test_mutual_recursion_carries_mod_around_the_cycle(self):
        info, _ = modref_of(MUTUAL_RECURSION)
        assert info.modifies_formal("g", "b")
        assert info.modifies_formal("f", "a")
        assert info.references_formal("g", "b")
        assert info.references_formal("f", "a")

    def test_mutual_recursion_summary_contents(self):
        """g writes its formal directly, f only through the f→g→f cycle;
        neither touches a global."""
        info, _ = modref_of(MUTUAL_RECURSION)
        assert info.mod_formals["f"] == {"a"}
        assert info.mod_formals["g"] == {"b"}
        assert info.ref_formals["f"] == {"a"}
        assert not info.mod_globals["f"] and not info.mod_globals["g"]


class TestGlobalThroughTwoChains:
    """One COMMON slot MOD'd via one call chain and REF'd via another:
    both effects must surface in every caller on the respective chain."""

    def test_effects_at_the_leaves(self):
        info, _ = modref_of(TWO_CHAINS)
        gid = GlobalId("c", 0)
        assert info.modifies_global("leafw", gid)
        assert not info.references_global("leafw", gid)
        assert info.references_global("leafr", gid)
        assert not info.modifies_global("leafr", gid)

    def test_each_chain_carries_only_its_own_effect(self):
        info, _ = modref_of(TWO_CHAINS)
        gid = GlobalId("c", 0)
        assert info.modifies_global("chainw", gid)
        assert not info.references_global("chainw", gid)
        assert info.references_global("chainr", gid)
        assert not info.modifies_global("chainr", gid)

    def test_main_sees_both_effects(self):
        info, _ = modref_of(TWO_CHAINS)
        gid = GlobalId("c", 0)
        assert info.modifies_global("main", gid)
        assert info.references_global("main", gid)


class TestZeroFormals:
    def test_procedure_with_no_formals(self):
        info, lowered = modref_of(ZERO_FORMALS)
        assert lowered.procedure("setup").procedure.formals == []
        assert info.mod_formals["setup"] == set()
        assert info.ref_formals["setup"] == set()
        assert info.modifies_global("setup", GlobalId("c", 0))


def summary(mod=(), ref=()):
    return {"mod": list(mod), "ref": list(ref)}


EDGE_CASES = {
    "direct_recursion": (
        DIRECT_RECURSION,
        {"f": summary(["a"], ["a"]), "main": summary()},
    ),
    "mutual_recursion": (
        MUTUAL_RECURSION,
        {
            "f": summary(["a"], ["a"]),
            "g": summary(["b"], ["b"]),
            "main": summary(),
        },
    ),
    "two_chains": (
        TWO_CHAINS,
        {
            "chainr": summary(ref=["c.g"]),
            "chainw": summary(mod=["c.g"]),
            "leafr": summary(ref=["c.g"]),
            "leafw": summary(mod=["c.g"]),
            "main": summary(["c.g"], ["c.g"]),
        },
    ),
    "zero_formals": (
        ZERO_FORMALS,
        {"main": summary(["c.g"], ["c.g"]), "setup": summary(mod=["c.g"])},
    ),
    # passing p as an actual reads it; inner's write lands on p
    "transitive_nest": (
        TRANSITIVE_NEST,
        {
            "inner": summary(mod=["q"]),
            "main": summary(),
            "outer": summary(["p"], ["p"]),
        },
    ),
    "value_arg_breaks_chain": (
        VALUE_ARG_BREAKS_CHAIN,
        {
            "inner": summary(mod=["q"]),
            "main": summary(),
            "outer": summary(ref=["p"]),
        },
    ),
    "recursive_two_formals": (
        RECURSIVE_TWO_FORMALS,
        {"main": summary(), "rec": summary(["a"], ["a", "d"])},
    ),
    "unreached": (
        UNREACHED,
        {
            "main": summary(["c.g"], ["c.g"]),
            "orphan": summary(["z"], ["c.g"]),
            "setup": summary(mod=["c.g"]),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_summaries(name):
    source, expected = EDGE_CASES[name]
    assert summaries_of(source) == expected


@pytest.mark.parametrize(
    "name", sorted(glob.glob("examples/*.f")) + suite_names()
)
def test_cli_and_daemon_print_compute_modref(name, tmp_path, capsys):
    """``--analysis modref`` stdout and the daemon's ``summaries`` are
    exactly :func:`compute_modref`'s sets, for every procedure of each
    example file and suite program."""
    if name.endswith(".f"):
        with open(name) as handle:
            source = handle.read()
    else:
        source = load(name).source
    expected = summaries_of(source)
    program_file = tmp_path / "program.f"
    program_file.write_text(source)

    assert main(["analyze", str(program_file), "--analysis", "modref"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[1] == "analysis: modref"
    printed = lines[2:]
    assert printed == [
        f"{kind.upper()}({proc}) = {{{', '.join(sets[kind])}}}"
        for proc, sets in expected.items()
        for kind in ("mod", "ref")
    ]
    assert captured.err == ""

    response = AnalysisService().handle(
        {"id": "m", "source": source, "analysis": "modref"}
    )
    assert response["status"] == "ok"
    assert response["result"] == {"summaries": expected}


LARGE_PROGRAMS = ["large_chain", "large_fanout", "large_scc"]


def lowered_and_graph(source):
    lowered = lower_program(parse_program(source))
    return lowered, build_call_graph(lowered)


def sweep_until_stable(lowered):
    """Reference schedule: re-sweep every call site in site-id order
    until no summary changes."""
    units = lowered.procedures
    info = ModRefInfo(
        mod_formals={name: set(p.effects.mod_formals) for name, p in units.items()},
        mod_globals={name: set(p.effects.mod_globals) for name, p in units.items()},
        ref_formals={name: set(p.effects.ref_formals) for name, p in units.items()},
        ref_globals={name: set(p.effects.ref_globals) for name, p in units.items()},
    )
    changed = True
    while changed:
        changed = False
        for site_id in sorted(lowered.call_sites):
            caller, call = lowered.call_sites[site_id]
            changed |= modref._propagate_site(lowered, caller, call, info)
    return info


@pytest.mark.parametrize("name", suite_names() + LARGE_PROGRAMS)
def test_callee_first_equals_sweep_reference_on_corpus(name):
    lowered, graph = lowered_and_graph(load(name).source)
    assert compute_modref(lowered, graph) == sweep_until_stable(lowered)


@given(source=programs())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_callee_first_equals_sweep_reference_on_generated(source):
    lowered, graph = lowered_and_graph(source)
    assert compute_modref(lowered, graph) == sweep_until_stable(lowered)


def test_summaries_fold_stored_effects_without_walking_a_cfg(monkeypatch):
    lowered, graph = lowered_and_graph(load("adm").source)
    expected = sweep_until_stable(lowered)

    def no_walk(cfg):
        raise AssertionError("compute_modref walked a CFG")

    monkeypatch.setattr(ControlFlowGraph, "instructions", no_walk)
    assert compute_modref(lowered, graph) == expected


def test_call_sites_fold_once_per_level(monkeypatch):
    """Callees-first, a call site is folded into its caller at most
    twice on ``large_chain``, a 1,000-procedure call chain that a
    sweep in site-id order climbs one level per pass."""
    lowered, graph = lowered_and_graph(load("large_chain").source)
    calls = 0
    propagate = modref._propagate_site

    def counting(*args):
        nonlocal calls
        calls += 1
        return propagate(*args)

    monkeypatch.setattr(modref, "_propagate_site", counting)
    compute_modref(lowered, graph)
    assert 0 < calls <= 2 * len(lowered.call_sites)
