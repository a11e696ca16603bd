"""Unit tests for SSA construction."""

import pytest

from repro.analysis.ssa import build_ssa
from repro.callgraph import build_call_graph, compute_modref, make_call_effects
from repro.frontend import parse_program
from repro.frontend.astnodes import Type
from repro.frontend.source import SourceSpan
from repro.frontend.symbols import Symbol, SymbolKind
from repro.ir import lower_program
from repro.ir.instructions import (
    ArgumentKind,
    BinOp,
    Call,
    CallKill,
    Copy,
    Phi,
    SSAName,
    Temp,
    VarDef,
)


def ssa_of(source, proc="t", use_mod=True):
    lowered = lower_program(parse_program(source))
    graph = build_call_graph(lowered)
    modref = compute_modref(lowered, graph) if use_mod else None
    effects = make_call_effects(lowered, proc, modref)
    return build_ssa(lowered.procedure(proc), effects), lowered


def main_src(body_lines, extra=""):
    return "program t\n" + "\n".join(body_lines) + "\nend\n" + extra


def defs_of(ssa, name):
    found = []
    for _, instr in ssa.cfg.instructions():
        dest = instr.dest
        if isinstance(dest, VarDef) and dest.symbol.name == name:
            found.append(dest)
    return found


CALLS_SRC = """\
program t
  integer n, i, k, a(10)
  n = 3
  k = 0
  do i = 1, n
    call s(n, a(i), a, n + 1)
    k = k + f(n) + max(n, i)
  enddo
  write k
end

subroutine s(x, y, z, w)
  integer x, y, z(10), w
  x = x + 1
  y = x
end

integer function f(x)
  integer x
  f = x * 2
end
"""


def _args(instr):
    return instr.args if isinstance(instr, Call) else []


class TestRenaming:
    def test_straightline_versions_increment(self):
        ssa, _ = ssa_of(main_src(["n = 1", "n = 2", "n = 3"]))
        versions = [d.version for d in defs_of(ssa, "n")]
        assert versions == [1, 2, 3]

    def test_uses_see_latest_version(self):
        ssa, _ = ssa_of(main_src(["n = 1", "m = n", "n = 2", "k = n"]))
        copies = [
            i
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Copy) and isinstance(i.src, SSAName)
            and i.src.symbol.name == "n"
        ]
        assert [c.src.version for c in copies] == [1, 2]

    def test_entry_version_zero_for_unassigned_use(self):
        ssa, _ = ssa_of(main_src(["m = n"]))
        use = next(
            i.src
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Copy) and isinstance(i.src, SSAName)
        )
        assert use.version == 0

    def test_spans_preserved_through_renaming(self):
        source = main_src(["m = n"])
        ssa, _ = ssa_of(source)
        use = next(
            i.src
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Copy) and isinstance(i.src, SSAName)
        )
        assert use.span.extract(source) == "n"

    def test_original_cfg_untouched(self):
        lowered = lower_program(parse_program(main_src(["n = 1", "m = n"])))
        before = [
            type(i).__name__ for _, i in lowered.procedure("t").cfg.instructions()
        ]
        build_ssa(lowered.procedure("t"))
        after = [
            type(i).__name__ for _, i in lowered.procedure("t").cfg.instructions()
        ]
        assert before == after
        # and no SSA names leaked into the original
        for _, instr in lowered.procedure("t").cfg.instructions():
            for operand in instr.uses():
                assert not isinstance(operand, SSAName)

    @pytest.mark.parametrize("use_mod", [True, False])
    def test_original_cfg_untouched_by_call_renaming(self, use_mod):
        # Renaming assigns call arguments in place, so a copy that shares
        # Argument objects with the lowered CFG would corrupt it.
        lowered = lower_program(parse_program(CALLS_SRC))
        modref = compute_modref(lowered, build_call_graph(lowered)) if use_mod else None
        original = lowered.procedure("t").cfg
        before = [repr(i) for _, i in original.instructions()]
        ssa = build_ssa(lowered.procedure("t"), make_call_effects(lowered, "t", modref))

        assert [repr(i) for _, i in original.instructions()] == before
        calls = [i for _, i in ssa.cfg.instructions() if isinstance(i, Call)]
        assert {a.kind for c in calls for a in c.args} == set(ArgumentKind)
        assert any(isinstance(a.value, SSAName) for c in calls for a in c.args)
        lowered_objects = {
            id(o) for _, i in original.instructions() for o in [i, *_args(i)]
        }
        assert not any(
            id(o) in lowered_objects
            for _, i in ssa.cfg.instructions()
            for o in [i, *_args(i)]
        )


class TestPhiPlacement:
    def test_diamond_gets_phi(self):
        ssa, _ = ssa_of(
            main_src(
                ["if (c > 0) then", "n = 1", "else", "n = 2", "endif", "m = n"]
            )
        )
        phis = [i for _, i in ssa.cfg.instructions() if isinstance(i, Phi)]
        phi_names = {p.dest.symbol.name for p in phis}
        assert "n" in phi_names

    def test_phi_has_input_per_predecessor(self):
        ssa, _ = ssa_of(
            main_src(
                ["if (c > 0) then", "n = 1", "else", "n = 2", "endif", "m = n"]
            )
        )
        phi = next(
            i
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Phi) and i.dest.symbol.name == "n"
        )
        block = next(b for b, i in ssa.cfg.instructions() if i is phi)
        assert set(phi.incoming) == set(block.preds)
        incoming_versions = {v.version for v in phi.incoming.values()}
        assert len(incoming_versions) == 2
        assert phi.dest.version not in incoming_versions

    def test_loop_phi_merges_entry_and_backedge(self):
        ssa, _ = ssa_of(
            main_src(["n = 0", "do while (n < 3)", "n = n + 1", "enddo", "m = n"])
        )
        phis = [
            i
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Phi) and i.dest.symbol.name == "n"
        ]
        assert phis
        header_phi = phis[0]
        assert len(header_phi.incoming) == 2

    def test_no_phi_for_single_def_variable(self):
        ssa, _ = ssa_of(
            main_src(["n = 5", "if (c > 0) then", "m = n", "endif", "k = n"])
        )
        phi_names = {
            i.dest.symbol.name
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Phi)
        }
        assert "n" not in phi_names


class TestExitVersions:
    def test_exit_version_after_single_path(self):
        ssa, _ = ssa_of(main_src(["n = 1", "n = 2"]))
        symbol = ssa.lowered.procedure.symtab.lookup("n")
        assert ssa.exit_versions[symbol] == 2
        assert ssa.exit_reachable

    def test_exit_version_merges_branches(self):
        ssa, _ = ssa_of(
            main_src(["if (c > 0) then", "n = 1", "else", "n = 2", "endif"])
        )
        symbol = ssa.lowered.procedure.symtab.lookup("n")
        version = ssa.exit_versions[symbol]
        # the exit-reaching version is the phi merge, not either branch's
        from repro.ir.instructions import Phi

        phi = next(
            i
            for _, i in ssa.cfg.instructions()
            if isinstance(i, Phi) and i.dest.symbol is symbol
        )
        assert version == phi.dest.version
        assert version not in {v.version for v in phi.incoming.values()}

    def test_stop_only_procedure_has_unreachable_exit(self):
        ssa, _ = ssa_of(main_src(["n = 1", "stop"]))
        assert not ssa.exit_reachable
        assert ssa.exit_versions == {}


class TestCallEffects:
    SUB = "subroutine s(a, b)\ninteger a, b\na = b + 1\nend\n"

    def test_modified_actual_killed(self):
        src = main_src(["integer n, m", "n = 1", "m = 2", "call s(n, m)",
                        "k = n", "j = m"], self.SUB)
        ssa, _ = ssa_of(src)
        kills = [i for _, i in ssa.cfg.instructions() if isinstance(i, CallKill)]
        killed_names = {k.target.symbol.name for k in kills}
        assert killed_names == {"n"}  # only formal 'a' is modified

    def test_kill_binding_names_formal(self):
        src = main_src(["integer n, m", "call s(n, m)"], self.SUB)
        ssa, _ = ssa_of(src)
        kill = next(i for _, i in ssa.cfg.instructions() if isinstance(i, CallKill))
        assert kill.binding == ("formal", "a")

    def test_no_mod_kills_everything_visible(self):
        src = main_src(["integer n, m", "call s(n, m)"], self.SUB)
        ssa, _ = ssa_of(src, use_mod=False)
        kills = [i for _, i in ssa.cfg.instructions() if isinstance(i, CallKill)]
        killed_names = {k.target.symbol.name for k in kills}
        assert killed_names == {"n", "m"}

    def test_use_after_call_sees_kill_version(self):
        src = main_src(["integer n, m", "n = 1", "call s(n, m)", "k = n"],
                       self.SUB)
        ssa, _ = ssa_of(src)
        uses_of_n = [
            op
            for _, i in ssa.cfg.instructions()
            if not isinstance(i, (Phi, Call))
            for op in i.uses()
            if isinstance(op, SSAName) and op.symbol.name == "n"
        ]
        # the final use must be the post-kill version (2), not 1
        assert uses_of_n[-1].version == 2

    def test_global_versions_snapshotted_at_calls(self):
        src = (
            "program t\ncommon /c/ g\ninteger g\ng = 7\ncall s(g, g)\nend\n"
            + self.SUB
        )
        ssa, _ = ssa_of(src)
        call = ssa.calls[0]
        snapshot = ssa.call_versions[call.site_id]
        g_symbol = next(s for s in snapshot if s.name == "g")
        assert snapshot[g_symbol] == 1  # version after 'g = 7'


class TestCalls:
    def test_form_records_its_own_calls_in_site_order(self):
        # block order puts the call after the IF (in the join block)
        # ahead of the ELSE arm's call, whose site id is smaller
        src = main_src(
            ["integer n", "n = 1", "if (n > 0) then", "call s(n, 1)", "else",
             "call s(n, 2)", "endif", "call s(n, 3)"],
            TestCallEffects.SUB,
        )
        ssa, lowered = ssa_of(src)
        original = lowered.procedure("t").call_instrs
        walked = [i.site_id for _, i in ssa.cfg.instructions() if isinstance(i, Call)]
        assert walked != sorted(walked)
        assert [call.site_id for call in ssa.calls] == [0, 1, 2]
        assert [call.site_id for call in original] == [0, 1, 2]
        assert all(a is not b for a, b in zip(ssa.calls, original))


class TestHiddenGlobals:
    def test_hidden_symbol_created_for_undeclared_global(self):
        src = """
program t
  common /c/ g
  integer g
  g = 1
  call middle
end
subroutine middle
  call bottom
end
subroutine bottom
  common /c/ h
  integer h
  h = 2
end
"""
        lowered = lower_program(parse_program(src))
        middle = lowered.procedure("middle")
        declared = set(middle.procedure.symtab)
        hidden = [s for s in middle.symbols if s not in declared]
        assert [(s.name, s.kind.value) for s in hidden] == [("$g$c$0", "global")]
        assert hidden[0].global_id.block == "c"
        assert hidden[0] in middle.variables
        # lowering keeps its symbols to itself
        assert middle.procedure.globals_used() == []


class TestEntryUseSpans:
    def test_entry_uses_found(self):
        source = main_src(["m = n + n"])
        ssa, _ = ssa_of(source)
        symbol = ssa.lowered.procedure.symtab.lookup("n")
        spans = ssa.entry_use_spans(symbol)
        assert len(spans) == 2
        assert all(s.extract(source) == "n" for s in spans)

    def test_redefined_uses_excluded(self):
        source = main_src(["m = n", "n = 5", "k = n"])
        ssa, _ = ssa_of(source)
        symbol = ssa.lowered.procedure.symtab.lookup("n")
        assert len(ssa.entry_use_spans(symbol)) == 1


class TestOperandIdentity:
    """An SSA value is keyed by (symbol, version) and a temp by its
    index: spans and types are payload, so every reference to one value
    finds the same dictionary entry."""

    SYMBOL = Symbol("n", SymbolKind.LOCAL, Type.INTEGER)

    def test_ssa_names_equal_across_spans(self):
        first = SSAName(self.SYMBOL, 1, SourceSpan(10, 11))
        second = SSAName(self.SYMBOL, 1, SourceSpan(42, 43))
        assert first.span != second.span
        assert first == second
        assert hash(first) == hash(second)
        assert {first: "value"}[second] == "value"
        assert {second: "value"}[first] == "value"
        assert first == SSAName(self.SYMBOL, 1)

    def test_ssa_names_differ_by_version_and_symbol(self):
        other = Symbol("n", SymbolKind.LOCAL, Type.INTEGER)
        assert SSAName(self.SYMBOL, 1) != SSAName(self.SYMBOL, 2)
        assert SSAName(self.SYMBOL, 1) != SSAName(other, 1)

    def test_temps_equal_across_types(self):
        integer, real = Temp(3, Type.INTEGER), Temp(3, Type.REAL)
        assert integer == real
        assert hash(integer) == hash(real)
        assert {integer: "value"}[real] == "value"
        assert Temp(3) != Temp(4)

    def test_two_references_to_one_value_keep_their_spans(self):
        source = main_src(["m = n * n", "write m"])
        ssa, _ = ssa_of(source)
        block_id, product = next(
            (b.id, i) for b, i in ssa.cfg.instructions() if isinstance(i, BinOp)
        )
        left, right = product.left, product.right
        assert isinstance(left, SSAName) and left == right
        assert left.span != right.span
        assert [left.span.extract(source), right.span.extract(source)] == [
            "n",
            "n",
        ]
        assert ssa.uses()[left] == [(block_id, product), (block_id, product)]
        assert ssa.entry_use_spans(left.symbol) == [left.span, right.span]
