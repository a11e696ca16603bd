"""The shipped checker suite.

Ten passes, one per failure mode the paper's methodology depends on:

==========================  =================================================
ir-wellformed               CFG invariants (pre-SSA and SSA) via the IR
                            validator — a pass left the graph broken.
call-binding                call-site arity, argument/formal shape and type
                            agreement — call-by-reference reinterprets
                            storage, so a mismatch is a real bug.
param-aliasing              FORTRAN's parameter-aliasing rule (§4): a
                            modified formal whose actual is aliased to
                            another formal or to visible COMMON storage.
dead-formal                 formals no path references (from REF).
unreferenced-global         COMMON members no procedure touches (MOD∪REF).
unreachable-procedure       procedures the call graph never reaches.
jump-function-wf            stage-2 output well-formedness: every binding
                            targets a real callee entry key, every support
                            key exists in the caller, constant edges carry
                            no residual expression.
copy-chain                  (framework copyprop client) one entry value
                            forwarded unchanged through 2+ procedures — a
                            copy-of-copy chain across call bindings.
dead-copy                   (framework copyprop client) formals provably
                            duplicating storage the callee already sees.
lattice-sanitizer           (opt-in) re-solves densely with descent/
                            chain-depth/monotonicity checking and
                            cross-checks the production sparse solve
                            against it.
==========================  =================================================

Every pass reads the shared :class:`~repro.diagnostics.core.LintContext`;
none of them mutate it. Diagnostic codes are stable: RL0xx framework,
RL1xx call graph / binding, RL2xx jump functions, RL3xx lattice.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.builder import entry_keys
from repro.core.solver import solve, solve_dense
from repro.diagnostics.core import (
    Diagnostic,
    LintContext,
    LintPass,
    Registry,
    Severity,
    describe_code,
)
from repro.diagnostics.sanitizer import LatticeSanitizer, cross_check
from repro.frontend.astnodes import Type
from repro.ir.instructions import ArgumentKind, Call
from repro.ir.lower import operand_type
from repro.ir.validate import collect_problems

CODE_IR = describe_code("RL001", "IR well-formedness invariant violated")
CODE_SSA = describe_code("RL002", "SSA-form invariant violated")
CODE_UNKNOWN_CALLEE = describe_code("RL101", "call to unknown procedure")
CODE_ARITY = describe_code("RL102", "call-site arity mismatch")
CODE_SHAPE = describe_code("RL103", "array/scalar shape mismatch at call")
CODE_TYPE = describe_code("RL104", "argument type mismatch at call")
CODE_VALUE_TYPE = describe_code(
    "RL105", "by-value argument converted across types at call"
)
CODE_ALIAS_FORMALS = describe_code(
    "RL111", "aliased actuals: one variable bound to two formals, one modified"
)
CODE_ALIAS_GLOBAL = describe_code(
    "RL112", "global passed as actual while the callee touches it via COMMON"
)
CODE_COPY_CHAIN = describe_code(
    "RL130", "entry value copied unchanged through a chain of procedures"
)
CODE_DEAD_COPY = describe_code(
    "RL131", "formal is a redundant cross-procedure copy of visible storage"
)
CODE_DEAD_FORMAL = describe_code("RL121", "formal parameter never referenced")
CODE_UNREF_GLOBAL = describe_code("RL122", "global never referenced")
CODE_UNREACHABLE = describe_code("RL123", "procedure unreachable from main")
CODE_JF_SITE = describe_code("RL201", "jump function for unknown procedure")
CODE_JF_KEY = describe_code("RL202", "jump function binds unknown entry key")
CODE_JF_SUPPORT = describe_code(
    "RL203", "jump-function support key missing from caller's entry set"
)
CODE_JF_RESIDUAL = describe_code(
    "RL204", "constant-folded jump function carries a residual expression"
)


class IRWellFormedPass(LintPass):
    """Wraps :mod:`repro.ir.validate` over every procedure, twice: the
    lowered (pre-SSA) CFGs and the SSA forms stage 2 built."""

    name = "ir-wellformed"
    code = "RL00x"
    description = "IR and SSA well-formedness invariants"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        source = ctx.source or None
        for name in sorted(ctx.lowered.procedures):
            cfg = ctx.lowered.procedures[name].cfg
            for problem in collect_problems(cfg, ssa_form=False, source=source):
                yield self.diagnostic(
                    CODE_IR, Severity.ERROR, problem, procedure=name
                )
        for name in sorted(ctx.forward.ssas):
            ssa = ctx.forward.ssas[name]
            for problem in collect_problems(ssa.cfg, ssa_form=True, source=source):
                yield self.diagnostic(
                    CODE_SSA, Severity.ERROR, problem, procedure=name
                )


def _argument_type(arg) -> Type | None:
    """Static type of an actual parameter (None when untyped/unknown)."""
    if arg.symbol is not None:
        return arg.symbol.type
    if arg.value is not None:
        return operand_type(arg.value)
    return None


class CallBindingPass(LintPass):
    """Arity, shape, and type agreement between actuals and formals.

    The resolver rejects arity mismatches in parsed programs, so RL101/
    RL102 guard programmatically-built IR; the type checks are new — the
    front end never compares actual and formal types, and FORTRAN's
    call-by-reference passes raw storage, so an INTEGER cell read as
    LOGICAL (or REAL) is silent corruption.
    """

    name = "call-binding"
    code = "RL10x"
    description = "call-site arity, shape, and type agreement"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        lowered = ctx.lowered
        for site_id in sorted(lowered.call_sites):
            caller, call = lowered.call_sites[site_id]
            callee = lowered.procedures.get(call.callee)
            if callee is None:
                yield self.diagnostic(
                    CODE_UNKNOWN_CALLEE,
                    Severity.ERROR,
                    f"call to unknown procedure {call.callee!r}",
                    procedure=caller,
                    span=call.span,
                )
                continue
            formals = callee.procedure.formals
            if len(call.args) != len(formals):
                yield self.diagnostic(
                    CODE_ARITY,
                    Severity.ERROR,
                    f"{call.callee!r} expects {len(formals)} argument(s), "
                    f"call passes {len(call.args)}",
                    procedure=caller,
                    span=call.span,
                )
                continue
            for formal, arg in zip(formals, call.args):
                yield from self._check_binding(caller, call, formal, arg)

    def _check_binding(self, caller, call, formal, arg) -> Iterator[Diagnostic]:
        where = f"argument for formal {formal.name!r} of {call.callee!r}"
        if formal.is_array and arg.kind is ArgumentKind.VALUE:
            yield self.diagnostic(
                CODE_SHAPE,
                Severity.ERROR,
                f"{where} is a scalar expression but the formal is an array",
                procedure=caller,
                span=arg.span,
            )
            return
        if formal.is_array and arg.kind is ArgumentKind.VAR:
            yield self.diagnostic(
                CODE_SHAPE,
                Severity.ERROR,
                f"{where} is a scalar variable but the formal is an array",
                procedure=caller,
                span=arg.span,
            )
            return
        if not formal.is_array and arg.kind is ArgumentKind.ARRAY:
            yield self.diagnostic(
                CODE_SHAPE,
                Severity.ERROR,
                f"{where} passes a whole array to a scalar formal",
                procedure=caller,
                span=arg.span,
            )
            return
        actual_type = _argument_type(arg)
        if actual_type is None or actual_type is formal.type:
            return
        if arg.kind is ArgumentKind.VALUE:
            # A by-value INTEGER/REAL actual is converted into a fresh
            # cell; legal FORTRAN, but LOGICAL never converts.
            severity = (
                Severity.ERROR
                if Type.LOGICAL in (actual_type, formal.type)
                else Severity.WARNING
            )
            yield self.diagnostic(
                CODE_VALUE_TYPE,
                severity,
                f"{where} has type {actual_type.value}, formal is "
                f"{formal.type.value} (converted copy)",
                procedure=caller,
                span=arg.span,
            )
            return
        yield self.diagnostic(
            CODE_TYPE,
            Severity.ERROR,
            f"{where} binds {actual_type.value} storage by reference to a "
            f"{formal.type.value} formal",
            procedure=caller,
            span=arg.span,
        )


#: by-reference argument kinds: the callee can write through these.
_BYREF = (ArgumentKind.VAR, ArgumentKind.ARRAY, ArgumentKind.ARRAY_ELEMENT)


class ParamAliasingPass(LintPass):
    """The paper's §4 FORTRAN caveat: the standard forbids a callee from
    assigning to a formal whose actual is aliased — to another formal, or
    to COMMON storage the callee can reach directly. Jump functions (and
    MOD-driven kills) assume the program obeys that rule; these warnings
    flag call sites where it does not."""

    name = "param-aliasing"
    code = "RL11x"
    description = "FORTRAN parameter-aliasing hazards at call sites"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        lowered = ctx.lowered
        modref = ctx.modref
        for site_id in sorted(lowered.call_sites):
            caller, call = lowered.call_sites[site_id]
            callee = lowered.procedures.get(call.callee)
            if callee is None:
                continue  # call-binding reports this
            formals = callee.procedure.formals
            mod = modref.mod_formals.get(call.callee, set())
            ref = modref.ref_formals.get(call.callee, set())
            byref = [
                (formal, arg)
                for formal, arg in zip(formals, call.args)
                if arg.kind in _BYREF and arg.symbol is not None
            ]
            yield from self._formal_formal(caller, call, byref, mod)
            yield from self._formal_global(caller, call, byref, mod, ref, modref)

    def _formal_formal(self, caller, call, byref, mod) -> Iterator[Diagnostic]:
        for i, (formal_a, arg_a) in enumerate(byref):
            for formal_b, arg_b in byref[i + 1:]:
                if arg_a.symbol is not arg_b.symbol:
                    continue
                if formal_a.name not in mod and formal_b.name not in mod:
                    continue
                modified = formal_a.name if formal_a.name in mod else formal_b.name
                yield self.diagnostic(
                    CODE_ALIAS_FORMALS,
                    Severity.WARNING,
                    f"{arg_a.symbol.name!r} is bound to both "
                    f"{formal_a.name!r} and {formal_b.name!r} of "
                    f"{call.callee!r}, and {call.callee!r} modifies "
                    f"{modified!r} (FORTRAN aliasing rule violation)",
                    procedure=caller,
                    span=arg_b.span,
                )

    def _formal_global(
        self, caller, call, byref, mod, ref, modref
    ) -> Iterator[Diagnostic]:
        callee_mod_g = modref.mod_globals.get(call.callee, set())
        callee_ref_g = modref.ref_globals.get(call.callee, set())
        for formal, arg in byref:
            symbol = arg.symbol
            if not symbol.is_global:
                continue
            gid = symbol.global_id
            formal_written = formal.name in mod
            formal_touched = formal_written or formal.name in ref
            global_written = gid in callee_mod_g
            global_touched = global_written or gid in callee_ref_g
            if (formal_written and global_touched) or (
                global_written and formal_touched
            ):
                yield self.diagnostic(
                    CODE_ALIAS_GLOBAL,
                    Severity.WARNING,
                    f"global {symbol.name!r} ({gid}) is passed for formal "
                    f"{formal.name!r} of {call.callee!r}, which also "
                    f"accesses it through COMMON and writes one of the "
                    f"aliases (FORTRAN aliasing rule violation)",
                    procedure=caller,
                    span=arg.span,
                )


class DeadFormalPass(LintPass):
    """Formals the callee never reads or writes, derived from MOD/REF.

    A dead formal is not a correctness bug, but it widens every call
    site's jump-function table for nothing — and in the paper's setting
    each extra formal is an extra binding every configuration pays for.
    """

    name = "dead-formal"
    code = "RL121"
    description = "formal parameters no path references"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        modref = ctx.modref
        for name in sorted(ctx.lowered.procedures):
            proc = ctx.lowered.procedures[name].procedure
            if proc.is_main:
                continue
            mod = modref.mod_formals.get(name, set())
            ref = modref.ref_formals.get(name, set())
            for formal in proc.formals:
                if formal.name in mod or formal.name in ref:
                    continue
                span = formal.decl_span
                if span.start_offset == span.end_offset:
                    span = proc.ast.span
                yield self.diagnostic(
                    CODE_DEAD_FORMAL,
                    Severity.WARNING,
                    f"formal {formal.name!r} of {name!r} is never referenced",
                    procedure=name,
                    span=span,
                )


class UnreferencedGlobalPass(LintPass):
    """COMMON members (and SAVEd locals) no procedure reads or writes."""

    name = "unreferenced-global"
    code = "RL122"
    description = "globals never referenced by any procedure"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        modref = ctx.modref
        touched = set()
        for per_proc in (modref.mod_globals, modref.ref_globals):
            for gids in per_proc.values():
                touched.update(gids)
        for gid in sorted(ctx.program.globals, key=str):
            if gid in touched:
                continue
            gvar = ctx.program.globals[gid]
            yield self.diagnostic(
                CODE_UNREF_GLOBAL,
                Severity.WARNING,
                f"global {gvar.display!r} ({gid}) is declared but never "
                f"referenced",
            )


class UnreachableProcedurePass(LintPass):
    """Procedures the call graph never reaches from the main program.

    The solver leaves them at ⊤ ("never called", paper §2), so any
    CONSTANTS facts about them are vacuous — worth flagging before
    anyone reads meaning into those numbers.
    """

    name = "unreachable-procedure"
    code = "RL123"
    description = "procedures unreachable from the main program"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        reachable = ctx.graph.reachable_from_main()
        for name in sorted(ctx.lowered.procedures):
            if name in reachable:
                continue
            proc = ctx.lowered.procedures[name].procedure
            yield self.diagnostic(
                CODE_UNREACHABLE,
                Severity.WARNING,
                f"procedure {name!r} is never called from the main program",
                procedure=name,
                span=proc.ast.span,
            )


class JumpFunctionPass(LintPass):
    """Well-formedness of the stage-2 jump-function tables: each site's
    flow edges, one per bound entry key.

    Violations here cannot come from the shipped builder (the tests
    assert that); the pass exists for hand-assembled tables and future
    builders: every finding is a direct soundness threat to stage 3.
    """

    name = "jump-function-wf"
    code = "RL20x"
    description = "jump-function table well-formedness"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        keys_of = {
            name: set(keys) for name, keys in entry_keys(ctx.lowered).items()
        }
        for site_id in sorted(ctx.forward.sites):
            span = self._site_span(ctx, site_id)
            for key, edge in ctx.forward.sites[site_id].items():
                caller, callee = edge.caller, edge.callee
                if caller not in keys_of or callee not in keys_of:
                    missing = caller if caller not in keys_of else callee
                    yield self.diagnostic(
                        CODE_JF_SITE,
                        Severity.ERROR,
                        f"site {site_id} names unknown procedure {missing!r}",
                        procedure=caller,
                        span=span,
                    )
                    break
                if key not in keys_of[callee]:
                    yield self.diagnostic(
                        CODE_JF_KEY,
                        Severity.ERROR,
                        f"site {site_id} binds entry key {key!r} that "
                        f"{callee!r} does not propagate",
                        procedure=caller,
                        span=span,
                    )
                support = edge.support
                for support_key in sorted(support, key=str):
                    if support_key not in keys_of[caller]:
                        yield self.diagnostic(
                            CODE_JF_SUPPORT,
                            Severity.ERROR,
                            f"site {site_id} jump function for {key!r} reads "
                            f"{support_key!r}, which is not an entry key of "
                            f"caller {caller!r}",
                            procedure=caller,
                            span=span,
                        )
                if (edge.func.is_constant or edge.func.is_bottom) and support:
                    yield self.diagnostic(
                        CODE_JF_RESIDUAL,
                        Severity.ERROR,
                        f"site {site_id} jump function for {key!r} folded to "
                        f"{edge.func} but still carries support "
                        f"{sorted(map(str, support))}",
                        procedure=caller,
                        span=span,
                    )

    @staticmethod
    def _site_span(ctx: LintContext, site_id: int):
        entry = ctx.lowered.call_sites.get(site_id)
        if entry is None:
            return None
        _, call = entry
        return call.span


def _copyprop_solution(ctx: LintContext):
    """The interprocedural copy-propagation fixpoint for the linted
    program, solved once per context and shared by every copy-backed
    pass."""
    if ctx.copyprop is None:
        from repro.framework.clients.copyprop import solve_copyprop

        ctx.copyprop = solve_copyprop(ctx.lowered, ctx.graph, ctx.forward)
    return ctx.copyprop


def _display_key(ctx: LintContext, key) -> str:
    return key if isinstance(key, str) else ctx.program.global_display(key)


class CopyChainPass(LintPass):
    """Interprocedural copy-of-copy chains, from the framework copyprop
    client: one main-program entry value arriving *unchanged* in two or
    more procedures means every call binding along the way merely
    forwarded it — a chain of copies no single-procedure analysis can
    see. Informational: chains are legitimate (threading a config value
    through a pipeline), but each hop is a binding every configuration
    pays jump-function work for, and a chain is where cloning or
    globalizing the value would collapse the most edges."""

    name = "copy-chain"
    code = "RL130"
    description = "entry values forwarded unchanged through call chains"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        from repro.framework.clients.copyprop import CopyOf

        solution = _copyprop_solution(ctx)
        main = ctx.lowered.program.main
        holders: dict[object, list[tuple[str, object]]] = {}
        for proc in sorted(solution.val):
            if proc == main:
                continue  # the root itself is not a hop
            for key, value in solution.val[proc].items():
                if value.__class__ is CopyOf:
                    holders.setdefault(value, []).append((proc, key))
        for root in sorted(holders, key=lambda r: (r.proc, str(r.key))):
            chain = holders[root]
            if len(chain) < 2:
                continue  # one hop is a plain binding, not a chain
            hops = ", ".join(
                f"{proc}:{_display_key(ctx, key)}"
                for proc, key in sorted(
                    chain, key=lambda item: (item[0], str(item[1]))
                )
            )
            yield self.diagnostic(
                CODE_COPY_CHAIN,
                Severity.INFO,
                f"value of {root.proc}::{_display_key(ctx, root.key)} is "
                f"copied unchanged into {len(chain)} entry keys across "
                f"the call graph ({hops})",
                procedure=root.proc,
            )


class DeadCopyPass(LintPass):
    """Dead cross-procedure copies: a formal that provably always holds
    the same value as storage the procedure can already see — a global
    with the identical copy fact at entry, or another formal of the
    same procedure. Every caller then passes a value the callee could
    have read directly; the parameter is a redundant copy that widens
    each call site's binding table for nothing (same cost argument as
    RL121 dead formals, but requiring the interprocedural copy
    fixpoint to establish the redundancy)."""

    name = "dead-copy"
    code = "RL131"
    description = "formals duplicating visible storage at every call"

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        from repro.framework.clients.copyprop import CopyOf

        solution = _copyprop_solution(ctx)
        main = ctx.lowered.program.main
        for proc in sorted(solution.val):
            if proc == main:
                continue
            env = solution.val[proc]
            formals = [
                name
                for name in ctx.lowered.procedures[proc].procedure.formals
                if name.name in env
            ]
            for formal in formals:
                value = env[formal.name]
                if value.__class__ is not CopyOf:
                    continue
                twins = sorted(
                    (
                        _display_key(ctx, key)
                        for key, other in env.items()
                        if key != formal.name and other == value
                    ),
                )
                if not twins:
                    continue
                span = formal.decl_span
                if span.start_offset == span.end_offset:
                    span = ctx.lowered.procedures[proc].procedure.ast.span
                yield self.diagnostic(
                    CODE_DEAD_COPY,
                    Severity.WARNING,
                    f"formal {formal.name!r} of {proc!r} always holds the "
                    f"same value as {', '.join(repr(t) for t in twins)} "
                    f"(all copies of "
                    f"{value.proc}::{_display_key(ctx, value.key)}); the "
                    f"parameter is a redundant cross-procedure copy",
                    procedure=proc,
                    span=span,
                )


class LatticeSanitizerPass(LintPass):
    """Opt-in (``repro lint --sanitize``): runs the dense reference
    solver with the :class:`~repro.diagnostics.sanitizer.LatticeSanitizer`
    attached, then cross-checks the production :func:`solve` — the
    region schedule every real analysis runs — against that fixpoint.
    Costs two extra solves, which is why it is not on by default."""

    name = "lattice-sanitizer"
    code = "RL30x"
    description = "monotone-descent, chain-depth, and sparse/dense checks"
    default_enabled = False

    def run(self, ctx: LintContext) -> Iterator[Diagnostic]:
        sanitizer = LatticeSanitizer()
        dense = solve_dense(
            ctx.lowered, ctx.graph, ctx.forward, sanitizer=sanitizer
        )
        yield from sanitizer.diagnostics(self.name)
        sparse = solve(ctx.lowered, ctx.graph, ctx.forward)
        for violation in cross_check(sparse.val, dense.val):
            yield violation.diagnostic(self.name)


_DEFAULT_REGISTRY: Registry | None = None


def all_passes() -> list[LintPass]:
    """Fresh instances of every shipped pass, in run order."""
    return [
        IRWellFormedPass(),
        CallBindingPass(),
        ParamAliasingPass(),
        DeadFormalPass(),
        UnreferencedGlobalPass(),
        UnreachableProcedurePass(),
        JumpFunctionPass(),
        CopyChainPass(),
        DeadCopyPass(),
        LatticeSanitizerPass(),
    ]


def default_registry() -> Registry:
    """The process-wide registry holding every shipped pass."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        registry = Registry()
        for pass_ in all_passes():
            registry.register(pass_)
        _DEFAULT_REGISTRY = registry
    return _DEFAULT_REGISTRY
