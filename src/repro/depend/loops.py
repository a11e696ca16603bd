"""Loop classification: the Eigenmann–Blume motivation, executable.

For every DO loop in an analyzed program, decide

- **parallelizable?** — no loop-carried array dependences (per the tests
  in :mod:`repro.depend.dependence`), scalars privatizable or reductions,
  no calls in the body;
- **trip count** — known exactly when the bounds are compile-time
  constants under the CONSTANTS environment (the paper: loop bounds are
  "important ... in determining both the amount of work ... and the
  number of processors", §1);
- **profitable?** — parallelizable *and* enough known iterations.

All decisions are conservative: anything the analysis cannot prove safe
is reported as not parallelizable, with reasons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.depend.dependence import DependenceResult, LoopRange, may_depend
from repro.depend.subscripts import extract_affine
from repro.frontend import astnodes as ast


@dataclass
class LoopClassification:
    """Verdict for one DO loop."""

    procedure: str
    induction_var: str
    depth: int
    parallelizable: bool = True
    trip_count: int | None = None
    reasons: list[str] = field(default_factory=list)

    @property
    def profitable(self) -> bool:
        return (
            self.parallelizable
            and self.trip_count is not None
            and self.trip_count >= 4
        )

    def veto(self, reason: str) -> None:
        self.parallelizable = False
        self.reasons.append(reason)


def _constant_value(expr: ast.Expr, known, procedure) -> int | None:
    affine = extract_affine(expr, set(), known, procedure)
    if affine is not None and affine.is_invariant:
        return affine.constant
    return None


def _accesses(body, array_name=None):
    """(ref, is_write) for every array access in the loop body."""
    found = []

    def visit(stmts):
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                if isinstance(stmt.target, ast.ArrayRef):
                    found.append((stmt.target, True))
                    for index in stmt.target.indices:
                        visit_expr(index)
                visit_expr(stmt.value)
            elif isinstance(stmt, ast.IfStmt):
                visit_expr(stmt.cond)
                visit(stmt.then_body)
                visit(stmt.else_body)
            elif isinstance(stmt, (ast.DoLoop, ast.DoWhile)):
                if isinstance(stmt, ast.DoLoop):
                    visit_expr(stmt.first)
                    visit_expr(stmt.last)
                    if stmt.step is not None:
                        visit_expr(stmt.step)
                else:
                    visit_expr(stmt.cond)
                visit(stmt.body)
            elif isinstance(stmt, ast.WriteStmt):
                for value in stmt.values:
                    visit_expr(value)
            elif isinstance(stmt, ast.ReadStmt):
                for target in stmt.targets:
                    if isinstance(target, ast.ArrayRef):
                        found.append((target, True))
            elif isinstance(stmt, ast.CallStmt):
                for arg in stmt.args:
                    visit_expr(arg)

    def visit_expr(expr):
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.ArrayRef):
                found.append((node, False))

    visit(body)
    if array_name is not None:
        return [(r, w) for r, w in found if r.name == array_name]
    return found


def _scalar_defs_and_uses(body):
    """Scalars assigned / read at any depth of the loop body, in order."""
    events = []  # ("def"|"use", name)

    def visit(stmts):
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                _expr_uses(stmt.value)
                if isinstance(stmt.target, ast.ArrayRef):
                    for index in stmt.target.indices:
                        _expr_uses(index)
                else:
                    events.append(("def", stmt.target.name))
            elif isinstance(stmt, ast.IfStmt):
                _expr_uses(stmt.cond)
                visit(stmt.then_body)
                visit(stmt.else_body)
            elif isinstance(stmt, ast.DoLoop):
                _expr_uses(stmt.first)
                _expr_uses(stmt.last)
                if stmt.step is not None:
                    _expr_uses(stmt.step)
                events.append(("def", stmt.var.name))
                visit(stmt.body)
            elif isinstance(stmt, ast.DoWhile):
                _expr_uses(stmt.cond)
                visit(stmt.body)
            elif isinstance(stmt, ast.WriteStmt):
                for value in stmt.values:
                    _expr_uses(value)
            elif isinstance(stmt, ast.ReadStmt):
                for target in stmt.targets:
                    if isinstance(target, ast.ArrayRef):
                        for index in target.indices:
                            _expr_uses(index)
                    else:
                        events.append(("def", target.name))

    def _expr_uses(expr):
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.VarRef):
                events.append(("use", node.name))

    visit(body)
    return events


def _is_reduction(stmt: ast.Assign) -> bool:
    """``s = s + expr`` / ``s = s * expr`` (and mirrored) patterns."""
    if not isinstance(stmt.target, ast.VarRef):
        return False
    value = stmt.value
    if not isinstance(value, ast.BinaryOp) or value.op not in ("+", "*"):
        return False
    name = stmt.target.name
    return (
        isinstance(value.left, ast.VarRef)
        and value.left.name == name
        or isinstance(value.right, ast.VarRef)
        and value.right.name == name
    )


def _has_call(body) -> bool:
    for stmt in ast.walk_stmts(body):
        if isinstance(stmt, ast.CallStmt):
            return True
        for expr in ast.stmt_exprs(stmt):
            for node in ast.walk_expr(expr):
                if isinstance(node, ast.FunctionCall):
                    from repro.frontend.symbols import INTRINSICS

                    if node.name not in INTRINSICS:
                        return True
    return False


def _reduction_targets(body) -> set[str]:
    names = set()
    for stmt in ast.walk_stmts(body):
        if isinstance(stmt, ast.Assign) and _is_reduction(stmt):
            names.add(stmt.target.name)
    return names


def _classify_loop(
    loop: ast.DoLoop,
    proc_name: str,
    procedure,
    known,
    depth: int,
) -> LoopClassification:
    verdict = LoopClassification(
        procedure=proc_name, induction_var=loop.var.name, depth=depth
    )

    # trip count from (possibly interprocedural) constants
    first = _constant_value(loop.first, known, procedure)
    last = _constant_value(loop.last, known, procedure)
    step = 1 if loop.step is None else _constant_value(loop.step, known, procedure)
    if first is not None and last is not None and step not in (None, 0):
        verdict.trip_count = max(0, (last - first + step) // step)
    else:
        verdict.reasons.append("trip count unknown")

    if _has_call(loop.body):
        verdict.veto("call in loop body")

    # scalar cross-iteration hazards
    reductions = _reduction_targets(loop.body)
    first_event: dict[str, str] = {}
    for kind, name in _scalar_defs_and_uses(loop.body):
        first_event.setdefault(name, kind)
    defined = {
        name
        for kind, name in _scalar_defs_and_uses(loop.body)
        if kind == "def"
    }
    for name in sorted(defined):
        if name == loop.var.name or name in reductions:
            continue
        if first_event.get(name) == "use":
            verdict.veto(f"scalar {name} carried across iterations")

    # array dependences on the loop's induction variable
    ranges = {}
    if verdict.trip_count is not None and first is not None and last is not None:
        low, high = sorted((first, last))
        ranges[loop.var.name] = LoopRange(loop.var.name, low, high)
    accesses = _accesses(loop.body)
    arrays = {ref.name for ref, _ in accesses}
    for array in sorted(arrays):
        refs = [(r, w) for r, w in accesses if r.name == array]
        writes = [(r, w) for r, w in refs if w]
        if not writes:
            continue
        for write_ref, _ in writes:
            for other_ref, _ in refs:
                if other_ref is write_ref:
                    continue
                if _carried_dependence(
                    write_ref, other_ref, loop.var.name, known, procedure, ranges
                ):
                    verdict.veto(
                        f"possible loop-carried dependence on {array}"
                    )
                    break
            else:
                continue
            break
    return verdict


def _carried_dependence(
    write_ref, other_ref, induction: str, known, procedure, ranges
) -> bool:
    """Could the write and the other access touch the same element in
    *different* iterations of the ``induction`` loop?"""
    if len(write_ref.indices) != len(other_ref.indices):
        return True
    independent_dim = False
    distance_zero_all = True
    for write_index, other_index in zip(write_ref.indices, other_ref.indices):
        write_affine = extract_affine(write_index, {induction}, known, procedure)
        other_affine = extract_affine(other_index, {induction}, known, procedure)
        if write_affine is None or other_affine is None:
            distance_zero_all = False
            continue
        if may_depend(write_affine, other_affine, ranges) is (
            DependenceResult.INDEPENDENT
        ):
            independent_dim = True
            break
        # same-coefficient forms: carried iff constants differ
        write_coef = write_affine.coefficient(induction)
        other_coef = other_affine.coefficient(induction)
        if write_coef == other_coef and write_coef != 0:
            if write_affine.constant != other_affine.constant:
                distance_zero_all = False
        elif write_affine != other_affine:
            distance_zero_all = False
    if independent_dim:
        return False
    return not distance_zero_all


def classify_loops(result, constants_env: bool = True) -> list[LoopClassification]:
    """Classify every DO loop of an analyzed program.

    ``constants_env=False`` withholds the interprocedural constants —
    the comparison point for the Eigenmann–Blume motivation."""
    verdicts: list[LoopClassification] = []
    for name, lowered_proc in result.lowered.procedures.items():
        procedure = lowered_proc.procedure
        known = result.constants(name) if constants_env else {}

        def visit(stmts, depth):
            for stmt in stmts:
                if isinstance(stmt, ast.DoLoop):
                    verdicts.append(
                        _classify_loop(stmt, name, procedure, known, depth)
                    )
                    visit(stmt.body, depth + 1)
                elif isinstance(stmt, ast.DoWhile):
                    visit(stmt.body, depth + 1)
                elif isinstance(stmt, ast.IfStmt):
                    visit(stmt.then_body, depth)
                    visit(stmt.else_body, depth)

        visit(procedure.ast.body, 0)
    return verdicts
