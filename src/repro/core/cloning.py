"""Goal-directed procedure cloning (the §5 extension).

Metzger and Stroud's CONVEX Application Compiler used interprocedural
constants to guide procedure cloning, and found that cloning
"substantially increases the number of interprocedural constants
available" (paper §5; also Cooper–Hall–Kennedy [6]). The mechanism: when
two call sites feed a procedure *conflicting* constants, the meet drives
the parameter to ⊥ and both constants are lost. Cloning the procedure per
constant vector recovers them.

Implementation: analyze → group each procedure's call sites by the vector
of constants their jump functions produce under the final VAL sets →
clone the procedure's source text once per additional group (the first
group keeps the original) → rewrite the callee names at the cloned sites
(the IR remembers each call's name span) → re-analyze the transformed
program. Both rewrites are :func:`~repro.frontend.source.splice` edits
of the original text: a clone is its callee's own unit text with the
header name, and a FUNCTION's result variable, renamed.

Cloning is bounded by ``max_clones_per_procedure`` and only triggered
when a group actually recovers at least one constant that the merged
analysis lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import AnalysisConfig
from repro.core.driver import AnalysisResult, analyze
from repro.core.lattice import is_constant
from repro.frontend import astnodes as ast
from repro.frontend.source import SourceSpan, splice


@dataclass
class CloneGroup:
    """One set of call sites that agree on a constant vector."""

    callee: str
    clone_name: str | None  # None: the group keeps the original
    vector: tuple  # sorted (key, value) pairs the group agrees on
    site_ids: list[int] = field(default_factory=list)


@dataclass
class CloningReport:
    """What one cloning round did."""

    original: AnalysisResult
    cloned: AnalysisResult | None
    groups: list[CloneGroup] = field(default_factory=list)
    transformed_source: str = ""

    @property
    def clones_created(self) -> int:
        return sum(1 for g in self.groups if g.clone_name is not None)

    @property
    def constants_before(self) -> int:
        return self.original.constants_found

    @property
    def constants_after(self) -> int:
        if self.cloned is None:
            return self.original.constants_found
        return self.cloned.constants_found

    @property
    def constants_recovered(self) -> int:
        return self.constants_after - self.constants_before

    @property
    def code_growth(self) -> float:
        """Transformed / original non-blank line count."""
        if not self.transformed_source:
            return 1.0
        original_lines = _line_count(self.original.program.source)
        return _line_count(self.transformed_source) / max(1, original_lines)


def _line_count(source: str) -> int:
    return sum(1 for line in source.splitlines() if line.strip())


def _site_vector(result: AnalysisResult, site_id: int, callee: str) -> tuple:
    """The constants this site would hand the callee, as a sorted tuple.

    Only keys the *merged* analysis failed to prove constant participate —
    those are the ones cloning can recover."""
    site = result.forward.sites.get(site_id)
    if not site:
        return ()
    val = result.solved.val
    merged = val.get(callee, {})
    vector = []
    for key, edge in site.items():
        if is_constant(merged.get(key)):
            continue  # already constant everywhere; nothing to recover
        value = edge.func.evaluate(val.get(edge.caller, {}))
        if is_constant(value):
            vector.append((str(key), value))
    return tuple(sorted(vector))


def plan_clone_groups(
    result: AnalysisResult, max_clones_per_procedure: int = 3
) -> list[CloneGroup]:
    """Group call sites by constant vector; assign clone names."""
    groups: list[CloneGroup] = []
    for callee in sorted(result.lowered.procedures):
        lowered_proc = result.lowered.procedures[callee]
        if lowered_proc.procedure.is_main:
            continue
        sites = result.call_graph.call_sites_into(callee)
        if len(sites) < 2:
            continue
        by_vector: dict[tuple, list[int]] = {}
        for caller, call in sites:
            if caller not in result.solved.reached:
                continue
            vector = _site_vector(result, call.site_id, callee)
            by_vector.setdefault(vector, []).append(call.site_id)
        interesting = {v: ids for v, ids in by_vector.items() if v}
        if len(by_vector) < 2 or not interesting:
            continue
        # Deterministic order: richest vectors first.
        ordered = sorted(
            by_vector.items(), key=lambda item: (-len(item[0]), item[0])
        )
        clone_index = 0
        for position, (vector, site_ids) in enumerate(ordered):
            if position == 0:
                groups.append(
                    CloneGroup(callee=callee, clone_name=None, vector=vector,
                               site_ids=sorted(site_ids))
                )
                continue
            if not vector or clone_index >= max_clones_per_procedure:
                continue  # nothing to gain / budget exhausted
            clone_index += 1
            groups.append(
                CloneGroup(
                    callee=callee,
                    clone_name=f"{callee}_c{clone_index}",
                    vector=vector,
                    site_ids=sorted(site_ids),
                )
            )
    return groups


def _own_name_spans(unit: ast.ProcedureDef) -> list[SourceSpan]:
    """Where a unit's text names the unit itself: the header, and in a
    FUNCTION every name the resolver binds to the result variable (type
    and DIMENSION declarators and scalar references). ``f(...)`` inside
    ``f`` is a self-recursive call and ``/f/`` a COMMON block; neither
    is the result, so both keep their text."""
    spans = [unit.name_span]
    if not unit.is_function:
        return spans
    spans.extend(
        declarator.span
        for decl in unit.decls
        if isinstance(decl, (ast.TypeDecl, ast.DimensionDecl))
        for declarator in decl.declarators
        if declarator.name == unit.name
    )
    for stmt in ast.walk_stmts(unit.body):
        for expr in ast.stmt_exprs(stmt):
            spans.extend(
                node.span
                for node in ast.walk_expr(expr)
                if isinstance(node, ast.VarRef) and node.name == unit.name
            )
    return spans


def apply_clones(result: AnalysisResult, groups: list[CloneGroup]) -> str:
    """Rewrite the source: rename call sites and append clone bodies."""
    source = result.program.source
    renames: list[tuple[SourceSpan, str]] = []
    clones: list[str] = []
    for group in groups:
        if group.clone_name is None:
            continue
        for site_id in group.site_ids:
            _, call = result.lowered.site(site_id)
            span = call.callee_span
            assert span.start_offset != span.end_offset, (
                f"call site {site_id} has no callee span"
            )
            renames.append((span, group.clone_name))
        unit = result.program.procedure(group.callee).ast
        clones.append(
            splice(
                source,
                ((span, group.clone_name) for span in _own_name_spans(unit)),
                unit.span,
            )
        )
    text = splice(source, renames)
    if clones:
        text = text.rstrip("\n") + "\n\n" + "\n\n".join(clones) + "\n"
    return text


def clone_and_reanalyze(
    source: str,
    config: AnalysisConfig | None = None,
    max_clones_per_procedure: int = 3,
) -> CloningReport:
    """One full cloning round: analyze, clone, re-analyze."""
    config = config or AnalysisConfig()
    original = analyze(source, config)
    groups = plan_clone_groups(original, max_clones_per_procedure)
    if not any(g.clone_name for g in groups):
        return CloningReport(original=original, cloned=None, groups=groups)
    transformed = apply_clones(original, groups)
    cloned = analyze(transformed, config)
    return CloningReport(
        original=original,
        cloned=cloned,
        groups=groups,
        transformed_source=transformed,
    )
