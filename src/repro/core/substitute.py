"""Recording the results (stage 4, §4.1): constant substitution.

The paper's measurement — following Metzger and Stroud — is the number of
constants the analyzer substitutes into the program: constants that are
both *known* and *relevant* (referenced in the procedure). We make that
operational:

1. Seed SCCP over each procedure with its CONSTANTS(p) entry environment.
2. Every source-level variable reference whose SSA name SCCP proves
   constant is a substitution site (it carries the source span the IR
   preserved from parsing).
3. The headline count is the number of *(procedure, variable)* pairs with
   at least one substituted reference — the measure that "factors out
   procedure length and modularity". Reference counts and the subset of
   references replaced directly by interprocedural entry values are
   reported alongside.

The same spans drive :func:`transform_source`, the paper's optional
transformed-source output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.sccp import run_sccp
from repro.analysis.ssa import SSAProcedure
from repro.analysis.valuenum import entry_key_of
from repro.core.lattice import BOTTOM, LatticeValue, is_constant
from repro.core.solver import SolveResult
from repro.frontend.source import SourceSpan, splice
from repro.frontend.symbols import Symbol
from repro.ir.instructions import Phi, SSAName


@dataclass
class ProcedureSubstitutions:
    """Substitution facts for one procedure.

    Read-only once built: :func:`compute_substitutions` memoizes each
    record on the SSA form it came from, so results of different
    configurations (and different daemon requests) share it, or share
    its reference lists when their CONSTANTS(p) differ only in entries
    the procedure never reads.
    """

    proc: str
    #: every substituted reference: (span, constant value, symbol).
    references: list[tuple[SourceSpan, LatticeValue, Symbol]] = field(
        default_factory=list
    )
    #: the subset whose SSA name is the entry value of a CONSTANTS(p) key.
    entry_references: list[tuple[SourceSpan, LatticeValue, Symbol]] = field(
        default_factory=list
    )
    #: |CONSTANTS(p)| — every (key, value) pair the solver proved.
    known_constants: int = 0
    #: CONSTANTS(p) keys with no substituted entry reference — "known but
    #: irrelevant" (Metzger–Stroud, discussed in §4.1): typically COMMON
    #: constants a procedure can see but never reads.
    irrelevant_keys: list = field(default_factory=list)

    @property
    def substituted_symbols(self) -> set[Symbol]:
        return {symbol for _, _, symbol in self.references}

    @property
    def entry_symbols(self) -> set[Symbol]:
        return {symbol for _, _, symbol in self.entry_references}

    @property
    def pair_count(self) -> int:
        return len(self.substituted_symbols)

    @property
    def reference_count(self) -> int:
        return len(self.references)


@dataclass
class SubstitutionReport:
    """Whole-program substitution summary — the numbers in Tables 2–3."""

    per_procedure: dict[str, ProcedureSubstitutions] = field(default_factory=dict)

    @property
    def pairs(self) -> int:
        """(procedure, variable) pairs substituted — the headline metric."""
        return sum(p.pair_count for p in self.per_procedure.values())

    @property
    def references(self) -> int:
        """Total source references replaced by constants."""
        return sum(p.reference_count for p in self.per_procedure.values())

    @property
    def interprocedural_pairs(self) -> int:
        """Pairs substituted directly from interprocedural entry values."""
        return sum(len(p.entry_symbols) for p in self.per_procedure.values())

    @property
    def interprocedural_references(self) -> int:
        return sum(len(p.entry_references) for p in self.per_procedure.values())

    @property
    def known_constants(self) -> int:
        """Σ |CONSTANTS(p)| — what a naive count would report."""
        return sum(p.known_constants for p in self.per_procedure.values())

    @property
    def irrelevant_constants(self) -> int:
        """Known-but-unreferenced pairs (excluded from the headline count,
        per Metzger and Stroud's argument that only substituted constants
        measure code improvement)."""
        return sum(len(p.irrelevant_keys) for p in self.per_procedure.values())

    def replacements(self) -> list[tuple[SourceSpan, LatticeValue]]:
        found = []
        for proc_subs in self.per_procedure.values():
            for span, value, _ in proc_subs.references:
                found.append((span, value))
        return found


def compute_substitutions(
    forward,
    solved: SolveResult,
    include_procs: set[str] | None = None,
) -> SubstitutionReport:
    """Run seeded SCCP per procedure and collect substitution sites.

    ``forward`` is the stage-2 :class:`ForwardFunctions` (its SSA forms are
    reused); ``include_procs`` defaults to the procedures reached from the
    main program (never-called procedures contribute nothing, matching the
    paper's ⊤ convention).

    A procedure's substituted references are a pure function of its SSA
    form and the constants of CONSTANTS(p) whose entry value the form
    reads (:attr:`~repro.analysis.ssa.SSAProcedure.entry_reads`): SCCP
    seeds ⊤ and ⊥ entries alike with ⊥, sees no entry value that no
    operand reads, and only constants are counted. So each record is
    memoized on the SSA form
    (:attr:`~repro.analysis.ssa.SSAProcedure.substitutions`), keyed by
    the class and value of each read entry's constant; the class keeps
    ``True`` apart from ``1``, as :func:`~repro.core.lattice.meet` does.
    ``known_constants`` and ``irrelevant_keys`` read all of CONSTANTS(p),
    so they are worked out on every call; where they differ from the
    memoized record's, the result is a copy sharing its reference
    lists. Records are shared, hence read-only. Each is published with
    one dict store: two threads may both build one, but neither sees
    half of one.
    """
    report = SubstitutionReport()
    procs = include_procs if include_procs is not None else solved.reached
    for name in sorted(procs):
        ssa = forward.ssas.get(name)
        if ssa is None:
            continue
        constants = solved.constants(name)
        key = _read_constants(ssa, constants)
        proc_subs = ssa.substitutions.get(key)
        if proc_subs is None:
            proc_subs = _record_procedure(name, ssa, constants)
            ssa.substitutions[key] = proc_subs
        else:
            irrelevant = _irrelevant_keys(proc_subs, constants)
            if (
                proc_subs.known_constants != len(constants)
                or proc_subs.irrelevant_keys != irrelevant
            ):
                proc_subs = replace(
                    proc_subs,
                    known_constants=len(constants),
                    irrelevant_keys=irrelevant,
                )
        report.per_procedure[name] = proc_subs
    return report


def _read_constants(ssa: SSAProcedure, constants: dict) -> tuple:
    """The record memo key: for each entry value ``ssa`` reads, the class
    and value of its constant, or ``None`` twice."""
    key: list = []
    for symbol in ssa.entry_reads:
        value = constants.get(entry_key_of(symbol))
        key += (None, None) if value is None else (value.__class__, value)
    return tuple(key)


def _irrelevant_keys(record: ProcedureSubstitutions, constants: dict) -> list:
    """The keys of ``constants`` that no entry reference of ``record``
    substitutes."""
    referenced_keys = {entry_key_of(symbol) for symbol in record.entry_symbols}
    return [key for key in constants if key not in referenced_keys]


def _record_procedure(
    name: str, ssa: SSAProcedure, constants: dict
) -> ProcedureSubstitutions:
    """One procedure's substitution sites under CONSTANTS(p) =
    ``constants``."""
    entry_env: dict[Symbol, LatticeValue] = {}
    for symbol in ssa.entry_reads:
        entry_env[symbol] = constants.get(entry_key_of(symbol), BOTTOM)
    sccp = run_sccp(ssa, entry_env)
    proc_subs = ProcedureSubstitutions(proc=name)
    seen_spans: set[tuple[int, int]] = set()
    for block, instr in ssa.cfg.instructions():
        if block.id not in sccp.executable_blocks:
            continue
        if isinstance(instr, Phi):
            continue  # phi inputs are not source references
        for operand in instr.uses():
            if not isinstance(operand, SSAName):
                continue
            span = operand.span
            if span.start_offset == span.end_offset:
                continue  # synthesized use, no source text
            value = sccp.value_of(operand)
            if not is_constant(value):
                continue
            span_key = span.text_range
            if span_key in seen_spans:
                continue
            seen_spans.add(span_key)
            record = (span, value, operand.symbol)
            proc_subs.references.append(record)
            if operand.version == 0:
                key = entry_key_of(operand.symbol)
                if key is not None and key in constants:
                    proc_subs.entry_references.append(record)
    proc_subs.known_constants = len(constants)
    proc_subs.irrelevant_keys = _irrelevant_keys(proc_subs, constants)
    return proc_subs


def format_constant(value: LatticeValue) -> str:
    """Source spelling of a lattice constant."""
    if isinstance(value, bool):
        return ".true." if value else ".false."
    return str(value)


def transform_source(source: str, report: SubstitutionReport) -> str:
    """Splice the substituted constants into the program text —
    the paper's optional transformed-source output."""
    return splice(
        source,
        ((span, format_constant(value)) for span, value in report.replacements()),
    )
