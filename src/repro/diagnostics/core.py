"""The pluggable diagnostics framework: report types, pass protocol,
registry, and the ``run_passes`` driver.

The repo accumulated correctness checks in scattered places — an IR
validator raising :class:`AssertionError`, a runtime soundness probe
returning its own violation type, ad-hoc asserts inside the solver. This
module gives them one shared vocabulary:

- :class:`Diagnostic` — one finding, with a stable code, a severity, and
  an optional source span, comparable and deterministically sortable;
- :class:`Pass` — the protocol a checker implements (``name``, ``code``,
  ``description``, ``run(ctx)``), with :class:`LintPass` as the
  convenience base class;
- :class:`Registry` — named passes, with default-enabled vs. opt-in
  (e.g. the lattice sanitizer, which re-solves the program twice);
- :func:`run_passes` — analyze a program once, hand every selected pass
  the shared :class:`LintContext`, and collect one :class:`LintReport`.

Everything here is intentionally light on imports (only the frontend's
span types) so low-level modules — the interpreter's soundness checker,
the lattice sanitizer hooks — can produce :class:`Diagnostic` objects
without dragging in the whole pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from repro.frontend.source import SourceSpan

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.config import AnalysisConfig
    from repro.core.driver import AnalysisResult
    from repro.framework.engine import SolveResult


class Severity(enum.Enum):
    """How bad a finding is. ``rank`` orders INFO < WARNING < ERROR."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def __str__(self) -> str:
        return self.value


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one pass.

    ``code`` is the stable machine identifier (``RL...``); ``pass_name``
    says which checker produced it; ``span`` points into the analyzed
    source when the finding has a location, and ``path`` names the file
    (filled in by the CLI, which is the only layer that knows it).
    """

    code: str
    severity: Severity
    message: str
    pass_name: str = ""
    procedure: str | None = None
    span: SourceSpan | None = None
    path: str | None = None

    def sort_key(self) -> tuple:
        span = self.span
        offset = span.start_offset if span is not None else -1
        return (
            self.path or "",
            offset,
            self.code,
            self.procedure or "",
            self.message,
        )

    def location(self) -> str:
        """``path:line:col`` with whatever parts are known."""
        parts = []
        if self.path:
            parts.append(self.path)
        if self.span is not None:
            parts.append(str(self.span.start.line))
            parts.append(str(self.span.start.column))
        return ":".join(parts)

    def to_dict(self) -> dict:
        """A JSON-ready mapping with deterministic key order."""
        payload: dict = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "pass": self.pass_name,
        }
        if self.procedure is not None:
            payload["procedure"] = self.procedure
        if self.span is not None:
            payload["line"] = self.span.start.line
            payload["column"] = self.span.start.column
            payload["end_line"] = self.span.end.line
            payload["end_column"] = self.span.end.column
        if self.path is not None:
            payload["path"] = self.path
        return payload

    def format_text(self) -> str:
        location = self.location()
        prefix = f"{location}: " if location else ""
        return f"{prefix}{self.severity.value} {self.code} [{self.pass_name}] {self.message}"


#: code -> one-line human description; passes register their codes here so
#: the SARIF emitter can publish rule metadata without importing the pass.
CODE_DESCRIPTIONS: dict[str, str] = {}


def describe_code(code: str, description: str) -> str:
    """Register (or look up) the description of a diagnostic code."""
    CODE_DESCRIPTIONS.setdefault(code, description)
    return code


@dataclass
class LintContext:
    """Everything a pass may inspect, derived from one analyzer run.

    Passes see the *whole* pipeline through one analysis result: resolved
    program, lowered IR, call graph, MOD/REF summaries, forward jump
    functions (with SSA forms), and the solved VAL sets.
    """

    result: "AnalysisResult"
    path: str | None = None
    #: the copy-propagation fixpoint RL130/RL131 share, solved on first use
    copyprop: "SolveResult | None" = None

    @property
    def program(self):
        return self.result.program

    @property
    def lowered(self):
        return self.result.lowered

    @property
    def graph(self):
        return self.result.call_graph

    @property
    def modref(self):
        return self.result.modref

    @property
    def forward(self):
        return self.result.forward

    @property
    def solved(self):
        return self.result.solved

    @property
    def config(self):
        return self.result.config

    @property
    def source(self) -> str:
        return self.result.program.source

    @classmethod
    def from_source(
        cls,
        source: str,
        config: "AnalysisConfig | None" = None,
        path: str | None = None,
    ) -> "LintContext":
        from repro.core.driver import analyze  # late: avoids an import cycle

        return cls(result=analyze(source, config), path=path)


@runtime_checkable
class Pass(Protocol):
    """The checker protocol. Anything with this shape can be registered."""

    name: str
    code: str
    description: str
    default_enabled: bool

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]: ...


class LintPass:
    """Convenience base class: class attributes plus a ``run`` override."""

    name: str = ""
    code: str = ""
    description: str = ""
    #: opt-in passes (e.g. the lattice sanitizer) set this to False and
    #: run only when selected explicitly.
    default_enabled: bool = True

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self,
        code: str,
        severity: Severity,
        message: str,
        *,
        procedure: str | None = None,
        span: SourceSpan | None = None,
    ) -> Diagnostic:
        """Build a finding attributed to this pass."""
        return Diagnostic(
            code=code,
            severity=severity,
            message=message,
            pass_name=self.name,
            procedure=procedure,
            span=span,
        )


class Registry:
    """Named passes in registration order."""

    def __init__(self) -> None:
        self._passes: dict[str, Pass] = {}

    def register(self, pass_: Pass) -> Pass:
        if not pass_.name:
            raise ValueError("pass has no name")
        if pass_.name in self._passes:
            raise ValueError(f"duplicate pass name {pass_.name!r}")
        self._passes[pass_.name] = pass_
        return pass_

    def get(self, name: str) -> Pass:
        try:
            return self._passes[name]
        except KeyError:
            raise KeyError(
                f"unknown pass {name!r}; available: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        return list(self._passes)

    def passes(self) -> list[Pass]:
        return list(self._passes.values())

    def default_passes(self) -> list[Pass]:
        return [p for p in self._passes.values() if p.default_enabled]

    def __contains__(self, name: str) -> bool:
        return name in self._passes

    def __len__(self) -> int:
        return len(self._passes)


@dataclass
class LintReport:
    """The outcome of one ``run_passes`` call (or a merge of several)."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    passes_run: list[str] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        found = {"error": 0, "warning": 0, "info": 0}
        for diag in self.diagnostics:
            found[diag.severity.value] += 1
        return found

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def max_severity(self) -> Severity | None:
        if not self.diagnostics:
            return None
        return max((d.severity for d in self.diagnostics), key=lambda s: s.rank)

    def sorted(self) -> "LintReport":
        """A copy with deterministically ordered, deduplicated findings."""
        unique = sorted(set(self.diagnostics), key=Diagnostic.sort_key)
        return LintReport(diagnostics=unique, passes_run=list(self.passes_run))

    @staticmethod
    def merged(reports: Iterable["LintReport"]) -> "LintReport":
        merged = LintReport()
        for report in reports:
            merged.diagnostics.extend(report.diagnostics)
            for name in report.passes_run:
                if name not in merged.passes_run:
                    merged.passes_run.append(name)
        return merged.sorted()


def run_passes(
    target: "str | LintContext",
    *,
    registry: Registry | None = None,
    select: Iterable[str] | None = None,
    enable: Iterable[str] = (),
    config: "AnalysisConfig | None" = None,
    path: str | None = None,
) -> LintReport:
    """Run checkers over one program and collect a :class:`LintReport`.

    ``target`` is MiniFortran source text (analyzed once, with ``config``)
    or a prebuilt :class:`LintContext`. With ``select`` the named passes
    run, exactly; otherwise every default-enabled pass runs, plus any
    opt-in passes named in ``enable``. Findings come back deduplicated
    and sorted, so two runs over the same program are bit-identical.
    """
    if registry is None:
        from repro.diagnostics.passes import default_registry  # late: cycle

        registry = default_registry()

    if select is not None:
        chosen = [registry.get(name) for name in select]
    else:
        chosen = registry.default_passes()
        for name in enable:
            pass_ = registry.get(name)
            if pass_ not in chosen:
                chosen.append(pass_)

    if isinstance(target, LintContext):
        ctx = target
        if path is not None:
            ctx.path = path
    else:
        ctx = LintContext.from_source(target, config=config, path=path)

    report = LintReport()
    for pass_ in chosen:
        report.passes_run.append(pass_.name)
        for diag in pass_.run(ctx):
            if ctx.path is not None and diag.path is None:
                diag = Diagnostic(
                    code=diag.code,
                    severity=diag.severity,
                    message=diag.message,
                    pass_name=diag.pass_name,
                    procedure=diag.procedure,
                    span=diag.span,
                    path=ctx.path,
                )
            report.diagnostics.append(diag)
    return report.sorted()
