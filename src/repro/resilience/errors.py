"""The structured failure taxonomy of the resilient execution layer.

Every failure a sweep can hit is classified along two axes:

- :class:`Stage` — *where* in the pipeline it happened (frontend /
  lowering / SSA / jump-function build / solve / substitute), recovered
  from the exception's traceback when the raiser did not tag it;
- :class:`FailureKind` — *what* happened (crash, timeout,
  budget-exhausted, worker-lost).

The product of the two becomes a :class:`FailureRecord` — the picklable,
JSON-able object the hardened sweep executor reports instead of letting a
traceback abort eleven healthy programs. Planned quality losses (the
jump-function degradation ladder, the sparse→dense solver fallback) are
the milder :class:`DegradationRecord`; both render as RL5xx diagnostics
through the shared :mod:`repro.diagnostics` vocabulary.

This module is deliberately light on imports (frontend spans and the
diagnostics core only) so the solvers and the engine can raise
:class:`BudgetExhaustedError` without dragging in the executor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.diagnostics.core import Diagnostic, Severity, describe_code
from repro.frontend.errors import FrontendError


class Stage(enum.Enum):
    """Which pipeline stage a failure (or injected fault) belongs to."""

    FRONTEND = "frontend"
    LOWERING = "lowering"
    SSA = "ssa"
    JUMP_FUNCTIONS = "jump-functions"
    SOLVE = "solve"
    SUBSTITUTE = "substitute"
    #: the serving layer around the pipeline (admission, dedup, journal,
    #: breaker) — chaos faults aimed here kill the daemon between
    #: pipeline stages rather than inside one.
    SERVICE = "service"

    def __str__(self) -> str:
        return self.value


class FailureKind(enum.Enum):
    """What went wrong, independent of where."""

    CRASH = "crash"
    TIMEOUT = "timeout"
    BUDGET = "budget-exhausted"
    WORKER_LOST = "worker-lost"

    def __str__(self) -> str:
        return self.value


# -- diagnostic codes ---------------------------------------------------------

CODE_DEGRADED_LADDER = describe_code(
    "RL510", "solver budget exhausted: jump function downgraded one ladder rung"
)
CODE_DEGRADED_DENSE = describe_code(
    "RL511", "sparse solver failed: fell back to the dense reference solver"
)
CODE_DEGRADED_FLOOR = describe_code(
    "RL512", "every ladder rung exhausted its budget: VAL floored to the "
    "intraprocedural baseline"
)
CODE_FAILURE_CRASH = describe_code(
    "RL520", "analysis task crashed at a pipeline stage"
)
CODE_FAILURE_TIMEOUT = describe_code(
    "RL521", "analysis task exceeded its wall-clock budget"
)
CODE_FAILURE_WORKER_LOST = describe_code(
    "RL522", "worker process died while running an analysis task"
)
CODE_FAILURE_BUDGET = describe_code(
    "RL523", "resource budget exhausted with degradation disabled"
)
CODE_QUARANTINED = describe_code(
    "RL524", "program quarantined after repeated failures"
)
CODE_STORE_FALLBACK = describe_code(
    "RL530", "incremental warm-start abandoned: store inconsistency, "
    "fell back to a cold solve"
)
CODE_STORE_RESET = describe_code(
    "RL531", "artifact store reset: unreadable, foreign, or corrupt index"
)
CODE_SLAB_FALLBACK = describe_code(
    "RL532", "persistent slab artifact untrusted (truncated, corrupt, or "
    "version-skewed): rebuilt the slab cold"
)
CODE_PARALLEL_FALLBACK = describe_code(
    "RL540", "parallel region solve failed: fell back to the sequential "
    "schedule"
)
# -- the analysis service's admission / degradation family (RL55x) -----------
CODE_SERVICE_QUEUE_FULL = describe_code(
    "RL550", "service admission queue full: request rejected"
)
CODE_SERVICE_RATE_LIMITED = describe_code(
    "RL551", "tenant token bucket empty: request rejected"
)
CODE_SERVICE_DRAINING = describe_code(
    "RL552", "service draining for shutdown: new requests refused"
)
CODE_SERVICE_BREAKER_OPEN = describe_code(
    "RL553", "circuit breaker open: solver unavailable, request refused"
)
CODE_SERVICE_DEADLINE = describe_code(
    "RL554", "request deadline exceeded: solve cancelled cooperatively"
)
CODE_SERVICE_BAD_REQUEST = describe_code(
    "RL555", "malformed service request rejected"
)
CODE_SERVICE_INTERRUPTED = describe_code(
    "RL556", "request was in flight when the daemon died; refused on "
    "restart per journal policy"
)
CODE_SERVICE_BREAKER_DEGRADED = describe_code(
    "RL557", "circuit breaker tripped: request rerouted through the "
    "degradation ladder"
)

_FAILURE_CODES = {
    FailureKind.CRASH: CODE_FAILURE_CRASH,
    FailureKind.TIMEOUT: CODE_FAILURE_TIMEOUT,
    FailureKind.WORKER_LOST: CODE_FAILURE_WORKER_LOST,
    FailureKind.BUDGET: CODE_FAILURE_BUDGET,
}


# -- exceptions ---------------------------------------------------------------


class ResilienceError(Exception):
    """Base class of the resilience layer's own exceptions. ``stage``
    tags where the raiser was; :func:`classify_exception` trusts it."""

    stage: Stage | None = None


class BudgetExhaustedError(ResilienceError):
    """A solver or the delta engine ran out of fuel.

    ``counter`` names which budget blew (``passes`` / ``evaluations`` /
    ``meets``); ``limit`` and ``observed`` quantify it. The driver's
    degradation ladder catches this and re-solves with a cheaper jump
    function instead of letting it surface.
    """

    stage = Stage.SOLVE

    def __init__(self, counter: str, limit: int, observed: int):
        self.counter = counter
        self.limit = limit
        self.observed = observed
        super().__init__(
            f"solver budget exhausted: {counter} reached {observed} "
            f"(limit {limit})"
        )


class ServiceError(ResilienceError):
    """A typed refusal from the serving layer's admission spine.

    ``code`` is the RL55x diagnostic code, ``kind`` the machine-readable
    discriminator a client switches on (``queue-full`` / ``rate-limited``
    / ``draining`` / ``breaker-open`` / ``deadline`` / ``bad-request`` /
    ``interrupted``). Rendered by :func:`format_cli_error` as
    ``error[service]: RL55x: message`` — the exact line a daemon error
    response carries.
    """

    stage = Stage.SERVICE

    def __init__(self, code: str, kind: str, message: str):
        self.code = code
        self.kind = kind
        super().__init__(message)


# -- classification -----------------------------------------------------------

#: traceback filename fragment -> stage, checked deepest frame first.
_STAGE_MARKERS: tuple[tuple[str, Stage], ...] = (
    ("repro/frontend/", Stage.FRONTEND),
    ("repro/ir/lower", Stage.LOWERING),
    ("repro/ir/", Stage.LOWERING),
    ("repro/callgraph/", Stage.LOWERING),
    ("repro/analysis/ssa", Stage.SSA),
    ("repro/analysis/dominance", Stage.SSA),
    ("repro/core/returns", Stage.JUMP_FUNCTIONS),
    ("repro/core/builder", Stage.JUMP_FUNCTIONS),
    ("repro/core/jump_functions", Stage.JUMP_FUNCTIONS),
    ("repro/analysis/valuenum", Stage.JUMP_FUNCTIONS),
    ("repro/core/solver", Stage.SOLVE),
    ("repro/framework/", Stage.SOLVE),
    ("repro/core/substitute", Stage.SUBSTITUTE),
)


def classify_exception(exc: BaseException) -> Stage | None:
    """Map an exception to the pipeline stage it escaped from.

    Exceptions that carry their own ``stage`` attribute (the resilience
    layer's, chaos-injected ones) are trusted; front-end errors are
    front-end by definition; anything else is classified by walking its
    traceback from the deepest frame outward and matching module paths.
    Returns ``None`` when nothing matches (e.g. an executor-level bug).
    """
    tagged = getattr(exc, "stage", None)
    if isinstance(tagged, Stage):
        return tagged
    if isinstance(exc, FrontendError):
        return Stage.FRONTEND
    tb = exc.__traceback__
    frames: list[str] = []
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_filename.replace("\\", "/"))
        tb = tb.tb_next
    for filename in reversed(frames):
        for marker, stage in _STAGE_MARKERS:
            if marker in filename:
                return stage
    return None


def format_cli_error(exc) -> str:
    """One-line typed rendering for the CLI: ``error[stage]: loc: message``.

    Front-end errors keep their ``line:col`` span; everything else shows
    the classified stage and the exception text. ``--traceback`` restores
    the raw traceback for debugging.

    Also accepts a :class:`FailureRecord` — including one rebuilt by
    :meth:`FailureRecord.from_json`, which has no traceback to classify —
    rendering ``error[stage]: kind: message`` with the record's own
    ``kind`` intact, so a daemon replaying a journaled failure prints the
    same line the CLI printed when it happened live. Service refusals
    (:class:`ServiceError`) render their RL55x code in place of the
    exception type.
    """
    if isinstance(exc, FailureRecord):
        label = exc.stage.value if exc.stage is not None else "internal"
        return f"error[{label}]: {exc.kind.value}: {exc.message}"
    stage = classify_exception(exc)
    label = stage.value if stage is not None else "internal"
    if isinstance(exc, FrontendError):
        location = f"{exc.location}: " if exc.location is not None else ""
        return f"error[{label}]: {location}{exc.message}"
    if isinstance(exc, ServiceError):
        return f"error[{label}]: {exc.code}: {exc}"
    message = str(exc) or type(exc).__name__
    return f"error[{label}]: {type(exc).__name__}: {message}"


# -- records ------------------------------------------------------------------


@dataclass(frozen=True)
class DegradationRecord:
    """One planned quality loss taken to keep a result flowing.

    ``from_label``/``to_label`` name the two rungs (jump-function kinds,
    or ``sparse``/``dense`` for the solver fallback); ``counter`` names
    the budget that forced a ladder step (``None`` for crash fallbacks).
    """

    code: str
    from_label: str
    to_label: str
    counter: str | None = None
    detail: str = ""

    def describe(self) -> str:
        reason = self.counter or "crash"
        return f"{self.code} {self.from_label}->{self.to_label} ({reason})"

    def diagnostic(self, procedure: str | None = None) -> Diagnostic:
        message = (
            f"degraded {self.from_label} -> {self.to_label}"
            + (f" after exhausting {self.counter}" if self.counter else "")
            + (f": {self.detail}" if self.detail else "")
        )
        return Diagnostic(
            code=self.code,
            severity=Severity.WARNING,
            message=message,
            pass_name="resilience",
            procedure=procedure,
        )


@dataclass(frozen=True)
class FailureRecord:
    """One failed (program, configuration) cell of a sweep.

    ``config`` is ``None`` when the whole program task failed before any
    configuration could be attributed (worker loss, timeout, quarantine
    summary records). ``attempt`` is 0-based; ``quarantined`` marks the
    terminal record after the retry budget ran out.
    """

    program: str
    config: str | None
    stage: Stage | None
    kind: FailureKind
    message: str
    attempt: int = 0
    quarantined: bool = False
    elapsed: float | None = None

    @classmethod
    def from_exception(
        cls,
        program: str,
        config: str | None,
        exc: BaseException,
        attempt: int = 0,
        elapsed: float | None = None,
    ) -> "FailureRecord":
        kind = (
            FailureKind.BUDGET
            if isinstance(exc, BudgetExhaustedError)
            else FailureKind.CRASH
        )
        message = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        return cls(
            program=program,
            config=config,
            stage=classify_exception(exc),
            kind=kind,
            message=message,
            attempt=attempt,
            quarantined=False,
            elapsed=elapsed,
        )

    def describe(self) -> str:
        where = self.stage.value if self.stage is not None else "unknown"
        cell = f"{self.program}/{self.config}" if self.config else self.program
        suffix = " [quarantined]" if self.quarantined else ""
        return (
            f"{cell}: {self.kind.value} at {where} "
            f"(attempt {self.attempt}): {self.message}{suffix}"
        )

    def diagnostic(self) -> Diagnostic:
        code = CODE_QUARANTINED if self.quarantined else _FAILURE_CODES[self.kind]
        return Diagnostic(
            code=code,
            severity=Severity.ERROR,
            message=self.describe(),
            pass_name="resilience",
        )

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "config": self.config,
            "stage": self.stage.value if self.stage is not None else None,
            "kind": self.kind.value,
            "message": self.message,
            "attempt": self.attempt,
            "quarantined": self.quarantined,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "FailureRecord":
        stage = payload.get("stage")
        return cls(
            program=payload["program"],
            config=payload.get("config"),
            stage=Stage(stage) if stage is not None else None,
            kind=FailureKind(payload["kind"]),
            message=payload.get("message", ""),
            attempt=int(payload.get("attempt", 0)),
            quarantined=bool(payload.get("quarantined", False)),
            elapsed=payload.get("elapsed"),
        )
