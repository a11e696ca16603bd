"""The daemon's wire protocol: request parsing and response shapes.

One request is one JSON object (a line in stdio-JSONL mode, a POST body
in HTTP mode)::

    {"id": "r1", "tenant": "alice", "analysis": "constprop",
     "source": "program p\\n...\\nend\\n",
     "config": {"jump_function": "polynomial", "max_evaluations": 50000},
     "incremental": true, "timeout": 5.0, "stats": false}

The flags (``incremental``, ``stats`` and the boolean config axes) are
JSON booleans, the budgets non-negative integers or null, and ``timeout``
a finite positive number of seconds or null; a value of any other JSON
type is RL555, and so is a timeout longer than a lock can wait.

``analysis`` selects the result: the paper's constant propagation
(default), the copy-propagation framework client (``copyprop``), or the
MOD/REF summaries the analysis computed (``modref``). ``config`` admits the
whitelisted :class:`~repro.core.config.AnalysisConfig` axes below —
``complete`` and ``parallel_regions`` are deliberately not servable
(complete mode's CONSTANTS describe its own DCE'd program, not the
request's source, and it ignores the artifact store the warm tier reads;
nested process pools belong to batch sweeps, not a daemon).

Responses are one JSON object either way::

    {"id": "r1", "status": "ok", "served": "cold|warm|cache|dedup",
     "fingerprint": "...", "result": {...}, "degradations": [...],
     "diagnostics": [...], "elapsed_ms": 3.2}
    {"id": "r1", "status": "error", "code": "RL551",
     "kind": "rate-limited", "error": "error[service]: RL551: ..."}

The ``error`` field always carries the same single-line rendering
:func:`repro.resilience.errors.format_cli_error` prints in the CLI.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.resilience.errors import (
    CODE_SERVICE_BAD_REQUEST,
    FailureRecord,
    ServiceError,
    format_cli_error,
)

ANALYSES = ("constprop", "copyprop", "modref")

#: request config keys -> AnalysisConfig field (identity names, listed
#: explicitly so an unknown or unserved axis is a typed rejection). Flags
#: take JSON booleans; budgets take non-negative integers, or null for
#: no budget.
FLAG_KEYS = (
    "use_return_jump_functions",
    "use_mod",
    "intraprocedural_only",
    "compose_return_functions",
    "degrade_on_budget",
    "flat_engine",
)
BUDGET_KEYS = ("max_solver_passes", "max_evaluations", "max_meets")
CONFIG_KEYS = ("jump_function", *FLAG_KEYS, *BUDGET_KEYS)


class ProtocolError(ServiceError):
    """A malformed request — rejected before admission (RL555)."""

    def __init__(self, message: str):
        super().__init__(CODE_SERVICE_BAD_REQUEST, "bad-request", message)


@dataclass(frozen=True)
class ServiceRequest:
    """One validated submission."""

    id: str
    tenant: str
    analysis: str
    source: str
    config: AnalysisConfig
    #: the raw config dict as submitted — journaled so a replay after a
    #: crash re-parses through exactly this validation path.
    config_payload: dict = field(default_factory=dict)
    incremental: bool = True
    timeout: float | None = None
    want_stats: bool = False

    def to_json(self) -> dict:
        """The journal's ``begin`` payload; :func:`parse_request` of this
        dict reconstructs an equivalent request."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "analysis": self.analysis,
            "source": self.source,
            "config": dict(self.config_payload),
            "incremental": self.incremental,
            "timeout": self.timeout,
            "stats": self.want_stats,
        }


def _is_count(value) -> bool:
    """A JSON integer >= 0. ``true`` is not one, though Python's bool is
    an int."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _parse_timeout(value) -> float | None:
    """Seconds as a positive float no larger than the longest wait a
    lock accepts (``threading.TIMEOUT_MAX``, about 292 years); null means
    the daemon's default."""
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            seconds = float(value)
        except OverflowError:  # an integer past the float range
            seconds = math.inf
        if 0 < seconds <= threading.TIMEOUT_MAX:  # NaN fails both
            return seconds
    raise ProtocolError(
        f"timeout must be a positive number of seconds, at most "
        f"{threading.TIMEOUT_MAX:.0f}"
    )


def _check_flag(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ProtocolError(f"{key} must be true or false")
    return value


def _parse_config(payload) -> tuple[AnalysisConfig, dict]:
    if payload is None:
        return AnalysisConfig(), {}
    if not isinstance(payload, dict):
        raise ProtocolError("config must be an object")
    unknown = sorted(set(payload) - set(CONFIG_KEYS))
    if unknown:
        raise ProtocolError(
            f"unknown or unserved config key(s): {', '.join(unknown)}"
        )
    kwargs = dict(payload)
    if "jump_function" in kwargs:
        try:
            kwargs["jump_function"] = JumpFunctionKind(kwargs["jump_function"])
        except ValueError:
            choices = ", ".join(k.value for k in JumpFunctionKind)
            raise ProtocolError(
                f"jump_function must be one of: {choices}"
            ) from None
    for key, value in kwargs.items():
        if key in FLAG_KEYS:
            _check_flag(key, value)
        elif key in BUDGET_KEYS and not (value is None or _is_count(value)):
            raise ProtocolError(f"{key} must be a non-negative integer")
    try:
        return AnalysisConfig(**kwargs), dict(payload)
    except TypeError as exc:
        raise ProtocolError(f"bad config: {exc}") from None


def parse_request(payload, default_id: str) -> ServiceRequest:
    """Validate one submission; :class:`ProtocolError` (RL555) on any
    shape problem — nothing malformed reaches admission or the solver."""
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError("source must be a non-empty string")
    analysis = payload.get("analysis", "constprop")
    if analysis not in ANALYSES:
        raise ProtocolError(
            f"analysis must be one of: {', '.join(ANALYSES)}"
        )
    timeout = _parse_timeout(payload.get("timeout"))
    request_id = payload.get("id", default_id)
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("id must be a non-empty string")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("tenant must be a non-empty string")
    config, config_payload = _parse_config(payload.get("config"))
    return ServiceRequest(
        id=request_id,
        tenant=tenant,
        analysis=analysis,
        source=source,
        config=config,
        config_payload=config_payload,
        incremental=_check_flag("incremental", payload.get("incremental", True)),
        timeout=timeout,
        want_stats=_check_flag("stats", payload.get("stats", False)),
    )


# -- responses ----------------------------------------------------------------


def error_response(request_id: str | None, error) -> dict:
    """The typed error shape for a :class:`ServiceError`, a
    :class:`FailureRecord` (live or journal-replayed), or any exception.
    The single-line ``error`` field matches the CLI rendering exactly."""
    body: dict = {
        "id": request_id,
        "status": "error",
        "error": format_cli_error(error),
    }
    if isinstance(error, ServiceError):
        body["code"] = error.code
        body["kind"] = error.kind
    elif isinstance(error, FailureRecord):
        body["code"] = error.diagnostic().code
        body["kind"] = error.kind.value
        body["failure"] = error.to_json()
    else:
        record = FailureRecord.from_exception("service", None, error)
        body["code"] = record.diagnostic().code
        body["kind"] = record.kind.value
        body["failure"] = record.to_json()
    return body


def response_for(template: dict, request: ServiceRequest, served: str) -> dict:
    """Re-address a cached/coalesced response for this requester: same
    payload, the caller's id, and the true ``served`` provenance."""
    body = dict(template)
    body["id"] = request.id
    body["served"] = served
    return body
