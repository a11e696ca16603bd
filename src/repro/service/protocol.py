"""The daemon's wire protocol: request parsing and response shapes.

One request is one JSON object (a line in stdio-JSONL mode, a POST body
in HTTP mode)::

    {"id": "r1", "tenant": "alice", "analysis": "constprop",
     "source": "program p\\n...\\nend\\n",
     "config": {"jump_function": "polynomial", "max_evaluations": 50000},
     "incremental": true, "timeout": 5.0, "stats": false}

``analysis`` dispatches to the paper's constant propagation (default) or
to a framework client (``copyprop`` / ``modref``). ``config`` admits the
whitelisted :class:`~repro.core.config.AnalysisConfig` axes below —
``complete`` and ``parallel_regions`` are deliberately not servable
(complete mode mutates the lowered program away from every cache
identity; nested process pools belong to batch sweeps, not a daemon).

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
#: explicitly so an unknown or unserved axis is a typed rejection).
CONFIG_KEYS = (
    "jump_function",
    "use_return_jump_functions",
    "use_mod",
    "intraprocedural_only",
    "compose_return_functions",
    "max_solver_passes",
    "max_evaluations",
    "max_meets",
    "degrade_on_budget",
    "flat_engine",
)


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
    for key in ("max_solver_passes", "max_evaluations", "max_meets"):
        value = kwargs.get(key)
        if value is not None and (not isinstance(value, int) or value < 0):
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
    timeout = payload.get("timeout")
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise ProtocolError("timeout must be a positive number")
        timeout = float(timeout)
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
        incremental=bool(payload.get("incremental", True)),
        timeout=timeout,
        want_stats=bool(payload.get("stats", False)),
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
