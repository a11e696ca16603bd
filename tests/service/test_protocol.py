"""The wire protocol: validation, error shapes, response re-addressing."""

import pytest

from repro.core.config import JumpFunctionKind
from repro.resilience.errors import (
    FailureRecord,
    format_cli_error,
)
from repro.service.protocol import (
    ProtocolError,
    error_response,
    parse_request,
    response_for,
)

SOURCE = "program main\n  integer x\n  x = 1\n  write x\nend\n"


class TestParseRequest:
    def test_minimal_request_fills_defaults(self):
        request = parse_request({"source": SOURCE}, default_id="req-1")
        assert request.id == "req-1"
        assert request.tenant == "default"
        assert request.analysis == "constprop"
        assert request.incremental is True
        assert request.timeout is None
        assert request.want_stats is False

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request([1, 2], default_id="x")

    def test_empty_source_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request({"source": "   "}, default_id="x")

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ProtocolError, match="analysis"):
            parse_request(
                {"source": SOURCE, "analysis": "aliasing"}, default_id="x"
            )

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown or unserved"):
            parse_request(
                {"source": SOURCE, "config": {"warp_speed": 9}},
                default_id="x",
            )

    def test_unserved_axes_rejected(self):
        # complete mode and nested process pools are deliberately not
        # servable; the whitelist must refuse them, not pass them through
        for key in ("complete", "parallel_regions"):
            with pytest.raises(ProtocolError):
                parse_request(
                    {"source": SOURCE, "config": {key: 1}}, default_id="x"
                )

    def test_jump_function_coerced_to_enum(self):
        request = parse_request(
            {"source": SOURCE, "config": {"jump_function": "polynomial"}},
            default_id="x",
        )
        assert request.config.jump_function is JumpFunctionKind.POLYNOMIAL

    def test_bad_jump_function_rejected(self):
        with pytest.raises(ProtocolError, match="jump_function"):
            parse_request(
                {"source": SOURCE, "config": {"jump_function": "psychic"}},
                default_id="x",
            )

    def test_negative_budget_rejected(self):
        with pytest.raises(ProtocolError, match="max_evaluations"):
            parse_request(
                {"source": SOURCE, "config": {"max_evaluations": -1}},
                default_id="x",
            )

    def test_bad_timeout_rejected(self):
        with pytest.raises(ProtocolError, match="timeout"):
            parse_request({"source": SOURCE, "timeout": 0}, default_id="x")

    def test_to_json_reparses_equivalently(self):
        original = parse_request(
            {
                "id": "r9",
                "tenant": "alice",
                "source": SOURCE,
                "analysis": "copyprop",
                "config": {"jump_function": "literal", "max_meets": 7},
                "incremental": False,
                "timeout": 2.5,
                "stats": True,
            },
            default_id="x",
        )
        rebuilt = parse_request(original.to_json(), default_id="y")
        assert rebuilt == original


FLAG_KEYS = (
    "use_return_jump_functions",
    "use_mod",
    "intraprocedural_only",
    "compose_return_functions",
    "degrade_on_budget",
    "flat_engine",
)
BUDGET_KEYS = ("max_solver_passes", "max_evaluations", "max_meets")


class TestValueTypes:
    """Each field takes one JSON type; a value of any other is RL555,
    never coerced (``bool("no")`` is true) or passed through."""

    NOT_BOOLEANS = ["no", "false", 0, 1, None, [], {}]

    @pytest.mark.parametrize("key", FLAG_KEYS)
    def test_config_flag_needs_a_boolean(self, key):
        for value in self.NOT_BOOLEANS:
            with pytest.raises(ProtocolError, match=key):
                parse_request(
                    {"source": SOURCE, "config": {key: value}}, default_id="x"
                )
        for value in (True, False):
            request = parse_request(
                {"source": SOURCE, "config": {key: value}}, default_id="x"
            )
            assert getattr(request.config, key) is value

    @pytest.mark.parametrize("key", BUDGET_KEYS)
    def test_budget_needs_a_non_negative_integer(self, key):
        for value in (True, False, -1, 2.0, "3", [], {}):
            with pytest.raises(ProtocolError, match=key):
                parse_request(
                    {"source": SOURCE, "config": {key: value}}, default_id="x"
                )
        for value in (0, 7, None):
            request = parse_request(
                {"source": SOURCE, "config": {key: value}}, default_id="x"
            )
            assert getattr(request.config, key) == value

    @pytest.mark.parametrize("key", ["incremental", "stats"])
    def test_request_flag_needs_a_boolean(self, key):
        for value in self.NOT_BOOLEANS:
            with pytest.raises(ProtocolError, match=key):
                parse_request({"source": SOURCE, key: value}, default_id="x")

    def test_timeout_needs_a_finite_positive_number(self):
        for value in (
            float("nan"), float("inf"), -float("inf"), 10**400, 1e300,
            True, -1, 0, "5", [],
        ):
            with pytest.raises(ProtocolError, match="timeout"):
                parse_request(
                    {"source": SOURCE, "timeout": value}, default_id="x"
                )
        for value, seconds in ((0.5, 0.5), (3, 3.0), (None, None)):
            request = parse_request(
                {"source": SOURCE, "timeout": value}, default_id="x"
            )
            assert request.timeout == seconds


class TestErrorResponse:
    def test_service_error_carries_code_and_kind(self):
        body = error_response("r1", ProtocolError("nope"))
        assert body["status"] == "error"
        assert body["code"] == "RL555"
        assert body["kind"] == "bad-request"
        assert body["error"] == format_cli_error(ProtocolError("nope"))

    def test_failure_record_roundtrip_keeps_kind(self):
        record = FailureRecord.from_exception(
            "service", None, ValueError("boom")
        )
        rebuilt = FailureRecord.from_json(record.to_json())
        body = error_response("r2", rebuilt)
        assert body["kind"] == rebuilt.kind.value
        assert body["failure"]["kind"] == record.kind.value
        # the wire error line matches the CLI's rendering of the same record
        assert body["error"] == format_cli_error(rebuilt)

    def test_generic_exception_classified(self):
        body = error_response("r3", RuntimeError("weird"))
        assert body["status"] == "error"
        assert body["kind"] == "crash"
        assert "failure" in body


class TestResponseFor:
    def test_readdresses_id_and_served(self):
        template = {"id": "leader", "status": "ok", "served": "cold",
                    "result": {"constants_found": 1}}
        follower = parse_request(
            {"id": "f1", "source": SOURCE}, default_id="x"
        )
        body = response_for(template, follower, "dedup")
        assert body["id"] == "f1"
        assert body["served"] == "dedup"
        assert body["result"] == template["result"]
        assert template["id"] == "leader"  # the template is not mutated
