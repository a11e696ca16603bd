"""The failure taxonomy: stage classification, CLI rendering, records."""

import pytest

from repro import analyze
from repro.resilience.errors import (
    BudgetExhaustedError,
    DegradationRecord,
    FailureKind,
    FailureRecord,
    Stage,
    classify_exception,
    format_cli_error,
)


class TestClassifyException:
    def test_tagged_stage_is_trusted(self):
        error = BudgetExhaustedError("passes", 1, 2)
        assert classify_exception(error) is Stage.SOLVE

    def test_frontend_error_is_frontend(self):
        try:
            analyze("program p\nn = \nend\n")
        except Exception as error:
            assert classify_exception(error) is Stage.FRONTEND
        else:
            pytest.fail("malformed program parsed")

    def test_traceback_walk_finds_deepest_marker(self):
        # raise from inside a solver module so the traceback carries it
        from repro.core import solver

        lowered = analyze("program p\n  integer n\n  n = 1\nend\n").lowered
        try:
            solver.solve_dense(lowered, None, None)  # no call graph
        except Exception as error:
            assert classify_exception(error) is Stage.SOLVE
        else:
            pytest.fail("solve_dense ran without a call graph")

    @pytest.mark.parametrize("analysis", ["constprop", "copyprop"])
    def test_framework_engine_crash_is_solve_stage(self, analysis, monkeypatch):
        # every analysis solves on the framework's ClientEngine; a crash
        # raised inside it must classify as SOLVE, not as unknown
        from repro.core.solver import solve
        from repro.framework import ConstantLattice
        from repro.framework.clients import CopyLattice, solve_copyprop
        from repro.workloads import load

        result = analyze(load("trfd").source)
        lattice, solver = {
            "constprop": (ConstantLattice, solve),
            "copyprop": (CopyLattice, solve_copyprop),
        }[analysis]

        def broken_meet(self, a, b):
            raise RuntimeError("meet exploded")

        monkeypatch.setattr(lattice, "meet", broken_meet)
        with pytest.raises(RuntimeError, match="meet exploded") as exc_info:
            solver(result.lowered, result.call_graph, result.forward)
        assert classify_exception(exc_info.value) is Stage.SOLVE

    def test_unclassifiable_returns_none(self):
        try:
            raise ValueError("no pipeline frames")
        except ValueError as error:
            assert classify_exception(error) is None


class TestFormatCliError:
    def test_frontend_error_keeps_span(self):
        from repro.frontend.errors import FrontendError
        from repro.frontend.symbols import parse_program

        with pytest.raises(FrontendError) as exc_info:
            parse_program("program p\nn = \nend\n")
        error = exc_info.value
        rendered = format_cli_error(error)
        assert rendered.startswith("error[frontend]: ")
        if error.location is not None:
            assert str(error.location) in rendered

    def test_generic_error_shows_stage_and_type(self):
        error = BudgetExhaustedError("meets", 10, 11)
        rendered = format_cli_error(error)
        assert rendered.startswith("error[solve]: BudgetExhaustedError:")

    def test_unknown_stage_renders_internal(self):
        rendered = format_cli_error(KeyError("boom"))
        assert rendered.startswith("error[internal]:")

    def test_failure_record_renders_with_kind(self):
        # a FailureRecord fed directly (e.g. replayed from a journal)
        # must render its own kind — there is no traceback to classify
        record = FailureRecord(
            program="p", config=None, stage=Stage.SOLVE,
            kind=FailureKind.TIMEOUT, message="took 9s",
        )
        assert format_cli_error(record) == "error[solve]: timeout: took 9s"

    def test_json_roundtripped_record_keeps_its_kind(self):
        # the satellite regression: round-tripping through JSON used to
        # lose the kind because the renderer re-classified from a
        # traceback the rebuilt record no longer has
        live = FailureRecord.from_exception(
            "p", "literal", BudgetExhaustedError("passes", 1, 2)
        )
        rebuilt = FailureRecord.from_json(live.to_json())
        rendered = format_cli_error(rebuilt)
        assert "budget" in rendered
        assert rendered == format_cli_error(live)

    def test_stageless_record_renders_internal(self):
        record = FailureRecord(
            program="p", config=None, stage=None,
            kind=FailureKind.CRASH, message="m",
        )
        assert format_cli_error(record) == "error[internal]: crash: m"

    def test_service_error_renders_its_code(self):
        from repro.resilience.errors import (
            CODE_SERVICE_RATE_LIMITED,
            ServiceError,
        )

        error = ServiceError(
            CODE_SERVICE_RATE_LIMITED, "rate-limited", "tenant over budget"
        )
        rendered = format_cli_error(error)
        assert rendered == "error[service]: RL551: tenant over budget"


class TestRecords:
    def test_failure_record_roundtrips_json(self):
        record = FailureRecord(
            program="trfd",
            config="polynomial",
            stage=Stage.SOLVE,
            kind=FailureKind.TIMEOUT,
            message="took too long",
            attempt=1,
            quarantined=True,
            elapsed=1.5,
        )
        assert FailureRecord.from_json(record.to_json()) == record

    def test_from_exception_classifies_budget(self):
        record = FailureRecord.from_exception(
            "p", "literal", BudgetExhaustedError("passes", 1, 2)
        )
        assert record.kind is FailureKind.BUDGET
        assert record.stage is Stage.SOLVE
        assert "passes" in record.message

    def test_diagnostics_use_rl5xx_codes(self):
        crash = FailureRecord.from_exception("p", None, ValueError("x"))
        assert crash.diagnostic().code == "RL520"
        quarantined = FailureRecord(
            program="p", config=None, stage=None,
            kind=FailureKind.CRASH, message="m", quarantined=True,
        )
        assert quarantined.diagnostic().code == "RL524"

    def test_degradation_record_describe_and_diagnostic(self):
        record = DegradationRecord(
            code="RL510", from_label="polynomial",
            to_label="pass_through", counter="passes",
        )
        assert "polynomial->pass_through" in record.describe()
        diagnostic = record.diagnostic()
        assert diagnostic.code == "RL510"
        assert "exhausting passes" in diagnostic.message
