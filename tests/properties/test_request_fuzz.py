"""Mutation fuzzing of the daemon's request JSON.

Each example takes one valid request, swaps one field (top-level or
inside ``config``) for an arbitrary JSON value and hands it to
:meth:`AnalysisService.handle`. Two laws hold for every answer:

- a value of the wrong JSON type for its field is RL555;
- the answer is ``ok`` or an RL55x service error: never another code,
  never an exception.

A non-blank string in ``source`` is the one well-typed value that can
fail outside the service layer (it is parsed as a program), so those
draws are skipped.
"""

from pathlib import Path

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.service import AnalysisService, ServicePolicy

PIPELINE = (
    Path(__file__).resolve().parents[2] / "examples" / "pipeline.f"
).read_text()

VALID = {
    "id": "r1",
    "tenant": "fuzz",
    "analysis": "constprop",
    "source": PIPELINE,
    "config": {
        "jump_function": "polynomial",
        "use_return_jump_functions": True,
        "use_mod": True,
        "intraprocedural_only": False,
        "compose_return_functions": False,
        "max_solver_passes": 100,
        "max_evaluations": 50_000,
        "max_meets": 50_000,
        "degrade_on_budget": True,
        "flat_engine": False,
    },
    "incremental": True,
    "timeout": 30.0,
    "stats": False,
}

FLAG_KEYS = (
    "use_return_jump_functions",
    "use_mod",
    "intraprocedural_only",
    "compose_return_functions",
    "degrade_on_budget",
    "flat_engine",
)
BUDGET_KEYS = ("max_solver_passes", "max_evaluations", "max_meets")

#: field -> the JSON types it accepts (``config.k`` names a config key).
ACCEPTS = {
    "id": {"string"},
    "tenant": {"string"},
    "analysis": {"string"},
    "source": {"string"},
    "config": {"object", "null"},
    "incremental": {"boolean"},
    "stats": {"boolean"},
    "timeout": {"integer", "number", "null"},
    "config.jump_function": {"string"},
    **{f"config.{key}": {"boolean"} for key in FLAG_KEYS},
    **{f"config.{key}": {"integer", "null"} for key in BUDGET_KEYS},
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=6,
)

#: generous rate limits: admission must not be what the laws observe.
SERVICE = AnalysisService(ServicePolicy(tenant_rate=1e6, tenant_burst=10**6))

FUZZ_SETTINGS = settings(
    # tier-1 draws 40 examples; the CI soak loads conftest.py's profile
    max_examples=(
        settings.default.max_examples
        if settings.get_current_profile_name() == "soak"
        else 40
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def mutate(field: str, value) -> dict:
    request = {**VALID, "config": dict(VALID["config"])}
    if field.startswith("config."):
        request["config"][field.removeprefix("config.")] = value
    else:
        request[field] = value
    return request


@given(field=st.sampled_from(sorted(ACCEPTS)), value=JSON_VALUES)
@example(field="config.use_mod", value="no")
@example(field="timeout", value=float("nan"))
@example(field="config.max_meets", value=True)
@FUZZ_SETTINGS
def test_mutated_request_gets_ok_or_a_service_error(field, value):
    assume(not (field == "source" and isinstance(value, str) and value.strip()))
    response = SERVICE.handle(mutate(field, value))
    if json_type(value) not in ACCEPTS[field]:
        assert response.get("code") == "RL555", (field, value, response)
    if response["status"] != "ok":
        assert response["status"] == "error"
        assert response["code"].startswith("RL55"), (field, value, response)
