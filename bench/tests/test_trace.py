"""Span arithmetic, wrapper installation, and traced answers."""

import gc
import time

import pytest

from bench import answers
from bench.trace import WRAP_POINTS, Tracer, _resolve
from bench.workloads import POLYNOMIAL
from repro.core import driver
from repro.workloads import suite


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_with_injected_clock():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def lex():
        clock.now += 2.0

    def analyze():
        clock.now += 1.0
        traced_lex()
        clock.now += 3.0
        traced_lex()
        clock.now += 0.5

    traced_lex = tracer.wrap(lex, "frontend.lex")
    traced_analyze = tracer.wrap(analyze, "driver.analyze")

    traced_analyze()  # no op open: not recorded
    assert tracer.spans == []

    clock.now = 100.0
    tracer.begin_op()
    start = clock()
    traced_analyze()
    clock.now += 1.0  # op time outside every span
    tracer.end_op(start, clock())

    metrics = tracer.layer_metrics()
    assert metrics["driver.analyze.s"] == pytest.approx(4.5)
    assert metrics["driver.analyze.calls"] == 1
    assert metrics["frontend.lex.s"] == pytest.approx(4.0)
    assert metrics["frontend.lex.calls"] == 2
    assert metrics["bench.root_coverage"] == pytest.approx(8.5 / 9.5)
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert tracer.op_layer_seconds()[0]["frontend.lex"] == pytest.approx(4.0)


def test_uninstall_restores_every_wrapped_attribute():
    originals = []
    for module, attribute, _, _ in WRAP_POINTS:
        owner, attr = _resolve(module, attribute)
        originals.append((owner, attr, vars(owner)[attr]))
    tracer = Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    assert tracer._on_gc not in gc.callbacks


@pytest.mark.parametrize("name", ["trfd", "mdg"])
def test_traced_answers_match_untraced(name):
    source = suite.load(name).source
    plain = answers.of_result(driver.analyze(source, POLYNOMIAL, cache=None))
    assert plain == answers.load_expected()[name]["polynomial"]

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        start = time.perf_counter()
        traced = driver.analyze(source, POLYNOMIAL, cache=None)
        tracer.end_op(start, time.perf_counter())
    finally:
        tracer.uninstall()
    assert answers.of_result(traced) == plain

    metrics = tracer.layer_metrics()
    assert metrics["driver.analyze.calls"] == 1
    assert metrics["frontend.lex.calls"] == 1
    assert metrics["analysis.ssa.calls"] == metrics["ir.lower.procs"]
    assert metrics["bench.root_coverage"] > 0.95
