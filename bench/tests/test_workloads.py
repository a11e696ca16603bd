"""Seeded inputs: the edit generator and the request draw."""

import random

from bench.workloads import (
    POLYNOMIAL,
    SERVE_PAYLOADS,
    EditSession,
    apply_edit,
    draw_requests,
    edit_sites,
)
from repro.core import driver
from repro.workloads import suite


def test_edit_sites_skip_the_main_program():
    lines = suite.load(EditSession.program).source.split("\n")
    sites = edit_sites(lines)
    assert len(sites) >= 50
    assert EditSession.program not in {unit for _, unit in sites}


def test_edits_change_one_procedure_and_reanalyze_warm():
    base = suite.load("mdg").source
    base_lines = base.split("\n")
    sites = edit_sites(base_lines)
    for seed in range(21):
        lines = list(base_lines)
        unit = apply_edit(lines, sites, random.Random(seed))
        changed_lines = [i for i, (a, b) in enumerate(zip(base_lines, lines)) if a != b]
        assert len(changed_lines) == 1

        analyzer = driver.Analyzer(base, cache=driver.Stage0Cache())
        analyzer.run(POLYNOMIAL)
        result = analyzer.reanalyze("\n".join(lines), POLYNOMIAL)
        assert result.incremental.mode == "warm", seed
        assert unit in result.incremental.changed, seed
        assert not result.degradations


def test_request_draw_is_deterministic_per_seed():
    programs = suite.suite_names()
    first = draw_requests(3, programs, 300)
    assert first == draw_requests(3, programs, 300)
    other = draw_requests(4, programs, 300)
    assert first != other and sorted(first) == sorted(other)
    assert len(first) == 300
    # Zipf shares of 300 over the 96 keys: the top key gets 58 requests,
    # the last one none, so 95 requests are cold and 205 cache hits.
    top = (programs[0], next(iter(SERVE_PAYLOADS)))
    assert first.count(top) == 58
    assert len(set(first)) == 95
