"""The benchmark's four workloads.

Each workload is a fixed sequence of ops. A worker process runs
:meth:`setup`, then times each op of :meth:`ops` and hands its answer to
:meth:`check`, which runs untimed. Corpus programs are fixed by their
profile seeds; the benchmark seed only picks the edits
(``edit_session``) and the request order (``serve_mix``).

Every op calls the program through a module attribute looked up at call
time, so the tracer's wrappers see the call when tracing is on.
"""

from __future__ import annotations

import random
import re

from repro.core import driver
from repro.core.config import (
    TABLE2_CONFIGS,
    TABLE3_CONFIGS,
    AnalysisConfig,
    JumpFunctionKind,
)
from repro.service import server
from repro.workloads import suite

from bench import answers

POLYNOMIAL = AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)

#: the paper's experiment: every column of Tables 2 and 3.
SWEEP_CONFIGS = {**TABLE2_CONFIGS, **TABLE3_CONFIGS}

#: the daemon's request mix: 4 jump functions x MOD on/off.
SERVE_PAYLOADS = {
    f"{kind.value}/{'mod' if use_mod else 'no_mod'}": {
        "jump_function": kind.value,
        "use_mod": use_mod,
    }
    for kind in JumpFunctionKind
    for use_mod in (True, False)
}
SERVE_CONFIGS = {
    name: AnalysisConfig(
        jump_function=JumpFunctionKind(payload["jump_function"]),
        use_mod=payload["use_mod"],
    )
    for name, payload in SERVE_PAYLOADS.items()
}

LARGE_PROGRAMS = ("large_chain", "large_fanout", "large_scc")

#: every cell ``expected.json`` holds: program -> config name -> config.
EXPECTED_CELLS = {
    **{
        name: {**SWEEP_CONFIGS, **SERVE_CONFIGS}
        for name in suite.suite_names()
    },
    **{name: {"polynomial": POLYNOMIAL} for name in LARGE_PROGRAMS},
}


def _degraded(label: str, degradations) -> str | None:
    if degradations:
        return f"{label}: degraded: {'; '.join(map(str, degradations))}"
    return None


class TableSweep:
    name = "table_sweep"
    ops_per_pass = len(suite.suite_names())

    def setup(self, seed: int) -> None:
        self.sources = {name: suite.load(name).source for name in suite.suite_names()}
        self.expected = answers.load_expected()

    def ops(self):
        for name, source in self.sources.items():
            yield name, lambda s={name: source}: driver.sweep_programs(s, SWEEP_CONFIGS)

    def check(self, label: str, summaries) -> tuple[str | None, list]:
        cells = summaries[label]
        got = [answers.of_summary(cells[c]) for c in SWEEP_CONFIGS]
        for config_name, answer in zip(SWEEP_CONFIGS, got):
            error = _degraded(label, cells[config_name].degradations) or answers.mismatch(
                f"{label}/{config_name}", answer, self.expected[label][config_name]
            )
            if error:
                return error, got
        return None, got


class ColdLarge:
    name = "cold_large"
    ops_per_pass = len(LARGE_PROGRAMS)

    def setup(self, seed: int) -> None:
        self.sources = {name: suite.load(name).source for name in LARGE_PROGRAMS}
        self.expected = answers.load_expected()

    def ops(self):
        for name, source in self.sources.items():
            yield name, lambda s=source: driver.analyze(s, POLYNOMIAL, cache=None)

    def check(self, label: str, result) -> tuple[str | None, list]:
        got = answers.of_result(result)
        error = _degraded(label, result.degradations) or answers.mismatch(
            label, got, self.expected[label]["polynomial"]
        )
        return error, got


_UNIT_HEADER = re.compile(r"^(?:\w+\s+)?(program|subroutine|function)\s+(\w+)")
_LITERAL_ASSIGN = re.compile(r"^(\s+\w+ = )(\d+)$")


def edit_sites(lines: list[str]) -> list[tuple[int, str]]:
    """(line index, procedure) of every ``v = <int>`` line outside the
    main program: editing one changes exactly one procedure's text."""
    sites = []
    unit = kind = None
    for index, line in enumerate(lines):
        header = _UNIT_HEADER.match(line)
        if header:
            kind, unit = header.group(1), header.group(2)
        elif kind != "program" and _LITERAL_ASSIGN.match(line):
            sites.append((index, unit))
    return sites


def apply_edit(lines: list[str], sites, rng: random.Random) -> str:
    """Add 1 to the literal on a seeded choice of edit site, in place;
    returns the procedure edited."""
    index, unit = rng.choice(sites)
    prefix, literal = _LITERAL_ASSIGN.match(lines[index]).groups()
    lines[index] = f"{prefix}{int(literal) + 1}"
    return unit


class EditSession:
    """Ten edits in one long-lived process, so the heap grows the way an
    editor session's does and generation-2 collections walk all of it.

    The program is ``large_chain``, the smallest of the three large
    programs: ten edits of ``large_fanout`` take about a minute, more
    than one run of the benchmark can spend."""

    name = "edit_session"
    program = "large_chain"
    ops_per_pass = 10

    def setup(self, seed: int) -> None:
        self.lines = suite.load(self.program).source.split("\n")
        self.sites = edit_sites(self.lines)
        self.rng = random.Random(seed)
        self.analyzer = driver.Analyzer("\n".join(self.lines))
        self.analyzer.run(POLYNOMIAL)

    def ops(self):
        for i in range(self.ops_per_pass):
            apply_edit(self.lines, self.sites, self.rng)
            self.text = "\n".join(self.lines)
            yield f"edit{i}", lambda t=self.text: self.analyzer.reanalyze(t, POLYNOMIAL)

    def check(self, label: str, result) -> tuple[str | None, list]:
        got = answers.of_result(result)
        mode = result.incremental.mode if result.incremental else None
        if mode != "warm":
            return f"{label}: incremental mode {mode!r}, expected 'warm'", got
        error = _degraded(label, result.degradations)
        if error is None and label == f"edit{self.ops_per_pass - 1}":
            cold = driver.analyze(self.text, POLYNOMIAL, cache=None)
            error = answers.mismatch(label, got, answers.of_result(cold))
        return error, got


#: the one parameter of the synthetic request mix: a key's share of the
#: requests is proportional to rank ** -ZIPF_EXPONENT. No request log or
#: published study of analysis-daemon traffic was found to set it.
ZIPF_EXPONENT = 1.0


def draw_requests(seed: int, programs: list[str], count: int) -> list[tuple[str, str]]:
    """``count`` (program, config) requests in a seeded order.

    Keys are ranked configuration-major (every program under the first
    configuration, then the second, ...). Each gets its Zipf share of
    ``count``, rounded by largest remainder, so the mix, and with it the
    number of cold requests, is the same for every seed; the seed only
    shuffles the order. A seeded draw would move the metrics with the
    seed: a cold request costs a thousand cache hits."""
    keys = [(program, config) for config in SERVE_PAYLOADS for program in programs]
    weights = [rank ** -ZIPF_EXPONENT for rank in range(1, len(keys) + 1)]
    shares = [count * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(keys)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    requests = [key for key, n in zip(keys, counts) for _ in range(n)]
    random.Random(seed).shuffle(requests)
    return requests


class ServeMix:
    name = "serve_mix"
    ops_per_pass = 300

    def setup(self, seed: int) -> None:
        self.sources = {name: suite.load(name).source for name in suite.suite_names()}
        self.expected = answers.load_expected()
        # `repro serve` defaults, except that the token bucket never empties:
        # one closed-loop client must not be rate limited (RL551).
        policy = server.ServicePolicy(tenant_rate=1e9, tenant_burst=10**9)
        self.service = server.AnalysisService(policy)
        self.requests = draw_requests(seed, list(self.sources), self.ops_per_pass)

    def ops(self):
        for i, (program, config) in enumerate(self.requests):
            payload = {
                "id": f"r{i}",
                "tenant": "bench",
                "source": self.sources[program],
                "config": SERVE_PAYLOADS[config],
            }
            yield f"{i}:{program}:{config}", lambda p=payload: self.service.handle(p)

    def check(self, label: str, response: dict) -> tuple[str | None, list]:
        if response.get("status") != "ok":
            return f"{label}: {response.get('error')}", [response.get("status")]
        got = answers.of_response(response) + [response["served"]]
        _, program, config = label.split(":")
        error = _degraded(
            label, response["degradations"] + response.get("service_degradations", [])
        ) or answers.mismatch(label, got[:3], self.expected[program][config])
        return error, got


WORKLOADS = {w.name: w for w in (TableSweep, ColdLarge, EditSession, ServeMix)}
