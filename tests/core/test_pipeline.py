"""The shared-artifact pipeline: stage-0 caching, sweep semantics, the
process-parallel multi-program sweep, and the Table 3 baseline contract."""

import random
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro import AnalysisConfig, Analyzer, JumpFunctionKind, analyze
from repro.core import builder, driver, returns, substitute
from repro.core.config import TABLE2_CONFIGS, TABLE3_CONFIGS
from repro.core.driver import Stage0Cache, sweep_programs
from repro.core.lattice import is_constant
from repro.frontend import parse_program, parser, symbols
from repro.frontend.errors import FrontendError, SemanticError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind
from repro.ir.printer import format_cfg
from repro.store import fingerprints, incremental
from repro.store.fingerprints import encode_env

PROGRAM = """
program main
  integer n, m, k
  common /cfg/ gmax
  integer gmax
  call init
  n = 10
  m = n * 2 + 1
  call work(n, m)
  call chain(4)
  call relay(n, k)
  call sink(k)
end

subroutine init
  common /cfg/ g
  integer g
  g = 100
end

subroutine work(k, j)
  integer k, j
  common /cfg/ lim
  integer lim
  j = k + lim
end

subroutine chain(d)
  integer d
  if (d > 0) then
    call leaf(d)
  endif
end

subroutine leaf(x)
  integer x
  write x
end

subroutine relay(p, q)
  integer p, q
  call twice(p, q)
end

subroutine twice(r, s)
  integer r, s
  s = r * 2
end

subroutine sink(y)
  integer y
  write y
end
"""


class TestStage0Cache:
    def test_sweep_builds_stage0_exactly_once(self):
        cache = Stage0Cache()
        analyzer = Analyzer(PROGRAM, cache=cache)
        results = analyzer.sweep(TABLE2_CONFIGS)
        assert cache.misses == 1
        assert cache.hits == len(TABLE2_CONFIGS) - 1
        # every run after the first observed the cached stage 0
        flags = [r.stage0_cached for r in results.values()]
        assert flags.count(False) == 1 and flags.count(True) == len(flags) - 1

    def test_stage0_cached_reports_this_lookups_hit(self, monkeypatch):
        cache = Stage0Cache()
        parse = driver.parse_program

        def parse_during_another_hit(text):
            cache.hits += 1  # another thread's hit lands during this miss
            return parse(text)

        monkeypatch.setattr(driver, "parse_program", parse_during_another_hit)
        assert analyze(PROGRAM, cache=cache).stage0_cached is False
        assert analyze(PROGRAM, cache=cache).stage0_cached is True

    def test_artifacts_shared_across_configs(self):
        analyzer = Analyzer(PROGRAM, cache=Stage0Cache())
        results = analyzer.sweep(TABLE2_CONFIGS)
        lowereds = {id(r.lowered) for r in results.values()}
        graphs = {id(r.call_graph) for r in results.values()}
        assert len(lowereds) == 1
        assert len(graphs) == 1

    def test_complete_config_shares_stage0(self, monkeypatch):
        cache = Stage0Cache()
        bundle = cache.get(PROGRAM)
        printed = {
            name: format_cfg(proc.cfg)
            for name, proc in bundle.lowered.procedures.items()
        }
        parses = count_parses(monkeypatch)
        complete = analyze(PROGRAM, AnalysisConfig(complete=True), cache=cache)
        assert parses == []
        assert complete.stage0_cached and cache.hits == 1
        assert complete.complete_stats.dce_rounds_with_changes >= 1
        # DCE rewrote copies: the cached bundle prints as it did
        assert {
            name: format_cfg(proc.cfg)
            for name, proc in bundle.lowered.procedures.items()
        } == printed
        after = analyze(PROGRAM, cache=cache)
        clean = analyze(PROGRAM, cache=None)
        assert after.all_constants() == clean.all_constants()
        assert after.solved.val == clean.solved.val
        assert after.transformed_source() == clean.transformed_source()

    def test_cache_keyed_by_source_identity(self):
        cache = Stage0Cache()
        first = Analyzer(PROGRAM, cache=cache)
        second = Analyzer(PROGRAM, cache=cache)  # same text, new parse
        assert first.stage0 is second.stage0
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = Stage0Cache(maxsize=2)
        programs = [
            f"program m\nn = {i}\nwrite n\nend\n" for i in range(3)
        ]
        for source in programs:
            cache.get(parse_program(source))
        assert len(cache) == 2
        cache.get(parse_program(programs[0]))  # evicted: builds again
        assert cache.misses == 4

    def test_sourceless_program_never_cached(self):
        cache = Stage0Cache()
        program = parse_program(PROGRAM)
        program.source = ""
        cache.get(program)
        assert cache.hits == cache.misses == 0
        assert len(cache) == 0

    def test_complete_rounds_reuse_untouched_procedures(self):
        cache = Stage0Cache()
        bundle = cache.get(PROGRAM)
        config = AnalysisConfig(complete=True)
        result = analyze(PROGRAM, config, cache=cache)
        stats = result.complete_stats
        assert stats.rounds == 2
        rewritten = {
            name for name, proc in stats.per_round[0].items() if proc.any_change
        }
        assert rewritten == {"chain"}
        round_one = analyze(PROGRAM, replace(config, complete=False), cache=cache)
        for name, ssa in result.forward.ssas.items():
            kept = ssa is round_one.forward.ssas[name]
            assert kept == (name not in rewritten), name
        # the second round's own entries stay out of the bundle
        forms = bundle.ssa_cache._ssas.values()
        numberings = bundle.ssa_cache._numberings.values()
        assert all(
            ssa.lowered is bundle.lowered.procedures[ssa.name] for ssa in forms
        )
        assert {id(n.ssa) for n in numberings} <= {id(ssa) for ssa in forms}
        # DCE's rewritten `chain` has return functions of equal content,
        # so `main`, whose key holds them, keeps its round-1 numbering
        for name in ("relay", "leaf", "main"):
            numbering = result.forward.numberings[name]
            assert numbering is round_one.forward.numberings[name], name
        numbering = result.forward.numberings["chain"]
        assert numbering is not round_one.forward.numberings["chain"]
        assert all(numbering is not shared for shared in numberings)

    def test_ssa_shared_between_stage1_and_stage2(self, monkeypatch):
        stage1 = {}
        original = returns.value_number

        def recording(ssa, *args, **kwargs):
            stage1[ssa.name] = ssa
            return original(ssa, *args, **kwargs)

        monkeypatch.setattr(returns, "value_number", recording)
        cache = Stage0Cache()
        result = analyze(PROGRAM, cache=cache)
        ssa_cache = cache.get(PROGRAM).ssa_cache
        assert stage1.keys() == result.forward.ssas.keys()
        for name, ssa in result.forward.ssas.items():
            assert stage1[name] is ssa
            assert ssa_cache.get(name, result.config.use_mod) is ssa

    def test_held_text_skips_the_frontend(self, monkeypatch):
        parses = count_parses(monkeypatch)
        cache = Stage0Cache()
        first = analyze(PROGRAM, cache=cache)
        second = analyze(PROGRAM, cache=cache)
        assert len(parses) == 1
        assert second.program is first.program
        assert second.all_constants() == first.all_constants()

    @pytest.mark.parametrize(
        "text",
        (
            "program m\nn = 1\nwrite n\nend",
            "program m\r\nn = 1\r\nwrite n\r\nend\r\n",
            "\n\n   program m\nn = 1\nwrite n\nend\n",
        ),
        ids=("no-trailing-newline", "crlf", "leading-blanks"),
    )
    def test_text_and_program_share_one_entry(self, text):
        program = parse_program(text)
        assert program.source == text
        cache = Stage0Cache()
        assert cache.get(text) is cache.get(program)
        assert (cache.misses, cache.hits, len(cache)) == (1, 1, 1)

    def test_malformed_text_is_never_cached(self):
        cache = Stage0Cache()
        errors = []
        for _ in range(2):
            with pytest.raises(FrontendError) as caught:
                analyze("program p\nn = \nend\n", cache=cache)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert len(cache) == 0

    def test_concurrent_gets_never_raise(self):
        # Eight threads thrash a five-entry cache over six programs for
        # three seconds. A lookup that lost its key to another thread's
        # eviction between reading the entry and bumping it used to
        # raise KeyError, dozens of times per run.
        programs = [
            parse_program(f"program m\nn = {i}\nwrite n\nend\n")
            for i in range(6)
        ]
        cache = Stage0Cache(maxsize=5)

        def thrash(seed):
            rng = random.Random(seed)
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                cache.get(rng.choice(programs))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(thrash, seed) for seed in range(8)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(cache) <= cache.maxsize

    def test_edits_retire_superseded_versions(self):
        cache = Stage0Cache()
        analyzer = Analyzer(PROGRAM, cache=cache)
        analyzer.run()
        edits = [PROGRAM.replace("n = 10", f"n = {10 + i}") for i in range(1, 4)]
        for text in edits:
            assert analyzer.reanalyze(text).incremental.mode == "warm"
        assert len(cache) == 1
        back = analyzer.reanalyze(PROGRAM)
        fresh = analyze(PROGRAM, cache=None)
        assert len(cache) == 1
        assert back.all_constants() == fresh.all_constants()
        assert back.solved.val == fresh.solved.val
        assert back.transformed_source() == fresh.transformed_source()


def count_parses(monkeypatch) -> list:
    """Record every frontend run the driver starts."""
    parses = []
    original = driver.parse_program

    def counting(source):
        parses.append(source)
        return original(source)

    monkeypatch.setattr(driver, "parse_program", counting)
    return parses


def record_sccp_inputs(monkeypatch) -> list:
    """Record each SCCP run as (SSA form, constant part of its entry
    environment), holding the SSA forms so their ids stay unique."""
    inputs = []
    original = substitute.run_sccp

    def recording(ssa, entry_env=None):
        constants = frozenset(
            (symbol, value.__class__, value)
            for symbol, value in (entry_env or {}).items()
            if is_constant(value)
        )
        inputs.append((ssa, constants))
        return original(ssa, entry_env)

    monkeypatch.setattr(substitute, "run_sccp", recording)
    return inputs


class TestRecordMemo:
    """Stage 4 records each (SSA form, CONSTANTS(p)) pair once."""

    def test_rerun_makes_no_sccp_call(self, monkeypatch):
        analyzer = Analyzer(PROGRAM, cache=Stage0Cache())
        first = analyzer.run()
        inputs = record_sccp_inputs(monkeypatch)
        again = analyzer.run()
        assert inputs == []
        assert again.transformed_source() == first.transformed_source()

    def test_sweep_runs_sccp_once_per_distinct_input(self, monkeypatch):
        inputs = record_sccp_inputs(monkeypatch)
        Analyzer(PROGRAM, cache=Stage0Cache()).sweep(
            {**TABLE2_CONFIGS, **TABLE3_CONFIGS}
        )
        distinct = {(id(ssa), constants) for ssa, constants in inputs}
        assert inputs and len(inputs) == len(distinct)

    # `p` never reads `b`: literal jump functions bind it ⊥, polynomial
    # ones bind it 3, and `a` is 1 under both.
    UNREAD = """
program main
  integer n
  n = 2
  call p(1, n + 1)
end

subroutine p(a, b)
  integer a, b
  write a
end
"""

    def test_unread_entry_shares_one_sccp_run(self, monkeypatch):
        inputs = record_sccp_inputs(monkeypatch)
        analyzer = Analyzer(self.UNREAD, cache=Stage0Cache())
        literal = analyzer.run(
            AnalysisConfig(jump_function=JumpFunctionKind.LITERAL)
        )
        polynomial = analyzer.run(
            AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL)
        )
        assert literal.constants("p") == {"a": 1}
        assert polynomial.constants("p") == {"a": 1, "b": 3}
        assert [ssa.name for ssa, _ in inputs].count("p") == 1
        lit = literal.substitutions.per_procedure["p"]
        poly = polynomial.substitutions.per_procedure["p"]
        assert (lit.known_constants, lit.irrelevant_keys) == (1, [])
        assert (poly.known_constants, poly.irrelevant_keys) == (2, ["b"])
        assert lit.references is poly.references and len(lit.references) == 1
        fresh = analyze(
            self.UNREAD,
            AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL),
            cache=None,
        ).substitutions.per_procedure["p"]
        assert (fresh.known_constants, fresh.irrelevant_keys) == (2, ["b"])


def count_numberings(monkeypatch) -> Counter:
    """Count ``value_number`` calls per procedure at both call sites."""
    numbered: Counter = Counter()
    for module in (returns, builder):
        original = module.value_number

        def counting(ssa, *args, _original=original, **kwargs):
            numbered[ssa.name] += 1
            return _original(ssa, *args, **kwargs)

        monkeypatch.setattr(module, "value_number", counting)
    return numbered


class TestNumberingSharing:
    """Value numbering reads the SSA form, its callees' return functions
    and the compose switch; the jump function only picks a projection of
    it."""

    def test_each_procedure_numbered_once_per_distinct_input(
        self, monkeypatch
    ):
        numbered = count_numberings(monkeypatch)
        results = Analyzer(PROGRAM, cache=Stage0Cache()).sweep(
            {**TABLE2_CONFIGS, **TABLE3_CONFIGS}
        )
        # The ten configurations span three (MOD, returns) settings:
        # on/on, on/off and off/on. A call-free procedure reads neither,
        # so it is numbered once. A caller is numbered once per setting.
        # Complete propagation's first round shares on/on; its DCE
        # rewrites `chain`, so the second round numbers `chain` afresh.
        # Its return functions keep their content, so `main`, whose key
        # holds them, keeps its numbering.
        stats = results["complete"].complete_stats
        assert stats.rounds == 2
        assert {
            name for name, proc in stats.per_round[0].items() if proc.any_change
        } == {"chain"}
        assert numbered == {
            "main": 3,
            "chain": 4,
            "relay": 3,
            "init": 1,
            "work": 1,
            "leaf": 1,
            "twice": 1,
            "sink": 1,
        }

    def test_call_free_procedure_has_one_form_and_one_numbering(self):
        analyzer = Analyzer(PROGRAM, cache=Stage0Cache())
        results = [
            analyzer.run(
                AnalysisConfig(use_mod=use_mod, use_return_jump_functions=rjf)
            )
            for use_mod in (True, False)
            for rjf in (True, False)
        ]
        for name in ("init", "work", "leaf", "twice", "sink"):
            assert not results[0].lowered.procedures[name].call_instrs
            assert len({id(r.forward.ssas[name]) for r in results}) == 1, name
            assert (
                len({id(r.forward.numberings[name]) for r in results}) == 1
            ), name
        # a caller's kills read MOD: one form with it, another without
        relay = [r.forward.ssas["relay"] for r in results]
        assert relay[0] is relay[1] and relay[2] is relay[3]
        assert relay[0] is not relay[2]

    def test_ladder_rungs_share_one_numbering(self, monkeypatch):
        numbered = count_numberings(monkeypatch)
        result = analyze(
            PROGRAM,
            AnalysisConfig(jump_function=JumpFunctionKind.POLYNOMIAL, max_meets=0),
            cache=Stage0Cache(),
        )
        assert len(result.degradations) > 1
        assert set(numbered.values()) == {1}


CHAIN = """
program main
  integer n
  n = 3
  call a(n)
end

subroutine a(x)
  integer x, y
  y = x + 1
  call b(y)
end

subroutine b(x)
  integer x, y
  y = x * 2
  call c(y)
end

subroutine c(x)
  integer x, t
  t = 7
  write x + t
end
"""


def count_ssa_builds(monkeypatch) -> Counter:
    """Count SSA constructions per procedure."""
    built: Counter = Counter()
    original = driver.build_ssa

    def counting(lowered_proc, *args):
        built[lowered_proc.name] += 1
        return original(lowered_proc, *args)

    monkeypatch.setattr(driver, "build_ssa", counting)
    return built


def record_tokens(monkeypatch) -> list:
    """Record every token the frontend lexes, as (kind, value, start,
    end), newlines and end markers left out."""
    lexed = []
    original = parser.tokenize

    def recording(*args, **kwargs):
        tokens = original(*args, **kwargs)
        lexed.extend(
            token[:4]
            for token in tokens
            if token.kind not in (TokenKind.NEWLINE, TokenKind.EOF)
        )
        return tokens

    monkeypatch.setattr(parser, "tokenize", recording)
    return lexed


def record_resolutions(monkeypatch) -> list:
    """Record the name of every unit whose body is resolved."""
    resolved = []
    original = symbols._ProcedureResolver.resolve

    def recording(self):
        resolved.append(self._def.name)
        return original(self)

    monkeypatch.setattr(symbols._ProcedureResolver, "resolve", recording)
    return resolved


def count_store_digests(monkeypatch) -> tuple[Counter, Counter]:
    """Count the IR listings the store renders and the forward payloads
    it encodes, per procedure."""
    listings: Counter = Counter()
    payloads: Counter = Counter()
    original_format = fingerprints.format_cfg
    original_encode = incremental.encode_forward_jfs

    def counting_format(cfg, name):
        listings[name] += 1
        return original_format(cfg, name)

    def counting_encode(lowered_proc, sites):
        payloads[lowered_proc.name] += 1
        return original_encode(lowered_proc, sites)

    monkeypatch.setattr(fingerprints, "format_cfg", counting_format)
    monkeypatch.setattr(incremental, "encode_forward_jfs", counting_encode)
    return listings, payloads


def assert_answers_as_cold(result, text):
    cold = analyze(text, cache=None)
    assert result.transformed_source() == cold.transformed_source()
    assert result.solved.val == cold.solved.val
    assert result.solved.reached == cold.solved.reached
    assert result.all_constants() == cold.all_constants()


class TestEditReuse:
    """An edit rebuilds only the units it touches: stage 0 starts from
    the bundle of the version the edit replaces."""

    def test_body_literal_edit_builds_one_form(self, monkeypatch):
        analyzer = Analyzer(CHAIN, cache=Stage0Cache())
        first = analyzer.run()
        built = count_ssa_builds(monkeypatch)
        sccp = record_sccp_inputs(monkeypatch)
        edited = CHAIN.replace("t = 7", "t = 8")
        result = analyzer.reanalyze(edited)
        assert built == {"c": 1}
        assert [ssa.name for ssa, _ in sccp] == ["c"]
        assert not result.stage0_cached
        for name in ("main", "a", "b"):
            assert (
                result.lowered.procedures[name]
                is first.lowered.procedures[name]
            )
            assert result.forward.ssas[name] is first.forward.ssas[name]
        assert result.program.procedures["a"] is first.program.procedures["a"]
        assert_answers_as_cold(result, edited)

    def test_identical_text_builds_nothing(self, monkeypatch):
        analyzer = Analyzer(CHAIN, cache=Stage0Cache())
        first = analyzer.run()
        built = count_ssa_builds(monkeypatch)
        sccp = record_sccp_inputs(monkeypatch)
        again = analyzer.reanalyze(CHAIN)
        assert built == {} and sccp == []
        assert again.stage0_cached
        assert again.transformed_source() == first.transformed_source()

    def test_lengthening_the_first_unit_rebuilds_every_later_unit(
        self, monkeypatch
    ):
        analyzer = Analyzer(CHAIN, cache=Stage0Cache())
        first = analyzer.run()
        built = count_ssa_builds(monkeypatch)
        edited = CHAIN.replace("n = 3", "n = 30")
        result = analyzer.reanalyze(edited)
        assert built == {"main": 1, "a": 1, "b": 1, "c": 1}
        for name, lowered_proc in result.lowered.procedures.items():
            assert lowered_proc is not first.lowered.procedures[name], name
        assert_answers_as_cold(result, edited)

    def test_body_literal_edit_reads_one_unit(self, monkeypatch):
        analyzer = Analyzer(CHAIN, cache=Stage0Cache())
        first = analyzer.run()
        lexed = record_tokens(monkeypatch)
        resolved = record_resolutions(monkeypatch)
        edited = CHAIN.replace("t = 7", "t = 8")
        result = analyzer.reanalyze(edited)
        span = result.program.procedures["c"].ast.span
        assert lexed == [
            token[:4]
            for token in tokenize(edited)
            if span.start_offset <= token[2] < span.end_offset
            and token.kind is not TokenKind.NEWLINE
        ]
        assert resolved == ["c"]
        for name in ("main", "a", "b"):
            assert (
                result.program.procedures[name]
                is first.program.procedures[name]
            )
        assert_answers_as_cold(result, edited)

    def test_body_literal_edit_digests_and_writes_one_unit(self, monkeypatch):
        analyzer = Analyzer(CHAIN, cache=Stage0Cache())
        first = analyzer.run()
        listings, payloads = count_store_digests(monkeypatch)
        written = []
        original_put = analyzer.store.put_object

        def recording_put(payload):
            written.append(payload)
            return original_put(payload)

        monkeypatch.setattr(analyzer.store, "put_object", recording_put)
        result = analyzer.reanalyze(CHAIN.replace("t = 7", "t = 8"))
        assert listings == {"c": 1}
        # a payload digest rides on its numbering, so only the renumbered
        # procedures encode theirs
        renumbered = [
            name
            for name, numbering in result.forward.numberings.items()
            if numbering is not first.forward.numberings[name]
        ]
        assert payloads == dict.fromkeys(renumbered, 1)
        assert result.incremental.invalid == ("c",)
        assert written == [encode_env(result.solved.val["c"])]

    def test_leaf_literal_edit_renumbers_one_unit(self, monkeypatch):
        # c's return functions keep their content, so the callers' keys,
        # which hold them, still find the first run's numberings
        analyzer = Analyzer(CHAIN, cache=Stage0Cache())
        first = analyzer.run()
        numbered = count_numberings(monkeypatch)
        _, payloads = count_store_digests(monkeypatch)
        edited = CHAIN.replace("t = 7", "t = 8")
        result = analyzer.reanalyze(edited)
        assert numbered == {"c": 1}
        assert payloads == {"c": 1}
        for name in ("main", "a", "b"):
            assert (
                result.forward.numberings[name]
                is first.forward.numberings[name]
            ), name
            assert (
                result.returns.table[name] is first.returns.table[name]
            ), name
        assert_answers_as_cold(result, edited)

    def test_caller_free_edit_encodes_one_payload(self, monkeypatch):
        analyzer = Analyzer(CHAIN, cache=Stage0Cache())
        analyzer.run()
        listings, payloads = count_store_digests(monkeypatch)
        analyzer.reanalyze(CHAIN.replace("n = 3", "n = 4"))
        assert listings == {"main": 1}
        assert payloads == {"main": 1}

    def test_identical_text_lexes_nothing(self, monkeypatch):
        analyzer = Analyzer(CHAIN, cache=Stage0Cache())
        analyzer.run()
        program = analyzer.program
        lexed = record_tokens(monkeypatch)
        analyzer.reanalyze(CHAIN)
        assert lexed == []
        assert analyzer.program is program

    def test_failed_lowering_keeps_the_version(self, monkeypatch):
        cache = Stage0Cache()
        analyzer = Analyzer(CHAIN, cache=cache)
        first = analyzer.run()
        program = analyzer.program
        bundle = cache._entries[CHAIN]
        real_do = CHAIN.replace("t = 7", "do r = 1, 3\n  enddo\n  t = 7")
        with pytest.raises(SemanticError, match="must be INTEGER"):
            analyzer.reanalyze(real_do)
        assert analyzer.program is program
        assert list(cache._entries.values()) == [bundle]
        built = count_ssa_builds(monkeypatch)
        edited = CHAIN.replace("t = 7", "t = 9")
        result = analyzer.reanalyze(edited)
        assert built == {"c": 1}
        assert result.forward.ssas["b"] is first.forward.ssas["b"]
        assert list(cache._entries) == [edited]
        assert_answers_as_cold(result, edited)

    def test_failed_parse_keeps_the_version(self, monkeypatch):
        cache = Stage0Cache()
        analyzer = Analyzer(CHAIN, cache=cache)
        first = analyzer.run()
        program = analyzer.program
        bundle = cache._entries[CHAIN]
        with pytest.raises(FrontendError):
            analyzer.reanalyze(CHAIN.replace("t = 7", "t = "))
        assert analyzer.program is program
        assert list(cache._entries.values()) == [bundle]
        built = count_ssa_builds(monkeypatch)
        edited = CHAIN.replace("t = 7", "t = 9")
        result = analyzer.reanalyze(edited)
        assert built == {"c": 1}
        assert result.forward.ssas["b"] is first.forward.ssas["b"]
        assert list(cache._entries) == [edited]
        assert_answers_as_cold(result, edited)


ALL_KINDS = list(JumpFunctionKind)


class TestPartialTableNumberings:
    """A recursive-SCC member numbered before its SCC-mates had return
    jump functions must be renumbered before stage 2 projects it."""

    # Stage 1 numbers ``a`` while ``b`` has no table entry yet. ``b``
    # leaves x = 5 on every exit, which only a renumbered ``a`` passes on
    # to ``c``.
    RECURSIVE = """
program main
  call a(20)
end

subroutine a(m)
  integer m
  common /g/ x
  integer x
  call b(m)
  call c(x)
end

subroutine b(m)
  integer m
  common /g/ x
  integer x
  if (m > 10) then
    call a(m - 1)
  endif
  x = 5
end

subroutine c(v)
  integer v
  write v
end
"""
    CONFIGS = {
        f"{kind.value}-{rjf}-{compose}": AnalysisConfig(
            jump_function=kind,
            use_return_jump_functions=rjf == "rjf",
            compose_return_functions=compose == "composed",
        )
        for kind in ALL_KINDS
        for rjf in ("rjf", "no-rjf")
        for compose in ("plain", "composed")
    }

    def test_cached_sweep_matches_fresh_analyze(self):
        swept = Analyzer(self.RECURSIVE, cache=Stage0Cache()).sweep(self.CONFIGS)
        for name, config in self.CONFIGS.items():
            fresh = analyze(self.RECURSIVE, config, cache=None)
            assert swept[name].all_constants() == fresh.all_constants(), name
            assert swept[name].solved.val == fresh.solved.val, name
            constant = (
                config.use_return_jump_functions
                and config.jump_function is not JumpFunctionKind.LITERAL
            )
            assert (swept[name].constants("c").get("v") == 5) == constant, name


class TestConcurrentSharing:
    """The daemon's threads share one stage-0 bundle, and with it the SSA
    forms and numberings stage 2 completes on first use."""

    def test_threads_on_one_bundle_match_fresh_runs(self):
        sources = (PROGRAM, TestPartialTableNumberings.RECURSIVE)
        expected = {
            (source, config): analyze(source, config, cache=None).all_constants()
            for source in sources
            for config in TestPartialTableNumberings.CONFIGS.values()
        }
        cache = Stage0Cache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = {
                    key: pool.submit(analyze, key[0], key[1], cache=cache)
                    for key in expected
                }
                results = {
                    key: future.result(timeout=120)
                    for key, future in futures.items()
                }
        finally:
            sys.setswitchinterval(interval)
        for key, result in results.items():
            assert result.all_constants() == expected[key], key[1].describe()


class TestCacheCorrectness:
    """Cached sweeps must be bit-identical to fresh, uncached runs."""

    @pytest.mark.parametrize("compose", (False, True), ids=("plain", "composed"))
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("use_mod", (True, False), ids=("mod", "no-mod"))
    @pytest.mark.parametrize("use_returns", (True, False), ids=("rjf", "no-rjf"))
    def test_cached_sweep_matches_fresh_analyze(
        self, kind, use_mod, use_returns, compose
    ):
        config = AnalysisConfig(
            jump_function=kind,
            use_return_jump_functions=use_returns,
            use_mod=use_mod,
            compose_return_functions=compose,
        )
        analyzer = Analyzer(PROGRAM, cache=Stage0Cache())
        # warm the cache with a different configuration first, composed
        # when this one is plain and plain when it is composed
        analyzer.run(
            AnalysisConfig(
                jump_function=JumpFunctionKind.POLYNOMIAL,
                compose_return_functions=not compose,
            )
        )
        cached = analyzer.run(config)
        fresh = analyze(PROGRAM, config, cache=None)
        assert cached.constants_found == fresh.constants_found
        assert cached.references_substituted == fresh.references_substituted
        assert cached.all_constants() == fresh.all_constants()
        assert cached.solved.val == fresh.solved.val
        # a memo that handed this config another config's record would
        # show in the substituted references
        assert cached.transformed_source() == fresh.transformed_source()
        assert references_by_procedure(cached) == references_by_procedure(fresh)

    def test_repeated_sweeps_stable(self):
        analyzer = Analyzer(PROGRAM, cache=Stage0Cache())
        first = analyzer.sweep(TABLE2_CONFIGS)
        second = analyzer.sweep(TABLE2_CONFIGS)
        for name in TABLE2_CONFIGS:
            assert first[name].all_constants() == second[name].all_constants()


def references_by_procedure(result) -> dict:
    return {
        name: [(span.text_range, value) for span, value, _ in record.references]
        for name, record in result.substitutions.per_procedure.items()
    }


class TestBaselineSemantics:
    """Table 3 column 4: the purely intraprocedural baseline assumes ⊥ at
    every entry — DATA initializations included (see solver.bottom_val)."""

    WITHOUT_DATA = """
program main
  common /c/ g
  integer g, n
  n = 3
  write n
  write g
  call use
end
subroutine use
  common /c/ h
  integer h
  write h
end
"""
    WITH_DATA = WITHOUT_DATA.replace(
        "  integer g, n\n", "  integer g, n\n  data g /42/\n"
    )

    BASELINE = AnalysisConfig(intraprocedural_only=True)

    def test_baseline_invariant_under_data(self):
        plain = analyze(self.WITHOUT_DATA, self.BASELINE, cache=None)
        seeded = analyze(self.WITH_DATA, self.BASELINE, cache=None)
        assert plain.constants_found == seeded.constants_found
        assert plain.all_constants() == seeded.all_constants()

    def test_interprocedural_does_use_data(self):
        # sanity: DATA is not generally ignored — only the baseline floors it
        seeded = analyze(self.WITH_DATA, cache=None)
        assert seeded.constants("use").get("c.g") == 42

    def test_baseline_counts_every_procedure(self):
        result = analyze(self.WITHOUT_DATA, self.BASELINE, cache=None)
        assert result.solved.reached == set(result.solved.val)


class TestSweepPrograms:
    SOURCES = {
        "alpha": PROGRAM,
        "beta": "program m\nn = 5\ncall s(n)\nend\n"
                "subroutine s(a)\ninteger a\nwrite a\nend\n",
    }

    def expected(self):
        return {
            name: Analyzer(source).sweep(TABLE3_CONFIGS)
            for name, source in self.SOURCES.items()
        }

    def test_sequential_matches_per_program_sweep(self):
        swept = sweep_programs(self.SOURCES, TABLE3_CONFIGS)
        expected = self.expected()
        for name, cells in swept.items():
            for config_name, cell in cells.items():
                reference = expected[name][config_name]
                assert cell.constants_found == reference.constants_found
                assert cell.constants == reference.all_constants()

    def test_parallel_matches_sequential(self):
        sequential = sweep_programs(self.SOURCES, TABLE3_CONFIGS)
        parallel = sweep_programs(self.SOURCES, TABLE3_CONFIGS, processes=2)
        for name in self.SOURCES:
            for config_name in TABLE3_CONFIGS:
                left = sequential[name][config_name]
                right = parallel[name][config_name]
                assert left.constants_found == right.constants_found
                assert left.constants == right.constants

    def test_summary_carries_counters(self):
        swept = sweep_programs(self.SOURCES, {"default": AnalysisConfig()})
        cell = swept["beta"]["default"]
        assert cell.solver_counters["pops"] >= 1
        assert "solve" in cell.timings


class TestStatsSurface:
    def test_result_carries_cache_flag(self):
        cache = Stage0Cache()
        first = analyze(PROGRAM, cache=cache)
        second = analyze(PROGRAM, cache=cache)
        assert (first.stage0_cached, second.stage0_cached) == (False, True)
        assert "stage0_cached" not in second.timings

    def test_stats_report_mentions_everything(self):
        result = analyze(PROGRAM, cache=Stage0Cache())
        report = result.stats_report()
        for token in ("lower", "modref", "solve", "passes", "pops",
                      "evaluations", "stage0_cached"):
            assert token in report

    def test_stage0_timings_survive_cache_hits(self):
        cache = Stage0Cache()
        analyze(PROGRAM, cache=cache)
        hit = analyze(PROGRAM, cache=cache)
        assert "lower" in hit.timings and "modref" in hit.timings
