"""End-to-end exercises of the in-process :class:`AnalysisService`:
every rung of the robustness spine, without a subprocess in sight.
(The daemon-as-a-subprocess chaos tests live in ``test_daemon_chaos``.)
"""

import threading

import pytest

from repro.cli import main as cli_main
from repro.core import driver
from repro.core.config import AnalysisConfig
from repro.core.driver import analyze
from repro.interp import run_program
from repro.interp.soundness import check_soundness
from repro.resilience import chaos
from repro.resilience.chaos import ChaosSpec, ChaosWorkerLoss, Fault
from repro.resilience.errors import Stage
from repro.service import AnalysisService, RequestJournal, ServicePolicy
from repro.service.server import make_http_server
from repro.store.artifacts import ArtifactStore

SOURCE = """
program main
  integer n
  n = 4
  call work(n, 10)
  write n
end
subroutine work(a, b)
  integer a, b
  a = a + b
  write b
end
"""

#: the call-graph cycle forces the solver past one monotone pass, so a
#: max_solver_passes=1 budget always exhausts (same trick as the budget
#: unit tests) — which is what drives the RL510 ladder inside the daemon.
RECURSIVE = """
program main
  integer n
  n = 3
  call ping(n, 8)
  write n
end
subroutine ping(a, b)
  integer a, b
  if (a > 0) then
    call pong(a - 1, b)
  endif
  write b
end
subroutine pong(c, d)
  integer c, d
  if (c > 0) then
    call ping(c - 1, d)
  endif
  write d
end
"""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(autouse=True)
def no_chaos_leaks():
    yield
    chaos.uninstall()


class TestServingTiers:
    def test_cold_then_cache(self):
        service = AnalysisService()
        first = service.handle({"id": "a", "source": SOURCE})
        assert first["status"] == "ok"
        assert first["served"] == "cold"
        assert first["result"]["constants_found"] >= 1
        repeat = service.handle({"id": "b", "source": SOURCE})
        assert repeat["served"] == "cache"
        assert repeat["id"] == "b"
        assert repeat["result"] == first["result"]
        assert repeat["fingerprint"] == first["fingerprint"]

    def test_store_tier_survives_restart(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        first = AnalysisService(store=store).handle(
            {"id": "a", "source": SOURCE}
        )
        assert first["served"] == "cold"
        # a fresh daemon, same store: the response comes from disk
        reborn = AnalysisService(store=ArtifactStore(str(tmp_path / "store")))
        repeat = reborn.handle({"id": "b", "source": SOURCE})
        assert repeat["served"] == "store"
        assert repeat["result"] == first["result"]

    def test_second_flat_request_hits_the_slab_tier(self, tmp_path):
        # persist_responses off: the response cache cannot answer from
        # disk, so the second daemon must re-solve — but its solver
        # loads the slab the first one published (``served: "slab"``)
        policy = ServicePolicy(persist_responses=False)
        flat = {"flat_engine": True}
        first = AnalysisService(
            policy, store=ArtifactStore(str(tmp_path / "store"))
        ).handle({"id": "a", "source": SOURCE, "config": flat})
        assert first["served"] == "cold"
        reborn = AnalysisService(
            policy, store=ArtifactStore(str(tmp_path / "store"))
        )
        repeat = reborn.handle({"id": "b", "source": SOURCE, "config": flat})
        assert repeat["served"] == "slab"
        assert repeat["result"] == first["result"]
        assert reborn.served["slab"] == 1

    def test_persisted_responses_outrank_the_slab_tier(self, tmp_path):
        # default policy: the second daemon answers from the persisted
        # response without re-solving at all
        flat = {"flat_engine": True}
        store = ArtifactStore(str(tmp_path / "store"))
        first = AnalysisService(store=store).handle(
            {"id": "a", "source": SOURCE, "config": flat}
        )
        reborn = AnalysisService(store=ArtifactStore(str(tmp_path / "store")))
        repeat = reborn.handle({"id": "b", "source": SOURCE, "config": flat})
        assert repeat["served"] == "store"
        assert repeat["result"] == first["result"]

    def test_different_config_is_a_different_fingerprint(self):
        service = AnalysisService()
        first = service.handle({"id": "a", "source": SOURCE})
        other = service.handle(
            {
                "id": "b",
                "source": SOURCE,
                "config": {"jump_function": "literal"},
            }
        )
        assert other["served"] == "cold"
        assert other["fingerprint"] != first["fingerprint"]

    def test_second_config_of_a_held_program_skips_the_frontend(
        self, monkeypatch
    ):
        parses = []
        original = driver.parse_program

        def counting(source):
            parses.append(source)
            return original(source)

        monkeypatch.setattr(driver, "parse_program", counting)
        service = AnalysisService()
        first = service.handle({"id": "a", "source": SOURCE})
        other = service.handle(
            {"id": "b", "source": SOURCE, "config": {"use_mod": False}}
        )
        assert (first["served"], other["served"]) == ("cold", "cold")
        assert len(parses) == 1
        fresh = analyze(SOURCE, AnalysisConfig(use_mod=False), cache=None)
        assert other["result"]["constants_found"] == fresh.constants_found

    def test_removed_compiled_exprs_axis_is_rl555(self):
        # the compiled-kernel option is gone: a client still sending it
        # gets the typed bad-request rejection, never a silent ignore
        response = AnalysisService().handle(
            {"id": "a", "source": SOURCE, "config": {"compiled_exprs": True}}
        )
        assert response["status"] == "error"
        assert response["code"] == "RL555"
        assert "compiled_exprs" in response["error"]

    def test_incremental_resubmission_serves_warm(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        service = AnalysisService(store=store)
        service.handle({"id": "a", "source": SOURCE})
        edited = SOURCE.replace("n = 4", "n = 5")
        response = service.handle(
            {"id": "b", "source": edited, "incremental": True}
        )
        assert response["status"] == "ok"
        # the fingerprint diff found the previous snapshot: a warm solve,
        # not a cold one — and the answer matches a from-scratch run
        assert response["served"] == "warm"
        cold = analyze(edited, AnalysisConfig())
        assert (
            response["result"]["constants_found"] == cold.constants_found
        )


class TestDedup:
    def test_concurrent_identical_requests_coalesce(self):
        # the leader sleeps inside the solve; followers arrive meanwhile
        chaos.install(
            ChaosSpec(
                faults=(
                    Fault(
                        stage=Stage.SOLVE,
                        kind="sleep",
                        scope="sparse",
                        sleep_seconds=0.3,
                        max_firings=1,
                    ),
                )
            ),
            label="service",
        )
        service = AnalysisService()
        responses: dict[str, dict] = {}

        def submit(request_id: str):
            responses[request_id] = service.handle(
                {"id": request_id, "source": SOURCE}
            )

        threads = [
            threading.Thread(target=submit, args=(f"r{i}",)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        served = sorted(r["served"] for r in responses.values())
        # exactly one solve; everyone else coalesced onto it (a straggler
        # that arrived after completion reads the cache instead)
        assert served.count("cold") == 1
        assert all(kind in ("cold", "dedup", "cache") for kind in served)
        assert served.count("dedup") >= 1
        results = {str(r["result"]) for r in responses.values()}
        assert len(results) == 1
        assert service.stats()["dedup"]["coalesced"] >= 1


class TestAdmission:
    def test_rate_limited_submission_is_rl551(self):
        clock = FakeClock()
        service = AnalysisService(
            ServicePolicy(tenant_rate=0.0, tenant_burst=1), clock=clock
        )
        ok = service.handle({"id": "a", "source": SOURCE})
        assert ok["status"] == "ok"
        # same tenant, *different* program: no cache to hide behind
        rejected = service.handle({"id": "b", "source": RECURSIVE})
        assert rejected["status"] == "error"
        assert rejected["code"] == "RL551"
        assert rejected["kind"] == "rate-limited"

    def test_cache_still_answers_while_rate_limited(self):
        clock = FakeClock()
        service = AnalysisService(
            ServicePolicy(tenant_rate=0.0, tenant_burst=1), clock=clock
        )
        service.handle({"id": "a", "source": SOURCE})
        repeat = service.handle({"id": "b", "source": SOURCE})
        # the dedup/cache tier sits in front of admission: repeats of
        # finished work still complete under overload
        assert repeat["status"] == "ok"
        assert repeat["served"] == "cache"

    def test_queue_full_is_rl550(self):
        service = AnalysisService(ServicePolicy(queue_limit=0))
        rejected = service.handle({"id": "a", "source": SOURCE})
        assert rejected["status"] == "error"
        assert rejected["code"] == "RL550"


class TestDeadline:
    def test_expired_deadline_is_rl554(self):
        service = AnalysisService()
        response = service.handle(
            {"id": "a", "source": SOURCE, "timeout": 1e-9}
        )
        assert response["status"] == "error"
        assert response["code"] == "RL554"
        assert response["kind"] == "deadline"

    def test_deadline_does_not_strike_the_breaker(self):
        service = AnalysisService()
        service.handle({"id": "a", "source": SOURCE, "timeout": 1e-9})
        assert service.breaker.strikes == 0


class TestBreaker:
    def crash_spec(self, firings: int) -> ChaosSpec:
        # JUMP_FUNCTIONS crashes have no in-pipeline fallback (unlike
        # SOLVE/sparse, which the dense solver would recover), so each
        # one is a real solver failure and strikes the breaker
        return ChaosSpec(
            faults=(
                Fault(
                    stage=Stage.JUMP_FUNCTIONS,
                    kind="crash",
                    max_firings=firings,
                ),
            )
        )

    def test_failures_walk_the_service_ladder(self):
        clock = FakeClock()
        service = AnalysisService(
            ServicePolicy(breaker_threshold=2, breaker_cooldown=5.0),
            clock=clock,
        )
        chaos.install(self.crash_spec(2), label="service")
        for index in range(2):
            response = service.handle(
                {"id": f"c{index}", "tenant": f"t{index}", "source": SOURCE}
            )
            assert response["status"] == "error"
        assert service.breaker.state()["mode"] == "degrade"
        # the fault is exhausted: the next request succeeds, but runs —
        # and says it ran — in the breaker's degraded mode
        degraded = service.handle({"id": "d", "tenant": "td", "source": SOURCE})
        assert degraded["status"] == "ok"
        assert degraded["mode"] == "degrade"
        assert any(
            "RL557" in note for note in degraded["service_degradations"]
        )
        # ...and that success repaid a level
        assert service.breaker.state()["mode"] == "normal"

    def test_degraded_responses_are_never_cached(self):
        clock = FakeClock()
        service = AnalysisService(
            ServicePolicy(breaker_threshold=1), clock=clock
        )
        chaos.install(self.crash_spec(1), label="service")
        service.handle({"id": "c", "tenant": "t1", "source": SOURCE})
        degraded = service.handle(
            {"id": "d", "tenant": "t2", "source": SOURCE}
        )
        assert degraded["mode"] == "degrade"
        repeat = service.handle({"id": "e", "tenant": "t3", "source": SOURCE})
        # the repeat re-solved (now healthy): no degraded answer was cached
        assert repeat["served"] == "cold"
        assert repeat["mode"] == "normal"

    def test_open_breaker_refuses_then_probes_at_floor(self):
        clock = FakeClock()
        service = AnalysisService(
            ServicePolicy(breaker_threshold=1, breaker_cooldown=5.0),
            clock=clock,
        )
        chaos.install(self.crash_spec(4), label="service")
        for index in range(4):
            service.handle(
                {"id": f"c{index}", "tenant": f"t{index}", "source": SOURCE}
            )
        assert service.breaker.is_open()
        assert not service.ready()
        refused = service.handle(
            {"id": "r", "tenant": "tr", "source": SOURCE}
        )
        assert refused["code"] == "RL553"
        clock.advance(5.1)
        probe = service.handle({"id": "p", "tenant": "tp", "source": SOURCE})
        # the half-open probe runs at the intraprocedural floor: cheap,
        # sound, and loudly marked
        assert probe["status"] == "ok"
        assert probe["mode"] == "floor"
        assert any("RL557" in note for note in probe["service_degradations"])


class TestBudgetDegradation:
    def test_budget_exhaustion_degrades_marked_and_sound(self):
        service = AnalysisService()
        response = service.handle(
            {
                "id": "a",
                "source": RECURSIVE,
                "config": {"max_solver_passes": 1},
            }
        )
        assert response["status"] == "ok"
        # the RL510 family rode back in the response — never silent
        assert response["degradations"]
        assert any("RL51" in line for line in response["degradations"])
        assert any("RL51" in line for line in response["diagnostics"])
        # interpreter-checked soundness: the degraded VAL's claims hold
        # on a real execution of the same program under the same config
        result = analyze(
            RECURSIVE, AnalysisConfig(max_solver_passes=1)
        )
        assert result.degradations  # same ladder the service walked
        trace = run_program(RECURSIVE)
        assert check_soundness(result, trace) == []

    def test_degraded_result_is_not_cached(self):
        service = AnalysisService()
        payload = {
            "id": "a",
            "source": RECURSIVE,
            "config": {"max_solver_passes": 1},
        }
        first = service.handle(payload)
        assert first["degradations"]
        repeat = service.handle(dict(payload, id="b"))
        assert repeat["served"] == "cold"  # re-solved, not replayed


class TestJournal:
    def kill_spec(self) -> ChaosSpec:
        return ChaosSpec(
            faults=(
                Fault(
                    stage=Stage.SERVICE,
                    kind="kill",
                    scope="admitted",
                    max_firings=1,
                ),
            )
        )

    def test_kill_after_begin_leaves_interrupted_entry(self, tmp_path):
        journal_path = str(tmp_path / "requests.jsonl")
        chaos.install(self.kill_spec(), label="service")
        service = AnalysisService(journal=RequestJournal(journal_path))
        with pytest.raises(ChaosWorkerLoss):
            service.handle({"id": "k1", "source": SOURCE})
        interrupted = RequestJournal(journal_path).interrupted()
        assert [event["id"] for event in interrupted] == ["k1"]
        # the journaled payload is the full request: replayable as-is
        assert interrupted[0]["request"]["source"] == SOURCE

    def test_restart_replays_deterministically(self, tmp_path):
        journal_path = str(tmp_path / "requests.jsonl")
        chaos.install(self.kill_spec(), label="service")
        service = AnalysisService(journal=RequestJournal(journal_path))
        with pytest.raises(ChaosWorkerLoss):
            service.handle({"id": "k1", "source": SOURCE})
        chaos.uninstall()
        reborn = AnalysisService(journal=RequestJournal(journal_path))
        assert reborn.recovered == [{"id": "k1", "status": "replayed"}]
        # the replayed solve was published: the client's retry is instant
        retry = reborn.handle({"id": "k2", "source": SOURCE})
        assert retry["served"] == "cache"
        # terminal: a second restart has nothing left to recover
        assert RequestJournal(journal_path).interrupted() == []
        assert AnalysisService(
            journal=RequestJournal(journal_path)
        ).recovered == []

    def test_restart_can_refuse_instead(self, tmp_path):
        journal_path = str(tmp_path / "requests.jsonl")
        chaos.install(self.kill_spec(), label="service")
        service = AnalysisService(journal=RequestJournal(journal_path))
        with pytest.raises(ChaosWorkerLoss):
            service.handle({"id": "k1", "source": SOURCE})
        chaos.uninstall()
        reborn = AnalysisService(
            ServicePolicy(replay=False), journal=RequestJournal(journal_path)
        )
        assert reborn.recovered == [
            {"id": "k1", "status": "refused", "code": "RL556"}
        ]
        # refusal is terminal too
        assert RequestJournal(journal_path).interrupted() == []

    def test_completed_requests_are_not_replayed(self, tmp_path):
        journal_path = str(tmp_path / "requests.jsonl")
        service = AnalysisService(journal=RequestJournal(journal_path))
        assert service.handle({"id": "a", "source": SOURCE})["status"] == "ok"
        reborn = AnalysisService(journal=RequestJournal(journal_path))
        assert reborn.recovered == []

    def test_reused_request_id_is_replayed_once(self, tmp_path):
        journal_path = str(tmp_path / "requests.jsonl")
        journal = RequestJournal(journal_path)
        request = {"id": "r1", "source": SOURCE}
        journal.begin("r1", "fp", request)
        journal.done("r1", "fp", "ok")
        journal.begin("r1", "fp", request)  # the id reused, then a crash
        reborn = AnalysisService(journal=RequestJournal(journal_path))
        assert reborn.recovered == [{"id": "r1", "status": "replayed"}]
        assert reborn.served["replayed"] == 1


class TestDrain:
    def test_drain_refuses_with_rl552(self):
        service = AnalysisService()
        assert service.drain(timeout=0.1)
        response = service.handle({"id": "a", "source": SOURCE})
        assert response["status"] == "error"
        assert response["code"] == "RL552"
        assert not service.ready()
        assert service.healthy()
        assert service.stats()["draining"] is True


class TestDispatch:
    def test_copyprop_and_modref_serve_their_facts(self):
        service = AnalysisService()
        copyprop = service.handle(
            {"id": "a", "source": SOURCE, "analysis": "copyprop"}
        )
        assert copyprop["status"] == "ok"
        assert "copy_facts" in copyprop["result"]
        modref = service.handle(
            {"id": "b", "source": SOURCE, "analysis": "modref"}
        )
        assert modref["status"] == "ok"
        summaries = modref["result"]["summaries"]
        assert modref["result"] == {"summaries": summaries}
        assert "work" in summaries
        assert "a" in summaries["work"]["mod"]

    def test_copyprop_facts_match_the_cli(self, tmp_path, capsys):
        # s's first formal is bound to a value read at run time: ⊥ in
        # VAL, which is no fact; its second is the one constant fact
        source = (
            "program main\n  integer n\n  read n\n  call s(n + 1, 4)\nend\n"
            "subroutine s(a, b)\n  integer a, b\n  write a + b\nend\n"
        )
        response = AnalysisService().handle(
            {"id": "c", "source": source, "analysis": "copyprop"}
        )
        assert response["status"] == "ok"
        served = response["result"]
        assert (served["constant_facts"], served["copy_facts"]) == (1, 0)
        program_file = tmp_path / "program.f"
        program_file.write_text(source)
        assert cli_main(
            ["analyze", str(program_file), "--analysis", "copyprop"]
        ) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "COPIES(s) = {b = 4}" in printed
        assert printed[-2:] == [
            f"constant facts: {served['constant_facts']}",
            f"copy facts beyond constprop: {served['copy_facts']}",
        ]

    def test_analyses_have_distinct_fingerprints(self):
        service = AnalysisService()
        plain = service.handle({"id": "a", "source": SOURCE})
        copies = service.handle(
            {"id": "b", "source": SOURCE, "analysis": "copyprop"}
        )
        assert copies["served"] == "cold"
        assert copies["fingerprint"] != plain["fingerprint"]

    def test_stats_rides_along_when_requested(self):
        service = AnalysisService()
        response = service.handle(
            {"id": "a", "source": SOURCE, "stats": True}
        )
        assert "solver_counters" in response["stats"]


class TestHttpTransport:
    @pytest.fixture()
    def http(self):
        import json
        import urllib.request

        service = AnalysisService()
        server = make_http_server(service, "127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        def call(method, path, payload=None):
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}{path}",
                data=(
                    json.dumps(payload).encode() if payload is not None else None
                ),
                method=method,
            )
            try:
                with urllib.request.urlopen(request, timeout=10) as reply:
                    return reply.status, json.loads(reply.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        yield service, call, port
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_analyze_health_ready_stats(self, http):
        service, call, _ = http
        status, body = call("GET", "/healthz")
        assert (status, body["status"]) == (200, "ok")
        status, body = call("GET", "/readyz")
        assert (status, body["status"]) == (200, "ready")
        status, body = call("POST", "/analyze", {"id": "a", "source": SOURCE})
        assert status == 200
        assert body["status"] == "ok"
        assert body["served"] == "cold"
        status, body = call("POST", "/analyze", {"id": "b", "source": SOURCE})
        assert body["served"] == "cache"
        status, body = call("GET", "/stats")
        assert status == 200
        assert body["served"]["cache"] == 1

    @pytest.mark.parametrize(
        "length, status",
        [
            pytest.param("abc", 400, id="abc"),
            pytest.param("-5", 400, id="-5"),
            # over the body cap: refused unread, never allocated
            pytest.param("99999999999999", 413, id="99999999999999"),
        ],
    )
    def test_malformed_content_length_gets_400(self, http, length, status):
        import json
        import socket

        _, _, port = http
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            conn.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: localhost\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
            )
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status}".encode())
        assert json.loads(body)["code"] == "RL555"

    @staticmethod
    def post_truncated(port, hang_up: bool) -> tuple[bytes, float]:
        """POST a complete JSON request under a ``Content-Length`` 100
        bytes longer; with ``hang_up``, close the sending side after it.
        Returns the raw reply and the seconds it took."""
        import json
        import socket
        import time

        body = json.dumps({"id": "t", "source": SOURCE}).encode()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
            start = time.monotonic()
            conn.sendall(
                b"POST /analyze HTTP/1.1\r\nHost: localhost\r\n"
                + f"Content-Length: {len(body) + 100}\r\n\r\n".encode()
                + body
            )
            if hang_up:
                conn.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
            return reply, time.monotonic() - start

    def test_short_body_gets_400_unparsed(self, http):
        import json

        service, _, port = http
        reply, _ = self.post_truncated(port, hang_up=True)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(body)["code"] == "RL555"
        # never parsed, so never served
        assert not any(service.stats()["served"].values())

    def test_stalled_body_gets_408(self, http, monkeypatch):
        import json

        from repro.service import server

        monkeypatch.setattr(server, "REQUEST_READ_TIMEOUT", 0.3, raising=False)
        _, _, port = http
        reply, seconds = self.post_truncated(port, hang_up=False)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408")
        assert json.loads(body)["code"] == "RL555"
        assert seconds < 2

    def test_typed_rejections_map_to_http_statuses(self, http):
        service, call, _ = http
        status, body = call("POST", "/analyze", {"source": ""})
        assert (status, body["code"]) == (400, "RL555")
        status, body = call("GET", "/nope")
        assert status == 404
        service.drain(timeout=0.1)
        status, body = call("POST", "/analyze", {"id": "x", "source": SOURCE})
        assert (status, body["code"]) == (503, "RL552")
        status, body = call("GET", "/readyz")
        assert (status, body["status"]) == (503, "draining")
