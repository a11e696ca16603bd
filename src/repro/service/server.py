"""The daemon itself: one :class:`AnalysisService`, two transports.

:class:`AnalysisService` is transport-agnostic — :meth:`handle` takes
one JSON payload and returns one JSON response, synchronously on the
calling thread. The stdio-JSONL loop calls it per line; the HTTP server
calls it per POST on its per-connection threads. A submission walks:

1. parse (RL555 before anything else touches it);
2. response cache / store lookup — *before* admission, so repeats and
   warm answers still complete while the waiting room is full;
3. in-flight dedup — concurrent equals coalesce onto the leader's solve
   and share its fate (response or typed rejection alike);
4. admission (drain RL552, token bucket RL551, bounded queue RL550);
5. the circuit breaker picks the serving mode (NORMAL…FLOOR, or RL553);
6. the journal durably records ``begin``;
7. the solve runs on a bounded worker slot under a per-request
   :class:`~repro.resilience.cancel.CancelToken` (RL554 on expiry);
8. the journal records ``done``; exact NORMAL-mode responses are cached.

A daemon killed between 6 and 8 leaves a begin with no done; on restart
the journal's interrupted entries are deterministically **replayed**
(re-solved from the journaled payload — a full re-solve, so nothing
stale can surface — and published to the cache for the client's retry)
or **refused** (RL556 recorded), per :attr:`ServicePolicy.replay`.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from dataclasses import dataclass, field, replace

from repro.core.driver import Stage0Cache, analyze
from repro.resilience.cancel import (
    CancelledError,
    CancelToken,
    install_token,
    uninstall_token,
)
from repro.resilience.chaos import chaos_point
from repro.resilience.errors import (
    CODE_SERVICE_DEADLINE,
    CODE_SERVICE_INTERRUPTED,
    CODE_SERVICE_BREAKER_DEGRADED,
    ServiceError,
    Stage,
)
from repro.service.admission import AdmissionController
from repro.service.breaker import CircuitBreaker, ServiceMode
from repro.service.dedup import InFlightTable, ResponseCache, request_fingerprint
from repro.service.journal import RequestJournal
from repro.service.protocol import (
    ProtocolError,
    ServiceRequest,
    error_response,
    parse_request,
    response_for,
)


#: jump-function evaluation budget forced onto requests while the
#: breaker holds the service at DEGRADE or COLD.
DEGRADE_EVALUATIONS = 20_000


@dataclass
class ServicePolicy:
    """Every knob the daemon's robustness spine exposes."""

    workers: int = 2
    queue_limit: int = 8
    tenant_rate: float = 5.0
    tenant_burst: int = 20
    request_timeout: float = 30.0
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    #: replay journaled in-flight requests on restart (False = refuse
    #: them with RL556); either way the decision is deterministic.
    replay: bool = True
    #: mirror exact responses into the artifact store's response tier.
    #: Off, the store still serves solver-side warm starts — boxed
    #: snapshots and persistent slabs — so a repeat request re-solves
    #: against a loaded slab (``served: "slab"``) instead of being
    #: answered from a stored response body.
    persist_responses: bool = True


class AnalysisService:
    """The serving core: admission, dedup, breaker, journal, drain."""

    def __init__(
        self,
        policy: ServicePolicy | None = None,
        *,
        store=None,
        journal: RequestJournal | None = None,
        clock=time.monotonic,
    ):
        self.policy = policy or ServicePolicy()
        self._store = store
        self._journal = journal
        self._clock = clock
        # Private stage-0 cache: daemon lifetime, not process-global, so
        # a test daemon never warms (or poisons) the CLI's cache.
        self._stage0 = Stage0Cache()
        self.admission = AdmissionController(
            self.policy.queue_limit,
            self.policy.tenant_rate,
            self.policy.tenant_burst,
            clock,
        )
        self.breaker = CircuitBreaker(
            self.policy.breaker_threshold, self.policy.breaker_cooldown, clock
        )
        self._inflight = InFlightTable()
        self.cache = ResponseCache(
            store=store if self.policy.persist_responses else None
        )
        self._slots = threading.BoundedSemaphore(self.policy.workers)
        self._draining = threading.Event()
        self._active = 0
        self._active_cond = threading.Condition()
        self._id_lock = threading.Lock()
        self._next_id = 0
        self.served: dict[str, int] = {
            "cold": 0, "warm": 0, "slab": 0, "cache": 0, "store": 0,
            "dedup": 0, "replayed": 0, "errors": 0,
        }
        #: what startup recovery decided for each interrupted request.
        self.recovered: list[dict] = []
        self._recover()

    # -- startup recovery ------------------------------------------------------

    def _recover(self) -> None:
        """Deterministically settle every journaled in-flight request."""
        if self._journal is None:
            return
        for event in self._journal.interrupted():
            request_id = event["id"]
            fingerprint = event.get("fingerprint", "")
            if not self.policy.replay:
                self._journal.recovered(request_id, "refused")
                self.recovered.append(
                    {
                        "id": request_id,
                        "status": "refused",
                        "code": CODE_SERVICE_INTERRUPTED,
                    }
                )
                continue
            try:
                request = parse_request(event["request"], default_id=request_id)
                response = self._run(request, fingerprint, ServiceMode.NORMAL)
                self._maybe_cache(fingerprint, ServiceMode.NORMAL, response)
                self.breaker.record_success()
                self._journal.recovered(request_id, "replayed")
                self.served["replayed"] += 1
                self.recovered.append(
                    {"id": request_id, "status": "replayed"}
                )
            except Exception as exc:
                # A replay that fails is refused — still terminal, still
                # journaled, so the next restart does not loop on it.
                self._journal.recovered(request_id, "refused")
                self.recovered.append(
                    {
                        "id": request_id,
                        "status": "refused",
                        "code": CODE_SERVICE_INTERRUPTED,
                        "error": str(exc),
                    }
                )

    # -- the request lifecycle -------------------------------------------------

    def handle(self, payload) -> dict:
        """One submission in, one response out — never raises."""
        raw_id = payload.get("id") if isinstance(payload, dict) else None
        raw_id = raw_id if isinstance(raw_id, str) else None
        try:
            request = parse_request(payload, default_id=self._fresh_id())
        except ProtocolError as error:
            self.served["errors"] += 1
            return error_response(raw_id, error)
        try:
            return self.submit(request)
        except Exception as error:
            self.served["errors"] += 1
            return error_response(request.id, error)

    def submit(self, request: ServiceRequest) -> dict:
        """The numbered lifecycle from the module docstring. Raises
        :class:`ServiceError` for typed rejections; :meth:`handle` turns
        those into response dicts for the transports."""
        if self._draining.is_set():
            self.admission.admit(request.tenant, draining=True)  # raises
        fingerprint = request_fingerprint(
            request.analysis, request.config, request.source
        )
        cached = self.cache.get(fingerprint)
        if cached is not None:
            response, tier = cached
            self.served[tier] += 1
            return response_for(response, request, tier)

        is_leader, flight = self._inflight.begin_or_join(fingerprint)
        if not is_leader:
            timeout = request.timeout or self.policy.request_timeout
            if not flight.event.wait(timeout):
                raise ServiceError(
                    CODE_SERVICE_DEADLINE,
                    "deadline",
                    "coalesced request timed out waiting for its leader",
                )
            self.served["dedup"] += 1
            return response_for(flight.response, request, "dedup")

        response: dict | None = None
        try:
            self.admission.admit(request.tenant)
            try:
                mode = self.breaker.allow()
                if self._journal is not None:
                    self._journal.begin(
                        request.id, fingerprint, request.to_json()
                    )
                # the chaos harness's service hook: a `kill` fault here
                # dies with the begin journaled but no done — exactly
                # the window the restart tests must recover from
                chaos_point(Stage.SERVICE, scope="admitted")
                with self._track_active():
                    response = self._guarded_run(request, fingerprint, mode)
                self._maybe_cache(fingerprint, mode, response)
                if self._journal is not None:
                    self._journal.done(request.id, fingerprint, "ok")
            finally:
                self.admission.leave()
        except ServiceError as error:
            response = error_response(request.id, error)
            self.served["errors"] += 1
            if self._journal is not None:
                self._journal.done(request.id, fingerprint, "error")
            raise
        finally:
            # Followers share the leader's fate — response or typed
            # rejection — so nobody ever hangs on an abandoned flight.
            self._inflight.finish(
                fingerprint,
                response
                if response is not None
                else error_response(request.id, ProtocolError("leader died")),
            )
        self.served[response.get("served", "cold")] = (
            self.served.get(response.get("served", "cold"), 0) + 1
        )
        return response

    def _guarded_run(
        self, request: ServiceRequest, fingerprint: str, mode: ServiceMode
    ) -> dict:
        """Run the solve and feed the breaker: unexpected solver failures
        strike it; deadlines and typed rejections do not (they say
        nothing about solver health)."""
        try:
            response = self._run(request, fingerprint, mode)
        except CancelledError as error:
            raise ServiceError(
                CODE_SERVICE_DEADLINE, "deadline", str(error)
            ) from error
        except ServiceError:
            raise
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return response

    def _run(
        self, request: ServiceRequest, fingerprint: str, mode: ServiceMode
    ) -> dict:
        """One solve on a bounded worker slot under a cancel token."""
        timeout = request.timeout or self.policy.request_timeout
        token = CancelToken(self._clock() + timeout, clock=self._clock)
        remaining = token.remaining()
        if not self._slots.acquire(timeout=remaining):
            raise ServiceError(
                CODE_SERVICE_DEADLINE,
                "deadline",
                f"no worker slot freed within {timeout:g}s",
            )
        try:
            install_token(token)
            try:
                started = time.perf_counter()
                response = self._solve(request, fingerprint, mode)
                response["elapsed_ms"] = round(
                    (time.perf_counter() - started) * 1000.0, 3
                )
                return response
            finally:
                uninstall_token()
        finally:
            self._slots.release()

    def _effective_config(self, request: ServiceRequest, mode: ServiceMode):
        """Map the breaker's serving mode onto the request's config.

        DEGRADE forces a finite evaluation budget (and the ladder) onto
        requests that did not bring one; COLD additionally forgoes the
        store warm start; FLOOR runs the intraprocedural baseline — each
        rung strictly cheaper, every rung sound.
        """
        config = request.config
        if mode is ServiceMode.FLOOR:
            return replace(config, intraprocedural_only=True)
        if mode in (ServiceMode.DEGRADE, ServiceMode.COLD):
            budget = config.max_evaluations
            if budget is None or budget > DEGRADE_EVALUATIONS:
                budget = DEGRADE_EVALUATIONS
            return replace(
                config, max_evaluations=budget, degrade_on_budget=True
            )
        return config

    def _solve(
        self, request: ServiceRequest, fingerprint: str, mode: ServiceMode
    ) -> dict:
        effective = self._effective_config(request, mode)
        use_store = (
            self._store is not None
            and mode in (ServiceMode.NORMAL, ServiceMode.DEGRADE)
        )
        incremental = use_store and request.incremental
        result = analyze(
            request.source,
            effective,
            cache=self._stage0,
            store=self._store if use_store else None,
            incremental=incremental,
        )
        report = result.incremental
        if report is not None and report.mode.startswith("slab"):
            served = "slab"  # the store's slab tier skipped build_slab
        elif report is not None and report.mode == "warm":
            served = "warm"
        else:
            served = "cold"
        response: dict = {
            "id": request.id,
            "status": "ok",
            "served": served,
            "fingerprint": fingerprint,
            "analysis": request.analysis,
            "mode": mode.value,
            "result": self._render(request, result),
            "degradations": [r.describe() for r in result.degradations],
            "diagnostics": [
                d.format_text() for d in result.resilience_diagnostics()
            ],
        }
        if mode is not ServiceMode.NORMAL:
            # the breaker rerouted this request — RL557, never silent
            response["service_degradations"] = [
                f"{CODE_SERVICE_BREAKER_DEGRADED} "
                f"normal->{mode.value} (breaker "
                f"strikes={self.breaker.strikes})"
            ]
        if request.want_stats:
            response["stats"] = result.stats_json()
        return response

    def _render(self, request: ServiceRequest, result) -> dict:
        """The per-analysis result payload (mirrors the CLI renderings)."""
        if request.analysis == "constprop":
            return {
                "constants_found": result.constants_found,
                "references_substituted": result.references_substituted,
                "constants": {
                    proc: {
                        name: str(value)
                        for name, value in sorted(constants.items())
                    }
                    for proc, constants in result.all_constants().items()
                    if constants
                },
            }

        if request.analysis == "modref":
            return {"summaries": result.modref_summaries()}

        from repro.framework.clients.copyprop import (
            CopyOf,
            solve_copyprop,
            summarize_facts,
        )

        name = result.key_name
        solved = solve_copyprop(
            result.lowered, result.call_graph, result.forward
        )
        summary = summarize_facts(solved)
        return {
            "copies": {
                proc: {
                    name(key): f"{value.proc}::{name(value.key)}"
                    for key, value in sorted(
                        facts.items(), key=lambda item: name(item[0])
                    )
                    if value.__class__ is CopyOf
                }
                for proc, facts in summary.facts.items()
                if any(value.__class__ is CopyOf for value in facts.values())
            },
            "copy_facts": summary.copy_facts,
            "constant_facts": summary.constant_facts,
            "counters": dict(solved.counters()),
        }

    def _maybe_cache(
        self, fingerprint: str, mode: ServiceMode, response: dict
    ) -> None:
        """Only exact results enter the cache: a NORMAL-mode run with no
        degradations. Degraded answers are served (marked) but never
        stored, so nothing a healthy request reads was produced under
        duress."""
        if (
            mode is ServiceMode.NORMAL
            and response.get("status") == "ok"
            and not response.get("degradations")
        ):
            self.cache.put(fingerprint, response)

    # -- lifecycle / observability --------------------------------------------

    def _fresh_id(self) -> str:
        with self._id_lock:
            self._next_id += 1
            return f"req-{self._next_id}"

    def _track_active(self):
        service = self

        class _Tracker:
            def __enter__(self):
                with service._active_cond:
                    service._active += 1

            def __exit__(self, *exc):
                with service._active_cond:
                    service._active -= 1
                    service._active_cond.notify_all()

        return _Tracker()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, timeout: float = 10.0) -> bool:
        """Stop admitting (RL552), wait for in-flight work, report
        whether everything finished inside the drain window."""
        self._draining.set()
        deadline = self._clock() + timeout
        with self._active_cond:
            while self._active > 0:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                self._active_cond.wait(remaining)
        return True

    def healthy(self) -> bool:
        """Liveness: the process can still parse and answer."""
        return True

    def ready(self) -> bool:
        """Readiness: would a fresh submission be admitted right now?"""
        return not self._draining.is_set() and not self.breaker.is_open()

    def stats(self) -> dict:
        return {
            "served": dict(self.served),
            "admission": self.admission.counters(),
            "breaker": self.breaker.state(),
            "cache": self.cache.counters(),
            "dedup": {
                "coalesced": self._inflight.coalesced,
                "in_flight": len(self._inflight),
            },
            "stage0": self._stage0.counters(),
            "recovered": list(self.recovered),
            "draining": self._draining.is_set(),
        }


# -- the stdio-JSONL transport -------------------------------------------------


def serve_stdio(service: AnalysisService, stdin=None, stdout=None) -> int:
    """One JSON object per line in, one per line out; EOF drains."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            response = error_response(
                None, ProtocolError("request line is not valid JSON")
            )
        else:
            response = service.handle(payload)
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()
    service.drain()
    return 0


# -- the HTTP transport --------------------------------------------------------

#: The longest request body ``POST /analyze`` reads: 16 MiB, 8x the
#: largest request the shipped corpora make (``huge_fanout`` is
#: 1,995,184 bytes of JSON). A longer declared body gets HTTP 413 before
#: a byte of it is read.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: Seconds a connection may leave the server waiting for its next bytes.
#: A request body that stalls this long gets HTTP 408 and the connection
#: closes, so a client that declares more bytes than it sends cannot pin
#: a handler thread.
REQUEST_READ_TIMEOUT = 10.0

#: RL55x -> HTTP status for the POST /analyze response envelope.
_HTTP_STATUS = {
    "RL550": 429,
    "RL551": 429,
    "RL552": 503,
    "RL553": 503,
    "RL554": 504,
    "RL555": 400,
    "RL556": 409,
}


def make_http_server(service: AnalysisService, host: str, port: int):
    """A ``ThreadingHTTPServer`` bound to ``host:port``:

    - ``POST /analyze`` — one request payload, one response;
    - ``GET /healthz`` — liveness (200 while the process answers);
    - ``GET /readyz`` — admission readiness (503 draining/breaker-open);
    - ``GET /stats`` — the service counters.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            # the module constant, read per connection
            self.timeout = REQUEST_READ_TIMEOUT
            super().setup()

        def log_message(self, *args):  # quiet: the journal is the record
            pass

        def _reply(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _bad_request(self, message: str, status: int = 400) -> None:
            self._reply(status, error_response(None, ProtocolError(message)))

        def do_GET(self):
            if self.path == "/healthz":
                self._reply(200, {"status": "ok"})
            elif self.path == "/readyz":
                if service.ready():
                    self._reply(200, {"status": "ready"})
                else:
                    reason = (
                        "draining" if service.draining else "breaker-open"
                    )
                    self._reply(503, {"status": reason})
            elif self.path == "/stats":
                self._reply(200, service.stats())
            else:
                self._reply(404, {"status": "not-found"})

        def do_POST(self):
            if self.path != "/analyze":
                self._reply(404, {"status": "not-found"})
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                length = -1
            if length < 0:
                # the body's extent is unknown: answer, then hang up
                self.close_connection = True
                self._bad_request("Content-Length must be a non-negative integer")
                return
            if length > MAX_REQUEST_BYTES:
                # refuse unread: reading would allocate the declared size
                # up front, or wait for bytes a lying client never sends
                self.close_connection = True
                self._bad_request(
                    f"request body exceeds {MAX_REQUEST_BYTES} bytes", 413
                )
                return
            try:
                body = self.rfile.read(length)
            except TimeoutError:
                self.close_connection = True
                self._bad_request(
                    f"request body not received within "
                    f"{REQUEST_READ_TIMEOUT:g}s",
                    408,
                )
                return
            if len(body) < length:
                # the client hung up mid-body: never parse a fragment
                self.close_connection = True
                self._bad_request(
                    f"request body ended after {len(body)} of {length} bytes"
                )
                return
            try:
                payload = json.loads(body or b"")
            except ValueError:
                self._bad_request("request body is not valid JSON")
                return
            response = service.handle(payload)
            if response.get("status") == "ok":
                self._reply(200, response)
            else:
                self._reply(
                    _HTTP_STATUS.get(response.get("code", ""), 500), response
                )

    return ThreadingHTTPServer((host, port), Handler)


def serve_http(service: AnalysisService, host: str, port: int) -> int:
    """Run the HTTP transport until SIGTERM/SIGINT, then drain."""
    server = make_http_server(service, host, port)

    def _shutdown(signum, frame):
        # shutdown() must not run on the serve_forever thread
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    print(
        f"repro serve: listening on http://{host}:{server.server_address[1]}/",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
        drained = service.drain()
        print(
            "repro serve: drained cleanly"
            if drained
            else "repro serve: drain timed out with requests in flight",
            file=sys.stderr,
        )
    return 0
