"""The asyncio HTTP server fronting live mining sessions.

Routes (all JSON; see :mod:`repro.serve.wire` for the documents):

========  =================================  ====================================
GET       /healthz                           liveness + session count
POST      /v1/sessions                       create a session (spec in body)
GET       /v1/sessions                       list sessions
GET       /v1/sessions/{id}                  one session's status
POST      /v1/sessions/{id}/question         fetch the next question
POST      /v1/sessions/{id}/answer           post an answer ({question_id, answer})
GET       /v1/sessions/{id}/kb               inspect the knowledge base (?top=K)
GET       /v1/sessions/{id}/result           result summary + fingerprint
POST      /v1/sessions/{id}/checkpoint       force a checkpoint now
DELETE    /v1/sessions/{id}                  drain and forget one session
POST      /v1/shutdown                       graceful drain-and-exit
========  =================================  ====================================

Concurrency model: the routing function is *synchronous* — every
session mutation runs between awaits on the one event loop, so two
clients posting to the same session can never interleave inside an
ingest (the same single-writer guarantee the dispatcher's event loop
gives, with asyncio's run-to-completion semantics standing in for the
simulated clock's one-event-at-a-time).

Shutdown: ``SIGTERM``/``SIGINT`` (or POST /v1/shutdown) stop accepting
connections, drain every session — final checkpoint through
:mod:`repro.storage`, outstanding questions captured for re-offer —
then let :meth:`MinerServer.run` return so the process exits 0. A
``kill -9`` instead costs at most the answers since the last
checkpoint, which resume rolls back anyway: same durability ladder as
every other execution mode (``docs/persistence.md``).
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from dataclasses import dataclass
from typing import Any

from repro.serve.http import HttpError, encode_response, read_request
from repro.serve.session import ServeError, SessionManager


@dataclass(frozen=True, slots=True)
class ServerLimits:
    """Overload bounds protecting the process, not one session.

    ``max_connections`` caps concurrently-open sockets: the excess get
    an immediate 503 + ``Retry-After`` and a close, instead of growing
    an unbounded task set. ``retry_after`` is the back-off hint (wall
    seconds) stamped on every 429/503 this server emits.
    """

    max_connections: int = 256
    retry_after: float = 0.05

    @property
    def retry_after_header(self) -> dict[str, str]:
        return {"Retry-After": f"{self.retry_after:g}"}


class MinerServer:
    """One HTTP server over one :class:`SessionManager`."""

    def __init__(
        self,
        manager: SessionManager,
        host: str = "127.0.0.1",
        port: int = 8765,
        limits: ServerLimits | None = None,
        request_hook: Any = None,
    ) -> None:
        self.manager = manager
        self.host = host
        self.limits = limits or ServerLimits()
        #: Chaos seam: called with each parsed request before routing
        #: (the kill-schedule runner SIGKILLs mid-request here).
        self.request_hook = request_hook
        self._port = port
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        self._aborted = False
        self._connections: set[asyncio.Task] = set()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        return self._port

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and arm the wall clock's runner."""
        self.manager.clock.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def _close_listener(self) -> None:
        """Stop accepting connections and let go of the listening server.

        Its protocol factory is a bound method of this server, so
        keeping it after shutdown would hold every session alive until
        the cyclic collector ran.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (idempotent, safe from signal handlers)."""
        self._shutdown.set()

    async def run(self, install_signals: bool = True, ready=None) -> int:
        """Serve until shutdown; returns the number of sessions drained.

        ``ready`` is called with the server once it is accepting
        connections *and* the signal handlers are armed — announcing
        the address any earlier would invite a SIGTERM into the gap
        where the default handler still kills the process.
        """
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        try:
            if ready is not None:
                ready(self)
            await self._shutdown.wait()
            if self._aborted:
                return 0  # crashed by the chaos harness: no drain
            return await self._graceful_stop()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    async def abort(self) -> None:
        """Crash the server: no drain, no final checkpoint, no mercy.

        The in-process stand-in for ``kill -9`` in the chaos harness:
        the listening socket closes, every connection is cut
        mid-whatever, and each session's storage discards its
        uncommitted batch — leaving exactly the on-disk state a real
        SIGKILL would. The cross-process kill tests pin that this
        equivalence actually holds.
        """
        self._aborted = True
        self._shutdown.set()
        await self._close_listener()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.manager.abort_all()
        await self.manager.clock.stop()

    async def _graceful_stop(self) -> int:
        """Stop accepting, finish in-flight requests, drain sessions."""
        await self._close_listener()
        # Give in-flight request handlers one loop turn to finish the
        # response they are writing, then cut the stragglers.
        for _ in range(20):
            if not self._connections:
                break
            await asyncio.sleep(0.05)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        drained = self.manager.drain_all()
        await self.manager.clock.stop()
        return drained

    # -- connection handling ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        if len(self._connections) >= self.limits.max_connections:
            # Accept-time backpressure: shed the connection before it
            # can queue work, with a hint when to come back.
            with contextlib.suppress(ConnectionError, OSError):
                writer.write(
                    encode_response(
                        503,
                        {"error": "server at connection limit"},
                        keep_alive=False,
                        headers=self.limits.retry_after_header,
                    )
                )
                await writer.drain()
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            return
        self._connections.add(task)
        try:
            while not self._shutdown.is_set():
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        encode_response(
                            exc.status, {"error": exc.message}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                status, doc, headers = self._dispatch(request)
                keep = request.keep_alive and not self._shutdown.is_set()
                writer.write(
                    encode_response(status, doc, keep_alive=keep, headers=headers)
                )
                await writer.drain()
                if not keep:
                    return
        except (ConnectionError, asyncio.CancelledError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    # -- routing ---------------------------------------------------------------

    def _dispatch(self, request) -> tuple[int, Any, dict[str, str] | None]:
        try:
            if self.request_hook is not None:
                self.request_hook(request)
            outcome = self._route(request)
        except HttpError as exc:
            return exc.status, {"error": exc.message}, None
        except ServeError as exc:
            return 400, {"error": str(exc)}, None
        except KeyError as exc:
            return 404, {"error": f"no such session: {exc.args[0]!r}"}, None
        except Exception as exc:  # one broken request must not kill the server
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, None
        if len(outcome) == 2:
            status, doc = outcome
            return status, doc, None
        return outcome

    def _route(self, request) -> tuple[int, Any]:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok", "sessions": len(self.manager.sessions)}
        if path == "/v1/shutdown" and method == "POST":
            self.request_shutdown()
            return 200, {"status": "draining", "sessions": len(self.manager.sessions)}
        if path == "/v1/sessions":
            if method == "POST":
                session = self.manager.create(request.json())
                return 201, session.status_doc()
            if method == "GET":
                return 200, self.manager.list_doc()
            return 405, {"error": f"{method} not allowed on {path}"}
        if path.startswith("/v1/sessions/"):
            rest = path[len("/v1/sessions/") :]
            session_id, _, action = rest.partition("/")
            session = self.manager.get(session_id)
            if not action:
                if method == "GET":
                    return 200, session.status_doc()
                if method == "DELETE":
                    self.manager.delete(session_id)
                    return 200, {"status": "deleted", "session": session_id}
                return 405, {"error": f"{method} not allowed on {path}"}
            if action == "question" and method == "POST":
                doc = request.json()
                key = doc.get("idempotency_key") if isinstance(doc, dict) else None
                if session.overloaded and not session.knows_key(key):
                    session.count_backpressure()
                    return (
                        429,
                        {
                            "status": "overloaded",
                            "outstanding": session.outstanding,
                        },
                        self.limits.retry_after_header,
                    )
                return 200, session.next_question(idempotency_key=key)
            if action == "answer" and method == "POST":
                doc = request.json()
                if not isinstance(doc, dict) or "question_id" not in doc:
                    raise HttpError(400, "post {question_id, answer}")
                return 200, session.post_answer(
                    str(doc["question_id"]),
                    doc.get("answer"),
                    idempotency_key=doc.get("idempotency_key"),
                )
            if action == "kb" and method == "GET":
                return 200, session.kb_doc(top=request.query_int("top"))
            if action == "result" and method == "GET":
                result = session.result()
                return 200, {
                    "session": session.session_id,
                    "fingerprint": result.fingerprint(),
                    "questions_asked": result.questions_asked,
                    "significant_rules": len(result.significant),
                    "rules_discovered": result.rules_discovered,
                    "serve": session.stats(),
                }
            if action == "checkpoint" and method == "POST":
                info = session.miner.checkpoint()
                if info is None:
                    return 200, {"status": "ephemeral", "session": session_id}
                return 200, {
                    "status": "saved",
                    "session": session_id,
                    "checkpoint_id": info.checkpoint_id,
                    "questions": info.questions,
                }
            return 404, {"error": f"unknown endpoint {path}"}
        return 404, {"error": f"unknown endpoint {path}"}


async def serve_forever(
    host: str,
    port: int,
    data_dir=None,
    resume: bool = False,
    ready=None,
    repair: bool = False,
    limits: ServerLimits | None = None,
    storage_wrapper=None,
    request_hook=None,
) -> int:
    """Build manager + server, run until a signal; returns sessions drained.

    ``ready`` is an optional callback receiving the bound server once
    it is accepting connections (the CLI prints the address; tests grab
    the ephemeral port). ``repair`` scrubs each store on resume and
    falls back past corrupt checkpoints; ``storage_wrapper`` and
    ``request_hook`` are the chaos seams (fault-injecting backend
    wrapper, per-request kill switch).
    """
    manager = SessionManager(data_dir=data_dir, storage_wrapper=storage_wrapper)
    if resume:
        manager.resume_all(repair=repair)
    server = MinerServer(manager, host, port, limits=limits, request_hook=request_hook)
    await server.start()
    return await server.run(ready=ready)
