"""The ``repro serve`` daemon: a long-lived verification service.

One process holds the expensive state every CLI invocation used to
rebuild from scratch — the interned term tables, one memoizing
:class:`~repro.pipeline.Pipeline` (stage memo keyed on source hash ×
config fingerprint) and its single-flight
:class:`~repro.solver.context.QueryCache` — and serves verify requests
over unix-domain and/or TCP sockets using the newline-delimited JSON
protocol in :mod:`repro.serve.protocol`.

Execution model
---------------
The asyncio event loop owns all sockets; each ``verify`` request runs
the pipeline on a worker thread (``max_concurrent`` bounds the pool), so
the loop stays responsive for ``status`` introspection and new
connections while solves are in flight.  Typed
:class:`~repro.verify.discharge.DischargeEvent`\\ s are forwarded from
the worker thread onto the request's connection incrementally
(``call_soon_threadsafe`` → per-request queue → socket), so clients
render progress while the solver is still working.

Determinism
-----------
Concurrent requests multiplex through two single-flight layers: the
stage memo (concurrent *identical* requests share one pipeline
execution; latecomers block and receive the memoized result as a
``cached`` hit, exactly as a serial replay would) and the query cache
(concurrent identical solver queries are solved once).  Verdicts,
obligation ids and per-request query counts are therefore identical to
serial one-shot runs at any client concurrency, and aggregate solve and
cache-hit totals across a request mix are schedule-invariant (the
solve count equals the number of distinct normalized queries).  The
per-request *split* of hits vs solves between two distinct concurrent
programs that happen to share a query is the one schedule-dependent
quantity; ``tests/serve`` pins exactly this contract.

Lifecycle
---------
``SIGTERM``/``SIGINT`` (or a client ``shutdown`` request) starts a clean
drain: listeners close, every in-flight request's cancel event is set —
its discharge stops at the next unit boundary with an ``early-exit``
event streamed to the attached client and an ``error`` (code
``cancelled``) terminal message — then the process exits.  Per-request
timeouts use the same cooperative cancellation seam.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro import __version__
from repro import faults as faults_mod
from repro.algorithms import registry
from repro.core.errors import ShadowDPError
from repro.lang.parser import ParseError
from repro.pipeline import Pipeline, PipelineRun, spec_config
from repro.serve import protocol
from repro.verify.discharge import DischargeCancelled
from repro.verify.store import resolve_store
from repro.verify.verifier import VerificationConfig

#: Sentinel queued after the last event of a verify run.
_DONE = object()


class VerifyServer:
    """The warm verification service (see module docstring).

    Parameters
    ----------
    socket_path / host / port:
        Listen endpoints; at least one of ``socket_path`` and ``port``
        is required (``port=0`` binds an ephemeral port, reported by
        :attr:`tcp_port` after :meth:`start`).
    max_concurrent:
        Worker threads — the number of verify requests solving at once;
        further requests queue.
    request_timeout:
        Default per-request wall-clock budget in seconds (requests may
        send their own ``timeout``); ``None`` means unbounded.
    warm:
        Run the full registry sweep (every non-buggy algorithm in its
        Table-1 regime) through the pipeline before accepting
        connections, so the first client hits a hot cache.
    store:
        A persistent :class:`~repro.verify.store.ObligationStore` (or a
        path to one) shared by every request that does not carry its
        own: verdicts survive server restarts, and a freshly-started
        server answers warm obligations from disk without solving.
    drain_grace:
        Seconds to wait for in-flight requests to unwind during
        shutdown before their connections are force-closed.
    max_queue:
        Admission control: the most verify requests admitted at once
        (solving plus queued for a worker).  Further requests are
        rejected immediately with a typed ``overloaded`` error carrying
        a ``retry_after`` hint instead of queuing unboundedly.  Default
        ``4 × max_concurrent``.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        *,
        max_concurrent: int = 4,
        request_timeout: Optional[float] = None,
        warm: bool = False,
        warm_specs: Optional[List[str]] = None,
        store: Optional[object] = None,
        drain_grace: float = 30.0,
        quiet: bool = False,
        max_queue: Optional[int] = None,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("serve needs a unix socket path and/or a TCP port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.max_concurrent = max(1, max_concurrent)
        self.request_timeout = request_timeout
        #: Warm on startup: ``warm_specs`` names a subset; plain ``warm``
        #: sweeps the whole non-buggy registry.
        self.warm = warm or bool(warm_specs)
        self.warm_specs = list(warm_specs or ())
        self.drain_grace = drain_grace
        self.quiet = quiet

        #: The warm state: one memoizing pipeline and its query cache.
        self.pipeline = Pipeline()
        #: Shared on-disk verdict cache (None = per-request stores only).
        self.store = resolve_store(store)
        self.max_queue = (
            max(1, max_queue) if max_queue is not None else 4 * self.max_concurrent
        )
        self.counters: Dict[str, int] = {
            "received": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "rejected": 0,
            "overloaded": 0,
        }
        #: Verify requests admitted and not yet finished (event-loop
        #: thread only), compared against ``max_queue`` at admission.
        self._inflight = 0
        self.warmed: List[str] = []
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_concurrent, thread_name_prefix="repro-serve"
        )
        self._active: "set[threading.Event]" = set()
        self._handlers: "set[asyncio.Task]" = set()
        self._servers: List[asyncio.AbstractServer] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._draining = False
        self._started = time.monotonic()
        self.tcp_port: Optional[int] = None

    # -- logging ---------------------------------------------------------------

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[repro-serve] {message}", file=sys.stderr, flush=True)

    # -- lifecycle -------------------------------------------------------------

    def _with_store(self, config: VerificationConfig) -> VerificationConfig:
        """Attach the server's shared store to a config that has none."""
        if self.store is None or config.store is not None:
            return config
        return dataclasses.replace(config, store=self.store)

    def warm_registry(self, names: Optional[List[str]] = None) -> List[str]:
        """Preload the stage memo and query cache with a registry sweep."""
        specs = (
            [registry.get(name) for name in names]
            if names
            else registry.all_specs(include_buggy=False)
        )
        for spec in specs:
            self.pipeline.run(spec.source, config=self._with_store(spec_config(spec)))
            self.warmed.append(spec.name)
        return self.warmed

    async def start(self) -> None:
        """Warm (when asked) and bind the listeners.

        The socket appears only once the warm sweep is done, so "the
        socket exists" means "the server is ready" to supervisors.
        """
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._started = time.monotonic()
        if self.warm:
            self._log("warming: registry sweep ...")
            start = time.perf_counter()
            await self._loop.run_in_executor(
                self._pool, self.warm_registry, self.warm_specs or None
            )
            self._log(
                f"warm: {len(self.warmed)} algorithms in "
                f"{time.perf_counter() - start:.1f}s"
            )
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle, path=self.socket_path, limit=protocol.MAX_LINE_BYTES
                )
            )
            self._log(f"listening on unix:{self.socket_path}")
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle, self.host, self.port, limit=protocol.MAX_LINE_BYTES
            )
            self._servers.append(server)
            self.tcp_port = server.sockets[0].getsockname()[1]
            self._log(f"listening on tcp:{self.host}:{self.tcp_port}")

    async def run(self, install_signal_handlers: bool = False) -> None:
        """Serve until shut down, then drain cleanly."""
        await self.start()
        if install_signal_handlers:
            import signal

            for sig in (signal.SIGINT, signal.SIGTERM):
                self._loop.add_signal_handler(
                    sig, self.request_shutdown, signal.Signals(sig).name
                )
        await self._shutdown.wait()
        await self.close()

    def request_shutdown(self, reason: str = "requested") -> None:
        """Begin a clean drain; safe to call from any thread or a signal."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(self._begin_shutdown, reason)

    def _begin_shutdown(self, reason: str) -> None:
        if self._draining:
            return
        self._draining = True
        self._log(f"draining ({reason}): {len(self._active)} request(s) in flight")
        for event in list(self._active):
            event.set()
        self._shutdown.set()

    async def close(self) -> None:
        """Stop listening, let in-flight requests unwind, release the pool."""
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        deadline = self._loop.time() + self.drain_grace
        while self._active and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        # Cancelled requests have sent their terminal error; give their
        # handlers one tick to flush, then drop idle connections.
        await asyncio.sleep(0.05)
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._pool.shutdown(wait=True, cancel_futures=True)
        if self.socket_path is not None and os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._log("closed")

    # -- connection handling ---------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
        plan = faults_mod.active()
        if plan is not None:
            # Chaos hook: a ``serve-drop@K`` directive severs the first
            # connection that writes its Kth frame, exercising client
            # reconnect/retry end to end.
            frames = getattr(writer, "_fault_frames", 0) + 1
            writer._fault_frames = frames
            if plan.drop_connection(frames):
                writer.transport.abort()
                raise ConnectionResetError("injected connection drop")
        writer.write(protocol.encode_line(message))
        await writer.drain()

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._send(writer, protocol.server_hello())
            line = await reader.readline()
            if not line:
                return
            try:
                hello = protocol.decode_line(line)
                protocol.check_client_hello(hello)
            except protocol.ProtocolError as err:
                self.counters["rejected"] += 1
                await self._send(writer, protocol.error(err.code, str(err)))
                return
            await self._send(writer, protocol.ready())
            # Keep serving the connection while draining: verify requests
            # are rejected in _handle_verify, but health probes must still
            # be able to observe the "draining" status.  Teardown is
            # handled by _stop cancelling handler tasks.
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Frame over the stream limit: unrecoverable framing.
                    await self._send(
                        writer, protocol.error("bad-request", "oversized frame")
                    )
                    break
                if not line:
                    break
                try:
                    message = protocol.decode_line(line)
                except protocol.ProtocolError as err:
                    await self._send(writer, protocol.error(err.code, str(err)))
                    continue
                if not await self._dispatch(message, writer):
                    break
        except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, message: Dict[str, Any], writer) -> bool:
        """Handle one request; False ends the connection."""
        kind = message["type"]
        rid = message.get("id")
        if kind == "verify":
            await self._handle_verify(message, writer)
            return True
        if kind == "witness":
            await self._handle_witness(message, writer)
            return True
        if kind == "status":
            await self._send(writer, self.status_message(rid))
            return True
        if kind == "ping":
            await self._send(writer, {"type": "pong", "id": rid})
            return True
        if kind == "health":
            await self._send(writer, self.health_message(rid))
            return True
        if kind == "shutdown":
            await self._send(writer, {"type": "shutdown-ack", "id": rid})
            self.request_shutdown("client shutdown request")
            return False
        await self._send(
            writer, protocol.error("bad-request", f"unknown request type {kind!r}", rid)
        )
        return True

    # -- verify requests -------------------------------------------------------

    def _resolve_request(
        self, message: Dict[str, Any]
    ) -> Tuple[str, Optional[VerificationConfig]]:
        """The source text and base config a verify request denotes."""
        if "source" in message and "spec" in message:
            raise protocol.ProtocolError("give 'source' or 'spec', not both")
        if "spec" in message:
            name = message["spec"]
            try:
                spec = registry.get(name)
            except KeyError:
                raise protocol.ProtocolError(
                    f"unknown registry spec {name!r}", code="unknown-spec"
                )
            return spec.source, spec_config(spec)
        source = message.get("source")
        if not isinstance(source, str) or not source.strip():
            raise protocol.ProtocolError(
                "verify needs 'source' text or a registry 'spec' name"
            )
        return source, None

    def _run_request(
        self, source: str, config: VerificationConfig, sink, cancel_event: threading.Event
    ) -> PipelineRun:
        """The worker-thread body of one verify request."""
        if cancel_event.is_set():
            # Cancelled (timeout/drain) while still queued for a worker.
            raise DischargeCancelled("cancelled before start")
        return self.pipeline.run(source, config=config, on_event=sink)

    async def _handle_verify(self, message: Dict[str, Any], writer) -> None:
        rid = message.get("id")
        self.counters["received"] += 1
        if self._draining:
            self.counters["cancelled"] += 1
            await self._send(
                writer, protocol.error("shutting-down", "server is draining", rid)
            )
            return
        if self._inflight >= self.max_queue:
            # Admission control: reject now with a typed error and a
            # backoff hint instead of queuing unboundedly.
            self.counters["overloaded"] += 1
            retry_after = min(5.0, 0.1 * max(1, self._inflight))
            await self._send(
                writer,
                protocol.error(
                    "overloaded",
                    f"server at capacity ({self._inflight} requests in flight,"
                    f" max_queue={self.max_queue})",
                    rid,
                    retry_after=retry_after,
                ),
            )
            return
        cancel_event = threading.Event()
        try:
            source, base = self._resolve_request(message)
            config = self._with_store(
                protocol.config_from_wire(
                    message.get("config"), base=base, cancel_event=cancel_event
                )
            )
            timeout = message.get("timeout", self.request_timeout)
            if timeout is not None:
                timeout = float(timeout)
        except (protocol.ProtocolError, ValueError, TypeError) as err:
            self.counters["failed"] += 1
            code = getattr(err, "code", "bad-request")
            await self._send(writer, protocol.error(code, str(err), rid))
            return

        stream_events = bool(message.get("stream", True))
        queue: "asyncio.Queue" = asyncio.Queue()
        loop = self._loop

        def sink(event) -> None:
            # Worker thread → event loop; drop events if the loop died.
            try:
                loop.call_soon_threadsafe(
                    queue.put_nowait, protocol.event_to_wire(event, rid)
                )
            except RuntimeError:
                pass

        self._active.add(cancel_event)
        self._inflight += 1
        started = loop.time()
        timed_out = False
        try:
            future = loop.run_in_executor(
                self._pool,
                self._run_request,
                source,
                config,
                sink if stream_events else None,
                cancel_event,
            )
            future.add_done_callback(lambda _f: queue.put_nowait(_DONE))
            try:
                while True:
                    remaining = None
                    if timeout is not None and not timed_out:
                        remaining = timeout - (loop.time() - started)
                        if remaining <= 0:
                            timed_out = True
                            cancel_event.set()
                            continue
                    try:
                        item = await asyncio.wait_for(queue.get(), remaining)
                    except asyncio.TimeoutError:
                        timed_out = True
                        cancel_event.set()
                        continue
                    if item is _DONE:
                        break
                    await self._send(writer, item)
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # Client went away mid-stream: stop the worker too, and
                # consume its (expected) cancellation so asyncio does not
                # log an unretrieved-exception traceback.
                cancel_event.set()
                future.add_done_callback(lambda f: f.exception())
                raise

            try:
                run = future.result()
            except DischargeCancelled:
                self.counters["cancelled"] += 1
                if timed_out:
                    await self._send(
                        writer,
                        protocol.error(
                            "timeout", f"request exceeded {timeout:g}s", rid
                        ),
                    )
                else:
                    await self._send(
                        writer,
                        protocol.error("cancelled", "server is draining", rid),
                    )
            except (ShadowDPError, ParseError) as err:
                self.counters["failed"] += 1
                await self._send(writer, protocol.error("verify-error", str(err), rid))
            except Exception as err:
                self.counters["failed"] += 1
                self._log(f"internal error: {err!r}")
                await self._send(
                    writer,
                    protocol.error("internal", f"{type(err).__name__}: {err}", rid),
                )
            else:
                self.counters["completed"] += 1
                cached = run.stages["verify"].cached
                await self._send(writer, protocol.result_to_wire(run, cached, rid))
        finally:
            self._inflight -= 1
            self._active.discard(cancel_event)

    # -- witness requests ------------------------------------------------------

    def _witness_lookup(
        self, source: str, config: VerificationConfig, oid: str, full: bool
    ) -> Dict[str, Any]:
        """Worker-thread body of one witness request: fetch the stored
        certificate for ``(oid, fingerprint)`` and re-validate it with
        the trusted kernel.  No solving happens here — the target is
        prepared only to derive the premise fingerprint."""
        from repro.verify.verifier import prepare_generator
        from repro.witness import Certificate, WitnessError, validate

        run = self.pipeline.run(source, config=config, stop_after="optimize")
        _, checker = prepare_generator(run.target, config)
        out: Dict[str, Any] = {
            "oid": oid,
            "fingerprint": checker.store_fingerprint,
            "found": False,
        }
        store = checker.store
        if store is None:
            out["error"] = "no obligation store configured"
            return out
        verdict = store.lookup(oid, checker.store_fingerprint)
        if verdict is None:
            return out
        out["found"] = True
        out["valid"] = verdict.valid
        if verdict.witness is None:
            out["witnessed"] = False
            return out
        out["witnessed"] = True
        try:
            certificate = Certificate.from_json(verdict.witness)
            out["checked"] = validate(certificate)
            out["validated"] = True
            out["summary"] = certificate.summary()
        except WitnessError as err:
            out["validated"] = False
            out["error"] = str(err)
            return out
        if full:
            out["certificate"] = verdict.witness
        return out

    async def _handle_witness(self, message: Dict[str, Any], writer) -> None:
        rid = message.get("id")
        try:
            oid = message.get("oid")
            if not isinstance(oid, str) or not oid:
                raise protocol.ProtocolError("witness needs an 'oid'")
            source, base = self._resolve_request(message)
            config = self._with_store(
                protocol.config_from_wire(message.get("config"), base=base)
            )
        except (protocol.ProtocolError, ValueError, TypeError) as err:
            code = getattr(err, "code", "bad-request")
            await self._send(writer, protocol.error(code, str(err), rid))
            return
        try:
            out = await self._loop.run_in_executor(
                self._pool,
                self._witness_lookup,
                source,
                config,
                oid,
                bool(message.get("full", False)),
            )
        except (ShadowDPError, ParseError) as err:
            await self._send(writer, protocol.error("verify-error", str(err), rid))
            return
        except Exception as err:
            self._log(f"internal error: {err!r}")
            await self._send(
                writer,
                protocol.error("internal", f"{type(err).__name__}: {err}", rid),
            )
            return
        reply: Dict[str, Any] = {"type": "witness", **out}
        if rid is not None:
            reply["id"] = rid
        await self._send(writer, reply)

    # -- introspection ---------------------------------------------------------

    def health_message(self, rid: Optional[str] = None) -> Dict[str, Any]:
        """The ``health`` response: liveness beyond "the socket accepts".

        ``ok`` — fully healthy.  ``degraded`` — still serving correct
        results, but the obligation store fell back to memory-only
        writes.  ``draining`` — shutting down; new verify requests are
        rejected.  Every degradation comes with its cause.
        """
        causes: List[str] = []
        if self.store is not None and self.store.degraded:
            causes.append("obligation-store degraded: verdicts kept in memory only")
        if self._draining:
            status = "draining"
        elif causes:
            status = "degraded"
        else:
            status = "ok"
        return protocol.health(
            status,
            causes,
            rid,
            uptime_seconds=round(time.monotonic() - self._started, 3),
            inflight=self._inflight,
            max_queue=self.max_queue,
        )

    def status_message(self, rid: Optional[str] = None) -> Dict[str, Any]:
        """The ``status`` response: identity, load, and warm-cache stats."""
        out: Dict[str, Any] = {
            "type": "status",
            "server": {
                "version": __version__,
                "protocol": protocol.PROTOCOL_VERSION,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
                "draining": self._draining,
                "max_concurrent": self.max_concurrent,
                "request_timeout": self.request_timeout,
                "warmed": list(self.warmed),
            },
            "requests": {**self.counters, "active": len(self._active)},
            "query_cache": self.pipeline.query_cache.stats(),
            "stage_memo": self.pipeline.memo_stats(),
            "obligation_store": self.store.stats() if self.store is not None else None,
            "registry": registry.names(include_buggy=True),
        }
        if rid is not None:
            out["id"] = rid
        return out


# ---------------------------------------------------------------------------
# Embedding helpers
# ---------------------------------------------------------------------------


class ServerThread:
    """Run a :class:`VerifyServer` on a background thread (tests, benches).

    ``start()`` returns once the server is warm and listening (or raises
    the startup error); ``stop()`` drains and joins.
    """

    def __init__(self, **kwargs: Any) -> None:
        kwargs.setdefault("quiet", True)
        self.server = VerifyServer(**kwargs)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error
        return self

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        try:
            await self.server.start()
        except BaseException as err:  # startup failed: surface in start()
            self._error = err
            self._ready.set()
            return
        self._ready.set()
        await self.server._shutdown.wait()
        await self.server.close()

    def stop(self, timeout: float = 60.0) -> None:
        self.server.request_shutdown("embedder stop")
        if self._thread is not None:
            self._thread.join(timeout=timeout)


def main(argv=None) -> int:
    """``python -m repro.serve.server`` — thin wrapper over ``repro serve``."""
    from repro.cli import main as cli_main

    return cli_main(["serve"] + list(argv or sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main())
