"""A synchronous client for the ``repro serve`` daemon.

:class:`ServeClient` speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol` over a unix-domain or TCP socket: it
performs the version handshake on connect, then offers one method per
request type.  ``verify`` streams the server's typed discharge events
into an optional callback before returning the terminal result.

Each client is one connection and is strictly sequential (the protocol
is request/response per connection); concurrency means several clients.
The class is intentionally free of asyncio so it can be used from
tests, benchmarks and user scripts without an event loop.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.serve import protocol

#: Callback receiving each streamed ``event`` message (a wire dict).
EventCallback = Optional[Callable[[Dict[str, Any]], None]]


class ServeError(RuntimeError):
    """A terminal ``error`` response (or a transport/handshake failure).

    ``code`` is the server's error code (``protocol-mismatch``,
    ``timeout``, ``unknown-spec``, ...) or ``"connection"`` for
    transport-level failures.  ``retry_after`` carries the server's
    advisory backoff floor when it sent one (``overloaded``).
    """

    def __init__(
        self,
        message: str,
        code: str = "connection",
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


class ServeClient:
    """One connection to a running verification server.

    Parameters mirror the server's listen endpoints: pass
    ``socket_path`` for a unix socket or ``host``/``port`` for TCP.
    Usable as a context manager::

        with ServeClient(socket_path="/tmp/repro.sock") as client:
            result = client.verify(spec="svt")

    Transient failures are retried: a lost connection is re-established
    and the request re-sent, and an ``overloaded`` rejection is retried
    after the server's ``retry_after`` floor — both under capped
    exponential backoff with jitter (``retries`` attempts beyond the
    first).  A retried ``verify`` restarts its event stream from the
    beginning, so ``on_event`` callbacks may observe events again.
    Verdicts are unaffected: the server's stage memo and query cache
    make the re-run answer-identical.
    """

    #: Error codes worth retrying: the request never produced a verdict.
    RETRYABLE_CODES = ("connection", "overloaded")

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        connect_timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("ServeClient needs a unix socket path or a TCP port")
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self._rng = random.Random()
        self._next_id = 0
        #: The server's ``hello``: its version and protocol revision.
        self.server_info = self._connect()

    def _connect(self) -> Dict[str, Any]:
        try:
            if self._socket_path is not None:
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    self._sock.settimeout(self._connect_timeout)
                    self._sock.connect(self._socket_path)
                except OSError:
                    self._sock.close()
                    raise
            else:
                self._sock = socket.create_connection(
                    (self._host, self._port), timeout=self._connect_timeout
                )
        except OSError as err:
            raise ServeError(f"cannot connect to server: {err}")
        # Verification requests may legitimately run long; blocking reads
        # from here on are bounded by the server's own timeouts.
        self._sock.settimeout(None)
        self._reader = self._sock.makefile("rb")
        self.server_info = self._handshake()
        return self.server_info

    def _reconnect(self) -> None:
        self.close()
        self._connect()

    # -- transport -------------------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        try:
            self._sock.sendall(protocol.encode_line(message))
        except OSError as err:
            raise ServeError(f"connection lost while sending: {err}")

    def _recv(self) -> Dict[str, Any]:
        try:
            line = self._reader.readline(protocol.MAX_LINE_BYTES + 1)
        except OSError as err:
            raise ServeError(f"connection lost while reading: {err}")
        if not line:
            raise ServeError("server closed the connection")
        try:
            return protocol.decode_line(line)
        except protocol.ProtocolError as err:
            raise ServeError(f"bad frame from server: {err}", code=err.code)

    def _handshake(self) -> Dict[str, Any]:
        hello = self._recv()
        if hello.get("type") != "hello":
            raise ServeError(
                f"expected a server hello, got {hello.get('type')!r}",
                code="protocol-mismatch",
            )
        if hello.get("protocol") != protocol.PROTOCOL_VERSION:
            raise ServeError(
                f"server speaks protocol {hello.get('protocol')!r}, "
                f"client speaks {protocol.PROTOCOL_VERSION}",
                code="protocol-mismatch",
            )
        self._send(protocol.client_hello())
        answer = self._recv()
        if answer.get("type") == "error":
            raise ServeError(answer.get("message", "rejected"), code=answer.get("code"))
        if answer.get("type") != "ready":
            raise ServeError(
                f"expected ready, got {answer.get('type')!r}", code="protocol-mismatch"
            )
        return hello

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- requests --------------------------------------------------------------

    def _request(
        self,
        message: Dict[str, Any],
        on_event: EventCallback = None,
        retryable: bool = True,
    ) -> Dict[str, Any]:
        """Send one request (with retry/backoff); return the terminal message."""
        self._next_id += 1
        rid = f"r{self._next_id}"
        message = {**message, "id": rid}
        attempt = 0
        while True:
            try:
                return self._attempt(message, on_event)
            except ServeError as err:
                if (
                    not retryable
                    or err.code not in self.RETRYABLE_CODES
                    or attempt >= self.retries
                ):
                    raise
                # Capped exponential backoff with full jitter; an
                # overloaded server's retry_after is the floor.
                delay = min(self.backoff_cap, self.backoff * (2 ** attempt))
                if err.retry_after is not None:
                    delay = max(delay, err.retry_after)
                time.sleep(delay + self._rng.uniform(0, delay))
                attempt += 1
                if err.code == "connection":
                    try:
                        self._reconnect()
                    except ServeError:
                        # Connect failures surface on the next attempt's
                        # send (or exhaust the retry budget there).
                        continue

    def _attempt(
        self, message: Dict[str, Any], on_event: EventCallback = None
    ) -> Dict[str, Any]:
        """One send + stream events + terminal message round trip."""
        self._send(message)
        while True:
            answer = self._recv()
            if answer.get("type") == "event":
                if on_event is not None:
                    on_event(answer)
                continue
            if answer.get("type") == "error":
                raise ServeError(
                    answer.get("message", "request failed"),
                    code=answer.get("code", "internal"),
                    retry_after=answer.get("retry_after"),
                )
            return answer

    def verify(
        self,
        source: Optional[str] = None,
        spec: Optional[str] = None,
        config: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        stream: bool = True,
        on_event: EventCallback = None,
    ) -> Dict[str, Any]:
        """Verify a program; returns the terminal ``result`` message.

        Exactly one of ``source`` (ShadowDP concrete syntax) and ``spec``
        (a registry algorithm name, verified in its Table-1 regime) is
        required.  ``config`` is a wire-shape config dict
        (:data:`repro.serve.protocol.CONFIG_KEYS`); ``timeout`` caps this
        request's wall clock server-side; ``on_event`` receives each
        streamed discharge event.
        """
        message: Dict[str, Any] = {"type": "verify", "stream": bool(stream)}
        if source is not None:
            message["source"] = source
        if spec is not None:
            message["spec"] = spec
        if config is not None:
            message["config"] = config
        if timeout is not None:
            message["timeout"] = timeout
        return self._request(message, on_event=on_event)

    def sweep(
        self,
        specs: Optional[Iterable[str]] = None,
        on_event: EventCallback = None,
        **kwargs: Any,
    ) -> List[Dict[str, Any]]:
        """Verify a sequence of registry specs (default: the server's
        full non-buggy registry, in its reported order)."""
        if specs is None:
            status = self.status()
            specs = [
                name
                for name in status["registry"]
                if not name.startswith("bad_")
            ]
        return [
            self.verify(spec=name, on_event=on_event, **kwargs) for name in specs
        ]

    def witness(
        self,
        oid: str,
        source: Optional[str] = None,
        spec: Optional[str] = None,
        config: Optional[Dict[str, Any]] = None,
        full: bool = False,
    ) -> Dict[str, Any]:
        """Fetch and re-validate the stored proof certificate for one
        obligation; returns the terminal ``witness`` message.

        ``source``/``spec`` identify the program exactly as in
        :meth:`verify` (they determine the premise fingerprint the
        obligation store is keyed on); ``full`` additionally returns the
        canonical certificate JSON itself.
        """
        message: Dict[str, Any] = {"type": "witness", "oid": oid, "full": bool(full)}
        if source is not None:
            message["source"] = source
        if spec is not None:
            message["spec"] = spec
        if config is not None:
            message["config"] = config
        return self._request(message)

    def status(self) -> Dict[str, Any]:
        """The server's introspection snapshot (cache stats, counters)."""
        return self._request({"type": "status"})

    def ping(self) -> Dict[str, Any]:
        return self._request({"type": "ping"})

    def health(self) -> Dict[str, Any]:
        """The server's health verdict: ``ok``/``degraded``/``draining``
        plus the causes behind any degradation."""
        return self._request({"type": "health"})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and exit; returns the ack.

        Never retried: a connection that dies here usually means the
        shutdown took, and a blind re-send could kill a fresh server.
        """
        return self._request({"type": "shutdown"}, retryable=False)
