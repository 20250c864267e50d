"""Socket front end over :class:`~repro.serve.service.SimulationService`.

:class:`SimulationServer` binds a TCP listener and serves the wire
protocol of :mod:`repro.serve.wire`: one OS thread per connection reads
request frames, submits them to the shared service (where micro-batching,
request coalescing, session caching, and per-client quotas apply across
*all* connections), and writes the matching response or structured-error
frame back.  The blocking one-request-per-connection discipline keeps the
per-connection state machine trivial; concurrency comes from many
connections, mirroring how the service's own callers use one ``submit``
per thread.

Connection identity feeds admission control: requests that do not name a
``client`` are stamped with their connection's id, so per-client quotas
bound each anonymous connection independently.

Error handling is two-tier.  *Service* errors (rejection, overload,
unknown base design, ...) are answered with an ``ERROR`` frame and the
connection stays usable — they are per-request outcomes.  *Protocol*
errors (bad magic, oversized frame, truncated stream) poison the byte
stream, so the server answers with a best-effort ``ERROR`` frame and
closes the connection.  A client that disconnects mid-request simply
loses its answer: the submitted work completes in the service and the
handler drains out without disturbing other connections.
"""

from __future__ import annotations

import dataclasses
import itertools
import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from .service import ServeRequest, SimulationService
from .wire import (
    DEFAULT_MAX_FRAME_BYTES,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    ConnectionClosedError,
    ProtocolError,
    WireError,
    encode_error,
    read_frame,
    write_frame,
)


class SimulationServer:
    """TCP server speaking the serving wire protocol.

    ::

        service = SimulationService(max_workers=4)
        server = SimulationServer(service, host="127.0.0.1", port=0)
        server.start()                      # background accept loop
        host, port = server.address        # port=0 -> OS-assigned
        ...
        server.close()                      # stop accepting, drain handlers
        service.close()

    The server owns its listener and connection threads but *not* the
    service — one service can stand behind several servers (or behind a
    server and in-process callers at once), and closing the server never
    cancels in-flight simulation work.
    """

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        self._service = service
        self._max_frame_bytes = max_frame_bytes
        self._listener = socket.create_server((host, port))
        self._address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._closed = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_counter = itertools.count(1)
        self._conn_lock = threading.Lock()
        self._connections: Dict[int, socket.socket] = {}
        self._handler_threads: List[threading.Thread] = []

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` requests."""
        return self._address

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SimulationServer":
        """Start the background accept loop; returns ``self`` (chainable)."""
        if self._closed.is_set():
            raise WireError("server is closed")
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-serve-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread until ``close()``."""
        if self._closed.is_set():
            raise WireError("server is closed")
        self._accept_loop()

    def close(self) -> None:
        """Stop accepting, unblock and join every handler (idempotent).

        In-flight service work keeps running; only the socket layer is
        torn down.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        # On Linux close() alone leaves a thread parked in accept() asleep;
        # shutdown() wakes it (platforms that refuse to shut down a
        # listening socket raise, and there close() is the wake-up).
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        with self._conn_lock:
            connections = list(self._connections.values())
            threads = list(self._handler_threads)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - close races are harmless
                pass
        for thread in threads:
            thread.join(timeout=10.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)

    def __enter__(self) -> "SimulationServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Accept / connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                # Listener closed (close()) or transient accept failure
                # during shutdown — either way the loop is done.
                break
            conn_index = next(self._conn_counter)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, conn_index),
                name=f"repro-serve-conn-{conn_index}",
                daemon=True,
            )
            with self._conn_lock:
                if self._closed.is_set():
                    conn.close()
                    break
                self._connections[conn_index] = conn
                self._handler_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket, conn_index: int) -> None:
        client_id = f"wire:{self._address[1]}:conn-{conn_index}"
        try:
            while not self._closed.is_set():
                try:
                    kind, payload = read_frame(conn, self._max_frame_bytes)
                except ConnectionClosedError:
                    # Clean disconnects between frames are normal; a
                    # truncated frame means the client died mid-request —
                    # in both cases the stream is over and any submitted
                    # work simply completes unobserved in the service.
                    return
                except WireError as exc:
                    self._send_error(conn, exc)
                    return
                if kind != KIND_REQUEST or not isinstance(payload, dict):
                    self._send_error(
                        conn,
                        ProtocolError(f"expected a REQUEST frame, got kind {kind}"),
                    )
                    return
                if not self._handle_request(conn, client_id, payload):
                    return
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close races are harmless
                pass
            with self._conn_lock:
                self._connections.pop(conn_index, None)

    def _handle_request(
        self, conn: socket.socket, client_id: str, payload: Dict[str, Any]
    ) -> bool:
        """Serve one request frame; False ends the connection."""
        op = payload.get("op")
        try:
            if op == "run":
                request = payload.get("request")
                if not isinstance(request, ServeRequest):
                    raise ProtocolError("run request frame carries no ServeRequest")
                if request.client is None:
                    # Anonymous requests are quota-bounded per connection.
                    request = dataclasses.replace(request, client=client_id)
                response = self._service.run(request)
                reply: Dict[str, Any] = {"response": response}
            elif op == "stats":
                reply = {"stats": self._service.stats()}
            else:
                raise ProtocolError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 - every failure becomes a frame
            poison = isinstance(exc, WireError)
            self._send_error(conn, exc)
            return not poison
        return self._send_frame(conn, KIND_RESPONSE, reply)

    def _send_frame(self, conn: socket.socket, kind: int, payload: Any) -> bool:
        try:
            write_frame(conn, kind, payload, self._max_frame_bytes)
            return True
        except WireError as exc:
            # The *reply* did not fit or encode; tell the client with a
            # (small) error frame rather than silently dropping it.
            try:
                write_frame(conn, KIND_ERROR, encode_error(exc))
            except OSError:
                pass
            return True
        except OSError:
            # Client went away while we were answering: drain quietly.
            return False

    def _send_error(self, conn: socket.socket, exc: BaseException) -> None:
        try:
            write_frame(conn, KIND_ERROR, encode_error(exc))
        except (OSError, WireError):  # pragma: no cover - peer already gone
            pass
