"""Articulation-as-a-service: the HTTP transport.

A thin stdlib tier (:class:`http.server.ThreadingHTTPServer`, one
thread per connection) that maps a small REST-ish surface onto one
shared :class:`~repro.serving.service.ArticulationService`:

====== ============================ =======================================
Method Path                         Meaning
====== ============================ =======================================
GET    ``/health``                  liveness, loaded articulation, facts
GET    ``/stats``                   counters, cache/session/journal stats
POST   ``/ontologies``              register an adjacency-format ontology
POST   ``/articulate``              generate+install over registered sources
POST   ``/refresh``                 re-extract the loaded articulation
POST   ``/sessions``                open a snapshot-isolated session
POST   ``/sessions/<id>/refresh``   re-pin a session to the live fixpoint
DELETE ``/sessions/<id>``           close a session
POST   ``/infer``                   subsumption ops / Horn patterns
POST   ``/query``                   cross-source query (JSON-lines stream)
POST   ``/churn``                   one background churn batch
POST   ``/facts``                   raw journaled fact diff
POST   ``/kb``                      load instance rows into one source
====== ============================ =======================================

Plain JSON bodies travel with ``Content-Length``; ``/query`` streams
rows as JSON-lines over ``Transfer-Encoding: chunked`` (HTTP/1.1), one
row object per line and a ``done`` trailer with counts and cache
provenance.  Engine errors map onto status codes at this layer only —
the service below speaks exceptions, the wire speaks envelopes.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from repro.errors import OnionError, ProtocolError, ServingError
from repro.serving import protocol
from repro.serving.service import ArticulationService

__all__ = ["ArticulationServer"]

_MAX_BODY = 16 * 1024 * 1024  # one registered ontology, comfortably


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "onion-serving/1"
    service: ArticulationService  # injected by ArticulationServer

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the load generator's job, not stderr's

    def _body(self) -> dict:
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            # the body's end is unknown, so the connection cannot carry
            # another request: answer, then close it
            self.close_connection = True
            raise ProtocolError(f"invalid Content-Length {raw!r}")
        length = int(raw)
        if length > _MAX_BODY:
            self.close_connection = True
            raise ProtocolError(f"request body too large ({length} bytes)")
        return protocol.decode_body(self.rfile.read(length) if length else b"")

    def _send_json(self, status: int, body: dict) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_chunked(self, chunks) -> None:
        """Stream an iterable of byte chunks as one chunked response."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for chunk in chunks:
            if not chunk:
                continue
            self.wfile.write(b"%x\r\n" % len(chunk))
            self.wfile.write(chunk)
            self.wfile.write(b"\r\n")
        self.wfile.write(b"0\r\n\r\n")

    def _fail(self, exc: Exception) -> None:
        if isinstance(exc, ProtocolError):
            status, code = 400, "protocol"
        elif isinstance(exc, ServingError):
            status = 404 if "unknown" in str(exc) else 409
            code = "serving"
        elif isinstance(exc, OnionError):
            status, code = 422, "engine"
        else:
            status, code = 500, "internal"
        self._send_json(status, protocol.error(code, str(exc)))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        try:
            path = urlparse(self.path).path.rstrip("/")
            if path == "/health":
                self._send_json(200, protocol.ok(self.service.health()))
            elif path == "/stats":
                self._send_json(200, protocol.ok(self.service.stats()))
            else:
                self._send_json(
                    404, protocol.error("route", f"no route GET {path!r}")
                )
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self._fail(exc)

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            parts = urlparse(self.path).path.strip("/").split("/")
            if len(parts) == 2 and parts[0] == "sessions":
                self._send_json(
                    200,
                    protocol.ok(self.service.close_session(parts[1])),
                )
            else:
                self._send_json(
                    404,
                    protocol.error("route", f"no route DELETE {self.path!r}"),
                )
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self._fail(exc)

    def do_POST(self) -> None:  # noqa: N802
        try:
            path = urlparse(self.path).path.rstrip("/")
            parts = path.strip("/").split("/")
            payload = self._body()
            if path == "/query":
                self._query(payload)
                return
            body = self._route_post(path, parts, payload)
            self._send_json(200, protocol.ok(body))
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self._fail(exc)

    def _route_post(
        self, path: str, parts: list[str], payload: dict
    ) -> dict:
        service = self.service
        if path == "/ontologies":
            return service.register_ontology(
                protocol.require(payload, "name"),
                protocol.require(payload, "adjacency"),
            )
        if path == "/articulate":
            sources = protocol.require(payload, "sources", list)
            if not all(isinstance(s, str) for s in sources):
                raise ProtocolError("field 'sources' must be a string list")
            return service.articulate(
                protocol.require(payload, "name"),
                sources,
                protocol.optional(payload, "rules", str, "") or "",
            )
        if path == "/refresh":
            return service.refresh()
        if path == "/sessions":
            return service.create_session()
        if len(parts) == 3 and parts[0] == "sessions" and parts[2] == "refresh":
            return service.refresh_session(parts[1])
        if len(parts) == 3 and parts[0] == "sessions" and parts[2] == "close":
            return service.close_session(parts[1])
        if path == "/infer":
            return service.infer(payload)
        if path == "/churn":
            return service.churn(
                protocol.require(payload, "source"),
                protocol.require(payload, "mutations", int),
                protocol.optional(payload, "seed", int, 0),
                add_weight=protocol.optional(payload, "add_weight", float, 0.35),
                delete_weight=protocol.optional(
                    payload, "delete_weight", float, 0.25
                ),
                edge_weight=protocol.optional(
                    payload, "edge_weight", float, 0.4
                ),
            )
        if path == "/facts":
            return service.apply_facts(
                protocol.parse_atoms(payload, "adds"),
                protocol.parse_atoms(payload, "retracts"),
            )
        if path == "/kb":
            instances = protocol.require(payload, "instances", list)
            return service.add_instances(
                protocol.require(payload, "source"), instances
            )
        raise ServingError(f"unknown route POST {path!r}")

    def _query(self, payload: dict) -> None:
        text = protocol.require(payload, "query")
        stream = protocol.optional(payload, "stream", bool, True)
        rows, meta = self.service.query(text)
        if not stream:
            self._send_json(200, protocol.ok({"row_data": rows, **meta}))
            return
        self._send_chunked(protocol.jsonl_stream(iter(rows), meta))


class ArticulationServer:
    """The serving endpoint: a threaded HTTP front over one service.

    ``port=0`` binds an ephemeral port (tests, the load generator);
    the bound address is ``server.host`` / ``server.port``.  Use as a
    context manager or call :meth:`start` / :meth:`stop` explicitly —
    ``start`` runs ``serve_forever`` on a daemon thread and returns.
    """

    def __init__(
        self,
        service: ArticulationService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        # Small keep-alive responses otherwise stall ~40ms per round
        # trip on Nagle + delayed ACK.
        self.httpd.RequestHandlerClass.disable_nagle_algorithm = True
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ArticulationServer":
        if self._thread is not None:
            raise ServingError("server already started")
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name=f"onion-serve-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def serve_forever(self) -> None:
        """Run in the calling thread (the ``onion serve`` CLI path)."""
        try:
            self.httpd.serve_forever()
        finally:
            self.httpd.server_close()

    def __enter__(self) -> "ArticulationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
