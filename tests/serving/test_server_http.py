"""End-to-end HTTP round trips against a live server on an ephemeral port."""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.formats import adjacency
from repro.serving import (
    ArticulationServer,
    ArticulationService,
    load_paper_workload,
)
from repro.workloads.paper_example import carrier_ontology, factory_ontology


@pytest.fixture(scope="module")
def server():
    service = ArticulationService()
    load_paper_workload(service)
    with ArticulationServer(service, port=0) as srv:
        yield srv


@pytest.fixture
def conn(server):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    yield connection
    connection.close()


def call(conn, method, path, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    return response.status, raw


def call_json(conn, method, path, payload=None):
    status, raw = call(conn, method, path, payload)
    return status, json.loads(raw)


class TestReadEndpoints:
    def test_health(self, conn) -> None:
        status, body = call_json(conn, "GET", "/health")
        assert status == 200
        assert body["ok"] is True
        assert body["status"] == "ok"

    def test_stats(self, conn) -> None:
        status, body = call_json(conn, "GET", "/stats")
        assert status == 200
        assert "cache" in body and "sessions" in body

    def test_infer_generalizations(self, conn) -> None:
        status, body = call_json(
            conn,
            "POST",
            "/infer",
            {"op": "generalizations", "term": "carrier:Car"},
        )
        assert status == 200
        assert "transport:Vehicle" in body["terms"]

    def test_query_streamed_jsonl(self, conn) -> None:
        status, raw = call(
            conn, "POST", "/query", {"query": "SELECT price FROM transport:Vehicle"}
        )
        assert status == 200
        lines = [json.loads(line) for line in raw.splitlines() if line]
        trailer = lines[-1]
        assert trailer["done"] is True
        assert trailer["rows"] == len(lines) - 1
        assert all("values" in line for line in lines[:-1])

    def test_query_non_streamed(self, conn) -> None:
        status, body = call_json(
            conn,
            "POST",
            "/query",
            {"query": "SELECT price FROM transport:Vehicle", "stream": False},
        )
        assert status == 200
        assert body["rows"] == len(body["row_data"])


class TestErrorMapping:
    def test_bad_json_is_400(self, conn) -> None:
        conn.request(
            "POST", "/infer", body=b"{nope", headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert body["ok"] is False

    def test_unknown_route_is_404(self, conn) -> None:
        status, body = call_json(conn, "POST", "/nope", {})
        assert status == 404

    def test_unknown_session_is_404(self, conn) -> None:
        status, body = call_json(
            conn,
            "POST",
            "/infer",
            {"op": "generalizations", "term": "x", "session": "nope"},
        )
        assert status == 404
        assert "unknown session" in body["message"]

    def test_bad_query_is_422(self, conn) -> None:
        status, body = call_json(conn, "POST", "/query", {"query": "NOT SQL"})
        assert status == 422

    def test_missing_field_is_400(self, conn) -> None:
        status, body = call_json(conn, "POST", "/infer", {"term": "x"})
        assert status == 400
        assert "missing required field" in body["message"]

    @pytest.mark.parametrize("length", ["-5", "abc", "1_0"])
    def test_bad_content_length_is_400_and_closes(self, server, length) -> None:
        """The body is never read: a negative length used to read to
        EOF, pinning the connection's thread while the client waits."""
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(
                b"POST /infer HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
            )
            received = b""
            while True:  # the server closes; a hang trips the timeout
                chunk = sock.recv(4096)
                if not chunk:
                    break
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert "Content-Length" in json.loads(body)["message"]


class TestSessionsOverHttp:
    def test_session_lifecycle_and_isolation(self, conn) -> None:
        _, created = call_json(conn, "POST", "/sessions", {})
        sid = created["session"]
        probe = {
            "op": "generalizations",
            "term": "carrier:SUV",
            "session": sid,
        }
        _, before = call_json(conn, "POST", "/infer", probe)
        status, _ = call_json(
            conn,
            "POST",
            "/facts",
            {"adds": [["implies", "carrier:SUV", "factory:Vehicle"]]},
        )
        assert status == 200
        _, pinned = call_json(conn, "POST", "/infer", probe)
        assert pinned["terms"] == before["terms"]
        status, _ = call_json(conn, "POST", f"/sessions/{sid}/refresh", {})
        assert status == 200
        _, fresh = call_json(conn, "POST", "/infer", probe)
        assert "factory:Vehicle" in fresh["terms"]
        status, closed = call_json(conn, "DELETE", f"/sessions/{sid}")
        assert status == 200 and closed["closed"] is True


class TestWriteEndpoints:
    def test_churn_roundtrip(self, conn) -> None:
        status, body = call_json(
            conn,
            "POST",
            "/churn",
            {"source": "factory", "mutations": 2, "seed": 3, "delete_weight": 0.0},
        )
        assert status == 200
        assert body["mutations"] == 2

    def test_kb_add_instances(self, conn) -> None:
        status, body = call_json(
            conn,
            "POST",
            "/kb",
            {
                "source": "carrier",
                "instances": [
                    {"id": "HttpCar1", "cls": "Car", "values": {"price": 5}}
                ],
            },
        )
        assert status == 200
        assert body["added"] == 1


class TestBootstrapOverHttp:
    def test_register_then_articulate(self) -> None:
        service = ArticulationService()
        with ArticulationServer(service, port=0) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
            try:
                for onto in (carrier_ontology(), factory_ontology()):
                    status, _ = call_json(
                        conn,
                        "POST",
                        "/ontologies",
                        {"name": onto.name, "adjacency": adjacency.dumps(onto)},
                    )
                    assert status == 200
                status, body = call_json(
                    conn,
                    "POST",
                    "/articulate",
                    {
                        "name": "transport",
                        "sources": ["carrier", "factory"],
                        "rules": "carrier:Car => factory:Vehicle",
                    },
                )
                assert status == 200
                status, answer = call_json(
                    conn,
                    "POST",
                    "/infer",
                    {"op": "generalizations", "term": "carrier:Car"},
                )
                assert status == 200
                assert "factory:Vehicle" in answer["terms"]
            finally:
                conn.close()
