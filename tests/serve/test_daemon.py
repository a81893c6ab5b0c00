"""Daemon protocol: socket round trips, typed rejections, protocol errors."""

import json
import socket
import threading

import pytest

from repro.errors import ServiceError, TenantQuotaExceededError
from repro.serve import (
    MatrixService,
    RemoteClient,
    ServiceConfig,
    TenantSpec,
)
from repro.serve.daemon import handle_request, request, serve_forever

PARAMS = {"scale": 5e-4, "iterations": 2}


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on a tmp socket; shut down and joined on teardown."""
    service = MatrixService(
        ServiceConfig(
            tenants=(
                TenantSpec("a"),
                TenantSpec("tiny", memory_quota_bytes=1),
            ),
            seed=0,
        )
    )
    path = str(tmp_path / "repro.sock")
    ready = threading.Event()

    def run():
        ready.set()
        serve_forever(service, path)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    ready.wait()
    # serve_forever binds after the event; poll until the socket answers.
    client = RemoteClient(path, timeout=10.0)
    for _ in range(200):
        try:
            client.ping()
            break
        except (ConnectionRefusedError, FileNotFoundError):
            threading.Event().wait(0.01)
    else:
        pytest.fail("daemon never came up")
    yield client
    try:
        client.shutdown()
    except (ServiceError, ConnectionRefusedError, FileNotFoundError):
        pass
    thread.join(timeout=10.0)
    assert not thread.is_alive()


class TestRoundTrips:
    def test_ping(self, daemon):
        response = daemon.ping()
        assert response["ok"] is True
        assert response["queued_jobs"] == 0
        assert response["simulated_seconds"] == 0.0

    def test_submit_drain_report(self, daemon):
        job = daemon.submit("a", "pagerank", params=PARAMS, label="pr")
        assert job["state"] in ("queued", "running")
        assert job["plan_cache"] == "miss"
        finished = daemon.drain()
        assert [record["job_id"] for record in finished] == [job["job_id"]]
        assert finished[0]["state"] == "done"
        report = daemon.report()
        assert report["job_states"]["done"] == 1
        assert report["jobs"][0]["app"] == "pr"  # label becomes display name

    def test_rejection_is_a_typed_error(self, daemon):
        with pytest.raises(TenantQuotaExceededError) as info:
            daemon.submit("tiny", "pagerank", params=PARAMS)
        assert info.value.tenant == "tiny"
        # The rejection is still on the books.
        assert daemon.report()["job_states"]["rejected"] == 1

    def test_many_requests_on_one_connection(self, daemon):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(10.0)
            raw.connect(daemon.socket_path)
            reader = raw.makefile("rb")
            for _ in range(3):
                raw.sendall(json.dumps({"op": "ping"}).encode() + b"\n")
                assert json.loads(reader.readline())["ok"] is True


class TestProtocolErrors:
    def test_unknown_op(self, daemon):
        response = request(daemon.socket_path, {"op": "explode"})
        assert response["ok"] is False
        assert "unknown op" in response["error"]

    def test_unknown_tenant(self, daemon):
        with pytest.raises(ServiceError):
            daemon.submit("nobody", "pagerank", params=PARAMS)

    def test_bad_json_line(self, daemon):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(10.0)
            raw.connect(daemon.socket_path)
            raw.sendall(b"this is not json\n")
            response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is False
        assert response["reason"] == "protocol"
        # The daemon survives the bad line.
        assert daemon.ping()["ok"] is True

    def test_bad_submit_payload(self, daemon):
        response = request(
            daemon.socket_path, {"op": "submit", "tenant": "a"}
        )
        assert response["ok"] is False  # neither app nor program


class TestHandleRequest:
    def make_service(self):
        return MatrixService(
            ServiceConfig(tenants=(TenantSpec("a"),), seed=0)
        )

    def test_shutdown_stops_the_loop(self):
        response, keep = handle_request(self.make_service(), {"op": "shutdown"})
        assert response["ok"] is True
        assert keep is False

    def test_responses_are_json_serialisable(self):
        service = self.make_service()
        for op in ("ping", "report"):
            response, _ = handle_request(service, {"op": op})
            json.dumps(response, sort_keys=True)
