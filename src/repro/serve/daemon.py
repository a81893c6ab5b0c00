"""The ``repro serve`` daemon: newline-delimited JSON over a unix socket.

The wire protocol is one JSON object per line in each direction.
Requests carry ``{"op": ..., ...}``; responses are ``{"ok": true, ...}``
or ``{"ok": false, "error": ..., "reason": ...}``.  Operations:

========  =======================================================
op        behaviour
========  =======================================================
ping      liveness check; returns queue depth and service clock
submit    admit one job (registry apps only over the wire);
          returns the job record, ``accepted`` flag and reason
drain     run queued jobs (optional ``max_jobs``); returns the
          finished job records
report    the full deterministic service report
shutdown  stop the daemon after responding
========  =======================================================

Requests are handled strictly sequentially on one thread -- the service
is a simulation, so concurrency would only buy nondeterminism.  Typed
admission rejections are *successful* responses (``ok`` true,
``accepted`` false): rejecting a job is the service working as designed,
not a protocol failure.
"""

from __future__ import annotations

import json
import os
import socket

from repro.errors import ReproError, ServiceError
from repro.serve.job import JobSpec
from repro.serve.service import MatrixService

#: Hard cap on one request line; a batch of matrices never needs more.
MAX_REQUEST_BYTES = 1 << 20


def handle_request(service: MatrixService, request: dict) -> tuple[dict, bool]:
    """Apply one request to the service; returns (response, keep_running)."""
    op = request.get("op")
    if op == "ping":
        return (
            {
                "ok": True,
                "queued_jobs": service.scheduler.queue_depth(),
                "simulated_seconds": service.sim_now,
            },
            True,
        )
    if op == "submit":
        spec_data = {
            key: request[key]
            for key in ("tenant", "app", "params", "priority", "label")
            if key in request
        }
        try:
            spec = JobSpec(**spec_data)
        except TypeError as exc:
            raise ServiceError(f"bad submit request: {exc}") from None
        record = service.submit(spec)
        return (
            {
                "ok": True,
                "accepted": record.state != "rejected",
                "reason": record.reject_reason,
                "job": record.to_json_dict(),
            },
            True,
        )
    if op == "drain":
        finished = service.drain(max_jobs=request.get("max_jobs"))
        return (
            {"ok": True, "jobs": [record.to_json_dict() for record in finished]},
            True,
        )
    if op == "report":
        return {"ok": True, "report": service.report()}, True
    if op == "shutdown":
        return {"ok": True, "stopped": True}, False
    raise ServiceError(f"unknown op {op!r}")


def serve_forever(service: MatrixService, socket_path: str) -> None:
    """Accept connections until a ``shutdown`` request arrives, then close
    the service (no host thread outlives the daemon loop).

    One connection may carry many newline-separated requests; the daemon
    answers each in order and keeps the socket open until the client
    closes it (or sends ``shutdown``).
    """
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        server.bind(socket_path)
        server.listen(8)
        running = True
        while running:
            connection, _ = server.accept()
            with connection:
                reader = connection.makefile("rb")
                for line in reader:
                    if len(line) > MAX_REQUEST_BYTES:
                        response: dict = {
                            "ok": False,
                            "error": "request too large",
                            "reason": "protocol",
                        }
                        keep = True
                    else:
                        response, keep = _safe_handle(service, line)
                    connection.sendall(
                        json.dumps(response, sort_keys=True).encode() + b"\n"
                    )
                    if not keep:
                        running = False
                        break
    finally:
        server.close()
        service.close()
        if os.path.exists(socket_path):
            os.unlink(socket_path)


def _safe_handle(service: MatrixService, line: bytes) -> tuple[dict, bool]:
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"ok": False, "error": f"bad JSON: {exc}", "reason": "protocol"}, True
    try:
        return handle_request(service, request)
    except ReproError as exc:
        return (
            {
                "ok": False,
                "error": str(exc),
                "reason": getattr(exc, "reason", "error"),
            },
            True,
        )


def request(socket_path: str, payload: dict, timeout: float = 30.0) -> dict:
    """One request/response round trip against a running daemon."""
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(timeout)
    try:
        client.connect(socket_path)
        client.sendall(json.dumps(payload, sort_keys=True).encode() + b"\n")
        reader = client.makefile("rb")
        line = reader.readline()
        if not line:
            raise ServiceError("daemon closed the connection without replying")
        return json.loads(line)
    finally:
        client.close()
