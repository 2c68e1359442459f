"""REST/JSON layer: stdlib ``ThreadingHTTPServer`` over the service.

Endpoints (all JSON; see the README "Serving" section for a session):

====== ==================== ===========================================
Method Path                 Meaning
====== ==================== ===========================================
POST   ``/jobs``            submit a job spec -> ``202`` + status
GET    ``/jobs/{id}``       status -> ``200`` (or ``404``)
GET    ``/jobs/{id}/result``reports -> ``200`` bare report list;
                            ``409`` + status while not completed
DELETE ``/jobs/{id}``       cancel -> ``200`` + status (or ``404``)
GET    ``/healthz``         liveness -> ``200``
GET    ``/stats``           queue/cache/result metrics -> ``200``
====== ==================== ===========================================

Error mapping: a payload the schema rejects is ``400`` with
``{"error": ...}``; a full queue is ``429`` with a ``Retry-After``
header (the service's queue-drain estimate); unknown ids are ``404``.
The ``/result`` body for a completed solve job is **exactly** the JSON
:func:`repro.io.save_run_reports` would write for the equivalent
direct ``solve_many`` call (and likewise simulate /
``save_sim_reports``) — byte-identical modulo ``wall_time`` — so a
client can treat the service as a drop-in remote batch runner.

Request handler threads only parse and enqueue; all solver work happens
on the resident worker pool, so a slow job never blocks health checks
or status polls.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.jobs import QueueFullError
from repro.serve.schema import SpecError
from repro.serve.service import ReproService


class ReproHTTPServer(ThreadingHTTPServer):
    """The serve front door: one server bound to one :class:`ReproService`."""

    daemon_threads = True

    def __init__(self, address: tuple, service: ReproService) -> None:
        super().__init__(address, ReproRequestHandler)
        self.service = service


class ReproRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm the
    # body waits for the client's delayed ACK (~40 ms per kept-alive
    # response).  TCP_NODELAY sends it at once.
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    @property
    def service(self) -> ReproService:
        return self.server.service

    def log_message(self, format: str, *args) -> None:
        """Quiet by default: the service is driven by tests and benches."""

    def _send_json(
        self, code: int, payload: object, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload, indent=1).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw or b"null")
        except json.JSONDecodeError as error:
            raise SpecError(f"request body is not valid JSON: {error}") from error

    def _job_id(self, parts: list[str]) -> str:
        return parts[1]

    # -- verbs --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["healthz"]:
            self._send_json(200, self.service.healthz())
        elif parts == ["stats"]:
            self._send_json(200, self.service.stats())
        elif len(parts) == 2 and parts[0] == "jobs":
            self._get_status(self._job_id(parts))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            self._get_result(self._job_id(parts))
        else:
            self._send_json(404, {"error": f"no such resource: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts != ["jobs"]:
            self._send_json(404, {"error": f"no such resource: {self.path}"})
            return
        try:
            status = self.service.submit(self._read_json())
        except SpecError as error:
            self._send_json(400, {"error": str(error)})
            return
        except QueueFullError as error:
            self._send_json(
                429,
                {"error": str(error), "retry_after": error.retry_after},
                headers={"Retry-After": str(error.retry_after)},
            )
            return
        self._send_json(
            202, status, headers={"Location": f"/jobs/{status['id']}"}
        )

    def do_DELETE(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            status = self.service.cancel(self._job_id(parts))
            if status is None:
                self._send_json(404, {"error": f"unknown job {parts[1]!r}"})
            else:
                self._send_json(200, status)
        else:
            self._send_json(404, {"error": f"no such resource: {self.path}"})

    # -- endpoint bodies ----------------------------------------------------

    def _get_status(self, job_id: str) -> None:
        status = self.service.status(job_id)
        if status is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
        else:
            self._send_json(200, status)

    def _get_result(self, job_id: str) -> None:
        record = self.service.result(job_id)
        if record is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        status = record["job"]
        if status["state"] != "completed":
            self._send_json(
                409,
                {
                    "error": f"job {job_id} is {status['state']}, not completed",
                    "job": status,
                },
            )
            return
        # The bare report list: byte-compatible with save_run_reports /
        # save_sim_reports output for the equivalent direct batch call.
        self._send_json(200, record["reports"])
