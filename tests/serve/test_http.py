"""End-to-end HTTP tests: a real server socket, a real stdlib client."""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.api import solve_many
from repro.api.config import run_config_from_options
from repro.graphs.families import get_family
from repro.io import run_report_to_dict
from repro.serve import ReproHTTPServer, ReproService


class ServeFixture:
    """A live server plus a tiny JSON client."""

    def __init__(self, service: ReproService):
        self.service = service.start()
        self.server = ReproHTTPServer(("127.0.0.1", 0), self.service)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="repro-serve-http", daemon=True
        )
        self.thread.start()

    def request(self, method, path, payload=None, raw_body=None):
        conn = HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            body = raw_body
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
            conn.request(method, path, body=body)
            response = conn.getresponse()
            data = response.read()
            return response.status, dict(response.getheaders()), data
        finally:
            conn.close()

    def json(self, method, path, payload=None):
        status, headers, data = self.request(method, path, payload)
        return status, headers, json.loads(data)

    def poll(self, job_id, timeout=60.0):
        start = time.monotonic()
        while True:
            status, _, record = self.json("GET", f"/jobs/{job_id}")
            assert status == 200
            if record["state"] not in ("queued", "running"):
                return record
            elapsed = time.monotonic() - start
            assert elapsed < timeout, f"job {job_id} stuck in {record['state']}"
            time.sleep(0.02)

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.service.stop()


@pytest.fixture
def serve():
    fixture = ServeFixture(ReproService(workers=2, queue_depth=8))
    yield fixture
    fixture.close()


def _solve_payload(**overrides):
    payload = {
        "kind": "solve",
        "instances": [{"family": "fan", "size": 12, "seed": 0}],
        "algorithms": ["d2"],
        "validate": "ratio",
    }
    payload.update(overrides)
    return payload


class TestEndpoints:
    def test_healthz(self, serve):
        status, _, body = serve.json("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers"] == 2

    def test_keep_alive_responses_do_not_stall(self, serve):
        # Headers and body go out in separate writes; with Nagle's
        # algorithm on, each kept-alive response waited for a delayed ACK.
        conn = HTTPConnection("127.0.0.1", serve.port, timeout=30)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.3, f"20 keep-alive requests took {elapsed:.3f}s"

    def test_stats_envelope(self, serve):
        status, _, body = serve.json("GET", "/stats")
        assert status == 200
        # Shared counted-payload shape with `repro lint --json`.
        assert body["queue"]["count"] == len(body["queue"]["queued"])
        assert set(body["opt_cache"]) == {"hits", "misses"}
        assert body["jobs"]["submitted"] == 0

    def test_submit_poll_result_roundtrip(self, serve):
        status, headers, job = serve.json("POST", "/jobs", _solve_payload())
        assert status == 202
        assert headers["Location"] == f"/jobs/{job['id']}"
        assert job["state"] in ("queued", "running")
        assert job["tasks"] == 1

        final = serve.poll(job["id"])
        assert final["state"] == "completed"

        status, _, data = serve.request("GET", f"/jobs/{job['id']}/result")
        assert status == 200
        served = json.loads(data)

        graph = get_family("fan").make(12, 0)
        meta = {"family": "fan", "size": 12, "seed": 0}
        direct = [
            run_report_to_dict(r)
            for r in solve_many(
                [(meta, graph)], ["d2"], run_config_from_options(validate="ratio")
            )
        ]
        # Byte identity modulo wall_time: compare the serialised bytes
        # after zeroing the one sanctioned field on both sides.
        for report in served + direct:
            report["wall_time"] = 0.0
        assert json.dumps(served, indent=1).encode() == json.dumps(
            direct, indent=1
        ).encode()

    def test_result_conflict_while_active(self, serve):
        _, _, job = serve.json("POST", "/jobs", _solve_payload(timeout=0.0))
        final = serve.poll(job["id"])
        assert final["state"] == "failed"
        status, _, body = serve.json("GET", f"/jobs/{job['id']}/result")
        assert status == 409
        assert body["job"]["state"] == "failed"
        assert "timed out" in body["job"]["error"]

    def test_delete_cancels(self):
        # No workers: the job stays queued so DELETE is deterministic.
        fixture = ServeFixture(ReproService(workers=0, queue_depth=8))
        try:
            _, _, job = fixture.json("POST", "/jobs", _solve_payload())
            status, _, body = fixture.json("DELETE", f"/jobs/{job['id']}")
            assert status == 200
            assert body["state"] == "cancelled"
            status, _, body = fixture.json("GET", f"/jobs/{job['id']}/result")
            assert status == 409
            assert body["job"]["state"] == "cancelled"
        finally:
            fixture.close()

    def test_delete_unknown_job(self, serve):
        status, _, body = serve.json("DELETE", "/jobs/j999999")
        assert status == 404
        assert "unknown job" in body["error"]


class TestErrorMapping:
    def test_invalid_json_body_is_400(self, serve):
        status, _, data = serve.request("POST", "/jobs", raw_body=b"{not json")
        assert status == 400
        assert "not valid JSON" in json.loads(data)["error"]

    def test_bad_spec_is_400(self, serve):
        status, _, body = serve.json(
            "POST", "/jobs", _solve_payload(instances=[{"family": "warp", "size": 5}])
        )
        assert status == 400
        assert "unknown family" in body["error"]

    def test_ill_shaped_plan_is_400_not_a_dropped_connection(self, serve):
        payload = {
            "kind": "simulate",
            "instances": [{"family": "tree", "size": 10}],
            "specs": [{"algorithm": "d2", "faults": 5}],
        }
        status, _, body = serve.json("POST", "/jobs", payload)
        assert status == 400
        assert "faults" in body["error"]
        _, _, stats = serve.json("GET", "/stats")
        assert stats["jobs"]["submitted"] == 0

    def test_unknown_byzantine_behavior_is_400_before_queueing(self, serve):
        payload = {
            "kind": "simulate",
            "instances": [{"family": "tree", "size": 10}],
            "specs": [{"algorithm": "d2", "byzantine": "wat=3"}],
        }
        status, _, body = serve.json("POST", "/jobs", payload)
        assert status == 400
        assert "unknown byzantine behavior" in body["error"]
        # Rejected at parse time: the queue never saw the job.
        _, _, stats = serve.json("GET", "/stats")
        assert stats["jobs"]["submitted"] == 0
        assert stats["queue"]["count"] == 0

    def test_adversarial_simulate_job_completes(self, serve):
        payload = {
            "kind": "simulate",
            "instances": [{"family": "tree", "size": 10}],
            "specs": [
                {
                    "algorithm": "d2",
                    "seed": 1,
                    "max_rounds": 64,
                    "churn": "rate=0.3,until=4",
                    "byzantine": "lie=3",
                }
            ],
        }
        status, _, job = serve.json("POST", "/jobs", payload)
        assert status == 202
        record = serve.poll(job["id"])
        assert record["state"] == "completed"
        status, _, reports = serve.json("GET", f"/jobs/{job['id']}/result")
        assert status == 200
        assert len(reports) == 1
        assert reports[0]["spec"]["byzantine"]["behaviors"] == [[3, "lie"]]

    def test_unknown_job_is_404(self, serve):
        for path in ("/jobs/j999999", "/jobs/j999999/result"):
            status, _, body = serve.json("GET", path)
            assert status == 404
            assert "unknown job" in body["error"]

    def test_unknown_path_is_404(self, serve):
        status, _, body = serve.json("GET", "/nope")
        assert status == 404
        status, _, body = serve.json("POST", "/nope", {})
        assert status == 404

    def test_backpressure_is_429_with_retry_after(self):
        fixture = ServeFixture(ReproService(workers=0, queue_depth=1))
        try:
            status, _, _ = fixture.json("POST", "/jobs", _solve_payload())
            assert status == 202
            status, headers, body = fixture.json("POST", "/jobs", _solve_payload())
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after"] == int(headers["Retry-After"])
            assert "full" in body["error"]
        finally:
            fixture.close()


class TestResultDurability:
    def test_evicted_result_served_from_spill_dir(self, tmp_path):
        spill = tmp_path / "results"
        fixture = ServeFixture(
            ReproService(workers=1, result_capacity=1, result_dir=str(spill))
        )
        try:
            _, _, first = fixture.json("POST", "/jobs", _solve_payload())
            assert fixture.poll(first["id"])["state"] == "completed"
            _, _, second = fixture.json(
                "POST", "/jobs", _solve_payload(algorithms=["greedy"])
            )
            assert fixture.poll(second["id"])["state"] == "completed"
            # The first record was evicted from the ring but spilled to
            # disk; the HTTP layer still serves it.
            assert (spill / f"{first['id']}.json").exists()
            status, _, reports = fixture.json("GET", f"/jobs/{first['id']}/result")
            assert status == 200
            assert reports[0]["algorithm"] == "d2"
        finally:
            fixture.close()
