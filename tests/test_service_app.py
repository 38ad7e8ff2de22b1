"""End-to-end tests for the campaign service's asyncio app.

Routing and queue semantics are exercised directly through
``CampaignService.handle_request`` without starting the dispatcher (so
nothing executes and queue states hold still); the execution tests
start the real server on an ephemeral port, speak HTTP/1.1 over raw
asyncio connections, and run a real (tiny) campaign to completion —
including the byte-identity check against a direct ``run_batch`` and
the dedup cache hit. Restart/resume is covered at process level by
``examples/service_smoke.py`` (the CI service smoke) and at worker
level in ``test_service.py``; here ``restore()`` is checked to rebuild
the queue from persisted records.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.service.app import CampaignService
from repro.service.campaigns import CampaignRequest, campaign_specs
from repro.service.http import HttpError, HttpRequest
from repro.service.scheduler import QuotaPolicy
from repro.sim.batch import run_batch

PAYLOAD = {
    "scenario": "single_common_channel",
    "protocols": ["algorithm3"],
    "trials": 2,
    "max_slots": 50_000,
}


def api(service, method, path, payload=None, query=None):
    """Drive the router directly; returns (status, parsed body)."""
    body = b"" if payload is None else json.dumps(payload).encode()
    request = HttpRequest(
        method=method,
        path=path,
        query=query or {},
        headers={},
        body=body,
    )
    try:
        response = asyncio.run(service.handle_request(request))
    except HttpError as err:
        return err.status, {"error": err.message}
    return response.status, json.loads(response.body) if response.body else None


def variant(trials):
    payload = dict(PAYLOAD)
    payload["trials"] = trials
    return payload


class TestStartup:
    def test_refuses_workers_with_queue(self, tmp_path):
        # Every job would refuse a pool beside the queue, so the service
        # refuses it once, before it accepts any.
        with pytest.raises(ConfigurationError, match="work queue"):
            CampaignService(tmp_path / "svc", max_workers=2, queue_dir=tmp_path / "q")
        CampaignService(tmp_path / "ok", max_workers=1, queue_dir=tmp_path / "q")
        CampaignService(tmp_path / "pool", max_workers=2)


class TestRoutingWithoutDispatcher:
    def test_health_empty(self, tmp_path):
        service = CampaignService(tmp_path)
        status, body = api(service, "GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["jobs"] == {} and body["queued"] == 0

    def test_submit_queues_and_joins(self, tmp_path):
        service = CampaignService(tmp_path)
        status, first = api(service, "POST", "/campaigns", PAYLOAD)
        assert status == 202
        assert first["created"] is True and first["cache_hit"] is False
        assert first["job"]["state"] == "queued"
        # Identical resubmission joins the queued job instead of queuing
        # a duplicate — same job id, nothing created.
        status, joined = api(service, "POST", "/campaigns", PAYLOAD)
        assert status == 200
        assert joined["created"] is False and joined["cache_hit"] is False
        assert joined["job"]["job_id"] == first["job"]["job_id"]
        status, listing = api(service, "GET", "/campaigns")
        assert status == 200 and len(listing["jobs"]) == 1

    def test_submit_validation_errors_are_400(self, tmp_path):
        service = CampaignService(tmp_path)
        status, body = api(
            service, "POST", "/campaigns", {"scenario": "nope", "protocols": ["x"]}
        )
        assert status == 400
        assert "unknown scenario" in body["error"]

    def test_unknown_routes_and_methods(self, tmp_path):
        service = CampaignService(tmp_path)
        assert api(service, "GET", "/nope")[0] == 404
        assert api(service, "GET", "/campaigns/job-999999")[0] == 404
        assert api(service, "PUT", "/campaigns")[0] == 405

    def test_queue_quota_429(self, tmp_path):
        service = CampaignService(
            tmp_path, quota=QuotaPolicy(max_queued=1, max_per_client=8)
        )
        assert api(service, "POST", "/campaigns", variant(2))[0] == 202
        status, body = api(service, "POST", "/campaigns", variant(3))
        assert status == 429
        assert "queue is full" in body["error"]

    def test_status_with_event_cursor(self, tmp_path):
        service = CampaignService(tmp_path)
        _, submitted = api(service, "POST", "/campaigns", PAYLOAD)
        job_id = submitted["job"]["job_id"]
        status, body = api(
            service, "GET", f"/campaigns/{job_id}", query={"since": "0"}
        )
        assert status == 200
        assert [e["state"] for e in body["events"]] == ["queued"]
        assert body["next_cursor"] == 1
        assert body["latest_event"]["kind"] == "state"
        status, body = api(
            service, "GET", f"/campaigns/{job_id}", query={"since": "xyz"}
        )
        assert status == 400

    def test_result_before_done_is_409(self, tmp_path):
        service = CampaignService(tmp_path)
        _, submitted = api(service, "POST", "/campaigns", PAYLOAD)
        job_id = submitted["job"]["job_id"]
        assert api(service, "GET", f"/campaigns/{job_id}/result")[0] == 409
        assert api(service, "GET", f"/campaigns/{job_id}/files/manifest.json")[0] == 409

    def test_cancel_queued_job(self, tmp_path):
        service = CampaignService(tmp_path)
        _, submitted = api(service, "POST", "/campaigns", PAYLOAD)
        job_id = submitted["job"]["job_id"]
        status, body = api(service, "POST", f"/campaigns/{job_id}/cancel")
        assert status == 200
        assert body["job"]["state"] == "cancelled"
        # Cancelling a terminal job conflicts.
        assert api(service, "POST", f"/campaigns/{job_id}/cancel")[0] == 409
        # The fingerprint is free again: resubmission creates a new job.
        status, resubmitted = api(service, "POST", "/campaigns", PAYLOAD)
        assert status == 202 and resubmitted["created"] is True
        assert resubmitted["job"]["job_id"] != job_id


class TestRestore:
    def test_restore_requeues_persisted_jobs(self, tmp_path):
        before = CampaignService(tmp_path)
        _, submitted = api(before, "POST", "/campaigns", PAYLOAD)
        job_id = submitted["job"]["job_id"]
        # Simulate a crash mid-run: persist the job as running.
        job = before.jobs.get(job_id)
        job.state = "running"
        before.jobs.save(job)

        after = CampaignService(tmp_path)
        assert after.restore() == 1
        (queued,) = after.scheduler.queued_jobs()
        assert queued.job_id == job_id and queued.state == "queued"
        # A resubmission against the restored service joins the queue.
        status, joined = api(after, "POST", "/campaigns", PAYLOAD)
        assert status == 200 and joined["job"]["job_id"] == job_id


async def raw_http(port, method, path, payload=None):
    """One HTTP/1.1 exchange against the live server; reads to EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header, _, rest = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    if b"transfer-encoding: chunked" in header.lower():
        chunks = []
        while rest:
            size_line, _, rest = rest.partition(b"\r\n")
            size = int(size_line, 16)
            if size == 0:
                break
            chunks.append(rest[:size])
            rest = rest[size + 2 :]
        return status, b"".join(chunks)
    return status, rest


async def wait_done(port, job_id, deadline=120.0):
    loop = asyncio.get_running_loop()
    end = loop.time() + deadline
    while loop.time() < end:
        status, body = await raw_http(port, "GET", f"/campaigns/{job_id}")
        assert status == 200
        job = json.loads(body)["job"]
        if job["state"] == "done":
            return job
        assert job["state"] in ("queued", "running"), job
        await asyncio.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


class TestLiveServer:
    def test_submit_complete_bytes_dedup_events(self, tmp_path):
        async def scenario_run():
            service = CampaignService(tmp_path / "data")
            server = await service.serve(port=0)
            try:
                status, body = await raw_http(server.port, "GET", "/health")
                assert status == 200 and json.loads(body)["status"] == "ok"

                status, body = await raw_http(
                    server.port, "POST", "/campaigns", PAYLOAD
                )
                assert status == 202
                submitted = json.loads(body)
                assert submitted["created"] and not submitted["cache_hit"]
                job_id = submitted["job"]["job_id"]

                job = await wait_done(server.port, job_id)
                assert job["cached"] is False

                # Event log: queued -> running -> per-trial progress -> done.
                status, body = await raw_http(
                    server.port, "GET", f"/campaigns/{job_id}/events?since=0"
                )
                assert status == 200
                events = [json.loads(line) for line in body.splitlines()]
                assert [e["state"] for e in events if e["kind"] == "state"] == [
                    "queued", "running", "done",
                ]
                progress = [e for e in events if e["kind"] == "progress"]
                assert [
                    (e["completed"], e["total"]) for e in progress
                ] == [(1, 2), (2, 2)]

                # Served archive bytes == direct run_batch bytes.
                status, body = await raw_http(
                    server.port, "GET", f"/campaigns/{job_id}/result"
                )
                assert status == 200
                result = json.loads(body)
                assert result["verification"]["ok"] is True
                direct = tmp_path / "direct"
                request = CampaignRequest.from_dict(PAYLOAD)
                await asyncio.to_thread(
                    run_batch,
                    campaign_specs(request),
                    base_seed=request.base_seed,
                    output_dir=direct,
                )
                assert sorted(result["files"]) == sorted(
                    p.name for p in direct.iterdir()
                )
                for name in result["files"]:
                    status, served = await raw_http(
                        server.port, "GET", f"/campaigns/{job_id}/files/{name}"
                    )
                    assert status == 200
                    assert served == (direct / name).read_bytes(), name

                # Identical resubmission: answered from the store.
                status, body = await raw_http(
                    server.port, "POST", "/campaigns", PAYLOAD
                )
                assert status == 200
                cached = json.loads(body)
                assert cached["cache_hit"] is True
                assert cached["job"]["job_id"] == job_id
            finally:
                await service.shutdown(server)

        asyncio.run(scenario_run())

    def test_cancel_running_job_is_cooperative(self, tmp_path):
        async def scenario_run():
            service = CampaignService(tmp_path / "data")
            server = await service.serve(port=0)
            try:
                status, body = await raw_http(
                    server.port, "POST", "/campaigns", variant(16)
                )
                assert status == 202
                job_id = json.loads(body)["job"]["job_id"]

                # Wait for the first progress event, then cancel.
                loop = asyncio.get_running_loop()
                end = loop.time() + 120.0
                while loop.time() < end:
                    _, body = await raw_http(
                        server.port, "GET", f"/campaigns/{job_id}?since=0"
                    )
                    events = json.loads(body)["events"]
                    if any(e["kind"] == "progress" for e in events):
                        break
                    await asyncio.sleep(0.02)
                status, _ = await raw_http(
                    server.port, "POST", f"/campaigns/{job_id}/cancel"
                )
                assert status == 200

                end = loop.time() + 120.0
                while loop.time() < end:
                    _, body = await raw_http(
                        server.port, "GET", f"/campaigns/{job_id}"
                    )
                    job = json.loads(body)["job"]
                    if job["state"] == "cancelled":
                        break
                    await asyncio.sleep(0.05)
                else:
                    pytest.fail("running job never observed its cancel flag")
                # A cancelled job serves no result.
                status, _ = await raw_http(
                    server.port, "GET", f"/campaigns/{job_id}/result"
                )
                assert status == 409
            finally:
                await service.shutdown(server)

        asyncio.run(scenario_run())
