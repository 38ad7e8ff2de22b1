"""Campaign service smoke: dedup, byte-identity, and kill+resume.

Exercises ``m2hew serve`` the way CI does, as a real subprocess over
real HTTP (stdlib ``urllib`` only):

1. run a campaign directly with ``m2hew batch`` as the byte reference,
   and check it with ``m2hew verify-archive --json``;
2. start the service, submit the same campaign, wait for it to finish,
   and assert every served archive file is byte-identical to the
   direct run;
3. resubmit the identical campaign and assert it is answered from the
   store (``cache_hit`` true, no new job);
4. submit a longer campaign, SIGKILL the server after the first
   progress event, restart it on the same data directory, and assert
   the requeued job completes with trials restored from its checkpoint
   journal — and that the archive still byte-matches a direct run;
5. on a server whose store holds one archive (``--store-max-archives
   1``), submit campaign A then campaign B and assert A was evicted;
   flip one byte of B's stored archive and assert its ``/result`` is
   refused (HTTP 500, job ``failed``); resubmit A and assert it
   recomputes to the direct run's bytes.

Run:  python examples/service_smoke.py
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

SCENARIO = "single_common_channel"
PROTOCOL = "algorithm3"
MAX_SLOTS = 50_000

#: Campaign used for the dedup/byte-identity legs: small and quick.
QUICK_TRIALS = 3
#: Campaign used for the kill+resume leg: long enough that the server
#: cannot finish it before we kill it after the first progress event.
LONG_TRIALS = 16

STARTUP_TIMEOUT = 30.0
JOB_TIMEOUT = 180.0


def cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def run_direct_batch(output: Path, trials: int) -> None:
    subprocess.run(
        cli(
            "batch",
            SCENARIO,
            "--protocols",
            PROTOCOL,
            "--trials",
            str(trials),
            "--max-slots",
            str(MAX_SLOTS),
            "--output",
            str(output),
        ),
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def verify_direct_archive(archive: Path) -> None:
    proc = subprocess.run(
        cli("verify-archive", str(archive), "--json"),
        check=True,
        capture_output=True,
        text=True,
    )
    report = json.loads(proc.stdout)
    assert report["ok"] is True, f"direct archive failed verification: {report}"
    assert report["issues"] == [], report


class Server:
    """One ``m2hew serve`` subprocess with stdout-based port discovery."""

    def __init__(self, data_dir: Path, *extra_args: str) -> None:
        self.data_dir = data_dir
        self.extra_args = extra_args
        self.proc: Optional["subprocess.Popen[str]"] = None
        self.base_url = ""
        self._lines: "queue.Queue[str]" = queue.Queue()

    def start(self) -> None:
        self.proc = subprocess.Popen(
            cli(
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--data-dir",
                str(self.data_dir),
                *self.extra_args,
            ),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        thread = threading.Thread(target=self._pump, daemon=True)
        thread.start()
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited during startup")
            try:
                line = self._lines.get(timeout=0.2)
            except queue.Empty:
                continue
            marker = "listening on "
            if marker in line:
                self.base_url = line.split(marker, 1)[1].split(" ", 1)[0]
                return
        raise RuntimeError("server never announced its listening address")

    def _pump(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)

    def kill(self) -> None:
        """SIGKILL: the crash the resume leg is about."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=10)

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


def http_json(
    method: str, url: str, payload: Optional[Dict[str, Any]] = None
) -> Tuple[int, Dict[str, Any]]:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def http_bytes(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as response:
        body: bytes = response.read()
    return body


def campaign_payload(trials: int, base_seed: int = 0) -> Dict[str, Any]:
    return {
        "scenario": SCENARIO,
        "protocols": [PROTOCOL],
        "trials": trials,
        "base_seed": base_seed,
        "max_slots": MAX_SLOTS,
        "client": "smoke",
    }


def submit_and_finish(base_url: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Submit a campaign the store cannot answer; return the done job."""
    status, submitted = http_json("POST", f"{base_url}/campaigns", payload)
    assert status == 202, submitted
    assert submitted["cache_hit"] is False, submitted
    done = wait_for_state(base_url, submitted["job"]["job_id"], "done")
    assert done["cached"] is False, done
    return done


def wait_for_state(base_url: str, job_id: str, wanted: str) -> Dict[str, Any]:
    deadline = time.monotonic() + JOB_TIMEOUT
    while time.monotonic() < deadline:
        status, body = http_json("GET", f"{base_url}/campaigns/{job_id}")
        assert status == 200, body
        job = body["job"]
        if job["state"] == wanted:
            return job
        if job["state"] in ("failed", "cancelled"):
            raise AssertionError(f"job {job_id} ended {job['state']}: {job}")
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} never reached {wanted!r}")


def wait_for_progress(base_url: str, job_id: str) -> None:
    """Block until the job has journaled at least one trial."""
    deadline = time.monotonic() + JOB_TIMEOUT
    while time.monotonic() < deadline:
        status, body = http_json(
            "GET", f"{base_url}/campaigns/{job_id}?since=0"
        )
        assert status == 200, body
        for event in body["events"]:
            if event["kind"] == "progress":
                return
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} produced no progress events")


def assert_served_matches_direct(
    base_url: str, job_id: str, direct: Path
) -> None:
    status, result = http_json("GET", f"{base_url}/campaigns/{job_id}/result")
    assert status == 200, result
    assert result["verification"]["ok"] is True, result
    served_names = sorted(result["files"])
    direct_names = sorted(p.name for p in direct.iterdir())
    assert served_names == direct_names, (served_names, direct_names)
    for name in served_names:
        served = http_bytes(f"{base_url}/campaigns/{job_id}/files/{name}")
        expected = (direct / name).read_bytes()
        assert served == expected, f"{name}: served bytes differ from direct run"
    print(f"  byte-identical to direct run: {', '.join(served_names)}")


def main() -> None:
    work = Path(tempfile.mkdtemp(prefix="m2hew-service-smoke-"))
    server = Server(work / "data")
    restarted: Optional[Server] = None
    capped = Server(work / "capped", "--store-max-archives", "1")
    try:
        print("== direct reference run ==")
        direct_quick = work / "direct_quick"
        run_direct_batch(direct_quick, QUICK_TRIALS)
        verify_direct_archive(direct_quick)
        print(f"  archived + verified: {direct_quick}")

        print("== service: submit, complete, byte-compare ==")
        server.start()
        print(f"  serving at {server.base_url}")
        status, health = http_json("GET", f"{server.base_url}/health")
        assert status == 200 and health["status"] == "ok", health

        status, first = http_json(
            "POST", f"{server.base_url}/campaigns", campaign_payload(QUICK_TRIALS)
        )
        assert status == 202, first
        assert first["created"] is True and first["cache_hit"] is False, first
        job_id = first["job"]["job_id"]
        done = wait_for_state(server.base_url, job_id, "done")
        assert done["cached"] is False, done
        assert_served_matches_direct(server.base_url, job_id, direct_quick)

        print("== service: identical resubmission is a cache hit ==")
        status, again = http_json(
            "POST", f"{server.base_url}/campaigns", campaign_payload(QUICK_TRIALS)
        )
        assert status == 200, again
        assert again["cache_hit"] is True and again["created"] is False, again
        assert again["job"]["job_id"] == job_id, again
        print(f"  {job_id} served from store, no recompute")

        print("== service: SIGKILL mid-campaign, restart, resume ==")
        status, long_submit = http_json(
            "POST", f"{server.base_url}/campaigns", campaign_payload(LONG_TRIALS)
        )
        assert status == 202, long_submit
        long_id = long_submit["job"]["job_id"]
        wait_for_progress(server.base_url, long_id)
        server.kill()
        print("  server killed after first journaled trial")

        restarted = Server(work / "data")
        restarted.start()
        print(f"  restarted at {restarted.base_url}")
        resumed = wait_for_state(restarted.base_url, long_id, "done")
        assert resumed["restored"] > 0, (
            f"expected journal-restored trials, got {resumed}"
        )
        print(f"  completed with {resumed['restored']} trial(s) restored")

        direct_long = work / "direct_long"
        run_direct_batch(direct_long, LONG_TRIALS)
        assert_served_matches_direct(restarted.base_url, long_id, direct_long)

        print("== capped store: evict by recency, never serve corrupt bytes ==")
        capped.start()
        print(f"  serving at {capped.base_url} with --store-max-archives 1")
        store = capped.data_dir / "store"
        job_a = submit_and_finish(capped.base_url, campaign_payload(QUICK_TRIALS))
        job_b = submit_and_finish(
            capped.base_url, campaign_payload(QUICK_TRIALS, base_seed=1)
        )
        assert not (store / job_a["fingerprint"]).exists(), "A was not evicted"
        print(f"  {job_a['job_id']} evicted once {job_b['job_id']} finished")

        stored = store / job_b["fingerprint"] / f"{SCENARIO}_{PROTOCOL}.json"
        damaged = bytearray(stored.read_bytes())
        damaged[10] ^= 0xFF
        stored.write_bytes(bytes(damaged))
        status, refused = http_json(
            "GET", f"{capped.base_url}/campaigns/{job_b['job_id']}/result"
        )
        assert status == 500, (status, refused)
        status, body = http_json(
            "GET", f"{capped.base_url}/campaigns/{job_b['job_id']}"
        )
        assert status == 200 and body["job"]["state"] == "failed", body
        print(f"  corrupt {job_b['job_id']} refused with 500, job failed")

        again_a = submit_and_finish(capped.base_url, campaign_payload(QUICK_TRIALS))
        assert again_a["fingerprint"] == job_a["fingerprint"], again_a
        assert_served_matches_direct(
            capped.base_url, again_a["job_id"], direct_quick
        )

        print("\nOK: dedup, byte-identity, kill+resume and store caps all hold.")
    finally:
        server.stop()
        if restarted is not None:
            restarted.stop()
        capped.stop()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
