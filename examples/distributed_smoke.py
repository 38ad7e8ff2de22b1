"""Distributed sharding smoke: two workers, one SIGKILL, bytes hold.

Exercises the lease-based work queue the way CI does, with real
``m2hew worker`` subprocesses sharing a file-backed queue directory:

1. run the campaign serially with ``m2hew batch`` as the byte
   reference, and check it with ``m2hew verify-archive --json``;
2. start two workers, run the same campaign with ``--queue`` (one
   trial index per chunk so both workers stay busy; both protocols
   realize one network, so every task chunk carries both of them);
3. after the first chunk-completion marker lands, SIGKILL one worker —
   preferring whichever currently holds a lease — while the campaign
   is still running;
4. assert the campaign completes anyway (dead lease reclaimed after
   its TTL, surviving worker and coordinator absorb the load), the
   sharded archive is byte-identical to the serial one, and
   ``verify-archive`` passes on it.

Run:  python examples/distributed_smoke.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

SCENARIO = "single_common_channel"
PROTOCOLS = ("algorithm1", "algorithm3")
TRIALS = 12
MAX_SLOTS = 50_000
LEASE_TTL = 3.0
POLL_INTERVAL = 0.05

STARTUP_TIMEOUT = 30.0
CAMPAIGN_TIMEOUT = 300.0


def cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def batch_args(output: Path) -> List[str]:
    return [
        SCENARIO,
        "--protocols",
        *PROTOCOLS,
        "--trials",
        str(TRIALS),
        "--max-slots",
        str(MAX_SLOTS),
        "--output",
        str(output),
    ]


def run_serial_reference(output: Path) -> None:
    subprocess.run(
        cli("batch", *batch_args(output)),
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def verify_archive(archive: Path) -> None:
    proc = subprocess.run(
        cli("verify-archive", str(archive), "--json"),
        check=True,
        capture_output=True,
        text=True,
    )
    report = json.loads(proc.stdout)
    assert report["ok"] is True, f"archive failed verification: {report}"
    assert report["issues"] == [], report


def spawn_worker(queue_dir: Path, index: int) -> "subprocess.Popen[str]":
    return subprocess.Popen(
        cli(
            "worker",
            "--queue",
            str(queue_dir),
            "--worker-id",
            f"smoke-{index}",
            "--idle-exit",
            "15.0",
            "--lease-ttl",
            str(LEASE_TTL),
            "--poll-interval",
            str(POLL_INTERVAL),
        ),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
        text=True,
    )


def await_heartbeats(queue_dir: Path, count: int) -> None:
    deadline = time.monotonic() + STARTUP_TIMEOUT
    workers = queue_dir / "workers"
    while time.monotonic() < deadline:
        if workers.is_dir() and len(list(workers.glob("*.json"))) >= count:
            return
        time.sleep(POLL_INTERVAL)
    raise RuntimeError("workers never announced their heartbeats")


def read_sidecar(path: Path) -> Optional[Dict[str, object]]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def done_marker_count(queue_dir: Path) -> int:
    return len(list(queue_dir.glob("tasks/*/chunk-*.done.json")))


def current_lease_owners(queue_dir: Path) -> List[str]:
    owners = []
    for lease_path in sorted(queue_dir.glob("tasks/*/chunk-*.lease.json")):
        lease = read_sidecar(lease_path)
        if lease is not None and lease.get("worker"):
            owners.append(str(lease["worker"]))
    return owners


def archive_bytes(directory: Path) -> Dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def main() -> None:
    work = Path(tempfile.mkdtemp(prefix="m2hew-dist-smoke-"))
    queue_dir = work / "queue"
    workers: List["subprocess.Popen[str]"] = []
    campaign: Optional["subprocess.Popen[str]"] = None
    try:
        print("== serial reference run ==")
        serial_dir = work / "serial"
        run_serial_reference(serial_dir)
        verify_archive(serial_dir)
        print(f"  archived + verified: {serial_dir}")

        print("== sharded run: 2 workers on one lease queue ==")
        workers = [spawn_worker(queue_dir, i) for i in range(2)]
        await_heartbeats(queue_dir, 2)
        print("  both workers heartbeating")

        sharded_dir = work / "sharded"
        campaign = subprocess.Popen(
            cli(
                "batch",
                *batch_args(sharded_dir),
                "--queue",
                str(queue_dir),
                "--chunk-size",
                "1",
                "--lease-ttl",
                str(LEASE_TTL),
                "--retries",
                "3",
            ),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

        deadline = time.monotonic() + CAMPAIGN_TIMEOUT
        while done_marker_count(queue_dir) == 0:
            if campaign.poll() is not None:
                raise RuntimeError(
                    "campaign finished before any chunk marker was observed"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("no chunk completed within the timeout")
            time.sleep(POLL_INTERVAL)
        completed_at_kill = done_marker_count(queue_dir)

        # Prefer killing a worker that holds a live lease so the run
        # must actually reclaim abandoned work, not just lose capacity.
        owners = current_lease_owners(queue_dir)
        victim_index = 0
        for index in range(len(workers)):
            if f"smoke-{index}" in owners:
                victim_index = index
                break
        victim = workers[victim_index]
        assert campaign.poll() is None, (
            "campaign already over; nothing left to survive the kill"
        )
        assert victim.poll() is None, "victim worker died on its own"
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=10)
        print(
            f"  SIGKILLed smoke-{victim_index} after "
            f"{completed_at_kill}/{TRIALS} chunk(s) "
            f"(held lease: {f'smoke-{victim_index}' in owners})"
        )

        output, _ = campaign.communicate(timeout=CAMPAIGN_TIMEOUT)
        assert campaign.returncode == 0, (
            f"sharded campaign failed ({campaign.returncode}):\n{output}"
        )
        if "reclaimed chunk" in output:
            print("  dead lease reclaimed after TTL expiry")
        print("  campaign completed despite the kill")

        print("== byte-compare sharded vs serial ==")
        serial_bytes = archive_bytes(serial_dir)
        sharded_bytes = archive_bytes(sharded_dir)
        assert sorted(sharded_bytes) == sorted(serial_bytes), (
            sorted(sharded_bytes),
            sorted(serial_bytes),
        )
        for name, expected in serial_bytes.items():
            assert sharded_bytes[name] == expected, (
                f"{name}: sharded bytes differ from serial run"
            )
        verify_archive(sharded_dir)
        print(f"  byte-identical + verified: {', '.join(sorted(serial_bytes))}")

        print("\nOK: kill-tolerant sharding holds the byte-identity invariant.")
    finally:
        if campaign is not None and campaign.poll() is None:
            campaign.kill()
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
                try:
                    worker.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    worker.kill()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
