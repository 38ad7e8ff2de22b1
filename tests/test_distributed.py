"""Tests for the lease-based distributed executor.

The invariant under test throughout: sharding a campaign over queue
workers — including worker crashes, lease-expiry races and double
completions — may change *where* and *when* trials execute, never what
they compute. Every recovered run here must serialize identically to a
plain serial run of the same seeds.

Workers are driven deterministically through the supervisor's injected
``sleep`` hook (:class:`WorkerPump`): each coordinator sleep lets every
live in-process worker heartbeat and take one queue step, and — where a
test needs lease TTLs to elapse — advances a fake monotonic clock that
``repro.resilience.distributed._monotonic`` is patched to.
"""

from __future__ import annotations

import functools
import json
import shutil
import threading
import time
from pathlib import Path

import pytest

import repro.resilience.distributed as distributed_module
import repro.resilience.supervisor as supervisor_module
from repro.exceptions import ConfigurationError
from repro.net.serialization import network_from_json, network_to_json
from repro.resilience import (
    QUEUE_SCHEMA_VERSION,
    GroupEntry,
    LeasePolicy,
    QueueWorker,
    RetryPolicy,
    WorkQueue,
    load_sidecar,
    parse_chaos_spec,
    run_supervised_trials,
    run_trial_group,
    run_worker,
    verify_archive,
)
from repro.sim.batch import ExperimentSpec, run_batch
from repro.sim.parallel import run_spec_trials
from repro.workloads.generator import WorkloadConfig, generate_network
from tests.archives import experiment_files, solo_archives

PARAMS = {"delta_est": 4, "max_slots": 30_000}
FAST_RETRY = RetryPolicy(base_delay=0.0, jitter=0.0)
#: Short cadences so TTL tests need only a handful of fake-clock ticks.
FAST_LEASE = LeasePolicy(lease_ttl=5.0, heartbeat_interval=1.0, poll_interval=0.01)


def small_workload() -> WorkloadConfig:
    return WorkloadConfig(
        topology="clique",
        topology_params={"num_nodes": 5},
        channel_model="homogeneous",
        channel_params={"num_channels": 2},
    )


@pytest.fixture(scope="module")
def network():
    return generate_network(small_workload(), seed=0)


@pytest.fixture(scope="module")
def reference(network):
    """Fail-fast serial results every sharded run must reproduce exactly."""
    results = run_spec_trials(
        network, "algorithm1", trials=6, base_seed=7, runner_params=PARAMS
    )
    return [r.to_dict() for r in results]


def _dicts(outcome):
    return [r.to_dict() for _, r in outcome.results_in_order()]


def bare_task(chunks):
    """The smallest task the queue's bookkeeping accepts."""
    return {
        "kind": "task",
        "schema_version": QUEUE_SCHEMA_VERSION,
        "experiment": "e",
        "chunks": chunks,
    }


class FakeClock:
    """Controllable stand-in for ``time.monotonic`` (starts well past 0)."""

    def __init__(self) -> None:
        self.now = 1000.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class WorkerPump:
    """Coordinator ``sleep`` hook that interleaves in-process workers.

    One call = one scheduling round: an optional per-tick hook runs
    first (ghost claims, ghost heartbeats), the fake clock advances,
    then every live worker heartbeats and takes one step. A worker
    whose step reports ``killed`` (worker-kill chaos) stops being
    pumped, like a crashed process stops heartbeating.
    """

    def __init__(self, workers, *, clock=None, tick=1.0, on_tick=None):
        self.workers = list(workers)
        self.clock = clock
        self.tick = tick
        self.on_tick = on_tick
        self.dead = set()
        self.ticks = 0

    def __call__(self, _delay: float) -> None:
        self.ticks += 1
        if self.ticks > 10_000:
            raise AssertionError("distributed run failed to converge")
        if self.on_tick is not None:
            self.on_tick()
        if self.clock is not None:
            self.clock.advance(self.tick)
        for worker in self.workers:
            if worker.worker_id in self.dead:
                continue
            worker.heartbeat()
            status = worker.step()
            if status is not None and status.endswith("killed"):
                self.dead.add(worker.worker_id)


def start_workers(queue, *worker_ids, **kwargs):
    """Workers with their liveness already announced (as real ones are)."""
    workers = [QueueWorker(queue, wid, **kwargs) for wid in worker_ids]
    for worker in workers:
        worker.heartbeat()
    return workers


class TestLeasePolicy:
    def test_defaults_valid(self):
        LeasePolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lease_ttl": 0.0},
            {"heartbeat_interval": -1.0},
            {"poll_interval": 0.0},
        ],
    )
    def test_nonpositive_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match="must be > 0"):
            LeasePolicy(**kwargs)

    def test_ttl_must_exceed_heartbeat(self):
        with pytest.raises(ConfigurationError, match="must exceed"):
            LeasePolicy(lease_ttl=1.0, heartbeat_interval=1.0)


class TestLoadSidecar:
    def test_missing_file(self, tmp_path):
        assert load_sidecar(tmp_path / "absent.json") is None

    def test_valid_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"kind": "lease", "chunk": 3}))
        assert load_sidecar(path) == {"kind": "lease", "chunk": 3}

    def test_torn_json(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"kind": "lease", "chu')
        assert load_sidecar(path) is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert load_sidecar(path) is None

    def test_non_dict_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert load_sidecar(path) is None

    def test_binary_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_bytes(b"\xff\xfe\x00junk")
        assert load_sidecar(path) is None


class TestWorkQueue:
    def test_schema_mismatch_rejected(self, tmp_path):
        (tmp_path / "queue.json").write_text(
            json.dumps({"kind": "queue", "schema_version": 999})
        )
        with pytest.raises(ConfigurationError, match="schema_version"):
            WorkQueue(tmp_path)

    def test_claim_is_exclusive(self, tmp_path):
        queue = WorkQueue(tmp_path)
        task_id = queue.publish_task(bare_task([[0]]))
        assert queue.claim(task_id, 0, "a", 0)
        assert not queue.claim(task_id, 0, "b", 0)
        queue.release(task_id, 0)
        assert queue.claim(task_id, 0, "b", 0)

    def test_claim_blocked_by_torn_lease(self, tmp_path):
        # A lease file torn mid-write still blocks rival claims (the
        # O_EXCL create already happened) but reads as absent.
        queue = WorkQueue(tmp_path)
        task_id = queue.publish_task(bare_task([[0]]))
        queue.marker_path(task_id, 0, "lease").write_text('{"kind": "lea')
        assert queue.read_marker(task_id, 0, "lease") is None
        assert not queue.claim(task_id, 0, "b", 0)

    def test_publish_is_idempotent_and_retracts_stale(self, tmp_path):
        queue = WorkQueue(tmp_path)
        old = queue.publish_task(bare_task([[0]]))
        assert queue.write_marker(old, 0, "done", {"kind": "done"})
        same = queue.publish_task(bare_task([[0]]))
        assert same == old  # identical payload reuses the task + markers
        assert queue.read_marker(old, 0, "done") is not None
        fresh = queue.publish_task(bare_task([[0], [1]]))
        assert fresh != old
        assert queue.list_tasks() == [fresh]  # stale same-experiment gone

    def test_long_group_label_fits_a_file_name(self, tmp_path):
        # A group label joins every spec name; a campaign of every
        # protocol on one scenario would overflow a 255-byte file name.
        queue = WorkQueue(tmp_path)
        label = " + ".join(f"adversarial_heterogeneous_protocol{i}" for i in range(9))
        task_id = queue.publish_task({**bare_task([[0]]), "experiment": label})
        assert len(queue.task_path(task_id).name) < 100
        assert queue.read_task(task_id)["experiment"] == label
        assert queue.claim(task_id, 0, "a", 0)

    def test_marker_write_refused_after_retract(self, tmp_path):
        queue = WorkQueue(tmp_path)
        task_id = queue.publish_task(bare_task([[0]]))
        queue.retract_task(task_id)
        assert not queue.write_marker(task_id, 0, "done", {"kind": "done"})
        assert not queue.state_dir(task_id).exists()

    def test_retraction_hides_state_before_deleting_it(
        self, network, tmp_path, monkeypatch
    ):
        # A worker that read the task just before its retraction steps in
        # while the state directory is being deleted file by file, right
        # after a finished chunk's done marker went. It must not find the
        # chunk claimable (re-running it and leaving the directory behind).
        queue = WorkQueue(tmp_path)
        task = {
            "kind": "task",
            "schema_version": QUEUE_SCHEMA_VERSION,
            "experiment": "e",
            "entries": [["algorithm1", PARAMS]],
            "network": network_to_json(network),
            "base_seed": 7,
            "chunks": [[[0, [0]]]],
            "chaos": None,
        }
        task_id = queue.publish_task(task)
        assert queue.write_marker(task_id, 0, "done", {"kind": "done", "chunk": 0})
        late = QueueWorker(WorkQueue(tmp_path), "late")
        monkeypatch.setattr(late.queue, "list_tasks", lambda: [task_id])
        monkeypatch.setattr(late.queue, "read_task", lambda _id: task)
        real_rmtree = shutil.rmtree
        steps = []

        def racing_rmtree(path, *args, **kwargs):
            for child in sorted(Path(path).iterdir()):
                child.unlink()
                steps.append(late.step())
            real_rmtree(path, *args, **kwargs)

        monkeypatch.setattr(distributed_module.shutil, "rmtree", racing_rmtree)
        queue.retract_task(task_id)
        assert steps == [None]
        assert late.executed == 0
        assert sorted(p.name for p in queue.tasks_dir.iterdir()) == []

    def test_worker_skips_settled_chunks_unparsed(self, tmp_path, monkeypatch):
        # A done marker carries its chunk's results, so a worker tells
        # settled chunks apart by marker presence: with every chunk
        # done, one scan parses the task file and nothing else.
        queue = WorkQueue(tmp_path)
        task_id = queue.publish_task(bare_task([[i] for i in range(16)]))
        for chunk in range(16):
            assert queue.write_marker(
                task_id, chunk, "done", {"kind": "done", "results": [["x" * 64]]}
            )
        loads = []

        def counting_load(path):
            loads.append(Path(path).name)
            return load_sidecar(path)

        monkeypatch.setattr(distributed_module, "load_sidecar", counting_load)
        assert QueueWorker(queue, "w").step() is None
        assert len(loads) <= 2, loads

    def test_torn_worker_heartbeat_reads_as_absent(self, tmp_path):
        queue = WorkQueue(tmp_path)
        (queue.workers_dir / "w1.json").write_text('{"beat": ')
        assert queue.read_worker("w1") is None
        assert queue.list_workers() == ["w1"]


class TestDistributedSupervised:
    def test_backend_requires_queue_dir(self, network):
        with pytest.raises(ConfigurationError, match="queue directory"):
            run_supervised_trials(
                network,
                "algorithm1",
                trials=2,
                base_seed=7,
                runner_params=PARAMS,
                backend="distributed",
            )

    def test_queue_runs_a_whole_group_like_solo_runs(self, tmp_path, monkeypatch):
        # One task carries every spec point on the network: the workers
        # run algorithm1 and algorithm3 in one grid pass and mcdis and
        # algorithm4 trial by trial inside the same chunk. Every archived
        # experiment must equal the file of that spec run alone.
        specs = [
            ExperimentSpec(
                name=f"clique_{protocol}",
                workload=small_workload(),
                protocol=protocol,
                trials=3,
                runner_params=params,
            )
            for protocol, params in (
                ("algorithm1", PARAMS),
                ("algorithm3", PARAMS),
                ("mcdis", {"max_slots": 30_000, "delta_est": None}),
                ("algorithm4", {"delta_est": 4, "max_frames_per_node": 2_000}),
            )
        ]
        alone = solo_archives(specs, 7, tmp_path / "alone")
        queue = WorkQueue(tmp_path / "queue")
        task_entries = []
        alpha, beta = start_workers(
            queue,
            "alpha",
            "beta",
            on_claimed=lambda task_id, _chunk: task_entries.append(
                len(queue.read_task(task_id)["entries"])
            ),
        )
        monkeypatch.setattr(
            supervisor_module,
            "run_trial_group",
            functools.partial(
                supervisor_module.run_trial_group, sleep=WorkerPump([alpha, beta])
            ),
        )
        run_batch(
            specs,
            base_seed=7,
            output_dir=tmp_path / "sharded",
            chunk_size=2,
            queue_dir=tmp_path / "queue",
            lease=FAST_LEASE,
        )
        assert task_entries == [4, 4]  # one task, two chunks, all on workers
        assert experiment_files(tmp_path / "sharded") == alone

    @pytest.mark.parametrize("chunk_size", [1, 2])
    def test_start_offsets_run_on_queue_workers(self, tmp_path, monkeypatch, chunk_size):
        # Variable start times reach workers through the task's JSON, with
        # string node ids: one-row chunks run them trial by trial, the
        # two-row chunk in a grid pass. No attempt may fail back to the
        # coordinator.
        spec = ExperimentSpec(
            name="clique_offsets",
            workload=small_workload(),
            protocol="algorithm3",
            trials=2,
            runner_params={**PARAMS, "start_offsets": {0: 3, 2: 1, 4: 5}},
        )
        alone = solo_archives([spec], 7, tmp_path / "alone")
        queue = WorkQueue(tmp_path / "queue")
        claimed = []
        (alpha,) = start_workers(
            queue, "alpha", on_claimed=lambda _task, chunk: claimed.append(chunk)
        )
        monkeypatch.setattr(
            supervisor_module,
            "run_trial_group",
            functools.partial(
                supervisor_module.run_trial_group, sleep=WorkerPump([alpha])
            ),
        )
        (outcome,) = run_batch(
            [spec],
            base_seed=7,
            output_dir=tmp_path / "sharded",
            chunk_size=chunk_size,
            queue_dir=tmp_path / "queue",
            lease=FAST_LEASE,
        )
        assert [e.as_dict() for e in outcome.events if e.kind == "retry"] == []
        assert len(claimed) == 2 // chunk_size
        assert experiment_files(tmp_path / "sharded") == alone

    def test_worker_decodes_a_task_network_once(self, tmp_path, monkeypatch):
        # Every chunk of a 16-chunk task carries the same network text:
        # the worker decodes it for its first chunk and reuses the object
        # for the other 15, and the archive still equals the serial one.
        spec = ExperimentSpec(
            name="clique_decoded_once",
            workload=small_workload(),
            protocol="algorithm3",
            trials=16,
            runner_params=PARAMS,
        )
        serial = solo_archives([spec], 7, tmp_path / "serial")
        decodes = []

        def counting_decode(text):
            decodes.append(len(text))
            return network_from_json(text)

        monkeypatch.setattr(distributed_module, "network_from_json", counting_decode)
        queue = WorkQueue(tmp_path / "queue")
        claimed = []
        (alpha,) = start_workers(
            queue, "alpha", on_claimed=lambda _task, chunk: claimed.append(chunk)
        )
        monkeypatch.setattr(
            supervisor_module,
            "run_trial_group",
            functools.partial(
                supervisor_module.run_trial_group, sleep=WorkerPump([alpha])
            ),
        )
        run_batch(
            [spec],
            base_seed=7,
            output_dir=tmp_path / "sharded",
            chunk_size=1,
            queue_dir=tmp_path / "queue",
            lease=FAST_LEASE,
        )
        assert sorted(claimed) == list(range(16))
        assert len(decodes) == 1
        assert experiment_files(tmp_path / "sharded") == serial

    def test_queue_needs_integer_base_seed(self, network, tmp_path):
        # Workers re-derive seeds from the task's base seed; None would
        # draw fresh entropy per execution and break byte-identical
        # double completions.
        entries = [GroupEntry("a", "algorithm1", 2, PARAMS)]
        with pytest.raises(ConfigurationError, match="base_seed"):
            run_trial_group(network, entries, base_seed=None, queue_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_no_workers_degrades_to_local(self, network, reference, tmp_path):
        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=6,
            base_seed=7,
            runner_params=PARAMS,
            queue_dir=tmp_path,
            lease=FAST_LEASE,
        )
        assert outcome.complete
        assert any(e.kind == "degrade_local" for e in outcome.events)
        assert _dicts(outcome) == reference
        # Clean completion retracts the task from the shared queue.
        assert WorkQueue(tmp_path).list_tasks() == []

    def test_two_workers_split_chunks_identically(
        self, network, reference, tmp_path
    ):
        queue = WorkQueue(tmp_path)
        alpha, beta = start_workers(queue, "alpha", "beta")
        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=6,
            base_seed=7,
            runner_params=PARAMS,
            chunk_size=2,
            queue_dir=tmp_path,
            lease=FAST_LEASE,
            sleep=WorkerPump([alpha, beta]),
        )
        assert outcome.complete
        assert not any(e.kind == "degrade_local" for e in outcome.events)
        assert alpha.executed + beta.executed == 3
        assert _dicts(outcome) == reference

    def test_double_completion_is_identical(self, network, reference, tmp_path):
        # The lease-race drill: the moment one worker claims a chunk, a
        # rival executes the very same chunk (as if it had reclaimed an
        # expired lease while the owner was still alive). Both complete;
        # the archive cannot tell, because resolution is by trial index
        # and both result sets are byte-identical by determinism.
        queue = WorkQueue(tmp_path)
        races = []

        def rival_executes_same_chunk(task_id: str, chunk_no: int) -> None:
            if races:  # race only the first claim
                return
            task = queue.read_task(task_id)
            races.append((task_id, chunk_no))
            rival._execute(task_id, task, chunk_no, 0)

        (victim,) = start_workers(
            queue, "victim", on_claimed=rival_executes_same_chunk
        )
        (rival,) = start_workers(queue, "rival")
        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=6,
            base_seed=7,
            runner_params=PARAMS,
            chunk_size=2,
            queue_dir=tmp_path,
            lease=FAST_LEASE,
            sleep=WorkerPump([victim]),
        )
        assert outcome.complete
        assert races  # the rival really did double-execute a chunk
        assert rival.executed >= 1 and victim.executed >= 1
        assert victim.executed + rival.executed > 3  # more work than chunks
        assert _dicts(outcome) == reference

    def test_worker_kill_reclaim_resume(
        self, network, reference, tmp_path, monkeypatch
    ):
        # doomed claims the chunk holding trial 0, dies with the lease
        # held and stops heartbeating. The coordinator must observe a
        # full TTL of silence, reclaim the lease, and let the survivor
        # resume the chunk — with byte-identical output.
        clock = FakeClock()
        monkeypatch.setattr(distributed_module, "_monotonic", clock)
        queue = WorkQueue(tmp_path)
        doomed, survivor = start_workers(queue, "doomed", "survivor")
        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=6,
            base_seed=7,
            runner_params=PARAMS,
            chunk_size=2,
            chaos=parse_chaos_spec("worker-kill@0"),
            policy=FAST_RETRY,
            queue_dir=tmp_path,
            lease=FAST_LEASE,
            sleep=WorkerPump([doomed, survivor], clock=clock),
        )
        assert outcome.complete
        kinds = [e.kind for e in outcome.events]
        assert "lease_reclaim" in kinds
        assert "retry" in kinds  # reclamation spends the retry budget
        assert survivor.executed >= 1
        assert _dicts(outcome) == reference

    def test_torn_lease_reclaimed_by_ttl(
        self, network, reference, tmp_path, monkeypatch
    ):
        # A claimant that died between the O_EXCL create and the payload
        # write leaves an unreadable lease that blocks claims; the
        # coordinator treats it as an anonymous lease and TTL-reclaims.
        clock = FakeClock()
        monkeypatch.setattr(distributed_module, "_monotonic", clock)
        queue = WorkQueue(tmp_path)
        (worker,) = start_workers(queue, "w1")
        torn = []

        def tear_first_lease() -> None:
            if torn:
                return
            tasks = queue.list_tasks()
            if tasks:
                queue.marker_path(tasks[0], 0, "lease").write_text("{tor")
                torn.append(tasks[0])

        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=6,
            base_seed=7,
            runner_params=PARAMS,
            chunk_size=2,
            policy=FAST_RETRY,
            queue_dir=tmp_path,
            lease=FAST_LEASE,
            sleep=WorkerPump([worker], clock=clock, on_tick=tear_first_lease),
        )
        assert outcome.complete
        assert torn
        assert any(e.kind == "lease_reclaim" for e in outcome.events)
        assert _dicts(outcome) == reference

    def test_damaged_done_marker_is_cleared_and_rerun(self, tmp_path, monkeypatch):
        # Workers skip a chunk whose done marker merely exists; one that
        # is truncated before the coordinator reads it must not strand
        # the chunk. The coordinator clears it, a worker runs the chunk
        # again, and the archive is the serial one.
        spec = ExperimentSpec(
            name="clique_algorithm1",
            workload=small_workload(),
            protocol="algorithm1",
            trials=4,
            runner_params=PARAMS,
        )
        alone = solo_archives([spec], 7, tmp_path / "alone")
        queue = WorkQueue(tmp_path / "queue")
        (alpha,) = start_workers(queue, "alpha")
        pump = WorkerPump([alpha])
        damaged = []

        def pump_then_truncate(delay: float) -> None:
            pump(delay)
            for task_id in queue.list_tasks():
                path = queue.marker_path(task_id, 0, "done")
                if not damaged and path.exists():
                    path.write_bytes(path.read_bytes()[:40])
                    damaged.append(path)

        monkeypatch.setattr(
            supervisor_module,
            "run_trial_group",
            functools.partial(
                supervisor_module.run_trial_group, sleep=pump_then_truncate
            ),
        )
        errors = []

        def coordinate() -> None:
            try:
                run_batch(
                    [spec],
                    base_seed=7,
                    output_dir=tmp_path / "sharded",
                    chunk_size=2,
                    queue_dir=tmp_path / "queue",
                    lease=FAST_LEASE,
                )
            except Exception as exc:  # re-raised below, in the test's thread
                errors.append(exc)

        # A coordinator that keeps finding the damaged marker never
        # sleeps, so the pump's round cap cannot stop it: bound the join.
        coordinator = threading.Thread(target=coordinate, daemon=True)
        coordinator.start()
        coordinator.join(timeout=60)
        assert not coordinator.is_alive(), "coordinator stuck on a damaged marker"
        if errors:
            raise errors[0]
        assert damaged
        assert alpha.executed == 3  # two chunks, the damaged one twice
        assert experiment_files(tmp_path / "sharded") == alone
        assert verify_archive(tmp_path / "sharded").ok

    def test_lease_steal_chaos(self, network, reference, tmp_path):
        # A ghost holds the lease on chunk 0; lease-steal chaos rips it
        # away immediately (no TTL wait) and a live worker finishes it.
        queue = WorkQueue(tmp_path)
        (worker,) = start_workers(queue, "w1")
        claimed = []

        def ghost_claims_chunk0() -> None:
            if claimed:
                return
            tasks = queue.list_tasks()
            if tasks and queue.claim(tasks[0], 0, "ghost", 0):
                claimed.append(tasks[0])

        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=6,
            base_seed=7,
            runner_params=PARAMS,
            chunk_size=2,
            chaos=parse_chaos_spec("lease-steal@0"),
            policy=FAST_RETRY,
            queue_dir=tmp_path,
            lease=FAST_LEASE,
            sleep=WorkerPump([worker], on_tick=ghost_claims_chunk0),
        )
        assert outcome.complete
        assert claimed
        assert any(e.kind == "lease_steal" for e in outcome.events)
        assert _dicts(outcome) == reference

    def test_stale_heartbeat_chaos(self, network, reference, tmp_path):
        # The ghost heartbeats like a healthy worker but never finishes
        # its chunk; stale-heartbeat chaos forces the reclamation path
        # that real wall-clock staleness would eventually take.
        queue = WorkQueue(tmp_path)
        (worker,) = start_workers(queue, "w1")
        ghost_state = {"claimed": False, "beat": 0}

        def ghost_claims_and_beats() -> None:
            ghost_state["beat"] += 1
            queue.heartbeat(
                "ghost",
                {"kind": "heartbeat", "worker": "ghost", "beat": ghost_state["beat"]},
            )
            if not ghost_state["claimed"]:
                tasks = queue.list_tasks()
                if tasks and queue.claim(tasks[0], 0, "ghost", 0):
                    ghost_state["claimed"] = True

        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=6,
            base_seed=7,
            runner_params=PARAMS,
            chunk_size=2,
            chaos=parse_chaos_spec("stale-heartbeat@0"),
            policy=FAST_RETRY,
            queue_dir=tmp_path,
            lease=FAST_LEASE,
            sleep=WorkerPump([worker], on_tick=ghost_claims_and_beats),
        )
        assert outcome.complete
        assert ghost_state["claimed"]
        assert any(
            e.kind == "lease_reclaim" and "chaos" in e.detail
            for e in outcome.events
        )
        assert _dicts(outcome) == reference

    def test_same_label_coordinators_both_finish(self, network, tmp_path):
        # Two campaigns that differ only in base seed share a task label
        # (experiment names do not carry seeds). Publishing one must not
        # retract the other's task, or its coordinator polls forever.
        queue = WorkQueue(tmp_path)
        lease = LeasePolicy(lease_ttl=5.0, heartbeat_interval=0.2, poll_interval=0.02)
        worker_ids = ["thread-0", "thread-1"]
        for worker_id in worker_ids:  # live before any task is published
            QueueWorker(queue, worker_id).heartbeat()
        outcomes, errors = {}, []

        def coordinate(base_seed):
            try:
                outcomes[base_seed] = run_supervised_trials(
                    network,
                    "algorithm1",
                    trials=4,
                    base_seed=base_seed,
                    runner_params=PARAMS,
                    chunk_size=1,
                    experiment="clique_algorithm1",
                    queue_dir=tmp_path,
                    lease=lease,
                )
            except Exception as exc:  # surfaced by the assertions below
                errors.append(exc)

        def published(base_seed):
            tasks = [queue.read_task(t) for t in queue.list_tasks()]
            return any(t is not None and t["base_seed"] == base_seed for t in tasks)

        coordinators = []
        for base_seed in (7, 8):
            thread = threading.Thread(target=coordinate, args=(base_seed,), daemon=True)
            thread.start()
            coordinators.append(thread)
            deadline = time.monotonic() + 10
            while not published(base_seed) and time.monotonic() < deadline:
                time.sleep(0.01)
        workers = [
            threading.Thread(
                target=run_worker,
                args=(tmp_path,),
                kwargs=dict(
                    worker_id=worker_id,
                    lease=lease,
                    idle_exit=1.5,
                    hard_exit=False,
                    sleep=time.sleep,
                ),
                daemon=True,
            )
            for worker_id in worker_ids
        ]
        for thread in workers:
            thread.start()
        for thread in coordinators:
            thread.join(timeout=30)
        for thread in workers:
            thread.join(timeout=30)
        assert not errors
        assert not any(thread.is_alive() for thread in coordinators + workers)
        for base_seed in (7, 8):
            serial = run_spec_trials(
                network, "algorithm1", trials=4, base_seed=base_seed, runner_params=PARAMS
            )
            assert _dicts(outcomes[base_seed]) == [r.to_dict() for r in serial]

    def test_unserializable_runner_param_rejected(self, network, tmp_path):
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            run_supervised_trials(
                network,
                "algorithm1",
                trials=2,
                base_seed=7,
                runner_params={**PARAMS, "bad": object()},
                queue_dir=tmp_path,
                lease=FAST_LEASE,
            )


def _archive_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))
    }


class TestBatchDistributed:
    def test_sharded_archive_byte_identical_to_serial(self, tmp_path):
        # End-to-end with real run_worker loops on real time: two worker
        # threads drain the queue while run_batch coordinates; the
        # archive must be byte-for-byte the serial archive.
        specs = [
            ExperimentSpec(
                name="clique_algorithm1",
                workload=small_workload(),
                protocol="algorithm1",
                trials=4,
                runner_params=PARAMS,
            )
        ]
        serial_dir = tmp_path / "serial"
        run_batch(specs, base_seed=11, output_dir=serial_dir)

        queue_dir = tmp_path / "queue"
        lease = LeasePolicy(
            lease_ttl=5.0, heartbeat_interval=0.2, poll_interval=0.02
        )
        WorkQueue(queue_dir)  # pre-create so workers and batch share it
        threads = [
            threading.Thread(
                target=run_worker,
                args=(queue_dir,),
                kwargs=dict(
                    worker_id=f"thread-{i}",
                    lease=lease,
                    idle_exit=1.5,
                    hard_exit=False,
                    sleep=time.sleep,
                ),
                daemon=True,
            )
            for i in range(2)
        ]
        for t in threads:
            t.start()
        sharded_dir = tmp_path / "sharded"
        try:
            run_batch(
                specs,
                base_seed=11,
                output_dir=sharded_dir,
                backend="distributed",
                chunk_size=1,
                retry=FAST_RETRY,
                queue_dir=queue_dir,
                lease=lease,
            )
        finally:
            for t in threads:
                t.join(timeout=30)
        assert verify_archive(sharded_dir).ok
        assert _archive_bytes(sharded_dir) == _archive_bytes(serial_dir)
