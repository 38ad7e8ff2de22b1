"""Unit tests for the campaign service building blocks.

Covers the request surface (``repro.service.campaigns``), job
persistence (``jobs``), the verify-before-serve result store
(``store``), quota scheduling (``scheduler``), the progress bridge
(``progress``), HTTP request parsing (``http``) and the job executor
(``worker``) — everything below the asyncio app, which
``test_service_app.py`` exercises end to end.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading

import pytest

from repro.exceptions import (
    ArchiveCorruptionError,
    ConfigurationError,
    JobCancelledError,
    QuotaExceededError,
)
from repro.resilience.chaos import flip_byte
from repro.service.campaigns import (
    CampaignRequest,
    campaign_specs,
    request_fingerprint,
    resolve_fault_plan,
)
from repro.service.http import HttpError, _read_request
from repro.service.jobs import CampaignJob, JobStore
from repro.service.progress import ProgressTracker
from repro.service.scheduler import CampaignScheduler, QuotaPolicy
import repro.service.store as store_module
from repro.service.store import ResultStore
from repro.service.worker import execute_job
from repro.sim.batch import batch_fingerprint, run_batch
import repro.workloads.scenarios as scenarios_module
from repro.workloads.scenarios import scenario

QUICK = dict(
    scenario="single_common_channel",
    protocols=("algorithm3",),
    trials=2,
    max_slots=50_000,
)


def request(**overrides):
    kwargs = dict(QUICK)
    kwargs.update(overrides)
    return CampaignRequest(**kwargs)


def make_job(job_id="job-000001", seq=1, **overrides):
    req = request(**overrides)
    return CampaignJob(
        job_id=job_id,
        seq=seq,
        request=req,
        fingerprint=request_fingerprint(req),
    )


class TestCampaignRequest:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            request(scenario="atlantis")

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            request(protocols=("telepathy",))

    def test_duplicate_protocols(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            request(protocols=("algorithm3", "algorithm3"))

    def test_empty_protocols(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            request(protocols=())

    def test_bad_counts(self):
        with pytest.raises(ConfigurationError, match="trials"):
            request(trials=0)
        with pytest.raises(ConfigurationError, match="max_slots"):
            request(max_slots=0)
        with pytest.raises(ConfigurationError, match="delta_est"):
            request(delta_est=0)

    def test_bad_fault_selector(self):
        with pytest.raises(ConfigurationError, match="fault selector"):
            request(faults="gremlins")

    def test_from_dict_round_trip(self):
        req = request(faults="none", client="bench")
        assert CampaignRequest.from_dict(req.as_dict()) == req

    def test_from_dict_rejects_unknown_keys(self):
        payload = request().as_dict()
        payload["workers"] = 4
        with pytest.raises(ConfigurationError, match="unknown campaign request"):
            CampaignRequest.from_dict(payload)

    def test_from_dict_requires_scenario_and_protocols(self):
        with pytest.raises(ConfigurationError, match="'scenario'"):
            CampaignRequest.from_dict({"protocols": ["algorithm3"]})
        with pytest.raises(ConfigurationError, match="'protocols'"):
            CampaignRequest.from_dict({"scenario": "single_common_channel"})

    def test_from_dict_rejects_string_protocols(self):
        with pytest.raises(ConfigurationError, match="list of protocol"):
            CampaignRequest.from_dict(
                {"scenario": "single_common_channel", "protocols": "algorithm3"}
            )

    def test_from_dict_type_checks_integers(self):
        payload = request().as_dict()
        payload["trials"] = "2"
        with pytest.raises(ConfigurationError, match="must be an integer"):
            CampaignRequest.from_dict(payload)
        payload["trials"] = True
        with pytest.raises(ConfigurationError, match="must be an integer"):
            CampaignRequest.from_dict(payload)

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            CampaignRequest.from_dict(["algorithm3"])


class TestCampaignSpecs:
    def test_expansion_names_and_order(self):
        req = request(protocols=("algorithm1", "algorithm3"))
        specs = campaign_specs(req)
        assert [s.name for s in specs] == [
            "single_common_channel_algorithm1",
            "single_common_channel_algorithm3",
        ]
        for spec in specs:
            assert spec.trials == req.trials
            assert spec.network_seed == req.network_seed
            assert spec.runner_params["max_slots"] == req.max_slots

    def test_async_protocol_params(self):
        req = request(protocols=("algorithm4",), faults="none")
        (spec,) = campaign_specs(req)
        assert "max_slots" not in spec.runner_params
        assert spec.runner_params["delta_est"] >= 1

    #: request_fingerprint of the campus_cr campaigns below, recorded
    #: when campaign_specs still realized the network for every request.
    CAMPUS_FINGERPRINTS = {
        False: "6383ee20f199c03fc4063f7efce20ff082f4c189ebf8555662d06dae07c8481e",
        True: "fe0f3e40651a99410477537c101e632514240f98a5ec3c885b33f7d36ff7e5e5",
    }

    @pytest.mark.parametrize("baseline", [False, True])
    def test_network_realized_only_for_baselines(self, monkeypatch, baseline):
        # Only a baseline's parameters (the universal channel set, the
        # id space) are read off the network; the paper's algorithms,
        # mcdis and algorithm4 leave its realization to run_batch.
        protocols = ("algorithm1", "algorithm3", "mcdis", "algorithm4")
        if baseline:
            protocols += ("universal_sweep",)
        req = CampaignRequest(scenario="campus_cr", protocols=protocols, trials=2)
        calls = []
        real = scenarios_module.generate_network

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scenarios_module, "generate_network", counted)
        specs = campaign_specs(req)
        assert len(calls) == (1 if baseline else 0)
        assert [s.protocol for s in specs] == list(protocols)
        assert request_fingerprint(req) == self.CAMPUS_FINGERPRINTS[baseline]

    def test_resolve_fault_plan_selectors(self):
        scen = scenario("single_common_channel")
        assert resolve_fault_plan("scenario", scen) is scen.fault_plan
        assert resolve_fault_plan("none", scen) is None
        assert resolve_fault_plan("jamming_light", scen) is not None


class TestJobStore:
    def test_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        job = make_job()
        store.save(job)
        assert store.get(job.job_id) is job
        fresh = JobStore(tmp_path)
        (loaded,) = fresh.load_all()
        assert loaded.as_dict() == job.as_dict()

    def test_next_seq_and_order(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.next_seq() == 1
        store.save(make_job("job-000002", seq=2))
        store.save(make_job("job-000001", seq=1))
        assert store.next_seq() == 3
        assert [j.seq for j in store.jobs_in_order()] == [1, 2]

    def test_running_demotes_to_queued_on_load(self, tmp_path):
        store = JobStore(tmp_path)
        job = make_job()
        job.state = "running"
        store.save(job)
        fresh = JobStore(tmp_path)
        (loaded,) = fresh.load_all()
        assert loaded.state == "queued"
        # The demotion is persisted, not just in-memory.
        record = json.loads((tmp_path / "job-000001.json").read_text())
        assert record["state"] == "queued"

    def test_corrupt_record_raises(self, tmp_path):
        store = JobStore(tmp_path)
        store.save(make_job())
        (tmp_path / "job-000001.json").write_text("{not json")
        with pytest.raises(ArchiveCorruptionError, match="corrupt"):
            JobStore(tmp_path).load_all()

    def test_invalid_state_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job state"):
            job = make_job()
            job.state = "queued"
            CampaignJob(
                job_id="x", seq=1, request=job.request,
                fingerprint=job.fingerprint, state="paused",
            )


def populate_store(store: ResultStore, req: CampaignRequest) -> str:
    """Run the campaign directly into its store slot; returns the key."""
    specs = campaign_specs(req)
    fingerprint = batch_fingerprint(specs, req.base_seed)
    run_batch(specs, base_seed=req.base_seed, output_dir=store.path_for(fingerprint))
    return fingerprint


class TestResultStore:
    def test_lookup_serves_only_verified(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.lookup("a" * 64) is None
        fingerprint = populate_store(store, request())
        path = store.lookup(fingerprint)
        assert path is not None and path.is_dir()
        assert store.verify(fingerprint).ok

    def test_corrupt_archive_is_discarded(self, tmp_path):
        store = ResultStore(tmp_path)
        fingerprint = populate_store(store, request())
        flip_byte(
            store.path_for(fingerprint) / "single_common_channel_algorithm3.json",
            index=10,
        )
        assert store.lookup(fingerprint) is None
        assert not store.path_for(fingerprint).exists()

    def test_malformed_fingerprints_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "../escape", ".hidden", "a/b"):
            with pytest.raises(ConfigurationError, match="malformed"):
                store.path_for(bad)

    def test_read_file_only_manifest_names(self, tmp_path):
        store = ResultStore(tmp_path)
        fingerprint = populate_store(store, request())
        names = store.archive_files(fingerprint)
        assert names[0] == "manifest.json"
        assert "single_common_channel_algorithm3.json" in names
        for name in names:
            assert store.read_file(fingerprint, name)
        with pytest.raises(ConfigurationError, match="not a file"):
            store.read_file(fingerprint, "../../etc/passwd")


class TestStoreEviction:
    def _filled(self, tmp_path, **caps):
        """A store holding three archives, touched in seed order."""
        store = ResultStore(tmp_path, **caps)
        fingerprints = []
        for seed in (0, 1, 2):
            fingerprints.append(
                populate_store(store, request(base_seed=seed))
            )
            store.touch(fingerprints[-1])
        return store, fingerprints

    def test_cap_validation(self, tmp_path):
        with pytest.raises(ConfigurationError, match="max_archives"):
            ResultStore(tmp_path, max_archives=0)
        with pytest.raises(ConfigurationError, match="max_bytes"):
            ResultStore(tmp_path, max_bytes=0)

    def test_no_caps_never_evicts(self, tmp_path):
        store, fingerprints = self._filled(tmp_path)
        assert store.enforce_limits() == []
        assert store.stored_fingerprints() == sorted(fingerprints)

    def test_count_cap_evicts_least_recently_used(self, tmp_path):
        store, fingerprints = self._filled(tmp_path, max_archives=2)
        store.touch(fingerprints[0])  # oldest becomes most recent
        evicted = store.enforce_limits()
        assert evicted == [fingerprints[1]]
        assert sorted(store.stored_fingerprints()) == sorted(
            [fingerprints[0], fingerprints[2]]
        )

    def test_lookup_refreshes_recency(self, tmp_path):
        store, fingerprints = self._filled(tmp_path, max_archives=1)
        assert store.lookup(fingerprints[0]) is not None  # touch via use
        evicted = store.enforce_limits()
        assert fingerprints[0] not in evicted
        assert store.stored_fingerprints() == [fingerprints[0]]

    def test_byte_cap_evicts_until_under(self, tmp_path):
        store, fingerprints = self._filled(tmp_path)
        one_archive = store._archive_bytes(store.path_for(fingerprints[0]))
        capped = ResultStore(tmp_path, max_bytes=one_archive + 1)
        evicted = capped.enforce_limits()
        assert len(evicted) == 2
        assert capped.total_bytes() <= one_archive + 1

    def test_protected_fingerprints_survive(self, tmp_path):
        store, fingerprints = self._filled(tmp_path, max_archives=1)
        evicted = store.enforce_limits(protect={fingerprints[0]})
        assert fingerprints[0] not in evicted
        assert fingerprints[0] in store.stored_fingerprints()

    def test_corrupt_archive_evicted_by_recency_refused_on_lookup(self, tmp_path):
        # Eviction ranks by recency alone: a corrupt but recently used
        # archive outlives the least-recently-used one, and the lookup
        # that would serve it refuses and discards it instead.
        store, fingerprints = self._filled(tmp_path, max_archives=2)
        store.touch(fingerprints[2])  # newest recency, then corrupt it
        flip_byte(
            store.path_for(fingerprints[2])
            / "single_common_channel_algorithm3.json",
            index=10,
        )
        assert store.enforce_limits() == [fingerprints[0]]
        assert fingerprints[2] in store.stored_fingerprints()
        assert store.lookup(fingerprints[2]) is None
        assert not store.path_for(fingerprints[2]).exists()
        assert store.stored_fingerprints() == [fingerprints[1]]

    def test_eviction_pass_reads_no_archive_contents(self, tmp_path, monkeypatch):
        store, fingerprints = self._filled(tmp_path, max_archives=1)
        calls = []
        real_verify = store_module.verify_archive

        def counting_verify(path):
            calls.append(path)
            return real_verify(path)

        monkeypatch.setattr(store_module, "verify_archive", counting_verify)
        assert store.enforce_limits() == fingerprints[:2]
        assert calls == []

    def test_torn_lru_index_tolerated(self, tmp_path):
        store, fingerprints = self._filled(tmp_path, max_archives=2)
        (tmp_path / ".lru-index.json").write_text('{"kind": "lru", "cou')
        evicted = store.enforce_limits()  # falls back to empty recency
        assert len(evicted) == 1
        assert len(store.stored_fingerprints()) == 2

    def test_touch_during_eviction_pass_survives(self, tmp_path, monkeypatch):
        # Eviction runs on the event loop while job threads touch the
        # archives they finish: a touch landing mid-pass must survive
        # the pass's own index write-back.
        store, fingerprints = self._filled(tmp_path, max_archives=2)
        real_size = store._archive_bytes
        touched = []

        def size_with_job_touch(path):
            if not touched:
                touched.append(fingerprints[1])
                store.touch(fingerprints[1])
            return real_size(path)

        monkeypatch.setattr(store, "_archive_bytes", size_with_job_touch)
        assert store.enforce_limits() == [fingerprints[0]]
        # The mid-pass touch made fingerprints[1] the most recent, so
        # the next pass evicts fingerprints[2].
        store.max_archives = 1
        assert store.enforce_limits() == [fingerprints[2]]

    def test_concurrent_touches_are_serialized(self, tmp_path, monkeypatch):
        # Two threads touch at once; neither read-modify-write is lost.
        store = ResultStore(tmp_path)
        real_write = store_module.atomic_write_text
        rivals = []

        def write_with_rival(path, text):
            if not rivals:
                rivals.append(
                    threading.Thread(target=store.touch, args=("b" * 64,))
                )
                rivals[0].start()
                rivals[0].join(timeout=0.5)  # blocks on the index lock
            real_write(path, text)

        monkeypatch.setattr(store_module, "atomic_write_text", write_with_rival)
        store.touch("a" * 64)
        rivals[0].join(timeout=30)
        assert not rivals[0].is_alive()
        index = json.loads((tmp_path / ".lru-index.json").read_text())
        assert index["touched"] == {"a" * 64: 1, "b" * 64: 2}
        assert index["counter"] == 2

    def test_touch_stress_loses_no_update(self, tmp_path):
        # More touching threads than cores, switching as often as the
        # interpreter allows: every index read-modify-write must land.
        store = ResultStore(tmp_path)

        def touch_many(worker):
            for i in range(10):
                store.touch(f"{worker}{i:063d}")

        threads = [threading.Thread(target=touch_many, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        index = json.loads((tmp_path / ".lru-index.json").read_text())
        assert index["counter"] == 40
        assert sorted(index["touched"].values()) == list(range(1, 41))


class TestQuotaPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_active"):
            QuotaPolicy(max_active=0)
        with pytest.raises(ConfigurationError, match="max_queued"):
            QuotaPolicy(max_queued=0)
        with pytest.raises(ConfigurationError, match="max_per_client"):
            QuotaPolicy(max_per_client=0)
        with pytest.raises(ConfigurationError, match="min_interval"):
            QuotaPolicy(min_interval=-1.0)


class TestCampaignScheduler:
    def test_fifo_under_max_active(self):
        sched = CampaignScheduler(QuotaPolicy(max_active=1))
        first = make_job("job-000001", seq=1, trials=2)
        second = make_job("job-000002", seq=2, trials=3)
        sched.submit(first)
        sched.submit(second)
        assert sched.start_next() is first
        assert sched.start_next() is None  # slot taken
        sched.finish(first.job_id)
        assert sched.start_next() is second

    def test_queue_depth_limit(self):
        sched = CampaignScheduler(QuotaPolicy(max_queued=1))
        sched.submit(make_job("job-000001", seq=1, trials=2))
        with pytest.raises(QuotaExceededError, match="queue is full"):
            sched.submit(make_job("job-000002", seq=2, trials=3))

    def test_per_client_limit(self):
        sched = CampaignScheduler(QuotaPolicy(max_per_client=1, max_queued=8))
        sched.submit(make_job("job-000001", seq=1, trials=2, client="alice"))
        with pytest.raises(QuotaExceededError, match="'alice'"):
            sched.submit(make_job("job-000002", seq=2, trials=3, client="alice"))
        # A different client is unaffected.
        sched.submit(make_job("job-000003", seq=3, trials=3, client="bob"))

    def test_min_interval_uses_injected_clock(self):
        now = [0.0]
        sched = CampaignScheduler(
            QuotaPolicy(min_interval=10.0, max_per_client=8),
            clock=lambda: now[0],
        )
        sched.submit(make_job("job-000001", seq=1, trials=2))
        now[0] = 5.0
        with pytest.raises(QuotaExceededError, match="must wait"):
            sched.submit(make_job("job-000002", seq=2, trials=3))
        now[0] = 10.0
        sched.submit(make_job("job-000002", seq=2, trials=3))

    def test_requeue_bypasses_quotas(self):
        sched = CampaignScheduler(QuotaPolicy(max_queued=1))
        sched.submit(make_job("job-000001", seq=1, trials=2))
        sched.requeue(make_job("job-000002", seq=2, trials=3))
        assert [j.seq for j in sched.queued_jobs()] == [1, 2]

    def test_cancel_queued(self):
        sched = CampaignScheduler()
        job = make_job()
        sched.submit(job)
        assert sched.cancel_queued(job.job_id) is True
        assert sched.cancel_queued(job.job_id) is False
        assert not sched.has_work


class TestProgressTracker:
    def test_cursor_protocol(self):
        tracker = ProgressTracker()
        tracker.emit("j1", "state", "queued")
        tracker.emit("j1", "progress", "running", experiment="e", completed=1, total=2)
        events = tracker.events_since("j1", 0)
        assert [e.seq for e in events] == [0, 1]
        cursor = events[-1].seq + 1
        assert tracker.events_since("j1", cursor) == []
        tracker.emit("j1", "state", "done")
        (tail,) = tracker.events_since("j1", cursor)
        assert tail.state == "done"
        assert tracker.latest("j1").state == "done"
        assert tracker.latest("unknown") is None

    def test_event_dict_omits_unset_fields(self):
        tracker = ProgressTracker()
        state = tracker.emit("j1", "state", "queued").as_dict()
        assert "experiment" not in state and "completed" not in state
        progress = tracker.emit(
            "j1", "progress", "running", experiment="e", completed=1, total=4
        ).as_dict()
        assert progress["experiment"] == "e"
        assert (progress["completed"], progress["total"]) == (1, 4)


def parse_request(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await _read_request(reader)

    return asyncio.run(go())


class TestHttpParsing:
    def test_basic_request(self):
        req = parse_request(
            b"GET /campaigns/job-1?since=3 HTTP/1.1\r\nHost: h\r\n\r\n"
        )
        assert req.method == "GET"
        assert req.path == "/campaigns/job-1"
        assert req.query == {"since": "3"}
        assert req.body == b""

    def test_body_and_json(self):
        body = json.dumps({"scenario": "x"}).encode()
        req = parse_request(
            b"POST /campaigns HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        assert req.json() == {"scenario": "x"}

    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as err:
            parse_request(b"NONSENSE\r\n\r\n")
        assert err.value.status == 400

    def test_oversized_body_rejected(self):
        raw = b"POST /campaigns HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n"
        with pytest.raises(HttpError) as err:
            parse_request(raw)
        assert err.value.status == 413

    def test_bad_content_length(self):
        with pytest.raises(HttpError) as err:
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert err.value.status == 400

    def test_chunked_request_body_rejected(self):
        with pytest.raises(HttpError) as err:
            parse_request(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert err.value.status == 400

    def test_empty_body_json_is_400(self):
        req = parse_request(b"POST /campaigns HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpError) as err:
            req.json()
        assert err.value.status == 400


class TestExecuteJob:
    def test_runs_verifies_and_caches(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        job = make_job()
        result = execute_job(
            job, store=store, checkpoint_root=tmp_path / "ckpt"
        )
        assert result.cached is False and result.restored == 0
        assert store.verify(job.fingerprint).ok
        # Journals are gone once the archive is verified.
        assert not (tmp_path / "ckpt" / job.fingerprint).exists()
        again = execute_job(
            job, store=store, checkpoint_root=tmp_path / "ckpt"
        )
        assert again.cached is True and again.archive == result.archive

    def test_tampered_fingerprint_refused(self, tmp_path):
        job = make_job()
        job.fingerprint = "0" * 64
        with pytest.raises(ConfigurationError, match="tampered"):
            execute_job(
                job,
                store=ResultStore(tmp_path / "store"),
                checkpoint_root=tmp_path / "ckpt",
            )

    def test_cancellation_keeps_journal_then_resumes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        job = make_job()
        seen = []
        # Cancel at the first progress point: the probe flips as soon as
        # one trial is journaled (the observer runs after journaling).
        flag = {"set": False}

        def observer(experiment, completed, total):
            seen.append((experiment, completed, total))
            flag["set"] = True

        with pytest.raises(JobCancelledError):
            execute_job(
                job,
                store=store,
                checkpoint_root=tmp_path / "ckpt",
                on_progress=observer,
                cancelled=lambda: flag["set"],
            )
        assert seen  # at least one trial completed and was journaled
        assert store.lookup(job.fingerprint) is None
        # The journal survived the cancellation; re-execution restores it.
        resumed = execute_job(
            job, store=store, checkpoint_root=tmp_path / "ckpt"
        )
        assert resumed.cached is False
        assert resumed.restored > 0
        assert store.verify(job.fingerprint).ok

    def test_resumed_archive_matches_direct_run(self, tmp_path):
        req = request()
        store = ResultStore(tmp_path / "store")
        job = make_job()
        flag = {"set": False}

        def observer(experiment, completed, total):
            flag["set"] = True

        with pytest.raises(JobCancelledError):
            execute_job(
                job,
                store=store,
                checkpoint_root=tmp_path / "ckpt",
                on_progress=observer,
                cancelled=lambda: flag["set"],
            )
        execute_job(job, store=store, checkpoint_root=tmp_path / "ckpt")

        direct = tmp_path / "direct"
        run_batch(campaign_specs(req), base_seed=req.base_seed, output_dir=direct)
        archive = store.path_for(job.fingerprint)
        for reference in sorted(direct.iterdir()):
            assert (archive / reference.name).read_bytes() == (
                reference.read_bytes()
            ), f"{reference.name} differs between resumed and direct runs"
