"""Tests for the one execution plan and the process-pool trial executor."""

from __future__ import annotations

import concurrent.futures
import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.exceptions import (
    ConfigurationError,
    SimulationError,
    TrialExecutionError,
    TrialTimeoutError,
)
from repro.net import M2HeWNetwork, NodeSpec
from repro.resilience.distributed import DistributedChunkExecutor, LeasePolicy
from repro.resilience.executor import InProcessChunkExecutor, PooledChunkExecutor
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import GroupEntry, _chunk_states, run_trial_group
from repro.sim.batch import ExperimentSpec, run_batch
from repro.sim.parallel import default_chunk_size, run_spec_trials
from repro.sim.rng import derive_trial_seed
from repro.sim.runner import replay_trial, run_experiment_trial
from repro.workloads.generator import WorkloadConfig, generate_network


def tiny_net() -> M2HeWNetwork:
    nodes = [
        NodeSpec(0, frozenset({0, 1})),
        NodeSpec(1, frozenset({0, 1})),
        NodeSpec(2, frozenset({0, 1})),
    ]
    return M2HeWNetwork(nodes, adjacency=[(0, 1), (1, 2), (0, 2)])


def small_workload() -> WorkloadConfig:
    return WorkloadConfig(
        topology="clique",
        topology_params={"num_nodes": 5},
        channel_model="homogeneous",
        channel_params={"num_channels": 2},
    )


PARAMS = {"delta_est": 4, "max_slots": 30_000}


@pytest.fixture
def rungs(monkeypatch):
    """Record every rung ``run_trial_group`` runs, with its pending chunks.

    The pool rung only records (it forks nothing), so whatever it was
    handed falls through to the in-process rung, which runs it.
    """
    seen = []

    def spy(cls):
        real_run = cls.run

        def run(self, states, sup):
            seen.append((cls.__name__, [s.indices for s in states if not s.done]))
            if cls is not PooledChunkExecutor:
                real_run(self, states, sup)

        monkeypatch.setattr(cls, "run", run)

    for cls in (PooledChunkExecutor, InProcessChunkExecutor, DistributedChunkExecutor):
        spy(cls)
    return seen


def per_trial(trials):
    return [(t,) for t in range(trials)]


def _group(trials=12, **options):
    """Run one spec point of ``trials`` trials through the one plan."""
    (outcome,) = run_trial_group(
        tiny_net(),
        [GroupEntry("plan", "algorithm3", trials, PARAMS)],
        base_seed=3,
        **options,
    )
    return outcome


class TestResolvePlan:
    """How ``run_trial_group`` picks its executors and chunk size."""

    def test_single_worker_is_serial(self, rungs):
        assert _group(max_workers=1).complete
        assert rungs == [("InProcessChunkExecutor", per_trial(12))]

    def test_auto_multi_worker_uses_pool(self, rungs, monkeypatch):
        monkeypatch.setattr("repro.sim.parallel.pool_supported", lambda: True)
        assert _group(max_workers=2).complete
        # default_chunk_size(12, 2) == 2: about four chunks per worker.
        chunks = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]
        assert rungs == [
            ("PooledChunkExecutor", chunks),
            ("InProcessChunkExecutor", chunks),
        ]

    def test_auto_degrades_without_pool_support(self, rungs, monkeypatch):
        monkeypatch.setattr("repro.sim.parallel.pool_supported", lambda: False)
        assert _group(max_workers=8).complete
        assert rungs == [("InProcessChunkExecutor", per_trial(12))]

    def test_vectorized_runs_one_chunk_in_process(self, rungs):
        assert _group(max_workers=1, backend="vectorized").complete
        assert rungs == [("InProcessChunkExecutor", [tuple(range(12))])]

    def test_queue_runs_alone(self, rungs, tmp_path):
        assert _group(trials=40, queue_dir=tmp_path / "q", policy=RetryPolicy()).complete
        # default_chunk_size(40, 4): larger leases for workers to steal.
        chunks = [tuple(range(lo, min(lo + 3, 40))) for lo in range(0, 40, 3)]
        assert rungs[0] == ("DistributedChunkExecutor", chunks)
        # With no live worker the coordinator runs each chunk itself,
        # one in-process call per claimed lease; no rung follows it.
        assert rungs[1:] == [("InProcessChunkExecutor", [c]) for c in chunks]

    def test_unknown_backend_rejected(self):
        for backend in ("threads", "serial", "process"):
            with pytest.raises(ConfigurationError, match="backend"):
                _group(backend=backend)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            _group(max_workers=0)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            _group(max_workers=2, chunk_size=0)


class TestIgnoredKnobsRefused:
    """A knob none of the plan's executors reads is an error, not a no-op."""

    def test_trial_timeout_without_pool(self, rungs):
        with pytest.raises(ConfigurationError, match="timeout"):
            _group(max_workers=1, trial_timeout=5.0)
        assert rungs == []

    def test_trial_timeout_on_host_without_pool(self, rungs, monkeypatch):
        monkeypatch.setattr("repro.sim.parallel.pool_supported", lambda: False)
        with pytest.raises(ConfigurationError, match="timeout"):
            _group(max_workers=2, trial_timeout=5.0)
        assert rungs == []

    def test_lease_without_queue(self, rungs):
        with pytest.raises(ConfigurationError, match="lease"):
            _group(lease=LeasePolicy())
        assert rungs == []

    def test_workers_with_queue(self, tmp_path, monkeypatch):
        built = []
        real_init = PooledChunkExecutor.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(PooledChunkExecutor, "__init__", spy)
        spec = ExperimentSpec(
            name="queued",
            workload=small_workload(),
            protocol="algorithm3",
            trials=2,
            runner_params=dict(PARAMS),
        )
        with pytest.raises(ConfigurationError, match="work queue"):
            run_batch([spec], base_seed=1, max_workers=4, queue_dir=tmp_path / "q")
        assert built == []
        assert not (tmp_path / "q").exists()


def chunk_indices(trials, chunk_size):
    """The supervisor's chunks of a single entry with every trial pending."""
    return [s.indices for s in _chunk_states([set(range(trials))], chunk_size)]


class TestChunking:
    def test_exact_partition(self):
        assert chunk_indices(6, 3) == [(0, 1, 2), (3, 4, 5)]

    def test_ragged_tail(self):
        assert chunk_indices(7, 3) == [(0, 1, 2), (3, 4, 5), (6,)]

    def test_chunk_larger_than_trials(self):
        assert chunk_indices(2, 10) == [(0, 1)]

    def test_default_chunk_size_amortizes(self):
        # 100 trials over 4 workers -> 16 chunks of 7.
        assert default_chunk_size(100, 4) == 7
        assert default_chunk_size(3, 8) == 1

    def test_covers_every_index_once(self):
        indices = [i for c in chunk_indices(23, 4) for i in c]
        assert indices == list(range(23))


class TestWorkerCountInvariance:
    def test_results_identical_across_worker_counts(self):
        net = tiny_net()
        serial = run_spec_trials(
            net, "algorithm3", trials=6, base_seed=3, runner_params=PARAMS
        )
        pooled = run_spec_trials(
            net,
            "algorithm3",
            trials=6,
            base_seed=3,
            runner_params=PARAMS,
            max_workers=3,
            chunk_size=2,
        )
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]

    def test_chunk_size_does_not_matter(self):
        net = tiny_net()
        runs = [
            run_spec_trials(
                net,
                "algorithm3",
                trials=5,
                base_seed=9,
                runner_params=PARAMS,
                max_workers=2,
                chunk_size=size,
            )
            for size in (1, 4)
        ]
        assert [r.to_dict() for r in runs[0]] == [r.to_dict() for r in runs[1]]

    def test_results_ordered_by_trial_index(self):
        net = tiny_net()
        results = run_spec_trials(
            net,
            "algorithm3",
            trials=5,
            base_seed=3,
            runner_params=PARAMS,
            max_workers=2,
            chunk_size=1,
        )
        # Trial t is replayable in-process from its derived seed; order
        # in the returned list must match the index-derived seeds.
        for t, result in enumerate(results):
            replay = run_experiment_trial(
                net,
                "algorithm3",
                seed=derive_trial_seed(3, t),
                runner_params=PARAMS,
            )
            assert replay.to_dict() == result.to_dict()

    def test_batch_archive_byte_identical(self, tmp_path):
        spec = ExperimentSpec(
            name="inv",
            workload=small_workload(),
            protocol="algorithm3",
            trials=4,
            runner_params=dict(PARAMS),
        )
        d1, d2 = tmp_path / "serial", tmp_path / "pool"
        run_batch([spec], base_seed=1, output_dir=d1, max_workers=1)
        run_batch(
            [spec],
            base_seed=1,
            output_dir=d2,
            max_workers=4,
            chunk_size=1,
        )
        for name in ("inv.json", "manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestFailurePropagation:
    def test_worker_exception_surfaced_with_replay_info(self):
        net = tiny_net()
        # algorithm1 without delta_est is a poison payload: it raises
        # only once the worker actually executes the trial.
        with pytest.raises(TrialExecutionError) as info:
            run_spec_trials(
                net,
                "algorithm1",
                trials=3,
                base_seed=5,
                runner_params={"max_slots": 100},
                max_workers=2,
                chunk_size=1,
                experiment="poison",
            )
        err = info.value
        assert err.experiment == "poison"
        assert err.base_seed == 5
        assert err.trial_indices == (0,)
        # The carried indices + base seed replay the failure in-process.
        with pytest.raises(ConfigurationError):
            run_experiment_trial(
                net,
                "algorithm1",
                seed=derive_trial_seed(err.base_seed, err.trial_indices[0]),
                runner_params={"max_slots": 100},
            )

    def test_serial_fallback_same_error_surface(self):
        with pytest.raises(TrialExecutionError) as info:
            run_spec_trials(
                tiny_net(),
                "algorithm1",
                trials=2,
                base_seed=5,
                runner_params={"max_slots": 100},
                max_workers=1,
                experiment="poison",
            )
        assert info.value.trial_indices == (0,)
        assert isinstance(info.value, SimulationError)

    def test_unknown_protocol_wrapped(self):
        spec_err = pytest.raises(
            TrialExecutionError,
            run_spec_trials,
            tiny_net(),
            "telepathy",
            trials=1,
            base_seed=0,
        )
        assert "telepathy" in str(spec_err.value)


class _StubFuture:
    """Future double: returns a payload, raises, or times out."""

    def __init__(self, payload=None, error=None, timeout=False, name="", log=None):
        self._payload = payload
        self._error = error
        self._timeout = timeout
        self._name = name
        self._log = log if log is not None else []
        self.seen_timeouts = []

    def result(self, timeout=None):
        self._log.append(self._name)
        self.seen_timeouts.append(timeout)
        if self._timeout:
            raise concurrent.futures.TimeoutError()
        if self._error is not None:
            raise self._error
        return self._payload

    def cancel(self):
        return False


class _StubPool:
    """Pool double: each submitted chunk gets the next scripted future."""

    def __init__(self, futures):
        self.futures = list(futures)
        self.submitted = []

    def submit(self, _fn, payload, _network):
        self.submitted.append(payload.trial_indices)
        return self.futures.pop(0)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def stub_pool(monkeypatch):
    """Route the pooled executor's chunks to scripted futures."""
    monkeypatch.setattr("repro.sim.parallel.pool_supported", lambda: True)
    pools = []

    def install(*futures):
        pool = _StubPool(futures)
        pools.append(pool)
        monkeypatch.setattr(PooledChunkExecutor, "_pool", lambda _self, _workers: pool)
        return pool

    yield install
    assert len(pools) <= 1


def _pooled(trials, chunk_size, **kwargs):
    return run_spec_trials(
        tiny_net(),
        "algorithm3",
        trials=trials,
        runner_params=PARAMS,
        max_workers=2,
        chunk_size=chunk_size,
        **kwargs,
    )


class TestCollectInOrder:
    """Timeout/crash paths of the pooled chunk executor, exercised with
    stub futures — no fork, no pool, no real clocks, so they run
    identically on every platform."""

    def test_reassembles_in_dispatch_order(self, stub_pool):
        awaited, progress = [], []
        stub_pool(
            _StubFuture(payload=[["r0", "r1"]], name="first", log=awaited),
            _StubFuture(payload=[["r2"]], name="second", log=awaited),
        )
        out = _pooled(3, 2, on_progress=lambda done, total: progress.append(done))
        assert out == ["r0", "r1", "r2"]
        assert awaited == ["first", "second"]
        assert progress == [2, 3]

    def test_timeout_budget_scales_with_chunk(self, stub_pool):
        fut = _StubFuture(payload=[["r0", "r1", "r2"]])
        stub_pool(fut)
        _pooled(3, 3, trial_timeout=1.5)
        assert fut.seen_timeouts == [4.5]

    def test_no_timeout_waits_forever(self, stub_pool):
        fut = _StubFuture(payload=[["r0"]])
        stub_pool(fut)
        _pooled(1, 1)
        assert fut.seen_timeouts == [None]

    def test_timeout_raises_typed_error(self, stub_pool):
        stub_pool(
            _StubFuture(payload=[["r0", "r1"]]),
            _StubFuture(payload=[["r2", "r3"]]),
            _StubFuture(timeout=True),
        )
        with pytest.raises(TrialTimeoutError) as info:
            _pooled(6, 2, trial_timeout=0.5, experiment="slowpoke", base_seed=11)
        err = info.value
        assert err.trial_indices == (4, 5)
        assert err.base_seed == 11
        assert err.experiment == "slowpoke"
        assert "timed out" in str(err)

    def test_crashed_worker_raises_typed_error(self, stub_pool):
        # BrokenProcessPool is what a hard worker death surfaces as;
        # failing fast means no pool rebuild and no resubmission.
        broken = BrokenProcessPool("worker died")
        pool = stub_pool(_StubFuture(error=broken))
        with pytest.raises(TrialExecutionError) as info:
            _pooled(1, 1, experiment="crash", base_seed=2)
        assert info.value.trial_indices == (0,)
        assert info.value.__cause__ is broken
        assert pool.submitted == [(0,)]

    def test_typed_errors_pass_through_unwrapped(self, stub_pool):
        original = TrialExecutionError("inner", trial_indices=(7,), base_seed=1)
        stub_pool(_StubFuture(error=original))
        with pytest.raises(TrialExecutionError) as info:
            _pooled(1, 1)
        assert info.value is original


class TestAsyncProtocolFanOut:
    def test_algorithm4_parallel_matches_serial(self):
        net = tiny_net()
        params = {"delta_est": 4, "max_frames_per_node": 50_000}
        serial = run_spec_trials(
            net, "algorithm4", trials=3, base_seed=2, runner_params=params
        )
        pooled = run_spec_trials(
            net,
            "algorithm4",
            trials=3,
            base_seed=2,
            runner_params=params,
            max_workers=3,
            chunk_size=1,
        )
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]


class TestArchiveManifestJson:
    def test_manifest_does_not_record_worker_count(self, tmp_path):
        spec = ExperimentSpec(
            name="m",
            workload=small_workload(),
            protocol="algorithm3",
            trials=2,
            runner_params=dict(PARAMS),
        )
        run_batch([spec], base_seed=1, output_dir=tmp_path, max_workers=2)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "workers" not in json.dumps(manifest)
        assert manifest["base_seed"] == 1


class TestReplayContract:
    """A carried (base_seed, trial_index) must reconstruct the trial."""

    def test_replay_trial_reproduces_archived_result(self):
        net = tiny_net()
        params = {"delta_est": 4, "max_slots": 30_000}
        results = run_spec_trials(
            net, "algorithm1", trials=4, base_seed=9, runner_params=params
        )
        replayed = replay_trial(
            net,
            "algorithm1",
            base_seed=9,
            trial_index=2,
            runner_params=params,
        )
        assert replayed.to_dict() == results[2].to_dict()

    def test_replay_from_archived_start_offsets(self, tmp_path):
        # The archive stores start_offsets under JSON's string keys; the
        # archived runner_params must replay the trial as it ran.
        spec = ExperimentSpec(
            name="clique_offsets",
            workload=small_workload(),
            protocol="algorithm3",
            trials=2,
            runner_params={**PARAMS, "start_offsets": {0: 3, 2: 1, 4: 5}},
        )
        run_batch([spec], base_seed=9, output_dir=tmp_path)
        archived = json.loads((tmp_path / "clique_offsets.json").read_text())
        assert archived["spec"]["runner_params"]["start_offsets"] == {
            "0": 3, "2": 1, "4": 5,
        }
        replayed = replay_trial(
            generate_network(spec.workload, seed=spec.network_seed),
            "algorithm3",
            base_seed=9,
            trial_index=1,
            runner_params=archived["spec"]["runner_params"],
        )
        trial = archived["trials"][1]
        for key in ("experiment", "trial", "workload"):  # stamped by run_batch
            del trial["metadata"][key]
        assert json.loads(json.dumps(replayed.to_dict())) == trial

    def test_replay_trial_reproduces_failure(self):
        net = tiny_net()
        with pytest.raises(TrialExecutionError) as info:
            run_spec_trials(
                net,
                "algorithm1",
                trials=2,
                base_seed=5,
                runner_params={"max_slots": 100},
                experiment="poison",
            )
        err = info.value
        # The same coordinates raise the same underlying error in-process.
        with pytest.raises(ConfigurationError):
            replay_trial(
                net,
                "algorithm1",
                base_seed=err.base_seed,
                trial_index=err.trial_indices[0],
                runner_params={"max_slots": 100},
            )

    def test_timeout_error_carries_replay_coordinates(self):
        # TrialTimeoutError is a TrialExecutionError: same replay fields.
        err = TrialTimeoutError(
            "m", experiment="e", trial_indices=(3, 4), base_seed=6
        )
        assert isinstance(err, TrialExecutionError)
        assert err.trial_indices == (3, 4)
        assert err.base_seed == 6

    def test_typed_error_passes_through_serial_loop_unwrapped(self, monkeypatch):
        # A TrialExecutionError raised below the dispatch layer must
        # surface as-is (replay fields intact), not double-wrapped.
        original = TrialExecutionError(
            "inner", experiment="inner-exp", trial_indices=(1,), base_seed=3
        )

        def poisoned(*_args, **_kwargs):
            raise original

        monkeypatch.setattr("repro.sim.runner.run_experiment_trial", poisoned)
        with pytest.raises(TrialExecutionError) as info:
            run_spec_trials(
                tiny_net(),
                "algorithm1",
                trials=1,
                base_seed=0,
                runner_params={"delta_est": 4, "max_slots": 100},
                experiment="outer-exp",
            )
        assert info.value is original

    def test_wrapped_error_chains_the_original_traceback(self):
        with pytest.raises(TrialExecutionError) as info:
            run_spec_trials(
                tiny_net(),
                "algorithm1",
                trials=1,
                base_seed=0,
                runner_params={"max_slots": 100},
            )
        assert isinstance(info.value.__cause__, ConfigurationError)
