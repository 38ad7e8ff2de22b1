"""Tests of the end-to-end benchmark's own machinery.

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402  (puts src/ on sys.path)
from repro.service.campaigns import CampaignRequest, campaign_specs  # noqa: E402
import repro.sim.batch as batch  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(span_id, parent, start, end):
    return tracer.Span(span_id, parent, f"s{span_id}", start, end)


def test_self_time_subtracts_the_union_of_nested_and_overlapping_children():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),  # overlaps its sibling 3 on [3, 4]
        span(3, 1, 3.0, 6.0),
        span(4, 2, 2.0, 3.0),  # grandchild: charged to 2, not to 1
        span(5, 1, 9.0, 12.0),  # outlives its parent: only [9, 10] counts
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({1: 10 - 5 - 1, 2: 3 - 1, 3: 3, 4: 1, 5: 3})


def test_union_length_merges_overlaps_and_nesting():
    assert tracer.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4)
    assert tracer.union_length([]) == 0


def test_rates_use_each_clients_adjusted_time_and_only_verified_work():
    jobs = [
        workloads.Job(0, trials=4, latency=2.0, slowdown=2.0),  # client 0: 1 s adjusted
        workloads.Job(2, trials=4, latency=1.0, problems=["bad"]),  # counts time, not trials
        workloads.Job(1, trials=6, latency=3.0, slowdown=1.0),  # client 1
    ]
    run = workloads.Pass(start=0.0, end=3.0, jobs=jobs, clients=2)
    assert run.trials_per_s() == pytest.approx(4 / 2 + 6 / 3)
    assert run.rate(lambda j: 1) == pytest.approx(1 / 2 + 1 / 3)
    assert jobs[0].adjusted == pytest.approx(1.0)


def test_compare_ties_count_for_neither_side():
    assert compare.verdict([1.0] * 10, [1.0] * 10, "higher", 0.1) == ("unchanged", 0.0)


def test_compare_exactly_nine_of_ten_wins_is_a_gain():
    parent = [100.0 + i % 3 for i in range(10)]
    change = [p + 10.0 for p in parent[:9]] + [parent[9] - 1.0]
    assert compare.verdict(parent, change, "higher", 0.1) == ("improved", 0.9)
    change[8] = parent[8] - 1.0  # 8 of 10 no longer clears the rule
    assert compare.verdict(parent, change, "higher", 0.1)[0] == "unchanged"


def test_compare_gain_must_exceed_the_parent_spread():
    parent = [90.0, 110.0] * 5  # IQR 20
    within = [p + 5.0 for p in parent]  # every pair moves, by less than the IQR
    assert compare.verdict(parent, within, "higher", None)[0] == "unchanged"
    assert compare.verdict(parent, within, "lower", None)[0] == "unchanged"
    beyond = [p + 25.0 for p in parent]
    assert compare.verdict(parent, beyond, "higher", None)[0] == "improved"
    assert compare.verdict(parent, beyond, "lower", None)[0] == "regressed"


def test_compare_spread_beyond_the_bound_is_unresolved_not_unchanged():
    parent = [80.0, 120.0] * 5
    change = [121.0, 79.0] * 5
    assert compare.verdict(parent, change, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, [p * 1.2 for p in parent], "lower", 0.1)[0] == "regressed"
    # Unless every change run beats every parent run.
    assert compare.verdict(parent, [70.0, 75.0] * 5, "lower", 0.1)[0] != "unresolved"


def test_compare_pairs_runs_by_file_name_and_reports_the_unpaired():
    parent = {"s1.txt": 1.0, "s2.txt": 2.0, "s3.txt": 3.0}
    change = {"s3.txt": 30.0, "s1.txt": 10.0, "s4.txt": 40.0}
    assert compare.paired(parent, change) == ([1.0, 3.0], [10.0, 30.0], ["s2.txt", "s4.txt"])


def test_declared_names_and_units_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics + BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert sorted(workloads.CLASSES) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_emits_exactly_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper_campaign",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK[section])


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def specs(seed):
        ctx = workloads.Context(seed, tmp_path)
        return [cls(ctx).specs(1) for cls in (workloads.PaperCampaign, workloads.GridKernel)]

    assert specs(5) == specs(5)
    assert specs(5) != specs(6)
    mix = workloads.ServiceMix(workloads.Context(5, tmp_path))
    resubmitted = {k: mix.original(k) for k in range(80) if mix.original(k) != k}
    assert len(resubmitted) == 20  # every 4th job
    for k, origin in resubmitted.items():
        # An earlier, hence finished, fresh job of the same client.
        assert origin < k and origin % 2 == k % 2 and mix.original(origin) == origin
    # Fresh requests walk the balanced mix in order, skipping no entry.
    fresh = [k for k in range(80) if k not in resubmitted][: 2 * len(workloads.MIX)]
    walked = sorted((mix.request(k).scenario, mix.request(k).protocols) for k in fresh)
    assert walked == sorted(workloads.MIX * 2)


@pytest.fixture(scope="module")
def tiny_campaign():
    request = CampaignRequest(
        scenario="rural_sparse", protocols=("algorithm3",), trials=2, max_slots=50_000
    )
    return campaign_specs(request), request.base_seed


def archive_bytes(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_tracing_leaves_archives_byte_identical(tiny_campaign, tmp_path):
    specs, base_seed = tiny_campaign
    original = batch.run_batch
    batch.run_batch(specs, base_seed=base_seed, output_dir=tmp_path / "plain")
    spans = tracer.Tracer()
    tracer.install_program_tracing(spans)
    try:
        batch.run_batch(specs, base_seed=base_seed, output_dir=tmp_path / "traced")
    finally:
        spans.uninstall()
    assert batch.run_batch is original
    assert archive_bytes(tmp_path / "plain") == archive_bytes(tmp_path / "traced")
    keys = {s.key for s in spans.spans}
    assert {"sim.batch.run_batch", "sim.runner.run_experiment_trial.fast"} <= keys
    assert any(name.startswith("sim.fast_slotted.") for _, name, _ in spans.counts)
    assert spans.skipped == []


def test_a_flipped_archive_byte_fails_the_gate(tiny_campaign, tmp_path):
    specs, base_seed = tiny_campaign
    good = tmp_path / "good"
    batch.run_batch(specs, base_seed=base_seed, output_dir=good)
    digest, problems = workloads.check_archive(good)
    assert digest and problems == []

    def flipped(name):
        bad = tmp_path / f"bad-{name}"
        shutil.copytree(good, bad)
        data = bytearray((bad / name).read_bytes())
        data[len(data) // 2] ^= 0x01
        (bad / name).write_bytes(bytes(data))
        return workloads.check_archive(bad)

    assert flipped(f"{specs[0].name}.json")[1]  # checksum mismatch
    assert flipped("manifest.json")[0] != digest  # fails the golden/repeat check
