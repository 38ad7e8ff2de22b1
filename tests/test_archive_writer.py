"""The archive writer equals ``json.dumps(indent=2, sort_keys=True)``.

:meth:`DiscoveryResult.to_json` renders a trial, and ``run_batch`` an
experiment file, without the stdlib's pure-Python indent encoder. The
stdlib stays the oracle: every text here must equal it byte for byte,
per trial (at the top level and at the depth a trial sits in an
experiment file) and per whole file. The results come from the engine
and async goldens, from campaigns on every named scenario, and from
hypothesis-generated results that reach the corners of json's rules:
non-finite and extreme floats, empty containers, int-keyed metadata
that sorts differently as ints and as strings, and escaped strings.
"""

from __future__ import annotations

import json
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.sim import batch
from repro.sim.batch import BatchOutcome, ExperimentSpec, run_batch
from repro.sim.results import DiscoveryResult, indented_json, load_result
from repro.sim.runner import experiment_runner_params
from repro.workloads.scenarios import scenario, scenario_names
from tests import test_async_goldens, test_engine_goldens


def stdlib(value, depth: int = 0) -> str:
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + "  " * depth
    )


def assert_trial_text(result: DiscoveryResult) -> None:
    for depth in (0, 2):
        assert result.to_json(depth) == stdlib(result.to_dict(), depth)


def stdlib_file(outcome: BatchOutcome) -> str:
    """The experiment file as the stdlib writes its payload dict."""
    return stdlib(
        {
            "network_params": outcome.network_params,
            "schema_version": batch.ARCHIVE_SCHEMA_VERSION,
            "spec": batch._archived_spec(outcome.spec),
            "trials": [r.to_dict() for r in outcome.results],
        }
    )


def assert_archive_text(outcomes, directory: Path) -> None:
    for outcome in outcomes:
        written = (directory / f"{outcome.spec.name}.json").read_text()
        assert written == stdlib_file(outcome)


@pytest.mark.parametrize("name", sorted(test_engine_goldens.CASES))
def test_engine_golden_results(name):
    assert_trial_text(test_engine_goldens.fast_result(name))


@pytest.mark.parametrize("name", sorted(test_async_goldens.CASES))
def test_async_golden_results(name):
    result, _ = test_async_goldens.case_run(name)
    assert_trial_text(result)


def scenario_specs(name: str):
    """Grid, reference, async and (where the scenario has one) faulted runs."""
    scen = scenario(name)
    net = scen.build(0)
    faults = scen.fault_plan
    specs = [
        ExperimentSpec(
            name=f"{name}_{protocol}",
            workload=scen.config,
            protocol=protocol,
            trials=2,
            runner_params=experiment_runner_params(
                protocol, net, delta_est=scen.delta_est, max_slots=3_000, faults=faults
            ),
        )
        for protocol in ("algorithm1", "algorithm3", "mcdis", "universal_sweep")
    ]
    params = {"delta_est": scen.delta_est, "max_frames_per_node": 300}
    if faults is not None:
        params["faults"] = faults
    specs.append(
        ExperimentSpec(
            name=f"{name}_algorithm4",
            workload=scen.config,
            protocol="algorithm4",
            trials=2,
            runner_params=params,
        )
    )
    return specs


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_campaign_files(name, tmp_path):
    outcomes = run_batch(scenario_specs(name), base_seed=5, output_dir=tmp_path)
    assert_archive_text(outcomes, tmp_path)
    for outcome in outcomes:
        for result in outcome.results:
            assert_trial_text(result)


def test_int_keyed_runner_param_sorts_as_ints(tmp_path):
    # The spec goes through the stdlib unnormalized, so a 10+-entry
    # int-keyed dict sorts numerically (0, 1, 2, ..., 10, ...), unlike
    # the same dict read back from JSON.
    scen = scenario("rural_sparse")
    offsets = {node: 3 * node % 7 for node in range(16)}
    spec = ExperimentSpec(
        name="offsets",
        workload=scen.config,
        protocol="algorithm3",
        trials=2,
        runner_params={"max_slots": 3_000, "delta_est": 4, "start_offsets": offsets},
    )
    outcomes = run_batch([spec], base_seed=1, output_dir=tmp_path)
    assert_archive_text(outcomes, tmp_path)
    text = (tmp_path / "offsets.json").read_text()
    assert text.index('"2": ') < text.index('"10": ')


def test_file_without_trials(tmp_path):
    (outcome,) = run_batch(
        scenario_specs("rural_sparse")[:1], base_seed=1, output_dir=tmp_path
    )
    outcome.results = []  # every trial quarantined
    assert batch._payload_text(outcome) == stdlib_file(outcome)
    assert '"trials": []' in batch._payload_text(outcome)


def test_save_writes_the_stdlib_text(tmp_path):
    result = test_engine_goldens.fast_result("geo20-algorithm3-short_budget")
    result.save(tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text() == stdlib(result.to_dict())
    assert load_result(tmp_path / "r.json").coverage == result.coverage


# -- generated results ------------------------------------------------------

EDGE_FLOATS = [1e-05, 1e16, -0.0, 5e-324, 0.1, 1.0, 123456789.0, 2.5e-300]
nodes = st.integers(min_value=0, max_value=120)
times = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(EDGE_FLOATS),
    st.sampled_from([np.float64(0.5), np.float64(1e16)]),
    st.floats(allow_nan=False, allow_infinity=False),
)
strings = st.text(
    st.characters(min_codepoint=0, max_codepoint=0x1F600, blacklist_categories=("Cs",)),
    max_size=8,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(),  # NaN and ±inf included
    st.sampled_from(EDGE_FLOATS),
    st.sampled_from([np.float64(1.5), np.float64("nan"), np.float64("-inf")]),
    strings,
)
flat_dicts = st.dictionaries(st.sampled_from(["quiet", "rx", "tx", "x y"]), scalars)
node_maps = st.dictionaries(nodes, st.one_of(scalars, flat_dicts), max_size=15)
wide_int_keyed = st.dictionaries(nodes, scalars, min_size=10, max_size=15)
nested = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(strings, inner, max_size=3),
        st.dictionaries(nodes, inner, max_size=3),
    ),
    max_leaves=8,
)
#: 0 and "0" collide once keys become strings; only metadata, which is
#: normalized first, can hold such a dict.
mixed_keys = st.dictionaries(st.one_of(strings, nodes), scalars, max_size=4)
metadata = st.dictionaries(
    st.one_of(
        st.sampled_from(
            [
                "radio_activity",
                "collisions",
                "clear_receptions",
                "full_frames_since_ts",
                "faults",
                "engine",
            ]
        ),
        strings,
    ),
    st.one_of(node_maps, wide_int_keyed, nested, mixed_keys, st.just(object())),
    max_size=6,
)


@st.composite
def results(draw):
    coverage = draw(
        st.dictionaries(st.tuples(nodes, nodes), times, max_size=30)
    )
    tables = draw(
        st.dictionaries(
            nodes,
            st.dictionaries(
                nodes, st.frozensets(st.integers(0, 40), max_size=5), max_size=6
            ),
            max_size=12,
        )
    )
    return DiscoveryResult(
        time_unit=draw(st.sampled_from(["slots", "seconds"])),
        coverage=coverage,
        horizon=draw(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))),
        completed=all(t is not None for t in coverage.values()),
        neighbor_tables=tables,
        start_times=draw(
            st.dictionaries(
                nodes,
                st.one_of(times.filter(lambda t: t is not None), st.floats()),
                max_size=15,
            )
        ),
        network_params=draw(
            st.dictionaries(st.sampled_from(["N", "S", "Delta", "rho", "links"]), scalars)
        ),
        metadata=draw(metadata),
    )


@settings(max_examples=300, deadline=None)
@given(results())
def test_generated_results(result):
    assert_trial_text(result)


@settings(max_examples=100, deadline=None)
@given(st.one_of(scalars, nested, wide_int_keyed), st.integers(0, 4))
def test_indented_json(value, depth):
    assert indented_json(value, depth) == stdlib(value, depth)

