"""Property: a fused campaign archives every experiment as if it ran alone.

``run_batch`` runs every spec that realizes the same network as one
trial group, whose chunks advance the grid-eligible specs in one grid
pass and run the others trial by trial. Hypothesis draws such spec sets
— 2–4 vectorized protocols (robust variants included), sometimes with
an ineligible ``mcdis`` spec or an asynchronous ``algorithm4`` spec
with a small frame budget on the same network, random start offsets,
erasure and a synchronous fault preset — plus the chunking and retry
policy, and checks that each ``<experiment>.json`` of the fused archive
equals, byte for byte, the file a campaign of that spec alone writes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.registry import VECTORIZED_PROTOCOLS
from repro.faults.presets import fault_preset, fault_preset_names
from repro.resilience.policy import RetryPolicy
from repro.sim.batch import ExperimentSpec, run_batch
from repro.workloads.generator import WorkloadConfig
from tests.archives import experiment_files, solo_archives


@st.composite
def spec_params(draw, nodes):
    params = {
        "max_slots": draw(st.sampled_from([500, 2_000])),
        "delta_est": nodes,
    }
    if draw(st.booleans()):
        params["start_offsets"] = {
            node: draw(st.integers(0, 40)) for node in range(nodes)
        }
    erasure = draw(st.sampled_from([0.0, 0.2]))
    if erasure:
        params["erasure_prob"] = erasure
    preset = draw(st.sampled_from([None, *fault_preset_names()]))
    if preset is not None:
        params["faults"] = fault_preset(preset)
    return params


@st.composite
def same_network_campaigns(draw):
    nodes = draw(st.integers(4, 12))
    workload = WorkloadConfig(
        topology="random_geometric",
        topology_params={"num_nodes": nodes, "radius": 0.5},
        channel_model="common_channel_plus_random",
        channel_params={"universal_size": 4, "set_size": 2},
    )
    network_seed = draw(st.integers(0, 3))
    protocols = draw(
        st.lists(st.sampled_from(VECTORIZED_PROTOCOLS), min_size=2, max_size=4)
    )
    specs = [
        ExperimentSpec(
            name=f"e{k}_{protocol}",
            workload=workload,
            protocol=protocol,
            trials=draw(st.integers(1, 3)),
            network_seed=network_seed,
            runner_params=draw(spec_params(nodes)),
        )
        for k, protocol in enumerate(protocols)
    ]
    if draw(st.booleans()):
        rival = ExperimentSpec(
            name="rival_mcdis",
            workload=workload,
            protocol="mcdis",
            trials=draw(st.integers(1, 3)),
            network_seed=network_seed,
            runner_params={"max_slots": 500, "delta_est": None},
        )
        specs.insert(draw(st.integers(0, len(specs))), rival)
    if draw(st.booleans()):
        asynchronous = ExperimentSpec(
            name="async_algorithm4",
            workload=workload,
            protocol="algorithm4",
            trials=draw(st.integers(1, 3)),
            network_seed=network_seed,
            runner_params={"delta_est": nodes, "max_frames_per_node": 40},
        )
        specs.insert(draw(st.integers(0, len(specs))), asynchronous)
    return specs


@given(
    specs=same_network_campaigns(),
    base_seed=st.integers(0, 2**16),
    chunk_size=st.sampled_from([None, 1, 2, 3]),
    retry=st.sampled_from([None, RetryPolicy()]),
)
@settings(max_examples=20, deadline=None)
def test_fused_experiment_files_equal_solo_runs(specs, base_seed, chunk_size, retry):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        run_batch(
            specs,
            base_seed=base_seed,
            output_dir=root / "fused",
            chunk_size=chunk_size,
            retry=retry,
        )
        assert experiment_files(root / "fused") == solo_archives(
            specs, base_seed, root / "alone"
        )
