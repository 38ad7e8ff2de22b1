"""Frozen vectorized-engine output: golden digests over every feature.

The fast engine once carried two reception kernels, a dense ``(C, N, N)``
matmul below a size ceiling and the edge-centric scatter above it, and a
test pinned them byte-identical to each other. The digests below were
recorded from that two-kernel engine, so the pin survives as data: a
change to the one remaining kernel that moves a single output byte
fails here. The corpus covers all five vectorized protocols, erasure,
start offsets, each fault family (loss, jamming, churn) and a network
above the old dense ceiling (N=300, C=12: 12·300² > 2²⁰ entries).

The fast engine also once ran its own serial slot loop; it is now the
grid engine's one-row form. The ``homog12``, ``odd11`` and
``short_budget`` digests were recorded from that serial loop, covering
what the grid does differently for one row: one channel-pick bound
shared by every node (|A(u)| = 3, and |A(u)| = 4 at an odd node count)
and results that end with most links uncovered. Multi-row grids are
pinned to this engine by ``test_grid_engine.py``.

Regenerate only when an output change is intended:
``PYTHONPATH=src python tests/test_engine_goldens.py`` prints the table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

import numpy as np
import pytest

from repro.faults.presets import fault_preset
from repro.net import M2HeWNetwork, build_network, channels, topology
from repro.sim.fast_slotted import FastSlottedSimulator
from repro.sim.rng import RngFactory
from repro.sim.runner import _vector_schedule
from repro.sim.stopping import StoppingCondition


@lru_cache(maxsize=None)
def network(name: str) -> M2HeWNetwork:
    if name == "hetero10":
        rng = np.random.default_rng(11)
        topo = topology.random_geometric(10, 0.6, rng)
        assignment = channels.uniform_random_subsets(10, 6, 2, rng, set_size_max=5)
        return build_network(topo, channels.repair_pair_overlap(topo, assignment, rng))
    if name == "geo20":
        rng = np.random.default_rng(5)
        topo = topology.random_geometric(20, 0.45, rng)
        assignment = channels.uniform_random_subsets(20, 10, 3, rng, set_size_max=6)
        return build_network(topo, channels.repair_pair_overlap(topo, assignment, rng))
    if name == "homog12":
        # |A(u)| = 3 everywhere: one bound for every node, not a power of two.
        rng = np.random.default_rng(17)
        topo = topology.random_geometric(12, 0.6, rng)
        return build_network(topo, channels.uniform_random_subsets(12, 5, 3, rng))
    if name == "odd11":
        # |A(u)| = 4 everywhere but an odd node count.
        rng = np.random.default_rng(23)
        topo = topology.random_geometric(11, 0.6, rng)
        return build_network(topo, channels.uniform_random_subsets(11, 6, 4, rng))
    if name == "geo300":
        rng = np.random.default_rng(3)
        topo = topology.random_geometric(300, 0.12, rng)
        return build_network(topo, channels.common_channel_plus_random(300, 12, 4, rng))
    raise KeyError(name)


@dataclass(frozen=True)
class Case:
    net: str
    protocol: str
    seed: int
    max_slots: int
    stop: bool = True
    delta_est: int = 10
    erasure_prob: float = 0.0
    start_offsets: Optional[Dict[int, int]] = None
    faults: Optional[str] = None


_OFFSETS = {0: 0, 3: 40, 7: 125}

CASES: Dict[str, Case] = {
    # Every vectorized schedule, with erasure coins and staggered starts.
    **{
        f"hetero10-{p}-erasure-offsets": Case(
            "hetero10", p, seed=100 + i, max_slots=3000,
            erasure_prob=0.1, start_offsets=_OFFSETS,
        )
        for i, p in enumerate(
            ("algorithm1", "algorithm2", "algorithm3", "robust_staged", "robust_flat")
        )
    },
    # Each fault family: loss, jamming, churn (late join, crash-stop).
    "geo20-algorithm3-flat_loss": Case("geo20", "algorithm3", 201, 3000, faults="flat_loss"),
    "geo20-algorithm3-bursty_loss": Case("geo20", "algorithm3", 202, 3000, faults="bursty_loss"),
    "geo20-robust_staged-jamming_light": Case(
        "geo20", "robust_staged", 203, 3000, faults="jamming_light"
    ),
    "geo20-algorithm3-jamming_heavy": Case(
        "geo20", "algorithm3", 204, 3000, faults="jamming_heavy"
    ),
    "geo20-algorithm3-late_join": Case("geo20", "algorithm3", 205, 3000, faults="late_join"),
    "geo20-algorithm1-crash_node0": Case(
        "geo20", "algorithm1", 206, 3000, stop=False, faults="crash_node0"
    ),
    "geo20-algorithm2-budget": Case("geo20", "algorithm2", 207, 3000, stop=False),
    # One channel-pick bound shared by every node: |A(u)| = 3, and
    # |A(u)| = 4 at an odd node count.
    "homog12-algorithm2": Case("homog12", "algorithm2", 401, 3000),
    "homog12-algorithm3-erasure-offsets": Case(
        "homog12", "algorithm3", 402, 3000, erasure_prob=0.1, start_offsets=_OFFSETS
    ),
    "homog12-algorithm3-bursty_loss": Case(
        "homog12", "algorithm3", 403, 3000, faults="bursty_loss"
    ),
    "odd11-algorithm1": Case("odd11", "algorithm1", 404, 3000),
    "odd11-robust_staged-jamming_light": Case(
        "odd11", "robust_staged", 405, 3000, faults="jamming_light"
    ),
    "odd11-algorithm3-crash_node0": Case(
        "odd11", "algorithm3", 406, 3000, stop=False, faults="crash_node0"
    ),
    # Budgets that end with most links still uncovered.
    "geo20-algorithm3-short_budget": Case("geo20", "algorithm3", 407, 40, stop=False),
    "geo300-algorithm1-short_budget": Case(
        "geo300", "algorithm1", 408, 60, stop=False, delta_est=64
    ),
    # Above the old dense-kernel ceiling.
    "geo300-algorithm3": Case("geo300", "algorithm3", 301, 400, stop=False, delta_est=64),
    "geo300-algorithm1-erasure": Case(
        "geo300", "algorithm1", 302, 400, stop=False, delta_est=64, erasure_prob=0.2
    ),
}

GOLDEN_DIGESTS: Dict[str, str] = {
    "geo20-algorithm1-crash_node0": "bff4d5d2ea544fe557d6703bc0719e28b65956d3948410f1b2026afb38612158",
    "geo20-algorithm2-budget": "0ae3578a97eba8688361a70062adb62193ce379e886253d285f1322a3f0bc826",
    "geo20-algorithm3-bursty_loss": "f858635a0463657a22ba8f059429b634f23ee8726abbb86113c3769b76b47a89",
    "geo20-algorithm3-flat_loss": "87b7ee1721b986fda1f749c09eb5f98c099af0defd5f27b555924b68243ecd66",
    "geo20-algorithm3-jamming_heavy": "072b20fa43167d0d77d5fc9ad23da9e60ab7abbd82545cea684a1e6d81fe4344",
    "geo20-algorithm3-late_join": "bd96105d30fba593f5a38b1b61c13cf66f1641fc31559cc51b8776e3bbd72d5f",
    "geo20-algorithm3-short_budget": "dbed41a586dc73ec0c53538aad4ebf2de49ec47b3a0dcb78fe9857764620763c",
    "geo20-robust_staged-jamming_light": "8c3622b6bfbf8ef65b73e96630cc229f135e139b7c024e43880f64d4708f90e3",
    "geo300-algorithm1-erasure": "79afac8c7857b69e8ca21dc99c29d591023ab58207c54b0026e613c4a1c23088",
    "geo300-algorithm1-short_budget": "b22c59eb2cc7ba4beb96ea3f7827790e27047d35489ad1616b25eef34d97203b",
    "geo300-algorithm3": "bdcf92953c3396e5f5f4e217eb3c0ccf934afa656369683c2aa23537b4bf8d24",
    "hetero10-algorithm1-erasure-offsets": "eefe5e414b8a59b8f3e3104f319bee50f6ea7f655c67d5b76ba0e5c29396e525",
    "hetero10-algorithm2-erasure-offsets": "97c33e38c10d86dca7437a9bfdf19f09b421bb3d45c45e1af60fba87e344f1e0",
    "hetero10-algorithm3-erasure-offsets": "94328f6d635e079bed0e1295bdbd69e7f33c8898236ed0d1a6ae933fd4d21acb",
    "hetero10-robust_flat-erasure-offsets": "3224147e4ba51b4e4465d466d513b3b89191e184c2f563e1ea68782e32362133",
    "hetero10-robust_staged-erasure-offsets": "fd8f3ffb7f2fdff00e4643329eac1bc07146b9edebc80d5a009217a038a082a3",
    "homog12-algorithm2": "90cb08133b148c00d526d971bb7e68e1d35ca21c8e9c0fbb6965fc481b7153af",
    "homog12-algorithm3-bursty_loss": "24e38e6fb5f671c472bdbb8023c75e7bb83a204df7385d56ba9d626711bff27e",
    "homog12-algorithm3-erasure-offsets": "91ed0209056f5bed5ea7e91fb55a7cfc08b4550ff635a9c655e71bf868d507fc",
    "odd11-algorithm1": "5efb4ab2c41cd60786c02d1d9d9ea1c8a94ee0638a3ae70d7fa24f790b0c47c8",
    "odd11-algorithm3-crash_node0": "5019b3d1e4f7e53648fba5199568ee52e98ead70c6965350316b526756d605dc",
    "odd11-robust_staged-jamming_light": "f81cb21256520cde4a113358c44d1f25cab722d1f9fdaf142b46d5758a9f61a7",
}


def fast_digest(case: Case) -> str:
    net = network(case.net)
    sim = FastSlottedSimulator(
        net,
        _vector_schedule(case.protocol, net, case.delta_est),
        RngFactory(case.seed),
        start_offsets=case.start_offsets,
        erasure_prob=case.erasure_prob,
        faults=fault_preset(case.faults) if case.faults else None,
    )
    result = sim.run(
        StoppingCondition(max_slots=case.max_slots, stop_on_full_coverage=case.stop)
    )
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_fast_engine_matches_golden(name):
    assert fast_digest(CASES[name]) == GOLDEN_DIGESTS[name]


if __name__ == "__main__":
    print("GOLDEN_DIGESTS: Dict[str, str] = {")
    for name in sorted(CASES):
        print(f'    "{name}": "{fast_digest(CASES[name])}",')
    print("}")
