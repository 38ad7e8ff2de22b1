"""Frozen asynchronous-engine output: golden digests for Algorithm 4.

Each digest is the sha256 of ``json.dumps(result.to_dict(),
sort_keys=True)`` for one :func:`~repro.sim.runner.run_asynchronous`
run, recorded before the engine's event loop was rewritten around one
heap of tuples. The corpus covers every clock model, start spreads,
erasure, frame and real-time budgets with and without the oracle stop,
each fault family (loss, jamming, churn, primary users, clock glitches),
a traced run (whose frame geometry is digested too) and a
self-terminating run, which plays QUIET frames.

With perfect clocks and every node starting at 0, frame boundaries of
different nodes fall on the same nominal instants, so equal-time events
are frequent: those digests pin the FIFO order among simultaneous
events.

A node's first frame now begins exactly at its start time instead of at
the clock's inverse of its local start, which can land an ulp or a
bisection tolerance away. That moved only the cases where some node's
round trip missed its start: every ``-constant-spread`` case except
``urban_dense``'s, whose changes rounded away, and the ``random_walk``,
``frame_budget``, ``traced``, ``late_join``, ``sinusoidal-start0`` and
``crash_glitch`` cases. Those digests were re-recorded after the fix.

Regenerate only when an output change is intended:
``PYTHONPATH=src python tests/test_async_goldens.py`` prints the table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.faults import ClockGlitch, FaultPlan, NodeChurn
from repro.faults.activity import RenewalActivity
from repro.faults.presets import fault_preset, fault_preset_names
from repro.net import M2HeWNetwork
from repro.sim.results import DiscoveryResult
from repro.sim.runner import run_asynchronous
from repro.sim.termination_runner import run_terminating_async
from repro.sim.trace import ExecutionTrace
from repro.workloads import scenario


@lru_cache(maxsize=None)
def network(name: str) -> M2HeWNetwork:
    return scenario(name).build(0)


def _faults(name: Optional[str], scen: str) -> Optional[FaultPlan]:
    if name is None:
        return None
    if name == "scenario":
        return scenario(scen).fault_plan
    if name == "crash_glitch":
        return FaultPlan(
            models=(
                NodeChurn(crashes=((0, 40.0),)),
                ClockGlitch(spike=0.05, activity=RenewalActivity(5.0, 15.0)),
            )
        )
    return fault_preset(name)


@dataclass(frozen=True)
class AsyncCase:
    scenario: str
    seed: int
    drift: float = 0.0
    clock_model: str = "constant"
    start_spread: float = 0.0
    erasure_prob: float = 0.0
    max_frames: Optional[int] = None
    max_real_time: Optional[float] = None
    stop: bool = True
    faults: Optional[str] = None
    kind: str = "run"

    def run(self) -> Tuple[DiscoveryResult, Dict[str, Any]]:
        """Run the case: its result, and the extras its digest also covers."""
        net = network(self.scenario)
        delta_est = scenario(self.scenario).delta_est
        max_frames = self.max_frames
        if max_frames is None and self.max_real_time is None:
            max_frames = 200_000  # the campaign default
        if self.kind == "terminating":
            assert self.max_frames is not None
            outcome = run_terminating_async(
                net,
                seed=self.seed,
                max_frames_per_node=self.max_frames,
                quiet_threshold=20,
                delta_est=delta_est,
                drift_bound=self.drift,
                clock_model=self.clock_model,
                start_spread=self.start_spread,
            )
            return outcome.result, {
                "terminated_at": {str(k): v for k, v in outcome.terminated_at.items()},
                "false_stops": outcome.false_stops,
            }
        trace = ExecutionTrace() if self.kind == "traced" else None
        result = run_asynchronous(
            net,
            seed=self.seed,
            delta_est=delta_est,
            max_frames_per_node=max_frames,
            max_real_time=self.max_real_time,
            drift_bound=self.drift,
            clock_model=self.clock_model,
            start_spread=self.start_spread,
            erasure_prob=self.erasure_prob,
            stop_on_full_coverage=self.stop,
            trace=trace,
            faults=_faults(self.faults, self.scenario),
        )
        if trace is None:
            return result, {}
        frames = [
            [f.node_id, f.frame_index, list(f.slot_bounds), f.mode.value, f.channel]
            for nid in trace.node_ids
            for f in trace.frames_of(nid)
        ]
        return result, {"frames": frames}


@lru_cache(maxsize=None)
def case_run(name: str) -> Tuple[DiscoveryResult, Dict[str, Any]]:
    """The named case's run (cached: the archive-writer tests render it)."""
    return CASES[name].run()


def digest(name: str) -> str:
    """The named case's digest (:func:`run_digest` of its cached run)."""
    return run_digest(*case_run(name))


def run_digest(result: DiscoveryResult, extras: Dict[str, Any]) -> str:
    """sha256 of the JSON-ready payload: the result, plus any extras."""
    payload = {"result": result.to_dict(), **extras} if extras else result.to_dict()
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_NETWORKS = (
    "adversarial_heterogeneous",
    "campus_cr",
    "rural_sparse",
    "single_common_channel",
    "suburban_asymmetric",
    "urban_dense",
    "wideband_campus",
)

CASES: Dict[str, AsyncCase] = {
    # Perfect clocks, every node starting at 0: nominal-instant ties.
    **{f"{net}-defaults": AsyncCase(net, seed=1) for net in _NETWORKS},
    # Constant drift and staggered starts.
    **{
        f"{net}-constant-spread": AsyncCase(
            net, seed=2, drift=0.1, start_spread=5.0
        )
        for net in _NETWORKS
    },
    # The scenarios' own fault plans.
    "jammed_urban-faults": AsyncCase("jammed_urban", seed=3, faults="scenario"),
    "campus_pu_dynamics-faults": AsyncCase(
        "campus_pu_dynamics", seed=4, faults="scenario"
    ),
    "campus_cr-random_walk": AsyncCase(
        "campus_cr", seed=5, drift=0.1, clock_model="random_walk", start_spread=5.0
    ),
    "campus_cr-sinusoidal-start0": AsyncCase(
        "campus_cr", seed=6, drift=0.1, clock_model="sinusoidal"
    ),
    "campus_cr-erasure": AsyncCase("campus_cr", seed=7, erasure_prob=0.3),
    "campus_cr-frame_budget": AsyncCase(
        "campus_cr", seed=8, drift=0.05, start_spread=3.0, max_frames=300, stop=False
    ),
    "campus_cr-real_time": AsyncCase(
        "campus_cr", seed=9, drift=0.05, max_real_time=150.0, stop=False
    ),
    **{
        f"campus_cr-{preset}": AsyncCase("campus_cr", seed=10 + i, faults=preset)
        for i, preset in enumerate(fault_preset_names())
    },
    "campus_cr-crash_glitch": AsyncCase(
        "campus_cr", seed=20, drift=0.05, max_frames=300, stop=False,
        faults="crash_glitch",
    ),
    "campus_cr-traced": AsyncCase(
        "campus_cr", seed=21, drift=0.05, start_spread=2.0, kind="traced"
    ),
    "rural_sparse-terminating": AsyncCase(
        "rural_sparse", seed=22, max_frames=400, kind="terminating"
    ),
}

GOLDEN_DIGESTS: Dict[str, str] = {
    "adversarial_heterogeneous-constant-spread": "79162f91464d17fe46e2783f575033776e87b8433fb4a102dacc7e31f9448cde",
    "adversarial_heterogeneous-defaults": "d41b26ca8fe19c5a78effb97a01db0f5b1b597e571fdb85fd9db4d438d345e46",
    "campus_cr-bursty_loss": "a49bc3bd6b24a747b6f69e288d6844e476f943f9a6246617a25891e44e04f4f2",
    "campus_cr-constant-spread": "1e660e053b1d5f6a182655f8f6b8cd9552dd9b80762501f01d6988b9206e9668",
    "campus_cr-crash_glitch": "d724af4266e4be66f88458ffc07c15f66833f44ef5663603fdb2fa7a58d3f583",
    "campus_cr-crash_node0": "907b2d80fcc0f4cd1ca3f5a0793c3a00f5d7045a34cd4fe0312e64ddb38474d5",
    "campus_cr-defaults": "dce522461b64288cfa31a2ed513af5a01d4ef78833f7171bfb44eca25c6ff217",
    "campus_cr-erasure": "693077c0488a236cbf4d84d6b22761c31c44490741d3c526f4a8ce4d7e8214b2",
    "campus_cr-flat_loss": "98e9b0496c32b80acbd86379b3647a724be465a3c9c82ecc5517b5b430ed7f7b",
    "campus_cr-frame_budget": "58c86817198691050d9023d9664baaf6deed0b8fd9556388297107d425f95d71",
    "campus_cr-jamming_heavy": "be61a7899218edf219aac096c9eef7466829b80169eed78c2e2b393de20fc559",
    "campus_cr-jamming_light": "150f7f603991bb6bfd59ab033a4d858f3d3804fbd5b40ca28e88f41055de6bf7",
    "campus_cr-late_join": "576fd23ededbe30631372c59c2b88100217f31061c725b6ec6cb3225e34a31a8",
    "campus_cr-random_walk": "3f73b297c7bea5358d0655d875cb8be825cf9d6ef41a1b6e4faae23e0e0a82f9",
    "campus_cr-real_time": "93c81fc710312b34412033d767d7de868f17f810e9afa9e77ed9cb5c2e4aeb25",
    "campus_cr-sinusoidal-start0": "7179c4aa09d2c85fd6bebc0f77adf8183bb9b1c300934784fceabb5844d44e1a",
    "campus_cr-traced": "526a2b732d2cc77fdfd817960d634b51618c0557e51d47a6e87a7a346cd4b1f6",
    "campus_pu_dynamics-faults": "8e76121c361f87120f2197e3a279798eee30fb33b34a51aec9bac3a819e9a866",
    "jammed_urban-faults": "ce3dc0094f444a1ec8c4af0031bbf3be118d8cf1296485c8859e20fcb19a2ca4",
    "rural_sparse-constant-spread": "23caac774613daca8192b315118dd1f93861e5e673cd04d5fed36e459c6e78dd",
    "rural_sparse-defaults": "3f54ffa372ab56a9fbe48cecc3c0596054ef0817a04b5bdcb6f2d3607e6605a7",
    "rural_sparse-terminating": "313f763f83b840de60a6dfbbdb6af3481ba52a73fcd0a97d66fe067f0666b5e1",
    "single_common_channel-constant-spread": "57e1bcf519cd581081d4704614fea8865a9c4cfc3b284db5e824458e7b1a47ee",
    "single_common_channel-defaults": "1dfee33ea21b4dc7dd72845daf4ae554df796983374baef4543ee1a64b12407d",
    "suburban_asymmetric-constant-spread": "ac61d05bd360f593a124d2f32c8f2480e2fdc69a988dbfc1b4f23eae54ac90b1",
    "suburban_asymmetric-defaults": "fd6302b918611269a7b712f772cffbf158add6d11f70c1f40052081c07f86ceb",
    "urban_dense-constant-spread": "2c279746767ddd57445eaf02eeff31002c26cf128dc2d38cd464fb56e2ab269a",
    "urban_dense-defaults": "8031a4bdb7f7e6adef5c5a56837b9e3544eb1c202d08eb1fc87aea6c580dc865",
    "wideband_campus-constant-spread": "8527050d469263f50bfbccc38eeeae871055aae9ffbc1ae3f3959e08b04466e4",
    "wideband_campus-defaults": "caefbf1ee1e0e2e5298079c7929d7cdf054f74b9ebefad93c568d53d45bd53be",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_async_engine_matches_golden(name):
    assert digest(name) == GOLDEN_DIGESTS[name]


if __name__ == "__main__":
    print("GOLDEN_DIGESTS: Dict[str, str] = {")
    for name in sorted(CASES):
        print(f'    "{name}": "{digest(name)}",')
    print("}")
