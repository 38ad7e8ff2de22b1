"""Campaign requests: the service's validated submission surface.

A :class:`CampaignRequest` is the JSON-friendly description of one
``run_batch`` campaign — a named scenario, a set of registered
protocols and the seeded-trial parameters. Validation happens at
construction against the same registries the CLI uses
(:func:`~repro.workloads.scenarios.scenario_names`, the protocol table
in :mod:`repro.core.registry`, the fault presets), so a request that
constructs is a request the worker can run.

:func:`campaign_specs` expands a request into the exact
:class:`~repro.sim.batch.ExperimentSpec` list ``m2hew batch`` builds
for the same arguments — both call sites share this function, which is
what makes a service-produced archive byte-identical to a CLI-produced
one. :func:`request_fingerprint` is the content fingerprint the dedup
store and the checkpoint journals key on; it covers only campaign
*inputs*, never execution knobs (workers, backend, chunking), because
those cannot influence archived bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.registry import ASYNCHRONOUS_PROTOCOLS, protocol_spec
from ..exceptions import ConfigurationError
from ..faults.plan import FaultPlan
from ..faults.presets import fault_preset, fault_preset_names
from ..sim.batch import ExperimentSpec, batch_fingerprint
from ..sim.runner import SYNC_PROTOCOLS, experiment_runner_params
from ..workloads.scenarios import Scenario, scenario, scenario_names

__all__ = [
    "CampaignRequest",
    "campaign_specs",
    "request_fingerprint",
    "resolve_fault_plan",
]


def resolve_fault_plan(name: str, scen: Scenario) -> Optional[FaultPlan]:
    """Fault plan for the ``faults`` selector the CLI and service share.

    ``"scenario"`` means the scenario's own plan (possibly none),
    ``"none"`` disables faults, anything else is a named preset.
    """
    if name == "scenario":
        return scen.fault_plan
    if name == "none":
        return None
    return fault_preset(name)


@dataclass(frozen=True)
class CampaignRequest:
    """One validated campaign submission.

    Attributes:
        scenario: Named workload (see ``m2hew scenarios``).
        protocols: Registered protocol names, in run order (order is
            part of the campaign identity — it fixes the manifest
            order, hence the archived bytes).
        trials: Seeded trials per protocol.
        base_seed: Campaign root seed.
        network_seed: Workload realization seed.
        max_slots: Per-trial slot budget (synchronous protocols).
        delta_est: Degree bound override (default: the scenario's).
        faults: ``"scenario"``, ``"none"`` or a fault preset name.
        client: Submitting client's identifier; quota accounting only —
            deliberately *excluded* from the fingerprint so identical
            campaigns dedup across clients.
    """

    scenario: str
    protocols: Tuple[str, ...]
    trials: int = 5
    base_seed: int = 0
    network_seed: int = 0
    max_slots: int = 200_000
    delta_est: Optional[int] = None
    faults: str = "scenario"
    client: str = "anonymous"

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocols", tuple(self.protocols))
        if self.scenario not in scenario_names():
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; choose from "
                f"{tuple(scenario_names())}"
            )
        if not self.protocols:
            raise ConfigurationError("a campaign needs at least one protocol")
        known = SYNC_PROTOCOLS + ASYNCHRONOUS_PROTOCOLS
        for protocol in self.protocols:
            if protocol not in known:
                raise ConfigurationError(
                    f"unknown protocol {protocol!r}; choose from {known}"
                )
        if len(set(self.protocols)) != len(self.protocols):
            raise ConfigurationError(
                f"duplicate protocols in campaign: {sorted(self.protocols)}"
            )
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if self.max_slots < 1:
            raise ConfigurationError(
                f"max_slots must be >= 1, got {self.max_slots}"
            )
        if self.delta_est is not None and self.delta_est < 1:
            raise ConfigurationError(
                f"delta_est must be >= 1, got {self.delta_est}"
            )
        fault_choices = ("scenario", "none") + tuple(fault_preset_names())
        if self.faults not in fault_choices:
            raise ConfigurationError(
                f"unknown fault selector {self.faults!r}; choose from "
                f"{fault_choices}"
            )
        if not self.client or not isinstance(self.client, str):
            raise ConfigurationError("client must be a non-empty string")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignRequest":
        """Build a request from a JSON object, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"campaign request must be a JSON object, got {type(payload).__name__}"
            )
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ConfigurationError(
                f"unknown campaign request field(s): {unknown}; "
                f"allowed: {sorted(allowed)}"
            )
        for key in ("scenario", "protocols"):
            if key not in payload:
                raise ConfigurationError(f"campaign request needs {key!r}")
        kwargs = dict(payload)
        protocols = kwargs.pop("protocols")
        if isinstance(protocols, str) or not isinstance(protocols, (list, tuple)):
            raise ConfigurationError(
                "protocols must be a list of protocol names"
            )
        for key in ("trials", "base_seed", "network_seed", "max_slots", "delta_est"):
            value = kwargs.get(key)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ConfigurationError(
                    f"campaign request field {key!r} must be an integer, "
                    f"got {value!r}"
                )
        try:
            return cls(protocols=tuple(protocols), **kwargs)
        except TypeError as exc:
            raise ConfigurationError(f"invalid campaign request: {exc}") from exc

    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (inverse of :meth:`from_dict`)."""
        return {
            "scenario": self.scenario,
            "protocols": list(self.protocols),
            "trials": self.trials,
            "base_seed": self.base_seed,
            "network_seed": self.network_seed,
            "max_slots": self.max_slots,
            "delta_est": self.delta_est,
            "faults": self.faults,
            "client": self.client,
        }


def campaign_specs(request: CampaignRequest) -> List[ExperimentSpec]:
    """Expand a request into the batch's :class:`ExperimentSpec` list.

    This is the single source of truth for campaign expansion: ``m2hew
    batch`` and the service worker both call it, so for equal parameters
    they hand :func:`~repro.sim.batch.run_batch` equal specs and archive
    equal bytes. The network is realized here only when a protocol's
    parameters are read off it (the baselines); ``run_batch`` realizes
    it for the trials either way.
    """
    scen = scenario(request.scenario)
    network = (
        scen.build(request.network_seed)
        if any(protocol_spec(p).reads_network for p in request.protocols)
        else None
    )
    delta_est = (
        request.delta_est if request.delta_est is not None else scen.delta_est
    )
    fault_plan = resolve_fault_plan(request.faults, scen)
    specs: List[ExperimentSpec] = []
    for protocol in request.protocols:
        runner_params: Dict[str, Any]
        if protocol in ASYNCHRONOUS_PROTOCOLS:
            runner_params = {"delta_est": delta_est}
            if fault_plan is not None:
                runner_params["faults"] = fault_plan
        else:
            runner_params = experiment_runner_params(
                protocol,
                network,
                delta_est=delta_est,
                max_slots=request.max_slots,
                faults=fault_plan,
            )
        specs.append(
            ExperimentSpec(
                name=f"{request.scenario}_{protocol}",
                workload=scen.config,
                protocol=protocol,
                trials=request.trials,
                network_seed=request.network_seed,
                runner_params=runner_params,
            )
        )
    return specs


def request_fingerprint(request: CampaignRequest) -> str:
    """Content fingerprint of the campaign a request describes.

    Defined as :func:`~repro.sim.batch.batch_fingerprint` over the
    expanded specs, so a request and the equivalent ``m2hew batch``
    invocation fingerprint identically, and two requests differing in
    any input parameter (or protocol order) do not.
    """
    return batch_fingerprint(campaign_specs(request), request.base_seed)
