"""C-series audit rules: cross-layer engine and plumbing parity contracts.

Four engines (reference, fast, async, batched), a trial runner, the
chunk executors, a supervisor, a batch archiver and a CLI all
forward keyword arguments to one another. A renamed parameter or a flag
that stops being plumbed does not fail loudly at the drift site — it
fails three modules deeper as a runtime ``TypeError``, or worse, is
silently ignored and the campaign runs with the wrong configuration.
These rules cross-reference the layers so drift fails the audit at the
line that introduced it.

Every rule here skips quietly when its target modules are not part of
the audited tree (so auditing a scratch fixture directory does not
produce spurious contract findings) — *except* that auditing the real
package with a contract module missing is itself reported via C601.

* **C601** — engine constructor surfaces: each engine must accept the
  declared keyword set with the declared defaults (the shared subset —
  ``erasure_prob``, ``faults``, ``start_offsets`` — must mean the same
  thing everywhere).
* **C602** — call-site keyword validity: every call to a contract
  function or engine constructor may only use keywords the definition
  declares (the whole-program version of "no TypeError three modules
  deep").
* **C603** — ``_BATCHABLE_PARAMS`` (the runner-params the batched
  engine honors) must stay a subset of ``run_synchronous``'s keyword
  surface, or the vectorized fallback contract silently breaks.
* **C604** — replay coordinates: ``TrialExecutionError`` keeps its
  ``experiment``/``trial_indices``/``base_seed`` constructor fields,
  and every construction site of the typed trial errors passes
  ``trial_indices`` and ``base_seed`` so quarantine records and abort
  messages always carry replayable coordinates.
* **C605** — CLI flag plumbing: every ``add_argument`` destination in
  ``repro.cli`` must be read as ``args.<dest>`` somewhere, catching
  flags that parse but no longer reach the runner stack.
* **C606** — grid-cell coverage: every ``_BATCHABLE_PARAMS`` entry must
  be either a ``GridCell`` field or a declared dispatch-level parameter
  (schedule/stopping/engine selection). A batchable parameter the grid
  path cannot carry would be silently dropped when spec points fuse,
  while the per-spec path honors it — a byte-identity break the
  differential tests only catch for parameters they happen to vary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..audit import AuditRule, ProjectContext
from ..lint import Finding, ModuleContext, dotted_name

__all__ = [
    "ENGINE_CONTRACT",
    "CONTRACT_FUNCTIONS",
    "EngineSurfaceParity",
    "CallKeywordValidity",
    "BatchableParamsSubset",
    "GridCellCoverage",
    "ReplayCoordinateContract",
    "CliFlagPlumbing",
]

#: Engine constructors and the keyword surface each must expose. The
#: grid engine takes its per-cell keywords through ``GridCell``: C606
#: checks that its fields exist, and no rule pins their defaults.
ENGINE_CONTRACT: Dict[str, Tuple[str, frozenset]] = {
    "sim.slotted": (
        "SlottedSimulator",
        frozenset(
            {"rng_factory", "start_offsets", "erasure_prob", "trace", "faults"}
        ),
    ),
    "sim.fast_slotted": (
        "FastSlottedSimulator",
        frozenset({"rng_factory", "start_offsets", "erasure_prob", "faults"}),
    ),
    "sim.async_engine": (
        "AsyncSimulator",
        frozenset({"rng_factory", "erasure_prob", "trace", "faults"}),
    ),
}

#: Keyword parameters that must carry the same default on every engine
#: that exposes them — the "absent means the same thing everywhere"
#: half of the parity contract.
_COMMON_DEFAULTS: Dict[str, str] = {
    "erasure_prob": "0.0",
    "faults": "None",
    "start_offsets": "None",
    "trace": "None",
}

#: Cross-layer functions whose call sites are validated keyword-by-
#: keyword (C602): function name -> defining module.
CONTRACT_FUNCTIONS: Dict[str, str] = {
    "run_synchronous": "sim.runner",
    "run_asynchronous": "sim.runner",
    "run_experiment_trial": "sim.runner",
    "replay_trial": "sim.runner",
    "run_trials": "sim.runner",
    "make_clocks": "sim.runner",
    "random_start_offsets": "sim.runner",
    "run_experiment_grid_batched": "sim.runner",
    "grid_batchable": "sim.runner",
    "run_spec_trials": "sim.parallel",
    "run_grid_spec_trials": "sim.parallel",
    "run_batch": "sim.batch",
    "run_supervised_trials": "resilience.supervisor",
    "run_trial_group": "resilience.supervisor",
    "compile_plan": "faults.runtime",
    "derive_trial_seed": "sim.rng",
    "campaign_specs": "service.campaigns",
    "execute_job": "service.worker",
    "run_worker": "resilience.distributed",
}

#: Typed trial errors whose construction sites must carry replay
#: coordinates (C604).
_REPLAY_ERRORS = frozenset(
    {"TrialExecutionError", "TrialTimeoutError", "TrialQuarantinedError"}
)
_REPLAY_FIELDS = ("experiment", "trial_indices", "base_seed")


@dataclass
class _Signature:
    """A callable's keyword surface, extracted from its AST."""

    params: Set[str]
    defaults: Dict[str, str]
    has_kwargs: bool
    node: ast.AST


def _signature_of(fn: ast.AST) -> Optional[_Signature]:
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    args = fn.args
    ordered = list(args.posonlyargs) + list(args.args)
    params = {a.arg for a in ordered + list(args.kwonlyargs)}
    params.discard("self")
    params.discard("cls")
    defaults: Dict[str, str] = {}
    positional_defaults = list(args.defaults)
    for arg, default in zip(
        ordered[len(ordered) - len(positional_defaults) :], positional_defaults
    ):
        defaults[arg.arg] = ast.unparse(default)
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        if kw_default is not None:
            defaults[arg.arg] = ast.unparse(kw_default)
    return _Signature(
        params=params,
        defaults=defaults,
        has_kwargs=args.kwarg is not None,
        node=fn,
    )


def _find_def(
    ctx: ModuleContext, name: str
) -> Optional[ast.AST]:
    for node in ctx.tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name == name
        ):
            return node
    return None


def _class_init_signature(cls: ast.ClassDef) -> Optional[_Signature]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "__init__":
                return _signature_of(node)
    return None


def _contract_signatures(
    project: ProjectContext,
) -> Dict[str, _Signature]:
    """Resolved signatures for every contract function and engine class.

    Keyed by the bare callable name; targets whose module is absent
    from the audited tree are simply not present in the map.
    """
    signatures: Dict[str, _Signature] = {}
    for name, module in CONTRACT_FUNCTIONS.items():
        ctx = project.get(module)
        if ctx is None:
            continue
        node = _find_def(ctx, name)
        sig = _signature_of(node) if node is not None else None
        if sig is not None:
            signatures[name] = sig
    for module, (class_name, _) in ENGINE_CONTRACT.items():
        ctx = project.get(module)
        if ctx is None:
            continue
        node = _find_def(ctx, class_name)
        if isinstance(node, ast.ClassDef):
            sig = _class_init_signature(node)
            if sig is not None:
                signatures[class_name] = sig
    return signatures


class EngineSurfaceParity(AuditRule):
    rule_id = "C601"
    title = "engine constructor keyword surfaces must stay in lockstep"
    rationale = (
        "run_synchronous / run_experiment_grid_batched forward the "
        "same keywords to whichever engine the campaign selects; an "
        "engine that renames or drops one breaks the parity contract "
        "for exactly the configurations tests do not cover."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        relevant = [m for m in ENGINE_CONTRACT if project.get(m) is not None]
        if not relevant:
            return
        for module in relevant:
            class_name, required = ENGINE_CONTRACT[module]
            ctx = project.get(module)
            assert ctx is not None
            node = _find_def(ctx, class_name)
            if not isinstance(node, ast.ClassDef):
                yield self.finding(
                    ctx,
                    ctx.tree,
                    f"engine class {class_name} is missing from "
                    f"{module} (declared in ENGINE_CONTRACT)",
                )
                continue
            sig = _class_init_signature(node)
            if sig is None:
                yield self.finding(
                    ctx,
                    node,
                    f"{class_name} defines no __init__ to check against "
                    "the engine keyword contract",
                )
                continue
            for param in sorted(required - sig.params):
                yield self.finding(
                    ctx,
                    sig.node,
                    f"{class_name}.__init__ is missing contract keyword "
                    f"{param!r} (engines must share this surface; see "
                    "ENGINE_CONTRACT)",
                )
            for param, expected in sorted(_COMMON_DEFAULTS.items()):
                if param not in sig.params or param not in sig.defaults:
                    continue
                if sig.defaults[param] != expected:
                    yield self.finding(
                        ctx,
                        sig.node,
                        f"{class_name}.__init__ default for {param!r} is "
                        f"{sig.defaults[param]}, but the engine contract "
                        f"pins {expected} (absence must mean the same "
                        "thing on every engine)",
                    )


class CallKeywordValidity(AuditRule):
    rule_id = "C602"
    title = "call sites may only use keywords the contract callable declares"
    rationale = (
        "A misspelled or removed keyword in runner/batch/CLI plumbing "
        "surfaces as a runtime TypeError three layers deep (or is "
        "swallowed by **kwargs); checking call sites against the "
        "definition fails at the drift line instead."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        signatures = _contract_signatures(project)
        if not signatures:
            return
        for ctx in project.all_modules():
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                leaf = name.rsplit(".", 1)[-1]
                sig = signatures.get(leaf)
                if sig is None or sig.has_kwargs:
                    continue
                for kw in node.keywords:
                    if kw.arg is None:  # **mapping: contents unknowable
                        continue
                    if kw.arg not in sig.params:
                        known = ", ".join(sorted(sig.params))
                        yield self.finding(
                            ctx,
                            node,
                            f"{leaf}() has no keyword {kw.arg!r} "
                            f"(declared: {known})",
                        )


def _batchable_params(
    ctx: ModuleContext,
) -> Optional[Tuple[List[str], ast.AST]]:
    """``_BATCHABLE_PARAMS`` string entries + the assignment node."""
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "_BATCHABLE_PARAMS" in targets:
                keys = [
                    sub.value
                    for sub in ast.walk(node.value)
                    if isinstance(sub, ast.Constant)
                    and isinstance(sub.value, str)
                ]
                return keys, node
    return None


class BatchableParamsSubset(AuditRule):
    rule_id = "C603"
    title = "_BATCHABLE_PARAMS must be a subset of run_synchronous keywords"
    rationale = (
        "run_experiment_grid_batched promises that any runner_params "
        "set drawn from _BATCHABLE_PARAMS executes identically on the "
        "batched and serial paths; a key run_synchronous does not "
        "accept makes the serial side raise while the batched side "
        "silently ignores it."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        ctx = project.get("sim.runner")
        if ctx is None:
            return
        found = _batchable_params(ctx)
        if found is None:
            yield self.finding(
                ctx,
                ctx.tree,
                "_BATCHABLE_PARAMS is missing from sim.runner (the "
                "batched-engine eligibility contract)",
            )
            return
        keys, batchable_node = found
        run_sync = _find_def(ctx, "run_synchronous")
        sig = _signature_of(run_sync) if run_sync is not None else None
        if sig is None:
            yield self.finding(
                ctx, ctx.tree, "run_synchronous is missing from sim.runner"
            )
            return
        for key in sorted(keys):
            if key not in sig.params:
                yield self.finding(
                    ctx,
                    batchable_node,
                    f"_BATCHABLE_PARAMS entry {key!r} is not a keyword of "
                    "run_synchronous; the serial fallback would raise "
                    "where the batched path succeeds",
                )


#: Batchable runner-params the grid dispatcher resolves *above* the
#: cell level: schedule construction (``delta_est``), the shared
#: stopping condition (``max_slots``, ``stop_on_full_coverage``) and
#: engine selection (``engine``). Everything else must travel inside a
#: :class:`~repro.sim.batched.GridCell`.
_GRID_DISPATCH_PARAMS = frozenset(
    {"delta_est", "engine", "max_slots", "stop_on_full_coverage"}
)


class GridCellCoverage(AuditRule):
    rule_id = "C606"
    title = "_BATCHABLE_PARAMS must map onto GridCell fields or dispatch params"
    rationale = (
        "run_experiment_grid_batched fuses spec points by translating "
        "each entry's runner_params into a GridCell; a batchable "
        "parameter with no GridCell field and no dispatch-level "
        "handling is silently dropped when spec points fuse while the "
        "per-spec path honors it — a byte-identity break the "
        "differential tests only catch for parameters they vary."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        runner = project.get("sim.runner")
        batched = project.get("sim.batched")
        if runner is None or batched is None:
            return
        found = _batchable_params(runner)
        if found is None:
            return  # C603 already reports the missing contract
        keys, _ = found
        cell = _find_def(batched, "GridCell")
        if not isinstance(cell, ast.ClassDef):
            yield self.finding(
                batched,
                batched.tree,
                "GridCell is missing from sim.batched (the grid batch "
                "cell contract)",
            )
            return
        fields = {
            stmt.target.id
            for stmt in cell.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        }
        for key in sorted(set(keys) - _GRID_DISPATCH_PARAMS):
            if key not in fields:
                yield self.finding(
                    batched,
                    cell,
                    f"_BATCHABLE_PARAMS entry {key!r} is neither a "
                    "GridCell field nor a declared dispatch-level "
                    "parameter (_GRID_DISPATCH_PARAMS); the grid path "
                    "would silently drop it",
                )


class ReplayCoordinateContract(AuditRule):
    rule_id = "C604"
    title = "typed trial errors must carry replay coordinates"
    rationale = (
        "The replay contract — every campaign failure names "
        "derive_trial_seed(base_seed, trial) — only holds if the typed "
        "errors keep their coordinate fields and every raise site "
        "fills them in."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        exc_ctx = project.get("exceptions")
        if exc_ctx is not None:
            node = _find_def(exc_ctx, "TrialExecutionError")
            if not isinstance(node, ast.ClassDef):
                yield self.finding(
                    exc_ctx,
                    exc_ctx.tree,
                    "TrialExecutionError is missing from repro.exceptions",
                )
            else:
                sig = _class_init_signature(node)
                if sig is None:
                    yield self.finding(
                        exc_ctx,
                        node,
                        "TrialExecutionError defines no __init__; replay "
                        f"coordinates {_REPLAY_FIELDS} must be constructor "
                        "fields",
                    )
                else:
                    for fld in _REPLAY_FIELDS:
                        if fld not in sig.params:
                            yield self.finding(
                                exc_ctx,
                                sig.node,
                                "TrialExecutionError.__init__ lost replay "
                                f"coordinate field {fld!r}",
                            )
        else:
            return  # scratch tree without the package: nothing to check
        for ctx in project.all_modules():
            if ctx.module == "exceptions":
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                if name.rsplit(".", 1)[-1] not in _REPLAY_ERRORS:
                    continue
                given = {kw.arg for kw in node.keywords}
                if None in given:
                    continue  # **mapping may carry the coordinates
                missing = [
                    fld
                    for fld in ("trial_indices", "base_seed")
                    if fld not in given
                ]
                if missing:
                    yield self.finding(
                        ctx,
                        node,
                        f"{name.rsplit('.', 1)[-1]} constructed without "
                        f"{', '.join(missing)}; failures must carry "
                        "replayable coordinates",
                    )


class CliFlagPlumbing(AuditRule):
    rule_id = "C605"
    title = "every CLI flag must be plumbed to a consumer"
    rationale = (
        "A flag that parses but is never read silently ignores the "
        "user's configuration — the campaign runs, just not the one "
        "that was asked for."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        ctx = project.get("cli")
        if ctx is None:
            return
        used_attrs = {
            node.attr
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Attribute)
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                not isinstance(node.func, ast.Attribute)
                or node.func.attr != "add_argument"
            ):
                continue
            dest: Optional[str] = None
            for kw in node.keywords:
                if (
                    kw.arg == "dest"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ):
                    dest = kw.value.value
            if dest is None and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    dest = first.value.lstrip("-").replace("-", "_")
            if dest is None:
                continue
            if dest not in used_attrs:
                yield self.finding(
                    ctx,
                    node,
                    f"CLI flag with dest {dest!r} is parsed but "
                    f"args.{dest} is never read; plumb it or remove it",
                )
