"""M-series rules: the paper's system model must be encoded, not accidental.

Protocol classes (§II–§IV of Mittal et al.) interact with the world only
through the engine: they receive hellos via ``on_receive``, declare one
transceiver action per slot/frame, and derive transmission probabilities
from network parameters (``|A(u)|``, ``Δ_est``). These rules flag code
that reaches around those seams.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..lint import AnyFunctionDef, Finding, ModuleContext, Rule, dotted_name

__all__ = [
    "TableMutationOutsideHook",
    "LiteralTransmitProbability",
    "ProtocolOwnRandomSource",
    "protocol_classes",
]

#: Base-class names that mark a class as a discovery protocol. Direct
#: bases only (AST has no MRO), so the concrete algorithm classes are
#: listed to catch their subclasses too.
_PROTOCOL_BASES = frozenset(
    {
        "DiscoveryProtocol",
        "SynchronousProtocol",
        "AsynchronousProtocol",
        "UniformChannelMixin",
        "StagedSyncDiscovery",
        "GrowingEstimateSyncDiscovery",
        "FlatSyncDiscovery",
        "AsyncFrameDiscovery",
    }
)

#: Methods through which the engine sanctions neighbor-state mutation.
_SANCTIONED_HOOKS = frozenset({"__init__", "on_receive", "reset"})

#: NeighborTable methods that mutate discovery state.
_TABLE_MUTATORS = frozenset(
    {"record_hello", "clear", "merge", "update", "add", "remove", "discard", "pop"}
)

#: Names of the attributes protocols keep their table under.
_TABLE_ATTRS = frozenset({"_table", "neighbor_table"})


def protocol_classes(tree: ast.Module) -> List[ast.ClassDef]:
    """Top-level classes whose direct bases mark them as protocols."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        base_names = set()
        for base in node.bases:
            name = dotted_name(base)
            if name is not None:
                base_names.add(name.rsplit(".", 1)[-1])
        if base_names & _PROTOCOL_BASES:
            found.append(node)
    return found


def _is_self_table(node: ast.AST) -> bool:
    """True for ``self._table`` / ``self.neighbor_table`` expressions."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in _TABLE_ATTRS
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


class TableMutationOutsideHook(Rule):
    rule_id = "M201"
    title = "neighbor state mutates only through engine-sanctioned hooks"
    rationale = (
        "Discovery output is defined as the hellos the engine delivered "
        "(collision-free, in-span); a protocol writing its own table from "
        "decide_slot or a helper fabricates discoveries the medium never "
        "carried."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for cls in protocol_classes(ctx.tree):
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in _SANCTIONED_HOOKS:
                    continue
                yield from self._check_method(ctx, cls, method)

    def _check_method(
        self,
        ctx: ModuleContext,
        cls: ast.ClassDef,
        method: AnyFunctionDef,
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _TABLE_MUTATORS
                    and _is_self_table(func.value)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{cls.name}.{method.name} mutates the neighbor "
                        f"table via {func.attr}(); only __init__/on_receive "
                        "may write discovery state",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if _is_self_table(target) or (
                        isinstance(target, ast.Attribute)
                        and _is_self_table(target.value)
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"{cls.name}.{method.name} rebinds or writes "
                            "neighbor-table state outside the sanctioned "
                            "hooks",
                        )


class LiteralTransmitProbability(Rule):
    rule_id = "M202"
    title = "transmission probabilities derive from parameters, not literals"
    rationale = (
        "Theorems 1–3 and 9 hold for p = min(1/2, |A(u)|/·) schedules "
        "derived from Δ_est and |A(u)|; a hardcoded numeric probability "
        "silently detaches the implementation from the analysis."
    )

    _PROB_METHODS = frozenset(
        {"transmit_probability", "frame_transmit_probability"}
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in self._PROB_METHODS:
                continue
            for ret in ast.walk(node):
                if not isinstance(ret, ast.Return) or ret.value is None:
                    continue
                value = ret.value
                if (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, (int, float))
                    and not isinstance(value.value, bool)
                    and value.value not in (0, 1)
                ):
                    yield self.finding(
                        ctx,
                        ret,
                        f"{node.name} returns the bare literal "
                        f"{value.value!r}; derive the probability from "
                        "params (|A(u)|, delta_est) and store it on the "
                        "instance",
                    )


class ProtocolOwnRandomSource(Rule):
    rule_id = "M203"
    title = "protocols use only their injected private random stream"
    rationale = (
        "Per-node streams come from the run's RngFactory so trials replay "
        "node-for-node; a protocol constructing its own generator decouples "
        "its draws from the experiment seed."
    )

    _FORBIDDEN_LEAVES = frozenset({"default_rng", "make_generator", "RngFactory"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for cls in protocol_classes(ctx.tree):
            for node in ast.walk(cls):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                parts = name.split(".")
                leaf = parts[-1]
                if leaf in self._FORBIDDEN_LEAVES or (
                    len(parts) >= 2
                    and parts[0] in ("np", "numpy")
                    and parts[1] == "random"
                    and leaf not in ("Generator",)  # type annotations aside
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"protocol class {cls.name} constructs its own "
                        f"random source via {name}(); use the rng injected "
                        "at construction",
                    )
