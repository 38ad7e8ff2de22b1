"""P-series audit rules: parallel-ordering determinism hazards.

The repo's dispatch path (``sim.parallel``, ``resilience``) promises
byte-identical archives for any worker count, and the analysis layer
turns trial lists into the tables in ``EXPERIMENTS.md``. Both promises
die quietly the moment an *ordering* the platform does not guarantee —
set iteration order, directory listing order, pool completion order,
object identity — leaks into seeds, results or accumulation. These
rules flag the syntactic forms that ordering leaks take.

Scope: the packages that compute or assemble results —
:data:`ORDER_SCOPE_PACKAGES` (``sim``, ``resilience``, ``faults``,
``analysis``, ``service`` — whose result store and job records are
rebuilt from directory listings — plus ``devtools`` itself so the
audit's own filesystem walks stay honest). P505 applies to the whole
``repro`` package except ``devtools``.

* **P501** — iterating a set (set literal, ``set()``/``frozenset()``
  call, set comprehension, or a local name bound to one). Set order is
  salted per process: a loop over one feeds process-dependent order
  into whatever it builds. Sort first (``sorted(...)``); reductions
  that are genuinely order-free (``sum``/``min``/``max``/``all``/
  ``any``/``len``) are recognized and exempt.
* **P502** — unsorted filesystem enumeration (``os.listdir``,
  ``os.scandir``, ``glob.glob``/``iglob``, ``Path.glob``/``rglob``/
  ``iterdir``). Listing order is filesystem-dependent; wrap the call
  in ``sorted(...)``.
* **P503** — ``concurrent.futures.as_completed`` consumption. Results
  arrive in completion order, which depends on scheduling; await
  futures in dispatch order and reassemble by index instead (the
  ``resilience.executor.PooledChunkExecutor`` idiom).
* **P504** — sorting keyed on object identity (``key=id`` /
  ``key=hash`` or a key function calling them). ``id()`` is an
  allocation address and ``hash()`` is salted for strings; both orders
  vary across processes.
* **P505** — wall-clock-derived seeds: a wall-clock read flowing into
  ``RngFactory``/``make_generator``/``spawn_generators``/
  ``derive_trial_seed``/``SeedSequence`` or into a ``seed=`` argument.
  D104 already bans wall clocks inside simulation packages; this closes
  the gap everywhere else in ``repro`` (``resilience``, ``analysis``,
  the CLI), where a timestamp seed makes a campaign unreplayable.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from ..audit import AuditRule, ProjectContext
from ..lint import Finding, ModuleContext, dotted_name
from .determinism import _WALL_CLOCK_CALLS

__all__ = [
    "ORDER_SCOPE_PACKAGES",
    "SetIterationOrder",
    "UnsortedFilesystemIteration",
    "CompletionOrderConsumption",
    "IdentityOrderSort",
    "WallClockSeed",
]

#: Packages the ordering rules (P501–P504) apply to.
ORDER_SCOPE_PACKAGES = frozenset(
    {"sim", "resilience", "faults", "analysis", "devtools", "service"}
)

#: Builtins whose result is independent of their argument's iteration
#: order — a set-sourced comprehension consumed by one of these is fine.
_ORDER_FREE_REDUCERS = frozenset(
    {"sum", "min", "max", "all", "any", "len", "sorted", "set", "frozenset"}
)

_FS_ENUM_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob", "listdir", "scandir"}
)
_FS_ENUM_ATTRS = frozenset({"glob", "rglob", "iterdir"})


def _parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _enclosing_call_name(
    node: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> Optional[str]:
    """Name of the nearest enclosing call consuming ``node``'s value.

    Walks up through expression wrappers (comprehensions, starred args)
    until a :class:`ast.Call` or a statement boundary is reached.
    """
    current = node
    while True:
        parent = parents.get(current)
        if parent is None or isinstance(parent, ast.stmt):
            return None
        if isinstance(parent, ast.Call) and current is not parent.func:
            return dotted_name(parent.func)
        if isinstance(
            parent,
            (
                ast.GeneratorExp,
                ast.ListComp,
                ast.SetComp,
                ast.DictComp,
                ast.comprehension,
                ast.Starred,
                ast.keyword,
            ),
        ):
            current = parent
            continue
        return None


def _in_order_scope(ctx: ModuleContext) -> bool:
    return ctx.subpackage in ORDER_SCOPE_PACKAGES


def _is_set_expression(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset", "builtins.set", "builtins.frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


def _set_bound_names(scope: ast.AST) -> Set[str]:
    """Local names bound to a syntactic set expression in ``scope``.

    One level only — nested function scopes are analyzed separately —
    and deliberately over-approximate: a name ever assigned a set stays
    suspect for the whole scope (rebinding to a list later is exactly
    the kind of refactoring this rule should survive).
    """
    names: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            if _is_set_expression(node.value, set()):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None and _is_set_expression(node.value, set()):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
    return names


class SetIterationOrder(AuditRule):
    rule_id = "P501"
    title = "iteration over a set feeds order into results"
    rationale = (
        "Set iteration order is salted per process: any loop over one "
        "that appends, seeds or accumulates produces worker-dependent "
        "output. Iterate sorted(...) instead."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.all_modules():
            if not _in_order_scope(ctx):
                continue
            parents = _parent_map(ctx.tree)
            set_names = _set_bound_names(ctx.tree)
            for node in ast.walk(ctx.tree):
                iters = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append((node.iter, node))
                elif isinstance(
                    node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
                ):
                    for gen in node.generators:
                        iters.append((gen.iter, node))
                for iter_expr, owner in iters:
                    if not _is_set_expression(iter_expr, set_names):
                        continue
                    if isinstance(owner, ast.SetComp):
                        continue  # set -> set keeps order out of reach
                    consumer = _enclosing_call_name(owner, parents)
                    if (
                        consumer is not None
                        and consumer.rsplit(".", 1)[-1] in _ORDER_FREE_REDUCERS
                    ):
                        continue
                    yield self.finding(
                        ctx,
                        iter_expr,
                        "iterating a set exposes salted hash order; wrap "
                        "the iterable in sorted(...) (or reduce with an "
                        "order-free builtin)",
                    )


class UnsortedFilesystemIteration(AuditRule):
    rule_id = "P502"
    title = "unsorted directory enumeration"
    rationale = (
        "os.listdir / Path.glob / iterdir order is filesystem- and "
        "platform-dependent; archives, journals and reports must not "
        "inherit it. Wrap the enumeration in sorted(...)."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.all_modules():
            if not _in_order_scope(ctx):
                continue
            parents = _parent_map(ctx.tree)
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                is_fs = name in _FS_ENUM_CALLS or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _FS_ENUM_ATTRS
                )
                if not is_fs:
                    continue
                consumer = _enclosing_call_name(node, parents)
                if consumer is not None and consumer.rsplit(".", 1)[-1] == "sorted":
                    continue
                label = name or (
                    node.func.attr if isinstance(node.func, ast.Attribute) else "?"
                )
                yield self.finding(
                    ctx,
                    node,
                    f"{label}() enumerates the filesystem in platform "
                    "order; wrap the call in sorted(...) before anything "
                    "consumes it",
                )


class CompletionOrderConsumption(AuditRule):
    rule_id = "P503"
    title = "as_completed consumes pool results in completion order"
    rationale = (
        "Completion order depends on scheduling and load: results "
        "assembled from as_completed differ run to run. Await futures "
        "in dispatch order and reassemble by index "
        "(resilience.executor.PooledChunkExecutor is the idiom)."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.all_modules():
            if not _in_order_scope(ctx):
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is not None and name.rsplit(".", 1)[-1] == "as_completed":
                    yield self.finding(
                        ctx,
                        node,
                        "as_completed() yields results in completion order; "
                        "collect futures in dispatch order and reassemble "
                        "by trial index instead",
                    )


def _key_uses_identity(key_expr: ast.expr) -> bool:
    if isinstance(key_expr, ast.Name) and key_expr.id in ("id", "hash"):
        return True
    for node in ast.walk(key_expr):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("id", "hash"):
                return True
    return False


class IdentityOrderSort(AuditRule):
    rule_id = "P504"
    title = "sort keyed on object identity or salted hash"
    rationale = (
        "id() is an allocation address and str hashes are salted per "
        "process; a sort keyed on either produces a different order in "
        "every worker. Sort on stable fields instead."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.all_modules():
            if not _in_order_scope(ctx):
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                is_sort = name == "sorted" or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sort"
                )
                if not is_sort:
                    continue
                for kw in node.keywords:
                    if kw.arg == "key" and _key_uses_identity(kw.value):
                        yield self.finding(
                            ctx,
                            node,
                            "sort keyed on id()/hash() orders differently "
                            "in every process; key on stable fields "
                            "(names, indices, tuples of them)",
                        )


#: Seed sinks: calls whose arguments become RNG roots.
_SEED_SINKS = frozenset(
    {
        "RngFactory",
        "make_generator",
        "spawn_generators",
        "derive_trial_seed",
        "SeedSequence",
    }
)

_SEED_KEYWORDS = frozenset({"seed", "base_seed", "network_seed"})


def _contains_wall_clock(node: ast.AST) -> Optional[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func)
            if name in _WALL_CLOCK_CALLS:
                return name
    return None


class WallClockSeed(AuditRule):
    rule_id = "P505"
    title = "wall-clock-derived seed"
    rationale = (
        "A timestamp seed makes the run unreplayable: no archive, "
        "journal or quarantine record can reproduce it. Every seed must "
        "come from configuration or the derive_trial_seed tree."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.all_modules():
            if not ctx.in_repro or ctx.subpackage == "devtools":
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                leaf = None if name is None else name.rsplit(".", 1)[-1]
                suspect_args = []
                if leaf in _SEED_SINKS:
                    suspect_args.extend(node.args)
                    suspect_args.extend(kw.value for kw in node.keywords)
                else:
                    suspect_args.extend(
                        kw.value
                        for kw in node.keywords
                        if kw.arg in _SEED_KEYWORDS
                    )
                for arg in suspect_args:
                    clock = _contains_wall_clock(arg)
                    if clock is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"seed derived from wall clock ({clock}()); "
                            "seeds must come from configuration or "
                            "derive_trial_seed so the run replays",
                        )
