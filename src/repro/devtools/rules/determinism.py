"""D-series rules: every simulation result must be replayable from a seed.

These rules apply to the simulation-critical packages
(:data:`repro.devtools.lint.SIM_CRITICAL_PACKAGES`): any randomness or
time source that bypasses :mod:`repro.sim.rng` silently invalidates the
slot-bound experiments in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..lint import AnyFunctionDef, Finding, ModuleContext, Rule, dotted_name

__all__ = [
    "DRAW_METHODS",
    "BannedRandomImport",
    "BannedDefaultRng",
    "LegacyGlobalNumpyRandom",
    "WallClockInSimulation",
    "RandomnessWithoutRngParameter",
    "DocstringExampleDrift",
    "DensePerSlotAllocation",
]

#: ``np.random.Generator`` drawing methods — seeing one of these called
#: means the enclosing code consumes randomness.
DRAW_METHODS = frozenset(
    {
        "random",
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "permuted",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "geometric",
        "beta",
        "gamma",
        "bytes",
    }
)

#: Attributes of ``np.random`` that do *not* consume the legacy global
#: RNG state (types and constructors are fine; module-level draws are not).
_NP_RANDOM_TYPES = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
        "RandomState",
        "default_rng",
    }
)

#: Parameter names that mark a function as seed-aware.
_RNG_PARAM_NAMES = frozenset(
    {"rng", "seed", "base_seed", "generator", "factory", "rng_factory", "seeds"}
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.monotonic",
        "time.perf_counter",
        "time.process_time",
        "time.time_ns",
        "time.monotonic_ns",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)


class BannedRandomImport(Rule):
    rule_id = "D101"
    title = "stdlib `random` module banned in simulation packages"
    rationale = (
        "The stdlib `random` module carries hidden global state; trials "
        "seeded through repro.sim.rng cannot replay draws made through it."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.sim_critical:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx,
                            node,
                            "import of stdlib `random`; draw from an "
                            "injected np.random.Generator "
                            "(repro.sim.rng) instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.finding(
                        ctx,
                        node,
                        "import from stdlib `random`; draw from an injected "
                        "np.random.Generator (repro.sim.rng) instead",
                    )


class BannedDefaultRng(Rule):
    rule_id = "D102"
    title = "`np.random.default_rng` banned in simulation packages"
    rationale = (
        "Generators must derive from the run's SeedSequence tree via "
        "repro.sim.rng so per-node streams stay independent and replayable; "
        "ad-hoc default_rng() calls fork untracked entropy."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.sim_critical:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name.endswith("random.default_rng") or name == "default_rng":
                yield self.finding(
                    ctx,
                    node,
                    "np.random.default_rng() bypasses the seed tree; use "
                    "repro.sim.rng.make_generator / RngFactory",
                )


class LegacyGlobalNumpyRandom(Rule):
    rule_id = "D103"
    title = "legacy global `np.random.<dist>` state banned"
    rationale = (
        "Module-level np.random draws share one hidden global stream: any "
        "import-order change reshuffles every trial."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.sim_critical:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or ".random." not in f".{name}":
                continue
            parts = name.split(".")
            if len(parts) < 3 or parts[-2] != "random":
                continue
            if parts[0] not in ("np", "numpy"):
                continue
            if parts[-1] in _NP_RANDOM_TYPES:
                continue
            yield self.finding(
                ctx,
                node,
                f"legacy global-state call np.random.{parts[-1]}(); draw "
                "from an injected np.random.Generator instead",
            )


class WallClockInSimulation(Rule):
    rule_id = "D104"
    title = "wall-clock reads banned in simulation packages"
    rationale = (
        "Simulated time comes from repro.sim.clock; reading the host clock "
        "makes slot counts and frame timings machine-dependent."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.sim_critical:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {name}(); simulation time must come "
                    "from the engine's clock model",
                )


def _function_params(node: AnyFunctionDef) -> List[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _draws_randomness(node: ast.AST) -> Optional[ast.AST]:
    """First node inside ``node`` that consumes randomness, if any."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        name = dotted_name(sub.func)
        if name is None:
            continue
        leaf = name.rsplit(".", 1)[-1]
        if leaf in DRAW_METHODS and "." in name:
            return sub
        if leaf in ("make_generator", "spawn_generators", "RngFactory"):
            return sub
    return None


class RandomnessWithoutRngParameter(Rule):
    rule_id = "D105"
    title = "public functions that draw randomness must accept rng/seed"
    rationale = (
        "A public function drawing randomness without an rng/seed parameter "
        "has no replayable entropy source; callers cannot pin its draws to "
        "the experiment's seed tree."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.sim_critical:
            return
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            params = _function_params(node)
            if any(p in _RNG_PARAM_NAMES for p in params):
                continue
            if params[:1] in (["self"], ["cls"]):
                continue  # methods get their stream at construction time
            culprit = _draws_randomness(node)
            if culprit is not None:
                yield self.finding(
                    ctx,
                    culprit,
                    f"public function `{node.name}` draws randomness but "
                    "accepts no rng/seed parameter",
                )


#: numpy array constructors whose first argument is a shape.
_DENSE_ALLOCATORS = frozenset({"zeros", "empty", "ones", "full"})


def _axis_refs(node: ast.AST) -> Set[str]:
    """Dotted names referenced by one shape axis (``self``/``cls`` aside)."""
    refs: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            name = dotted_name(sub)
            if name is not None and name not in ("self", "cls"):
                refs.add(name)
    return refs


#: Function names (substrings) that run once per simulated slot, frame
#: or block of them: the reference engine's slot body, the grid engine's
#: block body and its two draw steps, and the asynchronous engine's
#: per-frame body and its block decode of frame decisions.
_HOT_PATHS = (
    "_run_slot",
    "_run_block",
    "_draw_block",
    "_draw_slot",
    "_begin_frame",
    "_end_frame",
    "_draw_frames",
)


class DensePerSlotAllocation(Rule):
    rule_id = "D107"
    title = "dense O(N²) allocation inside a per-slot hot path"
    rationale = (
        "A `_run_slot` body executes once per simulated slot, the grid "
        "engine's `_run_block` (with `_draw_block`/`_draw_slot`) once per "
        "block of slots, and the asynchronous engine's `_begin_frame`/"
        "`_end_frame` once per frame (with `_draw_frames` once per block "
        "of frames); allocating a buffer whose shape repeats a size "
        "variable (N×N, C×N×N, …) there makes every slot or block cost "
        "O(N²) in allocator traffic regardless of how few nodes act. Hoist "
        "the buffer to __init__ or resolve reception sparsely "
        "(repro.sim.batched.SparseReception)."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.sim_critical:
            return
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(hot in fn.name for hot in _HOT_PATHS):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                parts = name.split(".")
                if parts[0] not in ("np", "numpy"):
                    continue
                if parts[-1] not in _DENSE_ALLOCATORS or not node.args:
                    continue
                shape = node.args[0]
                if not isinstance(shape, ast.Tuple) or len(shape.elts) < 2:
                    continue
                axes = [_axis_refs(elt) for elt in shape.elts]
                repeated = {
                    ref
                    for i, refs in enumerate(axes)
                    for ref in refs
                    if any(ref in other for other in axes[i + 1 :])
                }
                if repeated:
                    dims = " and ".join(sorted(repeated))
                    yield self.finding(
                        ctx,
                        node,
                        f"np.{parts[-1]} shape repeats `{dims}` — an O(N²) "
                        f"allocation every slot or block in `{fn.name}`; preallocate "
                        "in __init__ or use the sparse reception kernel",
                    )


class DocstringExampleDrift(Rule):
    rule_id = "D106"
    title = "docstring examples must follow the determinism discipline"
    rationale = (
        "Quickstart snippets are the first thing users copy; an example "
        "built on np.random.default_rng or stdlib random teaches the exact "
        "pattern the D-series bans."
    )

    _BANNED_SNIPPETS = (
        "np.random.default_rng(",
        "numpy.random.default_rng(",
        "import random\n",
        "from random import",
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_repro:
            return
        seen: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node,
                (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            ):
                continue
            doc_node = None
            if (
                node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)
            ):
                doc_node = node.body[0]
            if doc_node is None or doc_node.lineno in seen:
                continue
            seen.add(doc_node.lineno)
            text = doc_node.value.value  # type: ignore[union-attr]
            for banned in self._BANNED_SNIPPETS:
                if banned in text:
                    yield self.finding(
                        ctx,
                        doc_node,
                        f"docstring example uses `{banned.strip()}`; route "
                        "examples through repro.sim.rng.make_generator / "
                        "RngFactory",
                    )
                    break
