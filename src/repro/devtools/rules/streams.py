"""S-series audit rules: whole-program RNG stream provenance.

Every guarantee the repo sells — worker-count-invariant archives,
fault-stream invariance, batch-size-invariant vectorized output,
recovery-never-changes-results — assumes that the named streams handed
out by :class:`repro.sim.rng.RngFactory` never collide: two components
drawing from the *same* stream interleave their draws, so any change in
call order silently reshuffles both. The factory derives streams from a
stable hash of the key string, which makes the key space a global,
whole-program namespace — exactly what a per-file linter cannot check.

This analyzer walks every module, resolves each ``stream(key)`` /
``node_stream(node_id)`` / ``fork(label)`` call site into a **key
template** (constant keys stay themselves; f-string keys become
templates with ``{}`` placeholders), and collects them into a
:class:`StreamRegistry`. Rules:

* **S401** — one key template used from more than one module. Sharing
  a stream by name is the documented :class:`RngFactory` idiom *within*
  a component, but across modules it is either a deliberate parity
  contract (declare it in :data:`SHARED_STREAM_KEYS` with its reason)
  or an accidental collision.
* **S402** — a dynamic key with no stable template (``stream(name)``
  where ``name`` is a variable, call result, …). The analyzer cannot
  prove such a key disjoint from any other; write the key as an
  f-string over stable parts instead.
* **S403** — two *different* key templates that can produce the same
  string (``stream(f"node-{i}")`` in new code unifies with the
  ``node-{}`` family owned by ``node_stream``). Detected by wildcard
  template unification.

``fork(label)`` labels live in their own namespace — the factory mixes
a sentinel into the spawn key — so fork labels only collide with other
fork labels.

The registry also serializes to the committed snapshot checked by
``m2hew audit`` (see :func:`repro.devtools.audit.registry_drift`), so
every new stream key lands in review as a readable JSON diff.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..audit import AuditRule, ProjectContext
from ..lint import Finding, ModuleContext

__all__ = [
    "SHARED_STREAM_KEYS",
    "StreamRegistry",
    "StreamSite",
    "StreamKeyCollision",
    "DynamicStreamKey",
    "UnifiableStreamTemplates",
    "build_registry",
    "extract_sites",
    "templates_unify",
]

#: Key templates that are *deliberately* reachable from more than one
#: module, with the contract each sharing implements. Everything here is
#: reviewed API surface: removing or renaming one of these keys changes
#: archived bytes everywhere.
SHARED_STREAM_KEYS: Dict[str, str] = {
    "erasure": (
        "engine erasure stream: one engine per factory per run, and "
        "BernoulliLoss must draw from it at the legacy code points on "
        "every engine (PR 3 equivalence contract)"
    ),
    "environment": (
        "environment realization (clocks, start times): one runner "
        "entry point per run; run_asynchronous and run_terminating_sync "
        "use the same key so environment draws replay identically"
    ),
    "node-{}": (
        "per-node protocol stream, always obtained through the "
        "RngFactory.node_stream accessor; engines never share a factory "
        "within a run"
    ),
}

#: Methods whose call sites the analyzer records, with the namespace
#: each key lives in (fork labels are salted with a sentinel spawn-key
#: component, so they cannot collide with stream keys).
_CALL_NAMESPACES = {"stream": "stream", "node_stream": "stream", "fork": "fork"}

#: The module owning the accessor implementations; its internal
#: ``self.stream(f"node-{node_id}")`` is the definition of the
#: ``node-{}`` family, not a user call site.
_FACTORY_MODULE = "sim.rng"


@dataclass(frozen=True)
class StreamSite:
    """One resolved ``stream``/``node_stream``/``fork`` call site."""

    module: str
    line: int
    col: int
    call: str
    namespace: str
    #: ``"constant"``, ``"template"`` or ``"dynamic"``.
    kind: str
    #: Key template with ``{}`` placeholders; ``None`` for dynamic keys.
    template: Optional[str]


def _resolve_key_tokens(node: ast.expr) -> Optional[List[Optional[str]]]:
    """Key expression -> literal/placeholder tokens, ``None`` if dynamic.

    Tokens are literal strings or ``None`` (a ``{}`` placeholder).
    Handles constants, f-strings and ``+``-concatenation of resolvable
    parts; anything else (bare names, call results) is dynamic.
    """
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            return [node.value]
        return None
    if isinstance(node, ast.JoinedStr):
        tokens: List[Optional[str]] = []
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                tokens.append(part.value)
            else:
                tokens.append(None)
        return tokens
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _resolve_key_tokens(node.left)
        right = _resolve_key_tokens(node.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def _template_text(tokens: List[Optional[str]]) -> str:
    return "".join("{}" if tok is None else tok for tok in tokens)


def _key_argument(call: ast.Call, keyword_name: str) -> Optional[ast.expr]:
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == keyword_name:
            return kw.value
    return None


def _module_label(ctx: ModuleContext) -> str:
    return ctx.module if ctx.module is not None else str(ctx.path)


def extract_sites(project: ProjectContext) -> List[StreamSite]:
    """Every stream/fork call site in the project, in stable order."""
    sites: List[StreamSite] = []
    for ctx in project.all_modules():
        if ctx.module == _FACTORY_MODULE:
            continue
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            call = func.attr
            namespace = _CALL_NAMESPACES.get(call)
            if namespace is None:
                continue
            if call == "node_stream":
                kind, template = "template", "node-{}"
            else:
                key_node = _key_argument(
                    node, "label" if call == "fork" else "key"
                )
                tokens = (
                    None if key_node is None else _resolve_key_tokens(key_node)
                )
                if tokens is None:
                    kind, template = "dynamic", None
                else:
                    kind = (
                        "constant"
                        if all(tok is not None for tok in tokens)
                        else "template"
                    )
                    template = _template_text(tokens)
            sites.append(
                StreamSite(
                    module=_module_label(ctx),
                    line=node.lineno,
                    col=node.col_offset,
                    call=call,
                    namespace=namespace,
                    kind=kind,
                    template=template,
                )
            )
    return sites


def _tokenize_template(template: str) -> List[Optional[str]]:
    """Template text -> per-character tokens (``None`` = ``{}`` wildcard)."""
    tokens: List[Optional[str]] = []
    i = 0
    while i < len(template):
        if template.startswith("{}", i):
            tokens.append(None)
            i += 2
        else:
            tokens.append(template[i])
            i += 1
    return tokens


def templates_unify(a: str, b: str) -> bool:
    """Whether two key templates can produce the same key string.

    ``{}`` placeholders match any substring (including the empty one) —
    the conservative assumption, since nothing constrains what callers
    format into a key. Standard two-pattern intersection DP.
    """
    ta, tb = _tokenize_template(a), _tokenize_template(b)
    rows, cols = len(ta) + 1, len(tb) + 1
    dp = [[False] * cols for _ in range(rows)]
    dp[0][0] = True
    for i in range(rows):
        for j in range(cols):
            if i == 0 and j == 0:
                continue
            ok = False
            if i > 0 and ta[i - 1] is None:
                ok = dp[i - 1][j] or (j > 0 and dp[i][j - 1])
            if not ok and j > 0 and tb[j - 1] is None:
                ok = dp[i][j - 1] or (i > 0 and dp[i - 1][j])
            if (
                not ok
                and i > 0
                and j > 0
                and ta[i - 1] is not None
                and ta[i - 1] == tb[j - 1]
            ):
                ok = dp[i - 1][j - 1]
            dp[i][j] = ok
    return dp[rows - 1][cols - 1]


@dataclass
class StreamRegistry:
    """The project's stream-key map: entries grouped by (namespace,
    template, call), plus the dynamic sites no template could be
    derived for."""

    #: ``(namespace, template, call)`` -> sites using that template.
    entries: Dict[Tuple[str, str, str], List[StreamSite]]
    dynamic: List[StreamSite]

    def as_dict(self) -> Dict[str, object]:
        """Snapshot form: stable across edits that only move lines."""
        namespaces: Dict[str, List[Dict[str, object]]] = {}
        for (namespace, template, call), sites in sorted(self.entries.items()):
            namespaces.setdefault(namespace, []).append(
                {
                    "template": template,
                    "kind": sites[0].kind,
                    "call": call,
                    "modules": sorted({s.module for s in sites}),
                    "shared": SHARED_STREAM_KEYS.get(template),
                }
            )
        return {
            "schema_version": 1,
            "namespaces": namespaces,
            "dynamic": sorted({s.module for s in self.dynamic}),
        }


def build_registry(project: ProjectContext) -> StreamRegistry:
    """Collect every stream/fork call site into the project registry."""
    entries: Dict[Tuple[str, str, str], List[StreamSite]] = {}
    dynamic: List[StreamSite] = []
    for site in extract_sites(project):
        if site.template is None:
            dynamic.append(site)
        else:
            key = (site.namespace, site.template, site.call)
            entries.setdefault(key, []).append(site)
    return StreamRegistry(entries=entries, dynamic=dynamic)


def _ctx_for(project: ProjectContext, site: StreamSite) -> ModuleContext:
    ctx = project.get(site.module)
    if ctx is not None:
        return ctx
    for extra in project.extra:
        if str(extra.path) == site.module:
            return extra
    raise KeyError(site.module)  # pragma: no cover - sites come from ctxs


def _site_finding(
    rule: AuditRule, project: ProjectContext, site: StreamSite, message: str
) -> Finding:
    ctx = _ctx_for(project, site)
    return Finding(
        rule_id=rule.rule_id,
        path=str(ctx.path),
        line=site.line,
        col=site.col,
        message=message,
    )


class StreamKeyCollision(AuditRule):
    rule_id = "S401"
    title = "one stream key template reachable from several modules"
    rationale = (
        "Two modules drawing from one named stream interleave their "
        "draws; any call-order change reshuffles both. Cross-module "
        "sharing must be a declared contract (SHARED_STREAM_KEYS) or a "
        "renamed key."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        registry = build_registry(project)
        for (namespace, template, call), sites in sorted(
            registry.entries.items()
        ):
            if template in SHARED_STREAM_KEYS:
                continue
            modules = sorted({s.module for s in sites})
            if len(modules) < 2:
                continue
            others = ", ".join(modules)
            for site in sites:
                yield _site_finding(
                    self,
                    project,
                    site,
                    f"{namespace} key {template!r} is used from multiple "
                    f"modules ({others}); rename the key per component or "
                    "declare the sharing contract in "
                    "repro.devtools.rules.streams.SHARED_STREAM_KEYS",
                )


class DynamicStreamKey(AuditRule):
    rule_id = "S402"
    title = "stream key without a stable template"
    rationale = (
        "A key built from a variable or call result cannot be proven "
        "disjoint from any other stream; the registry cannot even "
        "record it. Write keys as f-strings over stable literal parts."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        registry = build_registry(project)
        for site in registry.dynamic:
            yield _site_finding(
                self,
                project,
                site,
                f"{site.call}() key has no stable template (not a string "
                "literal, f-string or concatenation of them); use an "
                'f-string like f"component-{index}" so provenance is '
                "analyzable",
            )


class UnifiableStreamTemplates(AuditRule):
    rule_id = "S403"
    title = "two distinct stream key templates can produce the same key"
    rationale = (
        "RngFactory derives a stream from the key string alone: if two "
        "templates can format to the same string, the components they "
        "belong to can silently share (and interleave) one stream."
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        registry = build_registry(project)
        keys = sorted(registry.entries)
        for i, key_a in enumerate(keys):
            namespace_a, template_a, call_a = key_a
            for key_b in keys[i + 1 :]:
                namespace_b, template_b, call_b = key_b
                if namespace_a != namespace_b:
                    continue
                if not templates_unify(template_a, template_b):
                    continue
                for site in (
                    registry.entries[key_a] + registry.entries[key_b]
                ):
                    yield _site_finding(
                        self,
                        project,
                        site,
                        f"{namespace_a} key templates {template_a!r} "
                        f"(via {call_a}) and {template_b!r} (via {call_b}) "
                        "can produce the same key string; disjoint "
                        "components need non-unifiable key prefixes",
                    )
