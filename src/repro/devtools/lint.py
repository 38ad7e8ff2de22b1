"""AST-based linter enforcing the repo's determinism and model invariants.

The linter parses each Python file once, builds a :class:`ModuleContext`
describing where the module sits in the package (simulation-critical
packages get the strict D-series treatment), and runs every registered
:class:`Rule` over the tree. Findings carry a stable rule ID
(``D101`` … ``Q303``) documented in ``docs/static_analysis.md``.

Suppression pragmas::

    risky_call()  # lint: disable=D104
    # lint: disable=Q303   (standalone before any statement: whole file)

A pragma on the same line as a finding suppresses the listed rules for
that line only; a standalone pragma comment above the first statement of
the module suppresses them for the whole file.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

__all__ = [
    "AnyFunctionDef",
    "Finding",
    "LintError",
    "LintReport",
    "ModuleContext",
    "Rule",
    "PathLike",
    "SIM_CRITICAL_PACKAGES",
    "dotted_name",
    "iter_python_files",
    "lint_paths",
    "lint_source",
]

PathLike = Union[Path, str]

AnyFunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Subpackages of ``repro`` whose code paths feed simulation results.
#: The D-series determinism rules apply only here: analysis, apps and
#: the CLI post-process results and may legitimately touch wall clocks.
SIM_CRITICAL_PACKAGES = frozenset(
    {"core", "sim", "net", "baselines", "workloads", "faults"}
)

_PRAGMA_RE = re.compile(r"#\s*lint:\s*disable=([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class LintError:
    """A file the linter could not parse."""

    path: str
    message: str


@dataclass
class ModuleContext:
    """Everything a rule needs to know about the module under analysis."""

    path: Path
    source: str
    tree: ast.Module
    #: Dotted module path relative to the ``repro`` package root, e.g.
    #: ``"sim.async_engine"`` or ``""`` for ``repro/__init__.py``; ``None``
    #: when the file lives outside the ``repro`` package (tests, docs).
    module: Optional[str] = None

    @property
    def in_repro(self) -> bool:
        return self.module is not None

    @property
    def subpackage(self) -> Optional[str]:
        """First component of :attr:`module` (``"sim"``, ``"core"``, …)."""
        if self.module is None:
            return None
        return self.module.split(".", 1)[0] if self.module else ""

    @property
    def sim_critical(self) -> bool:
        """True when the module belongs to a simulation-critical package."""
        return self.subpackage in SIM_CRITICAL_PACKAGES


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id`, :attr:`title` and :attr:`rationale`
    as class attributes and implement :meth:`check`, yielding
    :class:`Finding` objects. Use :meth:`finding` to build one with the
    context's path filled in.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _module_for_path(path: Path) -> Optional[str]:
    """Dotted path relative to the ``repro`` package, or ``None``."""
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    inner = parts[idx + 1 :]
    if not inner:
        return None
    if inner[-1] == "__init__.py":
        inner = inner[:-1]
    elif inner[-1].endswith(".py"):
        inner = inner[:-1] + [inner[-1][:-3]]
    return ".".join(inner)


def _suppressions(source: str, tree: ast.Module) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """Parse ``# lint: disable=`` pragmas.

    Returns ``(file_level, per_line)`` where ``file_level`` is the set of
    rule IDs disabled for the whole module and ``per_line`` maps line
    numbers to rule IDs disabled on that line.
    """
    first_stmt_line = tree.body[0].lineno if tree.body else float("inf")
    file_level: Set[str] = set()
    per_line: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        ids = {part.strip() for part in match.group(1).split(",")}
        if line.lstrip().startswith("#") and lineno < first_stmt_line:
            file_level |= ids
        else:
            per_line.setdefault(lineno, set()).update(ids)
    return file_level, per_line


@dataclass
class LintReport:
    """Findings and parse errors from one lint run."""

    findings: List[Finding] = field(default_factory=list)
    errors: List[LintError] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def to_text(self) -> str:
        lines = [f.format_text() for f in self.findings]
        lines.extend(f"{e.path}: error: {e.message}" for e in self.errors)
        summary = (
            f"{len(self.findings)} finding(s), {len(self.errors)} error(s) "
            f"in {self.files_checked} file(s)"
        )
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "findings": [f.as_dict() for f in self.findings],
                "errors": [
                    {"path": e.path, "message": e.message} for e in self.errors
                ],
                "files_checked": self.files_checked,
            },
            indent=2,
        )


def _sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule_id)


def lint_source(
    source: str,
    path: PathLike = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one module's source text; raises ``SyntaxError`` on bad input."""
    from .rules import all_rules

    path = Path(path)
    tree = ast.parse(source, filename=str(path))
    ctx = ModuleContext(
        path=path, source=source, tree=tree, module=_module_for_path(path)
    )
    file_level, per_line = _suppressions(source, tree)
    findings: List[Finding] = []
    for rule in rules if rules is not None else all_rules():
        for finding in rule.check(ctx):
            if finding.rule_id in file_level:
                continue
            if finding.rule_id in per_line.get(finding.line, ()):
                continue
            findings.append(finding)
    return sorted(findings, key=_sort_key)


def iter_python_files(paths: Iterable[PathLike]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
                and not any(part.startswith(".") for part in p.parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_paths(
    paths: Iterable[PathLike],
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint every ``*.py`` file under ``paths`` and aggregate a report."""
    report = LintReport()
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            report.errors.append(LintError(path=str(path), message=str(exc)))
            continue
        report.files_checked += 1
        try:
            report.findings.extend(lint_source(source, path, rules=rules))
        except SyntaxError as exc:
            report.errors.append(LintError(path=str(path), message=str(exc)))
    report.findings.sort(key=_sort_key)
    return report
