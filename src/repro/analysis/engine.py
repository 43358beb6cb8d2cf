"""Rule engine for ``repro-lint``: findings, suppressions, baseline, project model.

The checker is deliberately stdlib-only (``ast`` + ``json``), mirroring the
serve daemon's no-dependency stance. The moving parts:

``Finding``
    One diagnostic: rule id, file, line, message, fix hint, and a *stable
    symbol* (``Class.method.attr`` or the offending dotted call) used as the
    baseline identity so findings survive unrelated line churn.

``Rule`` / ``@rule``
    A rule is any object with ``id``/``summary``/``hint`` attributes and a
    ``check(module, project)`` generator. Concrete rules live in
    :mod:`repro.analysis.rules` and self-register via the :func:`rule`
    decorator into :data:`RULES`.

``ModuleInfo`` / ``Project``
    The cross-module symbol table. Each file is parsed once; imports are
    resolved to dotted names (``np`` → ``numpy``, ``from .spec import Param``
    → ``repro.methods.spec.Param``) so rules can ask "what does this call
    target" project-wide, and registry rules can chase a ``make=`` argument
    into another module's ``def``.

Suppressions
    ``# repro-lint: ignore[rule-id]`` on the offending line, on a comment
    line immediately above it, or on a ``def``/``class`` line (covering the
    whole body). Bare ``ignore`` suppresses every rule. Suppressions are
    deliberate exceptions — the justification belongs in the same comment.

Baseline
    A committed JSON file of known findings. ``check`` mode fails only on
    findings *not* in the baseline and reports stale entries so the file
    ratchets down but never up; ``write`` mode regenerates it.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "rule",
    "ModuleInfo",
    "Project",
    "build_project",
    "run_rules",
    "load_baseline",
    "write_baseline",
    "partition_against_baseline",
    "BASELINE_DEFAULT",
]

BASELINE_DEFAULT = ".repro-lint.baseline.json"


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    message: str
    hint: str = ""
    symbol: str = ""  # stable context, e.g. "HessianStore.get.hits"

    @property
    def key(self) -> str:
        """Line-free identity used for baseline matching."""
        return f"{self.path}::{self.rule}::{self.symbol or self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
            "symbol": self.symbol,
        }


class Rule(Protocol):
    """Protocol every lint rule satisfies (see :func:`rule`)."""

    id: str
    summary: str
    hint: str

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        ...


#: Registry of every known rule, keyed by rule id.
RULES: dict[str, Rule] = {}


def rule(cls: type) -> type:
    """Class decorator: instantiate and register a rule in :data:`RULES`."""
    inst = cls()
    if inst.id in RULES:
        raise ValueError(f"duplicate rule id {inst.id!r}")
    RULES[inst.id] = inst
    return cls


# --------------------------------------------------------------------------
# suppressions


_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([A-Za-z0-9_,\- ]+)\])?")

#: Sentinel meaning "every rule" for a bare ``ignore``.
_ALL = frozenset({"*"})


def _parse_suppressions(lines: list[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line number → suppressed rule ids on that line."""
    out: dict[int, frozenset[str]] = {}
    for idx, text in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        ids = _ALL if m.group(1) is None else frozenset(
            part.strip() for part in m.group(1).split(",") if part.strip()
        )
        out[idx] = out.get(idx, frozenset()) | ids
        # A comment-only line suppresses the next source line too.
        if text.lstrip().startswith("#") and idx + 1 <= len(lines):
            out[idx + 1] = out.get(idx + 1, frozenset()) | ids
    return out


# --------------------------------------------------------------------------
# module / project model


@dataclass
class ModuleInfo:
    """One parsed source file plus its resolved import table."""

    path: Path
    rel: str  # repo-relative posix path, used in findings
    dotted: str  # e.g. "repro.quant.engine"
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: local alias → fully dotted target ("np" → "numpy",
    #: "Param" → "repro.methods.spec.Param")
    imports: dict[str, str] = field(default_factory=dict)
    _suppress: dict[int, frozenset[str]] = field(default_factory=dict)
    _ranges: list[tuple[int, int, frozenset[str]]] = field(default_factory=list)

    def suppressed(self, rule_id: str, line: int) -> bool:
        ids = self._suppress.get(line)
        if ids is not None and (ids & _ALL or rule_id in ids):
            return True
        for start, end, ids in self._ranges:
            if start <= line <= end and (ids & _ALL or rule_id in ids):
                return True
        return False

    def toplevel_def(self, name: str) -> ast.AST | None:
        """Top-level function/class definition named ``name``, if any."""
        for node in self.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and node.name == name:
                return node
        return None

    def resolve(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to a fully dotted target.

        ``np.random.rand`` with ``import numpy as np`` →
        ``"numpy.random.rand"``; unresolvable bases fall back to the bare
        name chain so same-module references still compare usefully.
        """
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        base = self.imports.get(cur.id, cur.id)
        parts.append(base)
        return ".".join(reversed(parts))


def _dotted_name(path: Path) -> str:
    """Dotted module name, rooted at the ``repro`` package when present."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "repro":
            return ".".join(parts[idx:])
    return parts[-1] if parts else ""


def _resolve_relative(dotted: str, level: int, target: str | None) -> str:
    """Resolve a ``from ..x import y`` module reference to a dotted name."""
    base = dotted.split(".")
    # level 1 = current package; the module's own name is dropped first.
    base = base[: len(base) - level] if level <= len(base) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


def _build_imports(mod: ModuleInfo) -> None:
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mod.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    mod.imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            source = (
                _resolve_relative(mod.dotted, node.level, node.module)
                if node.level
                else (node.module or "")
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                mod.imports[alias.asname or alias.name] = (
                    f"{source}.{alias.name}" if source else alias.name
                )


def _collect_ranges(mod: ModuleInfo) -> None:
    """Suppressions on a def/class line cover the whole body."""
    for node in ast.walk(mod.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        ids = mod._suppress.get(node.lineno)
        if ids:
            mod._ranges.append((node.lineno, node.end_lineno or node.lineno, ids))


@dataclass
class Project:
    """All parsed modules plus cross-module lookup helpers."""

    root: Path
    modules: list[ModuleInfo] = field(default_factory=list)
    by_dotted: dict[str, ModuleInfo] = field(default_factory=dict)

    def module_for(self, dotted: str) -> ModuleInfo | None:
        return self.by_dotted.get(dotted)

    def find_def(self, dotted: str) -> tuple[ModuleInfo, ast.AST] | None:
        """Locate a top-level def/class by fully dotted name."""
        if "." not in dotted:
            return None
        mod_name, _, sym = dotted.rpartition(".")
        mod = self.by_dotted.get(mod_name)
        if mod is None:
            return None
        node = mod.toplevel_def(sym)
        if node is None:
            return None
        return mod, node

    def resolve_def(
        self, mod: ModuleInfo, node: ast.expr
    ) -> tuple[ModuleInfo, ast.AST] | None:
        """Resolve an expression in ``mod`` to a project-level definition."""
        if isinstance(node, ast.Name):
            local = mod.toplevel_def(node.id)
            if local is not None:
                return mod, local
        target = mod.resolve(node)
        if target is None:
            return None
        found = self.find_def(target)
        if found is not None:
            return found
        # ``from x import y`` re-exports: chase one alias hop.
        mod_name, _, sym = target.rpartition(".")
        inner = self.by_dotted.get(mod_name)
        if inner is not None and sym in inner.imports:
            return self.find_def(inner.imports[sym])
        return None


def iter_py_files(paths: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    # De-duplicate while keeping order stable.
    seen: set[Path] = set()
    out = []
    for f in files:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            out.append(f)
    return out


def build_project(paths: Iterable[Path], root: Path | None = None) -> Project:
    root = (root or Path.cwd()).resolve()
    project = Project(root=root)
    for path in iter_py_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError):
            continue
        try:
            rel = path.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        mod = ModuleInfo(
            path=path,
            rel=rel,
            dotted=_dotted_name(path),
            tree=tree,
            lines=source.splitlines(),
        )
        mod._suppress = _parse_suppressions(mod.lines)
        _build_imports(mod)
        _collect_ranges(mod)
        project.modules.append(mod)
        project.by_dotted.setdefault(mod.dotted, mod)
    return project


def run_rules(
    project: Project,
    select: Iterable[str] | None = None,
    rules: dict[str, Rule] | None = None,
) -> list[Finding]:
    """Run the (selected) rules over every module; suppressions applied."""
    table = rules if rules is not None else RULES
    active = [table[r] for r in select] if select else list(table.values())
    findings: list[Finding] = []
    for mod in project.modules:
        for rl in active:
            for finding in rl.check(mod, project):
                if not mod.suppressed(finding.rule, finding.line):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# --------------------------------------------------------------------------
# baseline


def load_baseline(path: Path) -> set[str]:
    """Known-finding keys from a committed baseline file (empty if absent)."""
    if not path.exists():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    return {entry["key"] for entry in data.get("findings", [])}


def write_baseline(path: Path, findings: Iterable[Finding]) -> None:
    entries = sorted(
        ({"key": f.key, "rule": f.rule, "path": f.path} for f in findings),
        key=lambda e: e["key"],
    )
    payload = {"version": 1, "findings": entries}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def partition_against_baseline(
    findings: list[Finding], baseline: set[str]
) -> tuple[list[Finding], list[str]]:
    """Split findings into (new, stale-baseline-keys).

    New findings fail the build; stale keys are baseline entries no longer
    observed — the signal to regenerate the file so it only ever shrinks.
    """
    seen = {f.key for f in findings}
    new = [f for f in findings if f.key not in baseline]
    stale = sorted(baseline - seen)
    return new, stale
