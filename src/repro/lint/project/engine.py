"""Whole-program analysis driver: extract → aggregate → check.

The pipeline has three stages:

1. **extract** — every ``.py`` file under the package root is parsed and
   reduced to a picklable :class:`~repro.lint.project.facts.ModuleFacts`.
   This stage is embarrassingly parallel and fans out over a process pool
   (``jobs`` workers) once the file count justifies the pool start-up cost;
2. **aggregate** — the facts become a
   :class:`~repro.lint.project.symbols.SymbolTable` and a
   :class:`~repro.lint.project.callgraph.CallGraph` (single process, cheap);
3. **check** — each project rule inspects the aggregate and emits
   :class:`~repro.lint.base.Finding` objects; line-scoped
   ``# reprolint: disable=RPxxx`` comments are honoured by the rules
   themselves (they carry per-module suppression maps).

Files that fail to parse are **never silently skipped**: each produces an
``RP999`` finding and still participates as an (empty) module.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence

from repro.lint.base import Finding
from repro.lint.engine import PARSE_ERROR_CODE, iter_python_files
from repro.lint.project.callgraph import CallGraph
from repro.lint.project.facts import ModuleFacts, extract_facts
from repro.lint.project.rules import PROJECT_RULES, Project, ProjectRule
from repro.lint.project.symbols import SymbolTable

#: Below this file count the pool start-up dominates; extract serially.
_PARALLEL_THRESHOLD = 16


def module_name_for(path: Path, root: Path, package: str) -> str:
    """Dotted module name of *path* relative to the package *root*.

    ``<root>/exec/jobs.py`` → ``<package>.exec.jobs``;
    ``<root>/exec/__init__.py`` → ``<package>.exec``.
    """
    relative = path.resolve().relative_to(root.resolve())
    parts = [package, *relative.parts[:-1]]
    stem = relative.stem
    if stem != "__init__":
        parts.append(stem)
    return ".".join(parts)


def _extract_one(payload: tuple[str, str, str]) -> ModuleFacts:
    """Worker body: read + parse + extract one file (picklable in and out)."""
    path_str, module, display = payload
    try:
        source = Path(path_str).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        facts = ModuleFacts(module=module, path=display)
        facts.parse_error = f"file unreadable: {exc}"
        return facts
    return extract_facts(source, module, display)


@dataclass
class ProjectReport:
    """Outcome of one whole-program analysis run."""

    findings: list[Finding] = field(default_factory=list)
    parse_errors: list[Finding] = field(default_factory=list)
    modules_analyzed: int = 0

    @property
    def all_findings(self) -> list[Finding]:
        """Rule findings plus parse errors, sorted for rendering."""
        return sorted([*self.findings, *self.parse_errors])


def _select_project_rules(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> list[type[ProjectRule]]:
    rules = list(PROJECT_RULES)
    if select is not None:
        rules = [r for r in rules if r.code in set(select)]
    if ignore:
        rules = [r for r in rules if r.code not in set(ignore)]
    return rules


def default_jobs() -> int:
    """Worker-count default for the extraction pool."""
    return min(os.cpu_count() or 1, 8)


def extract_project(root: Path, jobs: int | None = None) -> dict[str, ModuleFacts]:
    """Stage 1: per-file facts for every module under *root*.

    Module names are rooted at the directory's name (``src/repro`` →
    ``repro.*``).
    """
    package = root.name
    files = list(iter_python_files([root]))
    payloads = [
        (str(f), module_name_for(f, root, package), str(f)) for f in files
    ]
    workers = default_jobs() if jobs is None else max(jobs, 1)
    results: list[ModuleFacts]
    if workers > 1 and len(payloads) >= _PARALLEL_THRESHOLD:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(len(payloads) // (workers * 4), 1)
            results = list(pool.map(_extract_one, payloads, chunksize=chunk))
    else:
        results = [_extract_one(p) for p in payloads]
    modules: dict[str, ModuleFacts] = {}
    for facts in results:
        # A package dir and a sibling module can collide only on broken
        # layouts; last write wins deterministically (sorted file order).
        modules[facts.module] = facts
    return modules


def analyze_project(
    root: Path | str,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    jobs: int | None = None,
) -> ProjectReport:
    """Run the full whole-program analysis over the package at *root*."""
    modules = extract_project(Path(root), jobs=jobs)
    report = ProjectReport(modules_analyzed=len(modules))
    for facts in modules.values():
        if facts.parse_error is not None:
            report.parse_errors.append(
                Finding(
                    path=facts.path,
                    line=facts.parse_error_line,
                    col=1,
                    code=PARSE_ERROR_CODE,
                    message=f"file does not parse: {facts.parse_error}",
                    hint="fix the syntax error; the project analysis needs "
                    "a valid AST for every module",
                )
            )
    symbols = SymbolTable(modules)
    callgraph = CallGraph(symbols)
    project = Project(modules=modules, symbols=symbols, callgraph=callgraph)
    for rule_cls in _select_project_rules(select, ignore):
        report.findings.extend(rule_cls().check(project))
    report.findings.sort()
    report.parse_errors.sort()
    return report
