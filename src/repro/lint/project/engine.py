"""Whole-program analysis driver: extract → aggregate → check.

The pipeline has three stages:

1. **extract** — every ``.py`` file under the package root is parsed once
   and reduced to a picklable :class:`~repro.lint.project.facts.ModuleFacts`;
   the per-file rules the caller passes run on the same tree.
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

import ast
import concurrent.futures
import os
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence

from repro.lint.base import Finding, Rule
from repro.lint.engine import (
    PARSE_ERROR_CODE,
    iter_python_files,
    lint_tree,
    parse_error_finding,
    parse_suppressions,
    unreadable_finding,
)
from repro.lint.project.callgraph import CallGraph
from repro.lint.project.facts import ModuleFacts, tree_facts
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


def _extract_one(
    payload: tuple[str, str, str, tuple[type[Rule], ...]],
) -> tuple[ModuleFacts, list[Finding]]:
    """Worker body: read and parse one file once (picklable in and out).

    Returns the file's facts and the findings of the per-file *rules* run
    on the same tree; a file that cannot be read or parsed yields the one
    RP999 finding the per-file pass reports for it.
    """
    path_str, module, display, rules = payload
    try:
        source = Path(path_str).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        facts = ModuleFacts(module=module, path=display, parse_error=f"file unreadable: {exc}")
        return facts, [unreadable_finding(display, exc)]
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        facts = ModuleFacts(
            module=module,
            path=display,
            parse_error=exc.msg or "syntax error",
            parse_error_line=exc.lineno or 1,
        )
        return facts, [parse_error_finding(display, exc)]
    suppressions = parse_suppressions(source)
    return (
        tree_facts(tree, suppressions, module, display),
        lint_tree(tree, Path(display), suppressions, rules),
    )


@dataclass
class ProjectReport:
    """Outcome of one whole-program analysis run."""

    findings: list[Finding] = field(default_factory=list)
    parse_errors: list[Finding] = field(default_factory=list)
    modules_analyzed: int = 0
    #: per-file rule findings (RP999 included) by file path
    file_findings: dict[str, list[Finding]] = field(default_factory=dict)

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


def extract_project(
    root: Path, jobs: int | None = None, file_rules: Sequence[type[Rule]] = ()
) -> tuple[dict[str, ModuleFacts], dict[str, list[Finding]]]:
    """Stage 1: per-file facts for every module under *root*.

    Module names are rooted at the directory's name (``src/repro`` →
    ``repro.*``).  Also returns, by file path, the findings of the
    per-file *file_rules* run on the trees the facts come from.
    """
    package = root.name
    files = list(iter_python_files([root]))
    rules = tuple(file_rules)
    payloads = [
        (str(f), module_name_for(f, root, package), str(f), rules) for f in files
    ]
    workers = default_jobs() if jobs is None else max(jobs, 1)
    results: list[tuple[ModuleFacts, list[Finding]]]
    if workers > 1 and len(payloads) >= _PARALLEL_THRESHOLD:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(len(payloads) // (workers * 4), 1)
            results = list(pool.map(_extract_one, payloads, chunksize=chunk))
    else:
        results = [_extract_one(p) for p in payloads]
    modules: dict[str, ModuleFacts] = {}
    file_findings: dict[str, list[Finding]] = {}
    for facts, findings in results:
        # A package dir and a sibling module can collide only on broken
        # layouts; last write wins deterministically (sorted file order).
        modules[facts.module] = facts
        file_findings[facts.path] = findings
    return modules, file_findings


def analyze_project(
    root: Path | str,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    jobs: int | None = None,
    file_rules: Sequence[type[Rule]] = (),
) -> ProjectReport:
    """Run the full whole-program analysis over the package at *root*.

    The per-file *file_rules* run on the same parsed trees; their findings
    are in :attr:`ProjectReport.file_findings`.
    """
    modules, file_findings = extract_project(Path(root), jobs=jobs, file_rules=file_rules)
    report = ProjectReport(modules_analyzed=len(modules), file_findings=file_findings)
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
