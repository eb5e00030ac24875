"""Whole-program determinism & concurrency analysis.

Where :mod:`repro.lint.rules` checks one file at a time, this package builds
a symbol table and approximate call graph over the entire ``repro`` package
and runs taint-style dataflow rules on top:

* :mod:`repro.lint.project.facts` — per-file picklable IR (extracted in
  parallel across a process pool);
* :mod:`repro.lint.project.symbols` — cross-module name resolution
  (imports, re-exports, star imports, aliases, base-class method lookup);
* :mod:`repro.lint.project.callgraph` — caller→callee edges, reachability,
  call-path traces for findings;
* :mod:`repro.lint.project.rules` — RP010–RP013;
* :mod:`repro.lint.project.engine` — the extract → aggregate → check driver
  behind the project half of ``python -m repro lint``.
"""

from repro.lint.project.callgraph import CallGraph, render_trace
from repro.lint.project.engine import (
    ProjectReport,
    analyze_project,
    module_name_for,
)
from repro.lint.project.facts import ModuleFacts, extract_facts
from repro.lint.project.rules import PROJECT_RULES, Project, ProjectRule
from repro.lint.project.symbols import SymbolTable

__all__ = [
    "PROJECT_RULES",
    "CallGraph",
    "ModuleFacts",
    "Project",
    "ProjectReport",
    "ProjectRule",
    "SymbolTable",
    "analyze_project",
    "extract_facts",
    "module_name_for",
    "render_trace",
]
