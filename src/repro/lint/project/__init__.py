"""reprolint v2: whole-program determinism & concurrency analysis.

Where :mod:`repro.lint.rules` checks one file at a time, this package builds
a symbol table and approximate call graph over the entire ``repro`` package
and runs taint-style dataflow rules on top:

* :mod:`repro.lint.project.facts` — per-file picklable IR (extracted in
  parallel across a process pool);
* :mod:`repro.lint.project.symbols` — cross-module name resolution
  (imports, re-exports, star imports, aliases, base-class method lookup);
* :mod:`repro.lint.project.callgraph` — caller→callee edges, reachability,
  call-path traces for findings;
* :mod:`repro.lint.project.rules` — RP010–RP015;
* :mod:`repro.lint.project.baseline` — the checked-in ratchet that pins
  accepted findings while blocking new ones;
* :mod:`repro.lint.project.engine` — the extract → aggregate → check driver
  behind ``python -m repro lint --project``.
"""

from repro.lint.project.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.project.callgraph import CallGraph, render_trace
from repro.lint.project.engine import (
    ProjectReport,
    analyze_project,
    extract_project,
    module_name_for,
)
from repro.lint.project.facts import ModuleFacts, extract_facts
from repro.lint.project.rules import (
    PROJECT_RULES,
    Project,
    ProjectFinding,
    ProjectRule,
    project_rule_by_code,
)
from repro.lint.project.symbols import SymbolTable

__all__ = [
    "DEFAULT_BASELINE",
    "PROJECT_RULES",
    "CallGraph",
    "ModuleFacts",
    "Project",
    "ProjectFinding",
    "ProjectReport",
    "ProjectRule",
    "SymbolTable",
    "analyze_project",
    "apply_baseline",
    "extract_facts",
    "extract_project",
    "load_baseline",
    "module_name_for",
    "project_rule_by_code",
    "render_trace",
    "write_baseline",
]
