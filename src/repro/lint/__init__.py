"""reprolint: domain-aware static analysis for the GetReal reproduction.

The Monte-Carlo estimation layer is only trustworthy if it is
deterministic-under-seed and probabilistically sound.  An unseeded
``random.random()`` in a cascade, a float ``==`` on payoffs, or a metric
handle re-created per simulation silently degrades the payoff tensor and
hence the equilibrium Algorithm 1 returns.  These properties do not survive
refactors by reviewer vigilance alone, so this package enforces them
mechanically:

* :mod:`repro.lint.rules` — the per-file AST rules;
* :mod:`repro.lint.engine` — file discovery, suppression handling
  (``# reprolint: disable=RPxxx``), and human/JSON rendering;
* :mod:`repro.lint.cli` — ``python -m repro lint``, one pass of those rules.

Nothing on the query path imports this package; the runtime invariant
checks live in :mod:`repro.contracts`, and determinism under a seed is
checked by running it (``tests/test_exec_determinism.py``).  See ``docs/static-analysis.md``
for the rule catalogue with examples.
"""

from repro.lint.base import Finding, Rule
from repro.lint.engine import (
    format_findings,
    format_json,
    lint_paths,
    lint_source,
)
from repro.lint.rules import ALL_RULES, rule_by_code

__all__ = [
    "ALL_RULES",
    "Finding",
    "Rule",
    "format_findings",
    "format_json",
    "lint_paths",
    "lint_source",
    "rule_by_code",
]
