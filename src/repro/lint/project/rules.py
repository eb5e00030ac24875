"""The whole-program rule catalogue: RP010–RP013.

Unlike the per-file rules (RP001–RP004, RP009), these run over a :class:`Project`
— symbol table plus approximate call graph — so they can see an ambient
``default_rng()`` three call hops below a job, an unpicklable closure
captured into a process-backend payload, or an un-locked write to shared
state reachable from a job.  Each finding carries a ``trace`` (an
entry→site call path) when the evidence is cross-module.

The dataflow model is deliberately over-approximate (unknown-receiver calls
fan out to every same-named method; see ``docs/static-analysis.md`` for the
full list of approximations).  Line-scoped suppressions record accepted
findings, so the rules can stay sound-biased.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.lint.base import Finding
from repro.lint.project.callgraph import CallGraph, render_trace
from repro.lint.project.facts import ModuleFacts
from repro.lint.project.symbols import SymbolTable

#: Function names that build cache/journal keys — wall-clock or id() taint
#: flowing into these makes cache keys and journal records nondeterministic.
KEY_BUILDER_NAMES = frozenset(
    {"params_token", "rng_token", "freeze", "fingerprint", "cache_key"}
)

#: Dataclass field annotations that cannot (or must not) cross a process
#: boundary inside a job payload.
UNPICKLABLE_ANNOTATIONS = ("Generator", "Lock", "RLock", "IO", "TextIO", "BinaryIO")


@dataclass
class Project:
    """Everything a project rule gets to look at."""

    modules: dict[str, ModuleFacts]
    symbols: SymbolTable
    callgraph: CallGraph
    _entry_cache: dict[str, list[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # shared entry-point discovery
    # ------------------------------------------------------------------ #

    def job_run_entries(self) -> list[str]:
        """``run`` methods of every ``*Job`` payload class.

        These are the functions the execution backends invoke — in the
        calling thread under the serial backend and in worker processes
        under the process backend — so they anchor both the RNG-provenance
        and the shared-state reachability analyses.
        """
        cached = self._entry_cache.get("job_run")
        if cached is None:
            cached = []
            for facts in self.modules.values():
                for name, cls in facts.classes.items():
                    if name.endswith("Job") and "run" in cls.methods:
                        cached.append(f"{facts.module}:{name}.run")
            self._entry_cache["job_run"] = sorted(cached)
        return cached

    def selector_entries(self) -> list[str]:
        """``select``/``_select``/``_select_pooled`` across the selector tree."""
        cached = self._entry_cache.get("select")
        if cached is None:
            cached = []
            roots = [
                f"{facts.module}:{name}"
                for facts in self.modules.values()
                for name in facts.classes
                if name == "SeedSelector"
            ]
            class_ids: set[str] = set(roots)
            for root in roots:
                class_ids.update(self.symbols.subclasses_of(root))
            for class_id in sorted(class_ids):
                module, _, cls_name = class_id.partition(":")
                facts = self.modules[module]
                for method in ("select", "_select", "_select_pooled"):
                    qual = f"{cls_name}.{method}"
                    if qual in facts.functions:
                        cached.append(f"{module}:{qual}")
            self._entry_cache["select"] = sorted(cached)
        return cached

    def determinism_entries(self) -> list[str]:
        """Union of job-run and selector entries."""
        return sorted({*self.job_run_entries(), *self.selector_entries()})

    def suppressed(self, facts: ModuleFacts, line: int, code: str) -> bool:
        if line not in facts.suppressions:
            return False
        codes = facts.suppressions[line]
        return codes is None or code in codes


class ProjectRule:
    """Base class: metadata + the ``check`` hook over a :class:`Project`."""

    code: ClassVar[str] = "RP000"
    name: ClassVar[str] = "abstract-project-rule"
    rationale: ClassVar[str] = ""
    hint: ClassVar[str] = ""

    def check(self, project: Project) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self,
        facts: ModuleFacts,
        line: int,
        message: str,
        trace: str = "",
        col: int = 1,
    ) -> Finding:
        return Finding(
            path=facts.path,
            line=line,
            col=col,
            code=self.code,
            message=message,
            hint=self.hint,
            trace=trace,
        )


class RngProvenance(ProjectRule):
    """RP010: every Generator on a job/selector path derives from the seed.

    An ambient ``default_rng()`` (or ``random.*`` / ``np.random.*`` draw)
    anywhere in the call closure of an execution-engine job or a seed
    selector breaks determinism-under-seed: the stream no longer derives
    from the master seed through the ``SeedSequence.spawn`` chain, so two
    runs with the same seed diverge.  The per-file RP001 sees only direct
    call sites; this rule follows the call graph, including through the
    ``utils.rng.as_rng`` boundary module that RP001 exempts.
    """

    code: ClassVar[str] = "RP010"
    name: ClassVar[str] = "rng-provenance"
    rationale: ClassVar[str] = (
        "generators reachable from exec jobs or SeedSelector.select must "
        "derive from the SeedSequence.spawn chain; ambient RNG construction "
        "on those paths silently breaks bit-identical replay"
    )
    hint: ClassVar[str] = (
        "thread the caller's Generator (or a SeedSequence child) down to "
        "this call; if ambient entropy is the documented contract of the "
        "site, keep it behind one allowlisted boundary with a narrow "
        "'# reprolint: disable=RP010' and a comment citing the decision"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        entries = project.determinism_entries()
        parents = project.callgraph.reachable_from(entries)
        for facts, fn, symbol_id in project.symbols.iter_functions():
            if not fn.ambient_rng or symbol_id not in parents:
                continue
            trace = render_trace(
                project.symbols, project.callgraph.trace(parents, symbol_id)
            )
            for site in fn.ambient_rng:
                if project.suppressed(facts, site.line, self.code):
                    continue
                findings.append(
                    self.finding(
                        facts,
                        site.line,
                        f"ambient RNG {site.name!r} in {fn.qualname} is "
                        "reachable from a job/selector entry point",
                        trace=trace,
                    )
                )
        for facts in project.modules.values():
            for site in facts.module_ambient_rng:
                if project.suppressed(facts, site.line, self.code):
                    continue
                findings.append(
                    self.finding(
                        facts,
                        site.line,
                        f"module-level ambient RNG {site.name!r} runs at "
                        "import time, outside any seed chain",
                    )
                )
        return findings


class NondeterminismSources(ProjectRule):
    """RP011: wall-clock, ``id()`` keys, and set iteration near keys/journal.

    Wall-clock reads and ``id()``-derived keys differ across runs, and set
    iteration order differs across *processes* (hash randomization), so any
    of them feeding a cache key, a journal record, or a job/selector path
    makes warm replay and cross-backend comparison lie.  A function is
    *sensitive* when it is reachable from a job/selector entry point or
    when it (transitively) feeds a key-builder or journal writer.
    """

    code: ClassVar[str] = "RP011"
    name: ClassVar[str] = "nondeterminism-sources"
    rationale: ClassVar[str] = (
        "wall-clock reads, id()-keyed lookups, and unordered-set iteration "
        "produce values that differ across runs/processes; on cache-key or "
        "journal paths they silently break replay and comparison"
    )
    hint: ClassVar[str] = (
        "use monotonic clocks for durations, content-derived keys instead "
        "of id(), and sorted(...) before iterating sets; wall-clock fields "
        "that are the product (e.g. a journal 'ts') carry a narrow "
        "'# reprolint: disable=RP011'"
    )

    def _sensitive_ids(self, project: Project) -> set[str]:
        forward = set(
            project.callgraph.reachable_from(project.determinism_entries())
        )
        # backward closure into key builders / journal writers
        sinks: set[str] = set()
        for facts, fn, symbol_id in project.symbols.iter_functions():
            if fn.emits or fn.name in KEY_BUILDER_NAMES:
                sinks.add(symbol_id)
        reverse: dict[str, set[str]] = {}
        for caller, callees in project.callgraph.edges.items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        backward: set[str] = set()
        stack = list(sinks)
        while stack:
            current = stack.pop()
            if current in backward:
                continue
            backward.add(current)
            stack.extend(reverse.get(current, ()))
        return forward | backward

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        sensitive = self._sensitive_ids(project)
        for facts, fn, symbol_id in project.symbols.iter_functions():
            for id_site in fn.id_keys:
                if project.suppressed(facts, id_site.line, self.code):
                    continue
                findings.append(
                    self.finding(
                        facts,
                        id_site.line,
                        f"id(...) used as a key in {fn.qualname}; object "
                        "identity differs across runs and processes",
                    )
                )
            if symbol_id not in sensitive:
                continue
            for clock in fn.wall_clock:
                if project.suppressed(facts, clock.line, self.code):
                    continue
                findings.append(
                    self.finding(
                        facts,
                        clock.line,
                        f"wall-clock read {clock.name!r} in {fn.qualname} on "
                        "a cache-key/journal/job path",
                    )
                )
            for site in fn.set_iters:
                if project.suppressed(facts, site.line, self.code):
                    continue
                findings.append(
                    self.finding(
                        facts,
                        site.line,
                        f"iteration over unordered set ({site.expr}) in "
                        f"{fn.qualname} on a determinism-sensitive path; "
                        "order differs under hash randomization",
                    )
                )
        return findings


class PickleSafety(ProjectRule):
    """RP012: job payloads shipped to the process backend must pickle.

    A lambda, a locally-defined closure, a lock, an open handle, or a live
    ``Generator`` captured into a ``*Job`` construction works on the serial
    backend and then fails — or worse, silently duplicates RNG
    state — the first time the process backend pickles the payload.
    """

    code: ClassVar[str] = "RP012"
    name: ClassVar[str] = "pickle-safe-job-payloads"
    rationale: ClassVar[str] = (
        "job payloads cross a pickle boundary on the process backend; "
        "closures, locks, handles, and live Generators either fail to "
        "pickle or duplicate state that must stay process-local"
    )
    hint: ClassVar[str] = (
        "pass module-level callables and plain data into jobs; derive "
        "per-job randomness from the executor's SeedSequence spawn, never "
        "by capturing a Generator into the payload"
    )

    _ARG_MESSAGES: ClassVar[dict[str, str]] = {
        "lambda": "a lambda",
        "local-function": "a locally-defined closure",
        "unpicklable": "an unpicklable object",
        "generator": "a live numpy Generator",
    }

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for facts, fn, _symbol_id in project.symbols.iter_functions():
            for ctor in fn.job_ctors:
                for arg in ctor.args:
                    if project.suppressed(facts, arg.line, self.code):
                        continue
                    what = self._ARG_MESSAGES.get(arg.kind, arg.kind)
                    findings.append(
                        self.finding(
                            facts,
                            arg.line,
                            f"{ctor.class_name}(...) in {fn.qualname} "
                            f"captures {what} ({arg.detail}) into a job "
                            "payload",
                        )
                    )
        for facts in project.modules.values():
            for name, cls in facts.classes.items():
                if not name.endswith("Job"):
                    continue
                for field_name, annotation in cls.field_annotations.items():
                    if any(tok in annotation for tok in UNPICKLABLE_ANNOTATIONS):
                        if project.suppressed(facts, cls.lineno, self.code):
                            continue
                        findings.append(
                            self.finding(
                                facts,
                                cls.lineno,
                                f"job class {name} declares field "
                                f"{field_name!r} of unpicklable/stateful "
                                f"type {annotation!r}",
                            )
                        )
        return findings


class SharedStateMutation(ProjectRule):
    """RP013: job code paths never mutate shared state un-locked.

    A caller may drive executors from threads of its own, so jobs can run
    concurrently in one process, and a write to a module-level or
    class-level mutable reachable from a job — a handle-memo dict, a
    registry list — races unless it happens under a lock.  The metrics registry's instruments
    carry their own lock; everything else needs an explicit ``with lock:``.
    """

    code: ClassVar[str] = "RP013"
    name: ClassVar[str] = "locked-shared-state"
    rationale: ClassVar[str] = (
        "callers' threads can run jobs concurrently in-process; un-locked "
        "writes to module/class-level mutables on those paths race and can "
        "drop or corrupt shared state"
    )
    hint: ClassVar[str] = (
        "guard the write with a module-level threading.Lock (with _LOCK:) "
        "or move the binding to import time; reads of immutable bindings "
        "need no lock"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        entries = project.job_run_entries()
        parents = project.callgraph.reachable_from(entries)
        for facts, fn, symbol_id in project.symbols.iter_functions():
            if symbol_id not in parents or not fn.mutations:
                continue
            trace = render_trace(
                project.symbols, project.callgraph.trace(parents, symbol_id)
            )
            for site in fn.mutations:
                if site.locked:
                    continue
                if project.suppressed(facts, site.line, self.code):
                    continue
                findings.append(
                    self.finding(
                        facts,
                        site.line,
                        f"un-locked write ({site.via}) to shared mutable "
                        f"{site.target!r} in {fn.qualname}, reachable from "
                        "a job",
                        trace=trace,
                    )
                )
        return findings


PROJECT_RULES: tuple[type[ProjectRule], ...] = (
    RngProvenance,
    NondeterminismSources,
    PickleSafety,
    SharedStateMutation,
)

