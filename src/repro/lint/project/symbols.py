"""Project symbol table: resolving names across module boundaries.

Aggregates the per-file :class:`~repro.lint.project.facts.ModuleFacts` into
one table and answers the question every cross-module rule asks: *which
definition does this name, written in this module, actually denote?*

Resolution follows import chains (``from repro.cascade import
sample_snapshots`` where ``repro.cascade/__init__.py`` itself imports the
name from ``repro.cascade.snapshots``), ``*`` imports, and ``import x as y``
aliases.  The result is a **global symbol id** of the form
``"<module>:<qualname>"`` (``repro.utils.rng:as_rng``,
``repro.exec.jobs:CompetitiveJob.run``).

Deliberate approximations (see ``docs/static-analysis.md``):

* names that resolve outside the analyzed project (numpy, stdlib) return
  ``None`` — the rules treat external calls as opaque;
* conditional imports and ``importlib`` tricks are invisible;
* one name per module — shadowing a module-level name inside a function is
  not modelled (function locals are tracked separately in the facts layer).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lint.project.facts import ClassFacts, FunctionFacts, ModuleFacts


@dataclass(frozen=True)
class Symbol:
    """One resolved definition."""

    symbol_id: str  # "module:qualname"
    module: str
    qualname: str
    kind: str  # "function" | "class"
    path: str
    line: int


class SymbolTable:
    """Name resolution over a set of analyzed modules."""

    def __init__(self, modules: dict[str, ModuleFacts]) -> None:
        self.modules = modules
        self._symbols: dict[str, Symbol] = {}
        for facts in modules.values():
            for qual, fn in facts.functions.items():
                sid = f"{facts.module}:{qual}"
                self._symbols[sid] = Symbol(
                    sid, facts.module, qual, "function", facts.path, fn.lineno
                )
            for name, cls in facts.classes.items():
                sid = f"{facts.module}:{name}"
                self._symbols[sid] = Symbol(
                    sid, facts.module, name, "class", facts.path, cls.lineno
                )

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def symbol(self, symbol_id: str) -> Symbol | None:
        """The :class:`Symbol` for a global id, or None."""
        return self._symbols.get(symbol_id)

    def class_facts(self, symbol_id: str) -> ClassFacts | None:
        """The facts of the class behind *symbol_id*, or None."""
        module, _, qual = symbol_id.partition(":")
        facts = self.modules.get(module)
        if facts is None:
            return None
        return facts.classes.get(qual)

    def iter_functions(self) -> list[tuple[ModuleFacts, FunctionFacts, str]]:
        """Every function in the project as (module facts, fn facts, id)."""
        out: list[tuple[ModuleFacts, FunctionFacts, str]] = []
        for facts in self.modules.values():
            for qual, fn in facts.functions.items():
                out.append((facts, fn, f"{facts.module}:{qual}"))
        return out

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #

    def resolve(
        self, module: str, name: str, _seen: frozenset[str] = frozenset()
    ) -> str | None:
        """Resolve *name* (as written in *module*) to a global symbol id.

        Handles plain definitions, ``from x import y`` (chasing re-export
        chains through ``__init__`` modules), ``import x as y`` aliases,
        star imports, and dotted attribute paths rooted at any of those.
        Returns ``None`` for names the project does not define.
        """
        facts = self.modules.get(module)
        if facts is None:
            return None
        key = f"{module}|{name}"
        if key in _seen:  # import cycle
            return None
        _seen = _seen | {key}

        head, _, rest = name.partition(".")

        # 1. defined right here?
        if head in facts.functions or head in facts.classes:
            if not rest:
                return f"{module}:{head}"
            # Class.method
            cls = facts.classes.get(head)
            if cls is not None:
                return self.resolve_method(f"{module}:{head}", rest)
            return f"{module}:{head}"

        # 2. an import alias?
        target = facts.imports.get(head)
        if target is not None:
            dotted = f"{target}.{rest}" if rest else target
            return self._resolve_dotted(dotted, _seen)

        # 3. star imports
        for star in facts.star_imports:
            resolved = self.resolve(star, name, _seen)
            if resolved is not None:
                return resolved
        return None

    def _resolve_dotted(
        self, dotted: str, _seen: frozenset[str]
    ) -> str | None:
        """Resolve an absolute dotted path against the analyzed modules.

        Finds the longest module prefix, then resolves the remainder inside
        it (recursing so ``__init__`` re-exports chase through).
        """
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                remainder = ".".join(parts[cut:])
                if not remainder:
                    return None  # a bare module, not a definition
                return self.resolve(module, remainder, _seen)
        return None

    def resolve_method(self, class_id: str, method: str) -> str | None:
        """Resolve *method* on the class *class_id*, walking base classes."""
        seen: set[str] = set()
        stack = [class_id]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.class_facts(current)
            if cls is None:
                continue
            module = current.partition(":")[0]
            facts = self.modules[module]
            qual = f"{cls.name}.{method}"
            if qual in facts.functions:
                return f"{module}:{qual}"
            for base in cls.bases:
                base_id = self.resolve(module, base)
                if base_id is not None:
                    stack.append(base_id)
        return None

    def mro_class_ids(self, class_id: str) -> list[str]:
        """*class_id* plus every resolvable base class id (BFS order)."""
        out: list[str] = []
        seen: set[str] = set()
        stack = [class_id]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.class_facts(current)
            if cls is None:
                continue
            out.append(current)
            module = current.partition(":")[0]
            for base in cls.bases:
                base_id = self.resolve(module, base)
                if base_id is not None:
                    stack.append(base_id)
        return out

    def subclasses_of(self, class_id: str) -> list[str]:
        """Every analyzed class whose (transitive) bases include *class_id*."""
        out: list[str] = []
        for facts in self.modules.values():
            for name in facts.classes:
                candidate = f"{facts.module}:{name}"
                if candidate == class_id:
                    continue
                if class_id in self.mro_class_ids(candidate):
                    out.append(candidate)
        return out

