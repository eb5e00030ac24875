"""Approximate call graph over the project symbol table.

Edges are derived from the unresolved call strings the facts layer recorded,
interpreted through the :class:`~repro.lint.project.symbols.SymbolTable`:

* ``foo(...)`` / ``pkg.mod.foo(...)`` — resolved through imports and
  re-export chains;
* ``self.meth(...)`` — resolved against the enclosing class and its bases;
* ``var.meth(...)`` where ``var`` was assigned from ``SomeClass(...)`` or is
  a parameter annotated with a project class — resolved against that class;
* ``ClassName(...)`` — an edge to ``ClassName.__init__`` when it exists;
* ``obj.meth(...)`` with an unknown receiver — conservatively linked to
  **every** project class that defines ``meth`` (over-approximate, which is
  the right bias for determinism analysis: a spurious edge can only add a
  finding that a suppression then documents).

The graph is cycle-tolerant: reachability is a plain BFS with a visited set,
and :meth:`CallGraph.trace` rebuilds one shortest entry→target call path for
the finding messages.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.lint.project.facts import FunctionFacts, ModuleFacts
from repro.lint.project.symbols import SymbolTable


class CallGraph:
    """Directed caller→callee edges between global symbol ids."""

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self.edges: dict[str, set[str]] = {}
        self._method_index: dict[str, list[str]] = {}
        self._build_method_index()
        for facts, fn, symbol_id in symbols.iter_functions():
            self.edges[symbol_id] = self._resolve_calls(facts, fn)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _build_method_index(self) -> None:
        """method name -> every "module:Class.method" defining it."""
        for facts in self.symbols.modules.values():
            for cls in facts.classes.values():
                for method in cls.methods:
                    self._method_index.setdefault(method, []).append(
                        f"{facts.module}:{cls.name}.{method}"
                    )

    def _resolve_calls(
        self, facts: ModuleFacts, fn: FunctionFacts
    ) -> set[str]:
        out: set[str] = set()
        for call in fn.calls:
            for target in self._resolve_one(facts, fn, call.callee):
                out.add(target)
        return out

    def _resolve_one(
        self, facts: ModuleFacts, fn: FunctionFacts, callee: str
    ) -> Iterable[str]:
        head, _, rest = callee.partition(".")

        # self.meth(...) — enclosing class and bases
        if head == "self" and rest and fn.class_name is not None:
            class_id = f"{facts.module}:{fn.class_name}"
            resolved = self.symbols.resolve_method(class_id, rest.split(".")[0])
            return [resolved] if resolved is not None else []

        # receiver with a known constructor type or annotation
        if rest:
            receiver_type = fn.local_types.get(head) or fn.param_types.get(head)
            if receiver_type is not None:
                type_name = receiver_type.strip("'\"").split("[")[0]
                class_id = self.symbols.resolve(facts.module, type_name)
                if class_id is not None:
                    method = rest.split(".")[0]
                    resolved = self.symbols.resolve_method(class_id, method)
                    if resolved is not None:
                        return [resolved]

        direct = self.symbols.resolve(facts.module, callee)
        if direct is not None:
            symbol = self.symbols.symbol(direct)
            if symbol is not None and symbol.kind == "class":
                init = self.symbols.resolve_method(direct, "__init__")
                return [init] if init is not None else [direct]
            return [direct]

        # obj.meth(...) with an unknown receiver: every class defining meth
        if rest:
            method = rest.split(".")[-1]
            candidates = self._method_index.get(method, [])
            if 0 < len(candidates) <= 8:
                return candidates
        return []

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def reachable_from(self, entries: Iterable[str]) -> dict[str, str | None]:
        """BFS closure: reachable symbol id -> its BFS parent (entry -> None).

        Cycle-safe; entries not present in the graph are ignored.
        """
        parents: dict[str, str | None] = {}
        queue: deque[str] = deque()
        for entry in entries:
            if entry in self.edges and entry not in parents:
                parents[entry] = None
                queue.append(entry)
        while queue:
            current = queue.popleft()
            for callee in sorted(self.edges.get(current, ())):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return parents

    @staticmethod
    def trace(parents: dict[str, str | None], target: str) -> list[str]:
        """The entry→*target* call path recorded by :meth:`reachable_from`."""
        if target not in parents:
            return []
        path = [target]
        seen = {target}
        current = parents[target]
        while current is not None and current not in seen:
            path.append(current)
            seen.add(current)
            current = parents[current]
        return list(reversed(path))

    def callers_of(self, target: str) -> list[str]:
        """Direct callers of *target* (sorted for stable output)."""
        return sorted(
            caller for caller, callees in self.edges.items() if target in callees
        )


def render_trace(symbols: SymbolTable, path: list[str]) -> str:
    """Human-readable ``a -> b -> c`` call path with source anchors."""
    parts: list[str] = []
    for symbol_id in path:
        symbol = symbols.symbol(symbol_id)
        if symbol is None:
            parts.append(symbol_id)
        else:
            parts.append(f"{symbol.module}:{symbol.qualname}")
    return " -> ".join(parts)
