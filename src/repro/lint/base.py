"""Shared vocabulary of the linter: findings and the rule interface.

A :class:`Rule` is an :class:`ast.NodeVisitor` subclass with class-level
metadata (code, rationale, fix-it hint) and a path predicate that scopes it
to the packages where its invariant matters.  Rules append :class:`Finding`
objects via :meth:`Rule.report`; the engine handles suppression comments and
rendering so rules stay pure AST logic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from collections.abc import Sequence
from typing import ClassVar


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str

    def render(self) -> str:
        """``path:line:col: CODE message`` — the human-readable form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (stable key set; see docs)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }


class Rule(ast.NodeVisitor):
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement ``visit_*`` methods,
    calling :meth:`report` for each violation.  One rule instance is created
    per (rule, file) pair, so instance state never leaks across files.
    """

    #: stable identifier, ``RP`` + three digits
    code: ClassVar[str] = "RP000"
    #: short kebab-case name used in ``--list-rules`` output
    name: ClassVar[str] = "abstract-rule"
    #: why violating this rule corrupts the reproduction
    rationale: ClassVar[str] = ""
    #: how to fix a violation
    hint: ClassVar[str] = ""

    def __init__(self, path: str, module: tuple[str, ...]):
        self.path = path
        self.module = module
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, module: tuple[str, ...]) -> bool:
        """Whether this rule runs on the file with package-relative *module* parts."""
        raise NotImplementedError

    def report(self, node: ast.AST, message: str) -> None:
        """Record a violation anchored at *node*."""
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=self.code,
                message=message,
                hint=self.hint,
            )
        )


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def root_name(node: ast.expr) -> str | None:
    """The variable a chained attribute/subscript/call expression is rooted at.

    ``graph.out_degrees()[v]`` and ``graph.meta.weights`` both root at
    ``graph``; expressions rooted at literals or calls of plain names return
    that callee's name owner (``None`` for non-name roots).
    """
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            return node.id
        else:
            return None


def module_matches(module: tuple[str, ...], *packages: str) -> bool:
    """True if any directory component of *module* is one of *packages*."""
    return any(part in packages for part in module[:-1])


def is_float_like(node: ast.expr) -> bool:
    """Expressions that are statically known to be floats.

    Covers float literals (``0.0``), negated float literals (``-1.0``), and
    explicit ``float(...)`` conversions — the forms that appear on at least
    one side of virtually every exact-float-equality bug.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return is_float_like(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    return False


def annotation_mentions(annotation: ast.expr | None, *names: str) -> bool:
    """Whether *annotation* textually references any of *names* (e.g. DiGraph)."""
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in names:
            return True
        if isinstance(node, ast.Attribute) and node.attr in names:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if any(name in node.value for name in names):
                return True
    return False


def iter_arguments(args: ast.arguments) -> Sequence[ast.arg]:
    """All argument nodes of a signature, in declaration order."""
    out: list[ast.arg] = []
    out.extend(args.posonlyargs)
    out.extend(args.args)
    if args.vararg is not None:
        out.append(args.vararg)
    out.extend(args.kwonlyargs)
    if args.kwarg is not None:
        out.append(args.kwarg)
    return out
