"""Two source rules that keep the payoff tensor a function of its seed.

* RP001: outside ``utils/rng.py`` no code imports the stdlib ``random``
  module or a numpy.random entry point, or calls ``random.<fn>`` /
  ``np.random.<fn>``: every draw comes from an injected ``Generator``.
* RP002: under ``game/`` and ``core/`` no ``==``/``!=`` compares against a
  float literal or ``float(...)``; use ``repro.utils.validation.nearly_zero``
  or ``values_close``.

A finding fails the test with its file and line.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: numpy.random names that are types, not draws from global state.
RNG_TYPES = {"Generator", "BitGenerator", "SeedSequence"}


def dotted(node: ast.expr) -> list[str]:
    """``["np", "random", "rand"]`` for ``np.random.rand``; ``[]`` if not a name chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []


def global_random(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "random" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[0] == "random" or (
            module[:2] == ["numpy", "random"] and any(a.name not in RNG_TYPES for a in node.names)
        )
    if isinstance(node, ast.Call):
        name = dotted(node.func)
        stdlib = len(name) == 2 and name[0] == "random"
        numpy = len(name) == 3 and name[0] in ("np", "numpy") and name[1] == "random"
        return (stdlib or numpy) and name[-1] not in RNG_TYPES
    return False


def float_like(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp):
        return float_like(node.operand)
    if isinstance(node, ast.Call):
        return dotted(node.func) == ["float"]
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def float_equality(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(float_like(operand) for operand in (node.left, *node.comparators))
    )


def findings(rule, applies) -> list[str]:
    """``path:line`` of every node that breaks *rule* in a module *applies* selects."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if applies(path.relative_to(PACKAGE)):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree) if rule(node)]
    return found


def test_rp001_no_global_random():
    found = findings(global_random, lambda rel: rel != Path("utils", "rng.py"))
    assert not found, "global RNG use:\n" + "\n".join(found)


def test_rp002_no_float_equality_in_game_and_core():
    found = findings(float_equality, lambda rel: rel.parts[0] in ("game", "core"))
    assert not found, "exact float ==/!=:\n" + "\n".join(found)
