"""Every private module-level helper of the package has a caller in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "circast"


def _names(node) -> set:
    """The names that a node reads, imports or reaches as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_private_helper_is_named_outside_its_definition():
    helpers = {}  # (file, name) -> its definition
    statements = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_") and not stmt.name.startswith("__"):
                helpers[path.name, stmt.name] = stmt
    assert helpers  # the walk found the package's own helpers
    unused = [
        f"{file}:{name}"
        for (file, name), definition in helpers.items()
        if not any(name in _names(stmt) for stmt in statements if stmt is not definition)
    ]
    assert unused == []
