"""The CLI's output policy lives in `main`: no command reads --format or --out
or writes a report itself, except `build` on a partition that is not
AST-regular, which prints its JSON report in either format."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "circast" / "cli.py"


def _uses(node) -> list:
    """The reads of args.format and args.out and the names of _emit in node."""
    out = []
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
        if name in ("format", "out") and getattr(sub.value, "id", None) == "args":
            out.append(f"args.{name}")
        elif name == "_emit":
            out.append(name)
    return out


def _not_regular_branches(func) -> list:
    return [
        handler
        for handler in ast.walk(func)
        if isinstance(handler, ast.ExceptHandler) and getattr(handler.type, "id", None) == "NotASTRegular"
    ]


def test_only_main_applies_the_output_policy():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    functions = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    commands = {name: func for name, func in functions.items() if name.startswith("cmd_")}
    assert len(commands) == 11
    assert set(_uses(functions["main"])) == {"args.format", "args.out", "_emit"}
    offenders = {}
    for name, func in commands.items():
        allowed = _not_regular_branches(func) if name == "cmd_build" else []
        uses = _uses(func)
        for branch in allowed:
            for use in _uses(branch):
                uses.remove(use)
        if uses:
            offenders[name] = uses
    assert offenders == {}
    (branch,) = _not_regular_branches(commands["cmd_build"])
    assert _uses(branch) == ["_emit"]
