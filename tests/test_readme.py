"""The README's Python example runs as written, and every statement commented with a number equals it."""

import ast
import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def _number(comment: str) -> float | None:
    """The number a ``# 3.14 nats`` comment opens with, or None."""
    try:
        return float(comment.split()[0])
    except (IndexError, ValueError):
        return None


def test_python_example_states_its_values():
    (code,) = re.findall(r"```python\n(.*?)```", _README.read_text(encoding="utf-8"), re.S)
    lines = code.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(code).body:
        _, hash_, comment = lines[statement.end_lineno - 1].partition("#")
        expected = _number(comment) if hash_ and isinstance(statement, ast.Expr) else None
        if expected is None:
            exec(compile(ast.Module([statement], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        assert value == expected, f"README line {statement.lineno}: {ast.unparse(statement)} gives {value!r}"
        checked.append(ast.unparse(statement))
    assert len(checked) == 2, checked  # the private-capacity bound and the campaign's violation count
