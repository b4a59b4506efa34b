"""The README's Python example runs as written, and every statement commented with a number equals it; every
line of its "Command line" block exits 0; its `verify-epi` family list is ``Inequality``, in order."""

import ast
import re
import shlex
from pathlib import Path

from gausscap import Inequality
from gausscap.cli import main

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


def test_command_line_block_runs_as_written(tmp_path, monkeypatch):
    block = re.search(r"## Command line\n\n```\n(.*?)```", _README.read_text(encoding="utf-8"), re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert [argv[0] for argv in commands] == ["gausscap"] * 5
    monkeypatch.chdir(tmp_path)  # bounds --out and fig2 --out write here
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["amp.json", "fig2_amp.csv", "fig2_bs.csv"]


def test_verify_epi_family_list_is_the_enum_in_order():
    item = re.search(r"- `verify-epi` runs one inequality family \((.*?)\)", _README.read_text(encoding="utf-8"), re.S)
    assert re.findall(r"`([^`]+)`", item.group(1)) == [family.value for family in Inequality]
