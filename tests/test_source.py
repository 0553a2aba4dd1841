"""Properties of the package source itself."""

import ast
from pathlib import Path

import spinent

SOURCE = Path(spinent.__file__).parent


def test_no_assert_statements():
    # python -O strips asserts, so a check written as one would vanish.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
