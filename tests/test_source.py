"""Properties of the package source itself."""

import ast
from pathlib import Path

import pytest

import spinent

SOURCE = Path(spinent.__file__).parent


def test_no_assert_statements():
    # python -O strips asserts, so a check written as one would vanish.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads_and_ctypes(tree, module):
    """(place, what) for each os environment read and each ctypes import.

    place is module:function inside a function, module:line elsewhere.
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        what = None
        if isinstance(node, ast.Attribute) and node.attr in \
                _ENVIRONMENT_NAMES and ast.unparse(node.value) == "os":
            what = ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                _ENVIRONMENT_NAMES & {alias.name for alias in node.names}:
            what = "from os import"
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "ctypes" for alias in node.names):
            what = "import ctypes"
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "ctypes":
            what = "from ctypes import"
        if what:
            found.append((f"{module}:{function or node.lineno}", what))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_precision_is_the_only_environment_read():
    # SPINENT_PRECISION, read in io._precision, is the tool's one
    # environment setting; no allocator or library knob is set from here.
    found = [item for path in sorted(SOURCE.glob("*.py"))
             for item in _environment_reads_and_ctypes(
                 ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert found == [("io:_precision", "os.environ")]


@pytest.mark.parametrize("source, expected", [
    ("import os\nx = os.environ['A']\n", [("m:2", "os.environ")]),
    ("import os\ndef f():\n    return os.getenv('A')\n",
     [("m:f", "os.getenv")]),
    ("from os import environ\n", [("m:1", "from os import")]),
    ("def g():\n    import ctypes.util\n", [("m:g", "import ctypes")]),
    ("from ctypes import CDLL\n", [("m:1", "from ctypes import")]),
    ("import os\nx = os.path.join('a', 'b')\n", []),
])
def test_environment_scan_finds_each_form(source, expected):
    assert _environment_reads_and_ctypes(ast.parse(source), "m") == expected
