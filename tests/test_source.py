"""Properties of the package source itself."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import spinent
from spinent.cli import _build_parser

SOURCE = Path(spinent.__file__).parent
README = SOURCE.parent.parent / "README.md"


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


_CACHE_NAMES = {"cache", "lru_cache"}
_BUFFER_NAMES = {"empty", "zeros", "ones",
                 "empty_like", "zeros_like", "ones_like"}


def _caches_and_import_time_buffers(tree, module):
    """(place, what) for each functools cache and each array buffer made at
    import time.

    place is module:function for a cache on or in a function (a decorator
    counts as its function's), module:line elsewhere.  A buffer counts only
    where it is made once and then outlives every call: outside each
    function body and lambda, or as a default argument.
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # Defaults are evaluated once, where the function is defined.
            visit(node.args, function)
            inner = getattr(node, "name", "<lambda>")
            for child in ast.iter_child_nodes(node):
                if child is not node.args:
                    visit(child, inner)
            return
        what = None
        if isinstance(node, ast.Attribute) and node.attr in _CACHE_NAMES \
                and ast.unparse(node.value) == "functools":
            what = ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and \
                node.module == "functools" and \
                _CACHE_NAMES & {alias.name for alias in node.names}:
            what = "from functools import"
        elif function is None and isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _BUFFER_NAMES and \
                ast.unparse(node.func.value) in ("np", "numpy"):
            what = ast.unparse(node.func)
        if what:
            found.append((f"{module}:{function or node.lineno}", what))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_buffers_live_for_one_call():
    # Work vectors are made per call, so no cache or import-time array can
    # hold memory between calls or be shared across threads; the parser
    # builder is the one cache.  Constant tables built with np.array stay.
    found = [item for path in sorted(SOURCE.glob("*.py"))
             for item in _caches_and_import_time_buffers(
                 ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert found == [("cli:_build_parser", "functools.cache")]


@pytest.mark.parametrize("source, expected", [
    ("import functools\n@functools.lru_cache(maxsize=None)\ndef g():\n"
     "    pass\n", [("m:g", "functools.lru_cache")]),
    ("import functools\ndef f():\n    return functools.cache(len)\n",
     [("m:f", "functools.cache")]),
    ("from functools import cache, partial\n",
     [("m:1", "from functools import")]),
    ("import numpy as np\nbuf = np.zeros(8)\n", [("m:2", "np.zeros")]),
    ("import numpy\nclass C:\n    buf = numpy.empty(4)\n",
     [("m:3", "numpy.empty")]),
    ("import numpy as np\ndef f(n=np.ones(2)):\n    pass\n",
     [("m:2", "np.ones")]),
    ("import numpy as np\ndef f(n):\n    return np.empty(n)\n", []),
    ("import numpy as np\nmake = lambda n: np.zeros_like(n)\n", []),
    ("import numpy as np\nTABLE = 0.5 * np.array([[0, 1], [1, 0]])\n", []),
    ("import functools\nf = functools.partial(print, 1)\n", []),
])
def test_cache_and_buffer_scan_finds_each_form(source, expected):
    assert _caches_and_import_time_buffers(ast.parse(source), "m") == \
        expected


def _functions_reading(tree, names):
    """Names of the functions that read any of names.

    A read in a lambda counts as its enclosing function's, a read outside
    every function as "<module>"; assignments are not reads.
    """
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name) and node.id in names and \
                isinstance(node.ctx, ast.Load):
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_oracle_has_one_residue_rule():
    # Every Hermitian expectation the oracle takes passes one residue
    # rule, so one function reads its two bounds.
    tree = ast.parse((SOURCE / "oracle.py").read_text(encoding="utf-8"))
    absolute, relative = (_functions_reading(tree, {name}) for name in
                          ("_IMAG_TOLERANCE", "_IMAG_RELATIVE"))
    assert absolute == relative and len(absolute) == 1, (absolute, relative)
    assert "<module>" not in absolute


def test_classify_alone_reads_the_s_floor():
    # The threshold on S, fixed cut and rounding floor, has one home, so a
    # report and a hand call of classify cannot disagree.
    readers = {path.stem: _functions_reading(
                   ast.parse(path.read_text(encoding="utf-8")),
                   {"_S_FLOOR_FACTOR", "DEFAULT_S_TOLERANCE"})
               for path in sorted(SOURCE.glob("*.py"))}
    assert {stem: found for stem, found in readers.items() if found} == \
        {"metrics": {"classify"}}


@pytest.mark.parametrize("source, expected", [
    ("X = 1\ndef f():\n    return X\n", {"f"}),
    ("X = 1\ndef f():\n    return lambda: X\n", {"f"}),
    ("X = 1\ndef f():\n    def g():\n        return X\n", {"g"}),
    ("X = 1\nY = 2 * X\n", {"<module>"}),
    ("def f():\n    X = 2\n", set()),
])
def test_reader_scan_finds_each_form(source, expected):
    assert _functions_reading(ast.parse(source), {"X"}) == expected


def _names_from_dicke(tree):
    """Names a spinent module takes from spinent.dicke, in source order.

    A whole-module import (`from . import dicke`, `import spinent.dicke`)
    reads as "dicke", and a star import as "*".
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["spinent" if node.level else "",
                                            node.module]))
            if module == "spinent.dicke":
                found += [alias.name for alias in node.names]
            elif module == "spinent":
                found += [alias.name for alias in node.names
                          if alias.name == "dicke"]
        elif isinstance(node, ast.Import):
            found += ["dicke" for alias in node.names
                      if alias.name == "spinent.dicke"]
    return found


def test_oracle_imports_from_dicke_only_its_data_types():
    # The oracle cross-checks the ladder path, so it may share its data
    # types but none of its operator actions or moment formulas.
    tree = ast.parse((SOURCE / "oracle.py").read_text(encoding="utf-8"))
    assert sorted(_names_from_dicke(tree)) == sorted([
        "DickeState", "CollectiveMoments", "PairCorrelators",
        "_freeze_amplitudes"])


def test_oracle_imports_no_ladder_function():
    # Nor through another module: no dicke function but _freeze_amplitudes
    # is among the names the oracle imports from anywhere.
    dicke = ast.parse((SOURCE / "dicke.py").read_text(encoding="utf-8"))
    ladder = {node.name for node in dicke.body
              if isinstance(node, ast.FunctionDef)} - {"_freeze_amplitudes"}
    assert {"collective_moments", "apply_jplus", "apply_jminus",
            "_correlators_from_moments"} <= ladder
    oracle = ast.parse((SOURCE / "oracle.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(oracle)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert ladder & imported == set()


@pytest.mark.parametrize("source, expected", [
    ("from .dicke import DickeState, collective_moments\n",
     ["DickeState", "collective_moments"]),
    ("from spinent.dicke import apply_jplus\n", ["apply_jplus"]),
    ("def f():\n    from .dicke import _correlators_from_moments\n",
     ["_correlators_from_moments"]),
    ("from .dicke import *\n", ["*"]),
    ("from . import dicke, frame\n", ["dicke"]),
    ("from spinent import dicke\n", ["dicke"]),
    ("import spinent.dicke\n", ["dicke"]),
    ("from .frame import mean_spin\nimport numpy\n", []),
    ("from .dickens import apply_jz\n", []),
])
def test_dicke_scan_finds_each_form(source, expected):
    assert _names_from_dicke(ast.parse(source)) == expected


# Imported only so that bench/tracing.py can wrap them as attributes of these
# modules; the list shrinks as the tracer stops needing them.
_TRACED_IMPORTS = {
    ("oracle", "classify"), ("oracle", "correlation_terms"),
    ("oracle", "entanglement_parameter"),
    ("oracle", "spectroscopic_parameters"),
    ("oracle", "squeezing_parameters"), ("cli", "pairwise_correlators"),
}


def _unused_imports(tree):
    """Names a module imports and never reads, in source order.

    A dotted `import a.b` binds and counts as "a"; __future__ features are
    not names.
    """
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    # __init__ imports to re-export.
    found = {(path.stem, name) for path in sorted(SOURCE.glob("*.py"))
             if path.name != "__init__.py"
             for name in _unused_imports(
                 ast.parse(path.read_text(encoding="utf-8")))}
    assert found == _TRACED_IMPORTS


@pytest.mark.parametrize("source, expected", [
    ("import math\n", ["math"]),
    ("import math\nx = math.pi\n", []),
    ("import numpy as np\nimport os.path\n", ["np", "os"]),
    ("from .frame import Frame, mean_spin\ndef f(x: Frame):\n    pass\n",
     ["mean_spin"]),
    ("from __future__ import annotations\n", []),
    ("from a import b as c\nc()\n", []),
    ("from a import b\nb = 1\n", ["b"]),
])
def test_unused_import_scan_finds_each_form(source, expected):
    assert _unused_imports(ast.parse(source)) == expected


# Every value a caller can set on a public function.  Each one is a value
# that tests and oracle-check must cover, so a new setting goes on this list
# on purpose, never by a default argument slipping in.
_SETTINGS = {("dicke_to_full", "cap"), ("custom_state", "renormalize")}


def test_settings_census():
    found = {(name, parameter.name) for name in spinent.__all__
             if inspect.isfunction(getattr(spinent, name))
             for parameter in inspect.signature(
                 getattr(spinent, name)).parameters.values()
             if parameter.default is not parameter.empty}
    assert found == _SETTINGS


def test_analyze_command_census():
    # analyze takes only a state, and so does the command.
    commands = next(action for action in _build_parser()._actions
                    if action.dest == "command")
    options = [option for action in commands.choices["analyze"]._actions
               for option in action.option_strings]
    assert sorted(options) == ["--help", "-h"]


def test_readme_names_every_exported_callable():
    text = README.read_text(encoding="utf-8")
    missing = [name for name in spinent.__all__
               if callable(getattr(spinent, name))
               and not re.search(rf"`{name}[`(]", text)]
    assert missing == []
