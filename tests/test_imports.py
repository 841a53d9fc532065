"""Every name a module imports is read in that module, the command line
loads nothing but the standard library and numpy, and every source file
parses under the grammar of pyproject.toml's requires-python floor.

The first covers the library modules and the test modules. A package
`__init__.py` imports to re-export, and `from __future__` imports set
compiler flags, so neither counts.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twinwalk

MODULES = sorted(
    path
    for path in [*Path(twinwalk.__file__).parent.glob("*.py"),
                 *Path(__file__).parent.glob("*.py")]
    if path.name != "__init__.py"
)


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_check_sees_an_unread_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unread_imports(source) == ["os (line 1)", "pi (line 3)"]


def test_cli_loads_only_the_stdlib_and_numpy():
    """numpy is the one dependency: scipy, sympy, mpmath or networkx, where
    installed, would import without error, and only start-up time would show it."""
    code = ("import sys; before = set(sys.modules); import twinwalk.cli; "
            "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))")
    added = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True).stdout.split()
    assert "twinwalk" in added
    allowed = set(sys.stdlib_module_names) | {"numpy", "twinwalk"}
    assert [name for name in added if name not in allowed] == []


ROOT = Path(__file__).resolve().parent.parent
# ast.parse judges a newer construct by the floor's grammar, on a best-effort
# basis: except*, for one, is refused, which a run on the floor would also do
FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                 (ROOT / "pyproject.toml").read_text()).groups()))
SOURCES = sorted(path for tree in ("src", "tests", "bench")
                 for path in (ROOT / tree).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_source_parses_under_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)


def test_the_floor_check_sees_newer_grammar():
    assert FLOOR == (3, 10)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
