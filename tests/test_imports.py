"""Every name a module imports is read in that module, and the command line
loads nothing but the standard library and numpy.

The first covers the library modules and the test modules. A package
`__init__.py` imports to re-export, and `from __future__` imports set
compiler flags, so neither counts.
"""

import ast
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
