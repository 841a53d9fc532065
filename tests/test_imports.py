"""Every name a module imports is read in that module.

Covers the library modules and the test modules. A package `__init__.py`
imports to re-export, and `from __future__` imports set compiler flags, so
neither counts.
"""

import ast
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
