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
# basis: except*, for one, is refused, which a run on the floor would also do,
# but PEP 646's star forms are not, so parse_under_floor refuses those itself
FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                 (ROOT / "pyproject.toml").read_text()).groups()))
SOURCES = sorted(path for tree in ("src", "tests", "bench")
                 for path in (ROOT / tree).rglob("*.py"))


def unparenthesized_items(index: ast.expr) -> list[ast.expr]:
    """A subscript's items: the elements of a tuple without parentheses of
    its own, which would start before its first element and end after its
    last; else the index itself. An unparenthesized tuple whose first and
    last elements are both parenthesized reads as parenthesized."""
    if not isinstance(index, ast.Tuple) or not index.elts:
        return [index]
    first, last = index.elts[0], index.elts[-1]
    own = ((index.lineno, index.col_offset) < (first.lineno, first.col_offset)
           and (index.end_lineno, index.end_col_offset) > (last.end_lineno, last.end_col_offset))
    return [index] if own else index.elts


def parse_under_floor(source: str, name: str = "<planted>") -> ast.Module:
    """ast.parse at the floor's grammar, which still lets through PEP 646's
    star forms of 3.11, so those are refused here: a starred *args
    annotation and a starred item of a subscript."""
    tree = ast.parse(source, name, feature_version=FLOOR)
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            items = [node.vararg.annotation] if node.vararg else []
        else:
            items = unparenthesized_items(node.slice) if isinstance(node, ast.Subscript) else []
        if any(isinstance(item, ast.Starred) for item in items):
            raise SyntaxError("star expressions in a subscript or a *args annotation are "
                              "only supported in Python 3.11 and greater",
                              (name, items[0].lineno, items[0].col_offset + 1, None))
    return tree


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_source_parses_under_the_python_floor(path):
    parse_under_floor(path.read_text(encoding="utf-8"), str(path))


def test_the_floor_check_sees_newer_grammar():
    assert FLOOR == (3, 10)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        parse_under_floor("try:\n    pass\nexcept* ValueError:\n    pass\n")


@pytest.mark.parametrize("source", [
    "def f(*args: *tuple[int]):\n    pass\n",
    "x: tuple[*Ts]\n",
    "a[*b]\n",
    "a[(x), *b]\n",
], ids=["vararg", "type-argument", "index", "index-after-a-parenthesized-item"])
def test_the_floor_check_sees_pep_646_star_forms(source):
    """ast.parse(source, feature_version=(3, 10)) accepts each of these."""
    ast.parse(source, feature_version=FLOOR)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        parse_under_floor(source)


@pytest.mark.parametrize("source", ["a[(*b,)]\n", "x: tuple[(*Ts,)]\n",
                                    "def f(*args: tuple[int]):\n    pass\n"],
                         ids=["index", "type-argument", "vararg"])
def test_the_floor_check_keeps_the_floors_star_forms(source):
    """A starred item of a parenthesized tuple is 3.10 grammar."""
    parse_under_floor(source)
