"""README's documented examples run as documented.

Every jsonc input schema example is parsed by `twinwalk.jsonio` and run
through the command line (`twins` for a graph, `family` for a family), with
the exit code README states for it, and the library example block runs as
written. A change to the graph representation or the public API that breaks
a documented example fails here, and so does a command-line option README
does not name, or one it names that the parser no longer defines.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import pytest

from twinwalk.cli import build_parser, main
from twinwalk.graphs import list_twin_pairs
from twinwalk.jsonio import family_from_obj, graph_from_obj

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def _schema_examples() -> list[dict]:
    (block,) = _blocks("jsonc")
    docs = []
    for line in block.splitlines():
        line = line.split("//")[0].strip()
        if line:
            docs.append(json.loads(line))
    return docs


EXAMPLES = _schema_examples()


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "size .* is not a multiple of 4")
        code = main(argv)
    return code, out.getvalue()


def test_readme_states_the_exit_code():
    assert "Every input schema example above is valid and exits `0`" in README
    assert len(EXAMPLES) == 6
    assert sum("family" in doc for doc in EXAMPLES) == 4


@pytest.mark.parametrize("doc", EXAMPLES, ids=lambda d: json.dumps(d)[:48])
def test_schema_example(doc, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if "family" in doc:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "size .* is not a multiple of 4")
            fi = family_from_obj(doc)
        code, out = _run(["family", "--input", str(path)])
        assert code == 0
        obj = json.loads(out)
        assert obj["all_passed"] is True
        assert len(obj["reports"]) == len(fi.expected_witnesses)
    else:
        G = graph_from_obj(doc)
        code, out = _run(["twins", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["twin_pairs"] == [list(p) for p in list_twin_pairs(G)]


def test_library_example():
    (block,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert [line.split()[:3] for line in lines[:4]] == [
        ["LPST", "0", "4"], ["LPST", "1", "5"], ["LPST", "2", "6"], ["LPST", "3", "7"],
    ]
    assert len(lines) == 6 and "TransferKind.PGST" in lines[4]
    assert lines[5] == "LPST"


def test_readme_names_every_cli_option():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {opt for sub in commands.choices.values() for action in sub._actions
               for opt in action.option_strings if opt.startswith("--")}
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    assert defined - {"--help"} == set(re.findall(r"--[a-z][a-z-]*", section))
