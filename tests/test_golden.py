"""Golden command-line corpus, replayed: README's commands and schema
examples, the exit-code table, two more families and rejected inputs.

Each `tests/golden/*.json` case holds an argv, the input documents it reads
(written to a temporary directory that its --input and --out paths name;
a string is written as the file's text, for inputs that are not JSON values),
and what the command produced when the case was recorded: exit code,
stdout, stderr and, for an `--out` command, the written file. A path inside
the temporary directory is stored with `<workdir>` in its place.
`tests/golden/record.py` writes the cases. Keys, strings, integers
(vertices, q), exit codes and stderr must match exactly; floats to 1e-12
relative, except phases and identity deviations, which sit near 0 and
match to 1e-12 absolute.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import pytest

from twinwalk.cli import main
from test_errors import EXIT_IDS
from test_readme import EXAMPLES, README

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))
REL = 1e-12
ABS_KEYS = {"phase_re", "phase_im", "identities"}


def readme_commands() -> list[list[str]]:
    """The argv of each `twinwalk ...` line in README's command-line block."""
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def run_case(argv: list[str], inputs: dict, workdir: Path) -> dict:
    """Run argv through cli.main with its --input and --out files in
    workdir, each input document written there first (a string as the
    file's text); return what a case records."""
    for name, doc in inputs.items():
        (workdir / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [str(workdir / arg) if prev in ("--input", "--out") else arg
            for prev, arg in zip([None, *argv], argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # show every library warning, however often this process saw it
        warnings.simplefilter("always", UserWarning)
        code = main(argv)
    files = {name: json.loads((workdir / name).read_text())
             for name in sorted(p.name for p in workdir.iterdir()) if name not in inputs}
    return {"exit": code, "stdout": json.loads(out.getvalue()) if out.getvalue() else None,
            "stderr": err.getvalue().replace(str(workdir), "<workdir>"), "files": files}


def assert_matches(got, want, path: str = "$", absolute: bool = False) -> None:
    assert type(got) is type(want), f"{path}: {got!r} is not like {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}",
                           absolute or key in ABS_KEYS)
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]", absolute)
    elif isinstance(want, float):
        if absolute:
            assert abs(got - want) <= REL, f"{path}: {got!r} != {want!r}"
        else:
            assert math.isclose(got, want, rel_tol=REL, abs_tol=0.0), (
                f"{path}: {got!r} != {want!r}")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_corpus_covers_readme():
    cases = [json.loads(p.read_text()) for p in CASES]
    commands = [c["argv"] for c in cases if c["source"] == "command"]
    schemas = [doc for c in cases if c["source"] == "schema" for doc in c["inputs"].values()]
    assert sorted(commands) == sorted(readme_commands()) and len(commands) == 7
    assert sorted(map(json.dumps, schemas)) == sorted(map(json.dumps, EXAMPLES))
    assert len(schemas) == 6
    # every exit-code row but convergence, which needs a monkeypatched solver
    exits = {p.stem for p, c in zip(CASES, cases) if c["source"] == "exit"}
    assert exits == {f"exit-{name}" for name in EXIT_IDS} - {"exit-convergence"}
    assert any(c["files"] for c in cases)  # the --out command


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_golden_case(path, tmp_path):
    case = json.loads(path.read_text())
    got = run_case(case["argv"], case["inputs"], tmp_path)
    assert got["exit"] == case["exit"]
    assert got["stderr"] == case["stderr"]
    assert_matches(got["stdout"], case["stdout"], "stdout")
    assert_matches(got["files"], case["files"], "files")
