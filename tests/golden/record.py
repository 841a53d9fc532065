"""Write the golden command-line cases that tests/test_golden.py replays.

Usage: PYTHONPATH=src python tests/golden/record.py

One case per command line of README's command-line block, with the input
documents chosen below, and one per input-schema example (a graph under
`twins`, a family under `family`). One case per row of
tests/test_errors.py's EXIT_TABLE, except `convergence`: that row makes the
eigensolver give up by monkeypatching its sweep limit, which a case (argv
and input documents) cannot express. Two more `family` cases verify
families the schema examples do not: K16 minus a 4-edge matching, and
quarter weights on a nested-graph base. Four `rejected` cases pin inputs
the library rejects: a pgst scan whose phase table passes pi/eps, an
integer past int()'s 4300-digit limit in a document and in a "K<n>" base
name, and a negative seed. Each case stores what the command
printed with the code checked out when this script runs, so record on the
code whose output the corpus should pin, then commit the JSON files.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import readme_commands, run_case  # noqa: E402
from test_errors import EXIT_IDS, EXIT_TABLE  # noqa: E402
from test_readme import EXAMPLES  # noqa: E402

C4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
# K4 minus the matching {(0,1), (2,3)}: perfect transfer 0 -> 1 at pi/2
K4_MINUS_MATCHING = {"n": 4, "edges": [[0, 2], [0, 3], [1, 2], [1, 3]]}
# Cay(Z_16, {1,7,9,15}) plus the antipodal edge (0, 8): pretty good transfer
Z16_PERTURBED = {"n": 16, "edges": [[u, v] for u in range(16) for v in range(u + 1, 16)
                                    if (v - u) % 16 in (1, 7, 9, 15)] + [[0, 8]]}
Z16_FAMILY = {"family": "circulant_twin", "n": 16, "S": [1, 7, 9, 15], "pairs": [[0, 8]]}

# the input of each README command, in README's order
COMMAND_INPUTS = [
    ("twins", {"graph.json": Z16_PERTURBED}),
    ("check", {"graph.json": C4}),
    ("scan-pst", {"graph.json": K4_MINUS_MATCHING}),
    ("scan-pgst", {"graph.json": Z16_PERTURBED}),
    ("family", {"family.json": Z16_FAMILY}),
    ("verify-identities", {}),
    ("twins-out", {"graph.json": C4}),
]

DIGITS = "1" * 5000
REJECTED = [
    ("pgst-table-phase", ["scan", "--input", "graph.json", "--from", "0", "--to", "2",
                          "--mode", "pgst", "--q-max", "1000"],
     {"graph.json": {"n": 4, "edges": [[u, (u + 1) % 4, 1e12] for u in range(4)]}}),
    # a string input is the file's text: json.dumps cannot write the integer
    ("json-digits", ["twins", "--input", "doc.json"], {"doc.json": '{"n": ' + DIGITS + "}"}),
    ("base-name-digits", ["family", "--input", "doc.json"],
     {"doc.json": {"family": "quarter_weight", "base": "K" + DIGITS}}),
    ("negative-seed", ["verify-identities", "--seed", "-1"], {}),
]

FAMILY_INPUTS = [
    ("k4n-16", {"family": "k4n_matching", "size": 16,
                "matching": [[0, 1], [2, 3], [4, 5], [6, 7]]}),
    ("quarter-c4", {"family": "quarter_weight", "base": C4, "pairs": [[0, 2]]}),
]


def cases() -> list[tuple[str, str, list[str], dict]]:
    commands = readme_commands()
    assert len(commands) == len(COMMAND_INPUTS)
    out = [(f"command-{i}-{name}", "command", argv, inputs)
           for i, (argv, (name, inputs)) in enumerate(zip(commands, COMMAND_INPUTS), 1)]
    for i, doc in enumerate(EXAMPLES, 1):
        command = "family" if "family" in doc else "twins"
        out.append((f"schema-{i}-{command}", "schema",
                    [command, "--input", "doc.json"], {"doc.json": doc}))
    for name, (_, doc, argv, _, _) in zip(EXIT_IDS, EXIT_TABLE):
        if name != "convergence":
            out.append((f"exit-{name}", "exit", [argv[0], "--input", "in.json", *argv[1:]],
                        {"in.json": doc}))
    for name, doc in FAMILY_INPUTS:
        out.append((f"family-{name}", "family", ["family", "--input", "doc.json"],
                    {"doc.json": doc}))
    for name, argv, inputs in REJECTED:
        out.append((f"rejected-{name}", "rejected", argv, inputs))
    return out


def main() -> None:
    for old in HERE.glob("*.json"):
        old.unlink()
    for name, source, argv, inputs in cases():
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(argv, inputs, Path(tmp))
        case = {"source": source, "argv": argv, "inputs": inputs, **got}
        lines = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in case.items())
        (HERE / f"{name}.json").write_text("{\n" + lines + "\n}\n")
        print(name, got["exit"])


if __name__ == "__main__":
    main()
