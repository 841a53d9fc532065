"""Write the golden command-line cases that tests/test_golden.py replays.

Usage: PYTHONPATH=src python tests/golden/record.py

One case per command line of README's command-line block, with the input
documents chosen below, and one per input-schema example (a graph under
`twins`, a family under `family`). Each case stores what the command
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


def cases() -> list[tuple[str, str, list[str], dict]]:
    commands = readme_commands()
    assert len(commands) == len(COMMAND_INPUTS)
    out = [(f"command-{i}-{name}", "command", argv, inputs)
           for i, (argv, (name, inputs)) in enumerate(zip(commands, COMMAND_INPUTS), 1)]
    for i, doc in enumerate(EXAMPLES, 1):
        command = "family" if "family" in doc else "twins"
        out.append((f"schema-{i}-{command}", "schema",
                    [command, "--input", "doc.json"], {"doc.json": doc}))
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
