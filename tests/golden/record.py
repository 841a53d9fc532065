"""Write the golden command-line cases that tests/test_golden.py replays.

Usage: PYTHONPATH=src python tests/golden/record.py

One case per command line of README's command-line block, with the input
documents chosen below, and one per input-schema example (a graph under
`twins`, a family under `family`). One case per row of
tests/test_errors.py's EXIT_TABLE, except `convergence`: that row makes the
eigensolver give up by monkeypatching its sweep limit, which a case (argv
and input documents) cannot express. Two more `family` cases verify
families the schema examples do not: K16 minus a 4-edge matching, and
quarter weights on a nested-graph base. Two `scan` cases pin pst scans:
one whose first transfer falls between 20 000 evenly spaced samples of
(0, 4 pi] (K16 minus a 4-edge matching at weight 1000, perfect at
pi/2000), and one on K5 over (0, 20000], 100 000 samples in 13 sweep
blocks, whose best time lies among thousands of peaks of equal height
(NONE, exit 1). Two `check` cases ask a vertex for itself, which the
README's check does not: C4 from 1 to 1 at 2 pi (PERIODIC, exit 0), and K5
from 0 to 0 at time 1 (NONE, fidelity about 0.88, exit 1). One
`identities` case runs verify-identities on the path 0 - 1 - 2 - 3, which
has no twin pair, so its four twin identities print null. Six `rejected`
cases pin inputs the library rejects: a pgst scan whose phase table passes
pi/eps, an integer past int()'s 4300-digit limit in a document and in a
"K<n>" base name, a negative seed, a q_max below 1 for a family with no
PGST witness, and a circulant family whose antipodal pair is not twins.
Each case stores what the command printed with the code checked out when
this script runs, so record on the code whose output the corpus should
pin, then commit the JSON files.

A case is written only when it is new or no longer matches its stored file
under tests/test_golden.py's assert_matches (argv and inputs included), so
a run on unchanged code, even on another numpy or BLAS build whose near-zero
phases and identity deviations differ within the match, rewrites nothing. A
JSON file whose name is no longer a case is deleted. Run on a clean checkout,
`git status` then lists exactly the cases that were added, changed or dropped.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import assert_matches, readme_commands, run_case  # noqa: E402
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
    ("family-q-max", ["family", "--input", "doc.json", "--q-max", "0"],
     {"doc.json": {"family": "k4n_matching", "size": 8, "matching": [[0, 4]]}}),
    # S meets the mod-4 condition but is not fixed by s -> 8 - s
    ("circulant-not-twins", ["family", "--input", "doc.json"],
     {"doc.json": {"family": "circulant_twin", "n": 16, "S": [1, 3, 13, 15],
                   "pairs": [[0, 8]]}}),
]

# K16 minus the matching {(0,1), (2,3), (4,5), (6,7)} at weight 1000
K16_HEAVY = {"n": 16, "edges": [[u, v, 1000] for u in range(16) for v in range(u + 1, 16)
                                if (u, v) not in {(0, 1), (2, 3), (4, 5), (6, 7)}]}
K5 = {"n": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]}
SCANS = [
    ("pst-heavy", ["scan", "--input", "graph.json", "--from", "0", "--to", "1",
                   "--mode", "pst"], {"graph.json": K16_HEAVY}),
    ("pst-long", ["scan", "--input", "graph.json", "--from", "0", "--to", "1",
                  "--mode", "pst", "--t-max", "20000"], {"graph.json": K5}),
]

CHECKS = [
    ("periodic-c4", ["check", "--input", "graph.json", "--from", "1", "--to", "1",
                     "--pi-multiple", "2"], {"graph.json": C4}),
    ("return-k5", ["check", "--input", "graph.json", "--from", "0", "--to", "0",
                   "--time", "1"], {"graph.json": K5}),
]

PATH4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
IDENTITIES = [
    ("no-twins", ["verify-identities", "--input", "graph.json", "--seed", "7",
                  "--trials", "3"], {"graph.json": PATH4}),
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
    for name, argv, inputs in SCANS:
        out.append((f"scan-{name}", "scan", argv, inputs))
    for name, argv, inputs in CHECKS:
        out.append((f"check-{name}", "check", argv, inputs))
    for name, argv, inputs in IDENTITIES:
        out.append((f"identities-{name}", "identities", argv, inputs))
    for name, argv, inputs in REJECTED:
        out.append((f"rejected-{name}", "rejected", argv, inputs))
    return out


def main() -> None:
    wanted = cases()
    for old in HERE.glob("*.json"):
        if old.stem not in {name for name, *_ in wanted}:
            old.unlink()
            print(old.stem, "deleted")
    for name, source, argv, inputs in wanted:
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(argv, inputs, Path(tmp))
        case = {"source": source, "argv": argv, "inputs": inputs, **got}
        lines = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in case.items())
        text, path = "{\n" + lines + "\n}\n", HERE / f"{name}.json"
        try:  # a stored case that still matches is left as it is
            assert_matches(json.loads(text), json.loads(path.read_text()))
            print(name, got["exit"], "unchanged")
        except (OSError, AssertionError):
            path.write_text(text)
            print(name, got["exit"], "written")


if __name__ == "__main__":
    main()
