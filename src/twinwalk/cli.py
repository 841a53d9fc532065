"""Command-line interface.

Subcommands: twins, check, scan, family, verify-identities. Every command
reads a JSON input file and returns one JSON document and whether its
witness was found; main writes the document to stdout (or --out).
Times are printed with 15 significant digits and fidelities with 12 so runs
can be frozen as regression fixtures. check takes exactly one of --time and
--pi-multiple; every number is read by the library function it reaches.
Exit codes: 0 success / witness found, 1 witness not found, 2 input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings

from .errors import (ConvergenceFailureError, InputError, TwinWalkError,
                     WitnessFailedError)
from .families import verify_family
from .graphs import list_twin_pairs
from .identities import run_identity_checks
from .jsonio import load_family, load_graph
from .walk import (
    DEFAULT_EPSILONS,
    DEFAULT_LPST_TOL,
    DEFAULT_QMAX,
    TransferKind,
    TransferReport,
    check_lpst,
    pgst_scan,
    pst_time_scan,
)

EXIT_OK = 0
EXIT_NO_WITNESS = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# the one scan mode that reads each of these options; the other rejects it
_SCAN_OPTION_MODE = {"tol": "pst", "t_max": "pst", "t_max_pi": "pst", "q_max": "pgst"}


def _sig(x: float, digits: int) -> float:
    return float(f"{x:.{digits}g}")


def _report_obj(r: TransferReport) -> dict:
    return {
        "kind": r.kind.value,
        "from": r.source,
        "to": r.target,
        "time": _sig(r.time, 15),
        "fidelity": _sig(r.fidelity, 12),
        "phase_re": _sig(r.phase.real, 15),
        "phase_im": _sig(r.phase.imag, 15),
        "tolerance": r.tolerance,
    }


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if not out and sys.stdout is None:  # fd 1 was closed at start-up
        raise InputError("cannot write stdout: it is closed")
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text, flush=True)
    except OSError as exc:
        if not out:
            # the interpreter flushes stdout again at exit; send that to devnull
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise InputError(f"cannot write {out or 'stdout'}: {exc}") from exc


def _cmd_twins(args: argparse.Namespace) -> tuple[dict, bool]:
    return {"twin_pairs": list_twin_pairs(load_graph(args.input))}, True


def _cmd_check(args: argparse.Namespace) -> tuple[dict, bool]:
    G = load_graph(args.input)
    t = args.time if args.pi_multiple is None else args.pi_multiple * math.pi
    report = check_lpst(G, args.from_vertex, args.to_vertex, t, args.tol)
    return _report_obj(report), report.kind is not TransferKind.NONE


def _cmd_scan(args: argparse.Namespace) -> tuple[dict, bool]:
    given = vars(args)
    unread = [f"--{name.replace('_', '-')}" for name, mode in _SCAN_OPTION_MODE.items()
              if name in given and mode != args.mode]
    if unread:
        raise InputError(f"--mode {args.mode} does not read {', '.join(unread)}")
    G = load_graph(args.input)
    a, b = args.from_vertex, args.to_vertex
    if args.mode == "pst":
        t_max = given.get("t_max", given.get("t_max_pi", 4.0) * math.pi)
        report = pst_time_scan(G, a, b, t_max, given.get("tol", DEFAULT_LPST_TOL))
        return {**_report_obj(report), "mode": "pst"}, report.kind is not TransferKind.NONE
    witness = pgst_scan(G, a, b, given.get("q_max", DEFAULT_QMAX))
    found = witness.achieved(DEFAULT_EPSILONS[-1]) is not None
    return {
        "mode": "pgst",
        "kind": "PGST" if found else "NONE",
        "from": a,
        "to": b,
        "best_times": [_sig(t, 15) for t in witness.times],
        "best_fidelities": [_sig(f, 12) for f in witness.fidelities],
        "ladder": [{"epsilon": hit.epsilon, "q": hit.q, "time": _sig(hit.time, 15),
                    "fidelity": _sig(hit.fidelity, 12)} for hit in witness.epsilon_ladder],
    }, found


def _cmd_family(args: argparse.Namespace) -> tuple[dict, bool]:
    fi = load_family(args.input)
    doc = {"provenance": fi.provenance, "all_passed": True}
    try:
        doc["reports"] = [_report_obj(r) for r in verify_family(fi, args.tol, args.q_max)]
    except WitnessFailedError as exc:
        doc.update(all_passed=False, error=str(exc))
    return doc, doc["all_passed"]


def _cmd_verify_identities(args: argparse.Namespace) -> tuple[dict, bool]:
    G = load_graph(args.input) if args.input else None
    devs = run_identity_checks(G, args.seed, args.trials)
    return {
        "seed": args.seed,
        "trials": args.trials,
        "identities": {k: None if v is None else _sig(v, 6) for k, v in devs.items()},
    }, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinwalk",
        description="Quantum-walk state transfer checks on graph Laplacians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="graph or family JSON file")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("twins", help="list all twin pairs")
    add_common(p)
    p.set_defaults(func=_cmd_twins)

    p = sub.add_parser("check", help="transfer/periodicity check at one time")
    add_common(p)
    p.add_argument("--from", dest="from_vertex", type=int, required=True)
    p.add_argument("--to", dest="to_vertex", type=int, required=True)
    when = p.add_mutually_exclusive_group(required=True)
    when.add_argument("--time", type=float)
    when.add_argument("--pi-multiple", type=float, help="time as a multiple of pi")
    p.add_argument("--tol", type=float, default=DEFAULT_LPST_TOL)
    p.set_defaults(func=_cmd_check)

    # scan's mode options default to absent, so _cmd_scan sees which were given
    p = sub.add_parser("scan", help="search transfer times",
                       argument_default=argparse.SUPPRESS)
    add_common(p)
    p.add_argument("--from", dest="from_vertex", type=int, required=True)
    p.add_argument("--to", dest="to_vertex", type=int, required=True)
    p.add_argument("--mode", choices=("pst", "pgst"), default="pst")
    horizon = p.add_mutually_exclusive_group()
    horizon.add_argument("--t-max", type=float)
    horizon.add_argument("--t-max-pi", type=float,
                         help="scan horizon as a multiple of pi (pst mode, default 4)")
    p.add_argument("--q-max", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("family", help="verify a family's expected witnesses")
    add_common(p)
    p.add_argument("--tol", type=float, default=DEFAULT_LPST_TOL)
    p.add_argument("--q-max", type=int, default=DEFAULT_QMAX)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify-identities", help="run the identity battery")
    p.add_argument("--input", default=None, help="optional graph JSON file")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=_cmd_verify_identities)

    return parser


def _stderr_line(obj: dict) -> None:
    """One JSON line on stderr; a closed stderr loses it, not the exit code."""
    if sys.stderr is not None:  # None when fd 2 was closed at start-up
        with contextlib.suppress(OSError):
            print(json.dumps(obj), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: _stderr_line({"warning": str(message)})
        try:
            doc, found = args.func(args)
            _emit(doc, args.out)
            return EXIT_OK if found else EXIT_NO_WITNESS
        except TwinWalkError as exc:
            _stderr_line({"error": str(exc)})
            return EXIT_NUMERIC if isinstance(exc, ConvergenceFailureError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
