"""Command-line interface.

Subcommands: twins, check, scan, family, verify-identities. Every command
reads a JSON input file and writes one JSON document to stdout (or --out).
Times are printed with 15 significant digits and fidelities with 12 so runs
can be frozen as regression fixtures. Exit codes: 0 success / witness found,
1 witness not found, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
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
    check_periodic,
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
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
    else:
        print(text)


def _resolve_time(args: argparse.Namespace) -> float:
    if args.pi_multiple is not None:
        return args.pi_multiple * math.pi
    if args.time is not None:
        return args.time
    raise InputError("provide --time or --pi-multiple")


def _cmd_twins(args: argparse.Namespace) -> int:
    G = load_graph(args.input)
    _emit({"twin_pairs": list_twin_pairs(G)}, args.out)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    G = load_graph(args.input)
    t = _resolve_time(args)
    if args.from_vertex == args.to_vertex:
        report = check_periodic(G, args.from_vertex, t, args.tol)
    else:
        report = check_lpst(G, args.from_vertex, args.to_vertex, t, args.tol)
    _emit(_report_obj(report), args.out)
    return EXIT_OK if report.kind is not TransferKind.NONE else EXIT_NO_WITNESS


def _cmd_scan(args: argparse.Namespace) -> int:
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
        obj = _report_obj(report)
        obj["mode"] = "pst"
        _emit(obj, args.out)
        return EXIT_OK if report.kind is not TransferKind.NONE else EXIT_NO_WITNESS
    witness = pgst_scan(G, a, b, given.get("q_max", DEFAULT_QMAX))
    found = witness.achieved(DEFAULT_EPSILONS[-1]) is not None
    obj = {
        "mode": "pgst",
        "kind": "PGST" if found else "NONE",
        "from": a,
        "to": b,
        "best_times": [_sig(t, 15) for t in witness.times],
        "best_fidelities": [_sig(f, 12) for f in witness.fidelities],
        "ladder": [
            {
                "epsilon": hit.epsilon,
                "q": hit.q,
                "time": _sig(hit.time, 15),
                "fidelity": _sig(hit.fidelity, 12),
            }
            for hit in witness.epsilon_ladder
        ],
    }
    _emit(obj, args.out)
    return EXIT_OK if found else EXIT_NO_WITNESS


def _cmd_family(args: argparse.Namespace) -> int:
    fi = load_family(args.input)
    try:
        reports = verify_family(fi, args.tol, args.q_max)
    except WitnessFailedError as exc:
        _emit(
            {"provenance": fi.provenance, "all_passed": False, "error": str(exc)},
            args.out,
        )
        return EXIT_NO_WITNESS
    _emit(
        {
            "provenance": fi.provenance,
            "all_passed": True,
            "reports": [_report_obj(r) for r in reports],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    G = load_graph(args.input) if args.input else None
    devs = run_identity_checks(G, args.seed, args.trials)
    _emit(
        {
            "seed": args.seed,
            "trials": args.trials,
            "identities": {k: _sig(v, 6) for k, v in devs.items()},
        },
        args.out,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinwalk",
        description="Quantum-walk state transfer checks on graph Laplacians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="graph or family JSON file")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("twins", help="list all twin pairs")
    add_common(p)
    p.set_defaults(func=_cmd_twins)

    p = sub.add_parser("check", help="transfer/periodicity check at one time")
    add_common(p)
    p.add_argument("--from", dest="from_vertex", type=int, required=True)
    p.add_argument("--to", dest="to_vertex", type=int, required=True)
    when = p.add_mutually_exclusive_group()
    when.add_argument("--time", type=float, default=None)
    when.add_argument("--pi-multiple", type=float, default=None,
                      help="time as a multiple of pi")
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


def _warn_as_json(message, category, filename, lineno, file=None, line=None) -> None:
    print(json.dumps({"warning": str(message)}), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warn_as_json
        try:
            for name, value in vars(args).items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise InputError(f"--{name.replace('_', '-')} must be a finite number")
            return args.func(args)
        except ConvergenceFailureError as exc:
            print(json.dumps({"error": str(exc)}), file=sys.stderr)
            return EXIT_NUMERIC
        except TwinWalkError as exc:
            print(json.dumps({"error": str(exc)}), file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
