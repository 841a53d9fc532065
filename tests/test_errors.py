"""The error contract: every rejected argument raises InputError (a
TwinWalkError and a ValueError), every raise in the library names a
TwinWalkError class, and each class maps to one command-line exit code."""

import ast
import json
import math
import tempfile
from pathlib import Path

import pytest

import twinwalk
from twinwalk import (
    CirculantSpec,
    WeightedGraph,
    build_graph,
    check_lpst,
    check_periodic,
    complete_graph,
    eigendecompose,
    laplacian,
    perturb_edge,
    perturbed_propagator,
    pgst_scan,
    propagator,
    pst_time_scan,
    rank_one_matrix,
    transfer_amplitudes,
    verify_family,
)
from twinwalk import errors, spectral
from twinwalk.cli import build_parser, main
from twinwalk.errors import (
    ConvergenceFailureError,
    IndexOutOfRangeError,
    InputError,
    TwinWalkError,
    WitnessFailedError,
)
from twinwalk.families import FamilyInstance
from twinwalk.identities import run_identity_checks
from twinwalk.jsonio import family_from_obj, load_json
from conftest import cycle_graph
from test_cli import C4, write

SRC = Path(twinwalk.__file__).parent


def c4():
    return cycle_graph(4)


def heavy_c4():
    """C4 at edge weight 1e12: eigenvalues 0, 2e12 and 4e12."""
    return WeightedGraph(1e12 * c4().matrix)


def load_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        return load_json(path)


def c4_spectrum():
    return eigendecompose(laplacian(c4()))


REJECTED = [
    ("modulus", lambda: CirculantSpec(1, frozenset()), "modulus must be at least 2"),
    ("family_tol", lambda: verify_family(FamilyInstance(c4(), (), "empty"), tol=2.0),
     r"tol must lie in \(0, 1\)"),
    ("edge_alpha", lambda: perturb_edge(c4(), 0, 1, math.nan),
     "perturbation alpha must be finite"),
    ("trials", lambda: run_identity_checks(None, 0, 0), "trials must be at least 1"),
    ("propagator_alpha",
     lambda: perturbed_propagator(c4_spectrum(), 1.0, rank_one_matrix(4, 0, 2), math.inf),
     "alpha must be finite"),
    ("perturbed_t",
     lambda: perturbed_propagator(c4_spectrum(), math.nan, rank_one_matrix(4, 0, 2), 1.0),
     "t must be finite"),
    ("propagator_t", lambda: propagator(c4_spectrum(), math.inf), "t must be finite"),
    ("amplitudes_t", lambda: transfer_amplitudes(c4_spectrum(), 0, 2, [1.0, math.nan]),
     "t must be finite"),
    # each phase below overflows: C4's eigenvalues reach 4, alpha M's is 2 alpha
    ("amplitudes_phase", lambda: transfer_amplitudes(c4_spectrum(), 0, 2, [1.0, 1e308]),
     "every phase mu t"),
    ("propagator_phase", lambda: propagator(c4_spectrum(), -1e308), "every phase mu t"),
    ("perturbed_phase",
     lambda: perturbed_propagator(c4_spectrum(), 2.0, rank_one_matrix(4, 0, 2), 1e308),
     "every phase mu t"),
    ("verdict_phase", lambda: check_lpst(c4(), 0, 2, 1e308), "every phase mu t"),
    ("t_max_phase", lambda: pst_time_scan(c4(), 0, 2, 1e308), "every phase mu t"),
    # finite phases beyond pi/eps, where one rounding of mu t exceeds pi
    ("verdict_rounding", lambda: check_lpst(c4(), 0, 2, 1e307), "every phase mu t"),
    ("t_max_rounding", lambda: pst_time_scan(c4(), 0, 2, 1e300), "every phase mu t"),
    # 1001 times from pi/2 to 2001 pi in one phase-table block
    ("pgst_table_phase", lambda: pgst_scan(heavy_c4(), 0, 2, q_max=1000),
     "every phase mu t"),
    ("verdict_tol", lambda: check_lpst(c4(), 0, 1, 1.0, tol=2.0),
     r"tol must lie in \(0, 1\)"),
    ("verdict_t", lambda: check_periodic(c4(), 0, math.nan), "t must be finite"),
    ("t_max", lambda: pst_time_scan(c4(), 0, 2, -1.0), "t_max must be positive"),
    ("q_max", lambda: pgst_scan(c4(), 0, 2, q_max=0), "q_max must be at least 1"),
    ("epsilons", lambda: pgst_scan(c4(), 0, 2, epsilons=(0.1, 0.2)),
     "epsilons must be strictly decreasing"),
    ("complete_graph", lambda: complete_graph(-4),
     "vertex count must be positive, got -4"),
    ("build_graph", lambda: build_graph(0, []), "vertex count must be positive, got 0"),
    ("build_graph_too_large", lambda: build_graph(10**9, []),
     "vertex count 1000000000 is too large"),
    # integers past int()'s 4300-digit limit, nesting past the recursion
    # limit and a seed numpy rejects
    ("json_nesting", lambda: load_text("[" * 100_000 + "]" * 100_000),
     "maximum recursion depth"),
    ("json_digits", lambda: load_text('{"n": ' + "1" * 5000 + "}"), r"\(4300 digits\)"),
    ("base_name_digits",
     lambda: family_from_obj({"family": "quarter_weight", "base": "K" + "1" * 5000}),
     r"\(4300 digits\)"),
    ("negative_seed", lambda: run_identity_checks(None, -1, 1),
     "seed -1: expected non-negative integer"),
]


@pytest.mark.parametrize("call, match", [r[1:] for r in REJECTED],
                         ids=[r[0] for r in REJECTED])
def test_rejected_argument_raises_input_error(call, match):
    with pytest.raises(InputError, match=match) as info:
        call()
    assert isinstance(info.value, TwinWalkError)
    assert isinstance(info.value, ValueError)


def test_every_raise_names_a_twinwalk_error_and_every_class_is_used():
    """A raise of a builtin, or an error class nothing raises, fails here."""
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    library = {name for name in defined
               if issubclass(getattr(errors, name), TwinWalkError)}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc)
                assert name in library, f"{path.name}:{node.lineno} raises {name}"
                used.add(name)
            elif (isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "warnings.warn"):
                used.update(ast.unparse(arg) for arg in node.args[1:])
    # the base class is what callers catch; nothing raises it directly
    assert defined - used == {"TwinWalkError"}


def test_cli_main_catches_only_twinwalk_errors():
    """An input the library lets through as a builtin error is a traceback,
    not an exit code hidden by a broad catch in main."""
    tree = ast.parse((SRC / "cli.py").read_text())
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = []
    for handler in ast.walk(main_def):
        if isinstance(handler, ast.ExceptHandler):
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught += [ast.unparse(t) if t is not None else "bare except" for t in types]
    assert caught
    for name in caught:
        cls = getattr(errors, name, None)
        assert isinstance(cls, type) and cls.__module__ == errors.__name__, name


Z16_PGST = {"family": "circulant_twin", "n": 16, "S": [1, 7, 9, 15], "pairs": [[0, 8]]}
CHECK_02 = ["check", "--from", "0", "--to", "2", "--time", "1"]

EXIT_TABLE = [
    (InputError, C4, [*CHECK_02, "--tol", "2"], 2, "tol must lie in"),
    (InputError, {**C4, "family": "k4n_matching"}, ["twins"], 2, "unknown keys"),
    (IndexOutOfRangeError, C4, ["check", "--from", "0", "--to", "4", "--time", "1"], 2,
     "vertex 4 out of range"),
    (ConvergenceFailureError, C4, CHECK_02, 3, "after 0 sweeps"),
    (WitnessFailedError, Z16_PGST, ["family", "--q-max", "1"], 1,
     "no time in (4q+1) pi/2 with q <= 1"),
    (InputError, C4, ["twins", "--out", "."], 2, "cannot write ."),  # a directory
]
EXIT_IDS = ["input", "input_unknown_key", "index", "convergence", "witness", "output"]


@pytest.mark.parametrize(
    "error, doc, argv, code, phrase", EXIT_TABLE, ids=EXIT_IDS)
def test_cli_exit_code_per_error_class(tmp_path, capsys, monkeypatch,
                                       error, doc, argv, code, phrase):
    if error is ConvergenceFailureError:
        monkeypatch.setattr(spectral, "_JACOBI_MAX_SWEEPS", 0)  # give up at once
    argv = [argv[0], "--input", write(tmp_path, "in.json", doc), *argv[1:]]
    assert main(argv) == code
    captured = capsys.readouterr()
    if error is WitnessFailedError:
        # the family command reports the failed witness as its verdict
        report = json.loads(captured.out)
        assert report["all_passed"] is False and phrase in report["error"]
        return
    assert captured.out == ""
    assert phrase in json.loads(captured.err)["error"]
    args = build_parser().parse_args(argv)
    with pytest.raises(error):
        args.func(args)
