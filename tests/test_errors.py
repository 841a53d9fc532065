"""The error contract: every rejected argument raises InputError (a
TwinWalkError and a ValueError), every raise in the library names a
TwinWalkError class, and each class maps to one command-line exit code."""

import ast
import inspect
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import twinwalk
from twinwalk import (
    CirculantSpec,
    ExpectedWitness,
    WeightedGraph,
    build_circulant,
    build_graph,
    check_lpst,
    check_periodic,
    circulant_twin_edge_family,
    complete_graph,
    eigendecompose,
    gcd_class,
    is_gcd_set,
    k4n_remove_matching,
    laplacian,
    laplacian_eigenvalues,
    matrix_exp_oracle,
    perturb_edge,
    perturbed_propagator,
    pgst_scan,
    propagator,
    pst_time_scan,
    rank_one_matrix,
    transfer_amplitudes,
    twin_condition,
    verify_family,
)
from twinwalk import errors, graphs, spectral, walk
from twinwalk.cli import _emit, build_parser, main
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


def arr(*vertices):
    """An array of vertices, where the library expects one vertex."""
    return np.array(vertices)


REJECTED = [
    ("modulus", lambda: CirculantSpec(1, frozenset()), "modulus must be at least 2"),
    ("family_tol", lambda: verify_family(FamilyInstance(c4(), (), "empty"), tol=2.0),
     r"tol must lie in \(0, 1\)"),
    # checked up front, like tol, though no witness here scans
    ("family_q_max", lambda: verify_family(FamilyInstance(c4(), (), "empty"), q_max=0),
     "q_max must be at least 1"),
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
    # vertices and vertex counts must be integers: each of these raised a
    # builtin IndexError or TypeError out of numpy
    ("lpst_float_vertex", lambda: check_lpst(c4(), 0, 1.5, 1.0),
     "vertex must be an integer, got 1.5"),
    ("edge_bool_vertices", lambda: perturb_edge(c4(), False, True, 1.0),
     "vertex must be an integer, got False"),
    ("complete_graph_float", lambda: complete_graph(4.0),
     "vertex count must be an integer, got 4.0"),
    ("build_graph_float", lambda: build_graph(4.5, []),
     "vertex count must be an integer, got 4.5"),
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
    # each value rule has one owner in the library, which the JSON reader no
    # longer duplicates; every row below raised a builtin exception or
    # nothing at all
    ("circulant_float_residues",
     lambda: build_circulant(CirculantSpec(8, frozenset({1.5, 6.5}))),
     "residue must be an integer, got [16].5"),
    ("circulant_float_modulus", lambda: twin_condition(CirculantSpec(8.0, frozenset({1, 7}))),
     "modulus must be an integer, got 8.0"),
    ("circulant_bool_residue", lambda: CirculantSpec(8, frozenset({True, 7})),
     "residue must be an integer, got True"),
    ("gcd_set_float", lambda: is_gcd_set(8, {1.5}), "residue must be an integer, got 1.5"),
    ("k4n_pair_triple", lambda: k4n_remove_matching(8, [(0, 1, 2)]),
     r"pairs must be \(a, b\) vertex pairs"),
    ("weight_bool", lambda: build_graph(4, [(0, 1, True)]), "has weight True"),
    ("weight_str", lambda: build_graph(4, [(0, 1, "2")]), "has weight '2'"),
    ("weight_overflow", lambda: build_graph(4, [(0, 1, 10**400)]), "has weight 1000"),
    ("pgst_float_q_max", lambda: pgst_scan(c4(), 0, 2, q_max=1.5),
     "q_max must be an integer, got 1.5"),
    ("family_float_q_max",
     lambda: verify_family(FamilyInstance(c4(), (), "empty"), q_max=2.5),
     "q_max must be an integer, got 2.5"),
    ("float_seed", lambda: run_identity_checks(None, 1.5, 2),
     "seed must be an integer, got 1.5"),
    ("float_trials", lambda: run_identity_checks(None, 1, 2.5),
     "trials must be an integer, got 2.5"),
    ("rank_one_float", lambda: rank_one_matrix(4.0, 0, 1),
     "vertex count must be an integer, got 4.0"),
    # raw matrices: not square, or asymmetric (each spectrum came back wrong)
    ("eigen_not_square", lambda: eigendecompose(np.zeros((2, 3))),
     "not square and symmetric"),
    ("eigen_asymmetric", lambda: eigendecompose([[1.0, 2.0], [0.0, 1.0]]),
     "not square and symmetric"),
    ("eigen_nilpotent", lambda: eigendecompose([[0.0, 1.0], [0.0, 0.0]]),
     "not square and symmetric"),
    # real-valued arguments have one owner, graphs._check_real, and times one
    # check of their dtype in spectral._phases; each row below raised a
    # builtin exception or nothing (a complex time gave a fidelity above 1)
    ("lpst_complex_t", lambda: check_lpst(c4(), 0, 2, math.pi / 2 + 0.5j),
     "t must be finite"),
    ("periodic_complex_t", lambda: check_periodic(c4(), 0, 1j), "t must be finite"),
    ("propagator_complex_t", lambda: propagator(c4_spectrum(), 1j), "t must be finite"),
    ("amplitudes_complex_t", lambda: transfer_amplitudes(c4_spectrum(), 0, 2, [1.0, 1j]),
     "t must be finite"),
    ("lpst_str_t", lambda: check_lpst(c4(), 0, 2, "1"), "t must be finite"),
    # a verdict or a propagator takes one time, spectral._one_time owns that
    # rule; each row below raised a builtin TypeError or ValueError, or
    # (propagator_list_t) returned a matrix
    ("lpst_array_t", lambda: check_lpst(c4(), 0, 2, np.array([math.pi / 2])),
     "t must be finite"),
    ("lpst_list_t", lambda: check_lpst(c4(), 0, 2, [1.0]), "t must be finite"),
    ("periodic_array_t", lambda: check_periodic(c4(), 0, np.array([1.0, 2.0])),
     "t must be finite"),
    ("family_array_t", lambda: verify_family(FamilyInstance(
        c4(), (ExpectedWitness(0, 2, np.array([math.pi / 2])),), "c4")),
     "t must be finite"),
    ("propagator_array_t", lambda: propagator(c4_spectrum(), np.array([1.0, 2.0])),
     "t must be finite"),
    ("propagator_list_t", lambda: propagator(c4_spectrum(), [1.0]), "t must be finite"),
    ("perturbed_array_t", lambda: perturbed_propagator(
        c4_spectrum(), np.array([1.0, 2.0]), rank_one_matrix(4, 0, 2), 1.0),
     "t must be finite"),
    ("edge_alpha_bool", lambda: perturb_edge(c4(), 0, 1, True),
     "perturbation alpha must be finite"),
    ("edge_alpha_str", lambda: perturb_edge(c4(), 0, 1, "1"),
     "perturbation alpha must be finite"),
    ("propagator_alpha_bool",
     lambda: perturbed_propagator(c4_spectrum(), 1.0, rank_one_matrix(4, 0, 2), True),
     "alpha must be finite"),
    ("propagator_alpha_str",
     lambda: perturbed_propagator(c4_spectrum(), 1.0, rank_one_matrix(4, 0, 2), "1"),
     "alpha must be finite"),
    ("tol_str", lambda: check_lpst(c4(), 0, 2, 1.0, tol="x"), r"tol must lie in \(0, 1\)"),
    ("t_max_str", lambda: pst_time_scan(c4(), 0, 2, "3"), "t_max must be positive"),
    ("t_max_bool", lambda: pst_time_scan(c4(), 0, 2, True), "t_max must be positive"),
    ("epsilon_str", lambda: pgst_scan(c4(), 0, 2, epsilons=("a",)),
     "epsilons must be strictly decreasing"),
    ("ragged_matrix", lambda: WeightedGraph([[0, 1], [1]]),
     r"weight matrix of shape \(\) is not square"),
    # integers too long for str(): the message shows their bit count
    ("weight_digits", lambda: build_graph(4, [(0, 1, 10**5000)]),
     "has weight <16610-bit integer>; weights must be"),
    ("complete_graph_digits", lambda: complete_graph(10**5000),
     "vertex count <16610-bit integer> is too large"),
    ("seed_digits", lambda: run_identity_checks(None, -10**5000, 1),
     "seed <16610-bit integer>: expected"),
    ("modulus_digits", lambda: CirculantSpec(-10**5000, frozenset()),
     "modulus must be at least 2, got <16610-bit integer>"),
    ("gcd_class_modulus_digits", lambda: gcd_class(10**5000, 3),
     "3 is not a proper divisor of <16610-bit integer>"),
    ("gcd_class_divisor_digits", lambda: gcd_class(8, 10**5000),
     "<16610-bit integer> is not a proper divisor of 8"),
    ("odd_modulus_digits", lambda: twin_condition(CirculantSpec(10**5000 + 1, frozenset())),
     "modulus <16610-bit integer> is odd"),
    ("k4n_pair_digits", lambda: k4n_remove_matching(8, [(10**5000, 10**5000)]),
     r"pair \(<16610-bit integer>,<16610-bit integer>\) reuses a vertex"),
    ("rank_one_array_vertices",
     lambda: rank_one_matrix(4, np.array([0, 1]), np.array([0, 1])), "two distinct vertices"),
    ("eigenvalues_modulus", lambda: laplacian_eigenvalues(
        CirculantSpec(10**30, frozenset({1, 10**30 - 1}))),
     "modulus 1000000000000000000000000000000 is too large"),
    ("eigenvalues_empty_arange", lambda: laplacian_eigenvalues(
        CirculantSpec(2**63, frozenset({1, 2**63 - 1}))),
     "modulus 9223372036854775808 is too large"),
    ("antipodal_pair_digits",
     lambda: circulant_twin_edge_family(CirculantSpec(8, frozenset({1, 3, 5, 7})),
                                        [(0, 10**5000)]),
     r"pair \(0,<16610-bit integer>\) is not antipodal"),
    # two distinct vertices have one owner, graphs._check_distinct, which
    # compares array vertices as arrays: each row below raised numpy's
    # builtin ValueError ("truth value of an array ... is ambiguous")
    ("edge_equal_array_vertices", lambda: perturb_edge(c4(), arr(0, 1), arr(0, 1), 1.0),
     "perturbation endpoints must differ"),
    ("edge_array_vertices", lambda: perturb_edge(c4(), arr(0, 1), arr(2, 3), 1.0),
     "vertex must be an integer"),
    ("lpst_equal_array_vertices", lambda: check_lpst(c4(), arr(0, 1), arr(0, 1), 1.0),
     "state transfer needs two distinct vertices"),
    ("lpst_array_vertices", lambda: check_lpst(c4(), arr(0, 1), arr(2, 3), 1.0),
     "vertex must be an integer"),
    ("scan_equal_array_vertices", lambda: pst_time_scan(c4(), arr(0, 1), arr(0, 1), 1.0),
     "state transfer needs two distinct vertices"),
    ("scan_array_vertices", lambda: pst_time_scan(c4(), arr(0, 1), arr(2, 3), 1.0),
     "vertex must be an integer"),
    ("family_array_witness", lambda: verify_family(
        FamilyInstance(c4(), (ExpectedWitness(arr(0, 1), arr(2, 3), 1.0),), "c4")),
     "vertex must be an integer"),
    # a raw matrix must be real: complex lost its imaginary part with a
    # ComplexWarning, a string and ragged rows raised builtin ValueErrors
    ("eigen_complex", lambda: eigendecompose(np.eye(2) * 1j),
     "matrix of dtype complex128 is not real"),
    ("eigen_str", lambda: eigendecompose("ab"), "matrix of dtype <U2 is not real"),
    ("eigen_ragged", lambda: eigendecompose([[0, 1], [1]]),
     "matrix of dtype object is not real"),
    # the oracle's time: NaN and inf gave NaN matrices, 1e300 a builtin
    # OverflowError from the scaling exponent
    ("oracle_nan_t", lambda: matrix_exp_oracle(laplacian(c4()), math.nan),
     "t must be finite"),
    ("oracle_inf_t", lambda: matrix_exp_oracle(laplacian(c4()), math.inf),
     "t must be finite"),
    ("oracle_norm", lambda: matrix_exp_oracle(laplacian(c4()), 1e300),
     "t H must have a finite norm"),
    # the oracle's matrix: complex lost its imaginary part with a
    # ComplexWarning, ragged rows and a non-square matrix raised builtin
    # ValueErrors; M of the wrong size raised numpy's broadcast ValueError
    ("oracle_complex", lambda: matrix_exp_oracle(np.eye(2) * 1j, 1.0),
     "matrix of dtype complex128 is not real"),
    ("oracle_ragged", lambda: matrix_exp_oracle([[0, 1], [1]], 1.0),
     "matrix of dtype object is not real"),
    ("oracle_not_square", lambda: matrix_exp_oracle(np.zeros((2, 3)), 1.0),
     r"matrix of shape \(2, 3\) is not square"),
    ("perturbed_wrong_size", lambda: perturbed_propagator(c4_spectrum(), 1.0, np.eye(3), 1.0),
     r"M of shape \(3, 3\) is not 4 x 4"),
    # arguments that are not iterable, or edges that are not triples: each
    # raised a builtin TypeError or ValueError
    ("pgst_float_epsilons", lambda: pgst_scan(c4(), 0, 2, 10, 0.5),
     "epsilons must be an iterable of numbers"),
    ("circulant_int_set", lambda: CirculantSpec(8, 3), "connection set must be iterable"),
    # is_gcd_set reads its residues as CirculantSpec does
    ("gcd_set_int", lambda: is_gcd_set(8, 5), "connection set must be iterable"),
    ("gcd_set_modulus", lambda: is_gcd_set(0, {1}), "modulus must be at least 2, got 0"),
    ("build_graph_pair_edge", lambda: build_graph(3, [(0, 1)]),
     r"edges must be \(u, v, w\) triples"),
    # a vertex out of range is an InputError too (and still an IndexError)
    ("vertex_out_of_range", lambda: check_lpst(c4(), 0, 4, 1.0),
     r"vertex 4 out of range \[0, 4\)"),
]


@pytest.mark.parametrize("call, match", [r[1:] for r in REJECTED],
                         ids=[r[0] for r in REJECTED])
def test_rejected_argument_raises_input_error(call, match):
    with pytest.raises(InputError, match=match) as info:
        call()
    assert isinstance(info.value, TwinWalkError)
    assert isinstance(info.value, ValueError)


def test_vertex_too_long_to_print_is_out_of_range():
    """str(10**5000) raises ValueError; the message shows the bit count."""
    with pytest.raises(IndexOutOfRangeError,
                       match=r"vertex <16610-bit integer> out of range \[0, 4\)") as info:
        check_lpst(c4(), 0, 10**5000, 1.0)
    assert isinstance(info.value, InputError)
    assert isinstance(info.value, IndexError)


@pytest.mark.parametrize("site", [graphs.rank_one_matrix, graphs.perturb_edge,
                                  graphs.is_twin_pair, walk.check_lpst, walk.pst_time_scan],
                         ids=lambda site: site.__name__)
def test_distinct_vertices_have_one_owner(site):
    """Each site rejects equal vertices through graphs._check_distinct, and
    compares its two vertices nowhere else."""
    tree = ast.parse(inspect.getsource(site))
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    operands = [{ast.unparse(node.left), *map(ast.unparse, node.comparators)}
                for node in ast.walk(tree) if isinstance(node, ast.Compare)]
    assert calls.count("_check_distinct") == 1
    assert {"a", "b"} not in operands


@pytest.mark.parametrize("t", [np.float64(math.pi / 2), np.array(math.pi / 2)],
                         ids=["float64", "0-d"])
def test_one_time_may_be_a_numpy_scalar(t):
    """A numpy scalar or a 0-d array is one time, with the results of the
    equal float."""
    x = math.pi / 2
    assert check_lpst(c4(), 0, 2, t) == check_lpst(c4(), 0, 2, x)
    assert check_periodic(c4(), 0, t) == check_periodic(c4(), 0, x)
    assert np.array_equal(propagator(c4_spectrum(), t), propagator(c4_spectrum(), x))
    M = rank_one_matrix(4, 0, 2)
    assert np.array_equal(perturbed_propagator(c4_spectrum(), t, M, 1.0),
                          perturbed_propagator(c4_spectrum(), x, M, 1.0))


@pytest.mark.parametrize("value", [np.float32(0.25), np.int64(3), Fraction(1, 4)],
                         ids=["float32", "int64", "fraction"])
def test_numpy_and_rational_reals_are_accepted(value):
    """A real-valued argument may be any real number type, with the results
    of the equal float; tol and epsilons lie in (0, 1), where no integer is."""
    x = float(value)
    M = rank_one_matrix(4, 0, 2)
    assert build_graph(4, [(0, 1, value)]) == build_graph(4, [(0, 1, x)])
    assert perturb_edge(c4(), 0, 2, value) == perturb_edge(c4(), 0, 2, x)
    assert np.array_equal(perturbed_propagator(c4_spectrum(), 1.0, M, value),
                          perturbed_propagator(c4_spectrum(), 1.0, M, x))
    assert pst_time_scan(c4(), 0, 2, value) == pst_time_scan(c4(), 0, 2, x)
    if x < 1:
        assert check_lpst(c4(), 0, 2, 1.0, tol=value) == check_lpst(c4(), 0, 2, 1.0, tol=x)
        assert (pgst_scan(c4(), 0, 2, q_max=10, epsilons=(value,))
                == pgst_scan(c4(), 0, 2, q_max=10, epsilons=(x,)))
        fi = FamilyInstance(c4(), (ExpectedWitness(0, 2, math.pi / 2),), "c4")
        assert verify_family(fi, tol=value) == verify_family(fi, tol=x)


def _solve_refused(L):
    raise AssertionError("eigendecompose was called")


NO_SOLVE = [
    ("lpst_tol", lambda: check_lpst(c4(), 0, 2, 1.0, tol=1.0)),
    ("lpst_vertex", lambda: check_lpst(c4(), 0, 4, 1.0)),
    ("lpst_float_vertex", lambda: check_lpst(c4(), 0.5, 2, 1.0)),
    ("periodic_tol", lambda: check_periodic(c4(), 0, 1.0, tol=0.0)),
    ("periodic_vertex", lambda: check_periodic(c4(), -1, 1.0)),
    ("scan_tol", lambda: pst_time_scan(c4(), 0, 2, 1.0, tol="x")),
    ("scan_vertex", lambda: pst_time_scan(c4(), 4, 0, 1.0)),
    ("pgst_vertex", lambda: pgst_scan(c4(), 0, 9, q_max=10)),
    ("family_tol", lambda: verify_family(
        FamilyInstance(c4(), (ExpectedWitness(0, 2, math.pi / 2),), "c4"), tol=2.0)),
]


@pytest.mark.parametrize("call", [r[1] for r in NO_SOLVE], ids=[r[0] for r in NO_SOLVE])
def test_rejected_tol_or_vertex_costs_no_eigensolve(monkeypatch, call):
    """tol and both vertices are checked before the Laplacian is solved."""
    monkeypatch.setattr(walk, "eigendecompose", _solve_refused)
    with pytest.raises(AssertionError, match="eigendecompose was called"):
        check_lpst(c4(), 0, 2, 1.0)  # the patch is the solve the checks use
    with pytest.raises((InputError, IndexOutOfRangeError)):
        call()


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


def test_only_main_writes_output_and_picks_exit_codes():
    """Each command returns (document, found) and does no I/O; cli.main
    alone writes the document and maps found to exit 0 or 1."""
    tree = ast.parse((SRC / "cli.py").read_text())
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")]
    assert len(commands) == 5
    for node in commands:
        assert isinstance(node.body[-1], ast.Return), node.name
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        assert not names & {"_emit", "print", "open", "sys", "EXIT_OK",
                            "EXIT_NO_WITNESS"}, node.name


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
    rotations = []
    if error is ConvergenceFailureError:
        monkeypatch.setattr(spectral, "_JACOBI_MAX_SWEEPS", 0)  # give up at once
        monkeypatch.setattr(spectral.math, "atan2", lambda y, x: rotations.append(None))
    argv = [argv[0], "--input", write(tmp_path, "in.json", doc), *argv[1:]]
    assert main(argv) == code
    assert rotations == []  # no sweep allowed: not one rotation is made
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
        # main's two steps: the command builds the document (every row but
        # `output` raises here), then _emit writes it (`output` raises here)
        doc, _ = args.func(args)
        _emit(doc, args.out)
