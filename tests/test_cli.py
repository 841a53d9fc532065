import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from twinwalk import identities
from twinwalk.cli import main
from conftest import cycle_graph

C4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
# eigenvalues 0, 2e12 and 4e12: mu t passes pi/eps near t = 3500
C4_HEAVY = {"n": 4, "edges": [[u, (u + 1) % 4, 1e12] for u in range(4)]}
P5 = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}
K3 = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
K4_MINUS_01 = {"n": 4, "edges": [[0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
K5 = {"n": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]}
FIG4_FIRST_PANEL = {
    "n": 8,
    "edges": [[u, v] for u in range(8) for v in range(u + 1, 8) if (v - u) % 2 == 1]
    + [[0, 4]],
}
FAMILY_Z16 = {"family": "circulant_twin", "n": 16, "S": [2, 6, 10, 14],
              "pairs": [[0, 8], [1, 9]]}
Z16_PERTURBED = {
    "n": 16,
    "edges": [
        [u, v]
        for u in range(16)
        for v in range(u + 1, 16)
        if (v - u) % 16 in (1, 7, 9, 15)
    ]
    + [[0, 8]],
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_sh(redirect, *argv):
    """The CLI as a subprocess of sh, which applies one fd redirection."""
    return subprocess.run(
        ["sh", "-c", f'"$0" -m twinwalk.cli "$@" {redirect}', sys.executable, *argv],
        capture_output=True, text=True,
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def assert_input_error(code, captured):
    assert code == 2
    assert captured.out == ""
    return json.loads(captured.err)["error"]


class TestTwins:
    def test_c4(self, tmp_path, capsys):
        code, obj = run(capsys, "twins", "--input", write(tmp_path, "g.json", C4))
        assert code == 0
        assert obj == {"twin_pairs": [[0, 2], [1, 3]]}

    def test_k3_all_pairs(self, tmp_path, capsys):
        code, obj = run(capsys, "twins", "--input", write(tmp_path, "g.json", K3))
        assert code == 0
        assert obj == {"twin_pairs": [[0, 1], [0, 2], [1, 2]]}

    def test_p5_has_none(self, tmp_path, capsys):
        code, obj = run(capsys, "twins", "--input", write(tmp_path, "g.json", P5))
        assert code == 0
        assert obj == {"twin_pairs": []}

    def test_circulant_accepted_as_graph(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", {"circulant": {"n": 8, "S": [1, 3, 5, 7]}})
        code, obj = run(capsys, "twins", "--input", path)
        assert code == 0
        assert [0, 4] in obj["twin_pairs"]


class TestCheck:
    def test_lpst_found(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", K4_MINUS_01)
        code, obj = run(
            capsys, "check", "--input", path,
            "--from", "0", "--to", "1", "--pi-multiple", "0.5",
        )
        assert code == 0
        assert obj["kind"] == "LPST"
        assert obj["fidelity"] >= 1 - 1e-9
        assert obj["time"] == float(f"{math.pi / 2:.15g}")

    def test_mixed_pair_not_found(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", K4_MINUS_01)
        code, obj = run(
            capsys, "check", "--input", path,
            "--from", "0", "--to", "2", "--pi-multiple", "0.5",
        )
        assert code == 1
        assert obj["kind"] == "NONE"

    def test_self_pair_periodic_at_zero(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", C4)
        code, obj = run(
            capsys, "check", "--input", path,
            "--from", "1", "--to", "1", "--time", "0",
        )
        assert code == 0
        assert obj["kind"] == "PERIODIC"
        assert obj["fidelity"] == 1.0

    def test_time_required(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", C4)
        with pytest.raises(SystemExit) as info:  # argparse: one of the two is required
            main(["check", "--input", path, "--from", "0", "--to", "2"])
        assert info.value.code == 2
        assert "--time --pi-multiple" in capsys.readouterr().err

    def test_tol_of_one_or_more_exits_2(self, tmp_path, capsys):
        # at --tol 1.5, C4 0 -> 1 at t = 0.1 (fidelity 0.0993) passed as LPST
        path = write(tmp_path, "g.json", C4)
        code = main(["check", "--input", path, "--from", "0", "--to", "1",
                     "--time", "0.1", "--tol", "1.5"])
        assert "tol" in assert_input_error(code, capsys.readouterr())

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["check", "--from", "0", "--to", "2", "--time", "nan"], "--time"),
            (["check", "--from", "0", "--to", "2", "--pi-multiple", "inf"],
             "--pi-multiple"),
            (["check", "--from", "0", "--to", "2", "--time", "1", "--tol", "nan"],
             "--tol"),
            (["scan", "--from", "0", "--to", "2", "--t-max", "inf"], "--t-max"),
        ],
    )
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, argv, option):
        """Each option's value reaches the library function that reads it."""
        rule = {"--time": "t must be finite", "--pi-multiple": "t must be finite",
                "--tol": "tol must lie in (0, 1)",
                "--t-max": "t_max must be positive and finite"}[option]
        path = write(tmp_path, "g.json", C4)
        code = main([argv[0], "--input", path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith(rule)


class TestScan:
    def test_pst_k5_bounded(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", K5)
        code, obj = run(
            capsys, "scan", "--input", path, "--from", "0", "--to", "1",
            "--mode", "pst", "--t-max-pi", "2",
        )
        assert code == 1
        assert obj["kind"] == "NONE"
        assert obj["fidelity"] <= 0.4 + 1e-9

    def test_pgst_fig4_first_panel(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", FIG4_FIRST_PANEL)
        code, obj = run(
            capsys, "scan", "--input", path, "--from", "0", "--to", "4",
            "--mode", "pgst", "--q-max", "10",
        )
        assert code == 0
        assert obj["kind"] == "PGST"
        assert obj["ladder"][0]["q"] == 0
        assert obj["ladder"][0]["time"] == float(f"{math.pi / 2:.15g}")

    def test_pgst_without_witness_exits_1(self, tmp_path, capsys):
        # the unperturbed bipartite circulant never transfers 0 -> 4
        path = write(tmp_path, "g.json", {"circulant": {"n": 8, "S": [1, 3, 5, 7]}})
        code, obj = run(
            capsys, "scan", "--input", path, "--from", "0", "--to", "4",
            "--mode", "pgst", "--q-max", "500",
        )
        assert code == 1
        assert obj["kind"] == "NONE"
        assert obj["ladder"] == []

    @pytest.mark.parametrize("mode", ["pst", "pgst"])
    @pytest.mark.parametrize("a, b", [(-1, 2), (0, -1), (4, 0), (0, 4)])
    def test_out_of_range_vertex_exits_2(self, tmp_path, capsys, mode, a, b):
        path = write(tmp_path, "g.json", C4)
        q_max = ["--q-max", "10"] if mode == "pgst" else []
        code = main(["scan", "--input", path, "--from", str(a), "--to", str(b),
                     "--mode", mode, *q_max])
        assert "out of range" in assert_input_error(code, capsys.readouterr())

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["--mode", "pgst", "--q-max", "5", "--tol", "5"], "--tol"),
            (["--mode", "pst", "--t-max-pi", "1", "--q-max", "0"], "--q-max"),
            (["--mode", "pgst", "--t-max", "3"], "--t-max"),
            (["--mode", "pgst", "--t-max-pi", "1", "--tol", "0.1"], "--tol, --t-max-pi"),
            (["--q-max", "10"], "--q-max"),  # pst is the default mode
        ],
        ids=["pgst_tol", "pst_q_max", "pgst_t_max", "pgst_two", "default_q_max"],
    )
    def test_option_of_the_other_mode_exits_2(self, tmp_path, capsys, argv, unread):
        # each used to be ignored: the scan ran and exited 0
        path = write(tmp_path, "g.json", C4)
        code = main(["scan", "--input", path, "--from", "0", "--to", "2", *argv])
        message = assert_input_error(code, capsys.readouterr())
        assert message.endswith(f"does not read {unread}")

    def test_pst_scan_to_the_source_exits_2(self, tmp_path, capsys):
        # returns are checked at a time (check --from p --to p) or along
        # (4q+1) pi/2 (scan --mode pgst), never by a pst scan from t ~ 0
        path = write(tmp_path, "g.json", C4)
        code = main(["scan", "--input", path, "--from", "0", "--to", "0",
                     "--mode", "pst", "--t-max", "1"])
        assert "distinct" in assert_input_error(code, capsys.readouterr())

    def test_pgst_z16_ladder_monotone(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", Z16_PERTURBED)
        code, obj = run(
            capsys, "scan", "--input", path, "--from", "0", "--to", "8",
            "--mode", "pgst", "--q-max", "1000",
        )
        assert code == 0
        fids = obj["best_fidelities"]
        assert fids == sorted(fids)
        assert len(obj["ladder"]) == 3
        eps = [h["epsilon"] for h in obj["ladder"]]
        assert eps == sorted(eps, reverse=True)


class TestFamily:
    def test_k4n_matching(self, tmp_path, capsys):
        path = write(
            tmp_path, "f.json",
            {"family": "k4n_matching", "n": 2,
             "matching": [[0, 4], [1, 5], [2, 6], [3, 7]]},
        )
        code, obj = run(capsys, "family", "--input", path)
        assert code == 0
        assert obj["all_passed"] is True
        assert len(obj["reports"]) == 4
        assert all(r["kind"] == "LPST" for r in obj["reports"])

    def test_quarter_weight_k5(self, tmp_path, capsys):
        path = write(
            tmp_path, "f.json",
            {"family": "quarter_weight", "base": "K5", "pairs": [[0, 2], [1, 3]]},
        )
        code, obj = run(capsys, "family", "--input", path)
        assert code == 0
        lpst = [r for r in obj["reports"] if r["kind"] == "LPST"]
        assert len(lpst) == 2
        assert all(r["time"] == float(f"{2 * math.pi:.15g}") for r in lpst)

    def test_circulant_twin(self, tmp_path, capsys):
        path = write(
            tmp_path, "f.json",
            {"family": "circulant_twin", "n": 8, "S": [1, 3, 5, 7],
             "pairs": [[0, 4]]},
        )
        code, obj = run(capsys, "family", "--input", path)
        assert code == 0
        assert obj["reports"][0]["kind"] == "LPST"

    def test_bad_family_params_exit_2(self, tmp_path, capsys):
        path = write(
            tmp_path, "f.json",
            {"family": "circulant_twin", "n": 12, "S": [1, 5, 7, 11],
             "pairs": [[0, 6]]},
        )
        assert main(["family", "--input", path]) == 2

    @pytest.mark.parametrize("q_max", ["0", "-5"])
    def test_q_max_below_one_exits_2(self, tmp_path, capsys, q_max):
        # no witness of this family scans, but the option is still checked
        path = write(tmp_path, "f.json",
                     {"family": "k4n_matching", "size": 8, "matching": [[0, 4]]})
        code = main(["family", "--input", path, "--q-max", q_max])
        captured = capsys.readouterr()
        assert assert_input_error(code, captured) == "q_max must be at least 1"
        assert captured.err.count("\n") == 1

    def test_solver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        from twinwalk.errors import ConvergenceFailureError

        def explode(G):
            raise ConvergenceFailureError("did not converge")

        monkeypatch.setattr("twinwalk.walk._spectrum_of", explode)
        path = write(
            tmp_path, "f.json",
            {"family": "k4n_matching", "n": 1, "matching": [[0, 1]]},
        )
        assert main(["family", "--input", path]) == 3
        assert capsys.readouterr().out == ""

    def test_size_key_for_negative_control(self, tmp_path, capsys):
        path = write(
            tmp_path, "f.json",
            {"family": "k4n_matching", "size": 6, "matching": [[0, 1]]},
        )
        code = main(["family", "--input", path])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["reports"] == []
        assert captured.err == json.dumps(
            {"warning": "size 6 is not a multiple of 4; no transfer witnesses"}) + "\n"


class TestVerifyIdentities:
    def test_k4_deviations_small(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", {"n": 4, "edges": [
            [u, v] for u in range(4) for v in range(u + 1, 4)]})
        code, obj = run(
            capsys, "verify-identities", "--input", path,
            "--seed", "3", "--trials", "10",
        )
        assert code == 0
        assert all(v < 1e-8 for v in obj["identities"].values())

    def test_zero_trials_rejected(self, capsys):
        assert main(["verify-identities", "--trials", "0"]) == 2

    def test_given_graph_is_solved_once(self, monkeypatch):
        calls = []

        def counted(L):
            calls.append(L)
            return solve(L)

        solve = identities.eigendecompose
        monkeypatch.setattr(identities, "eigendecompose", counted)
        devs = identities.run_identity_checks(cycle_graph(4), seed=3, trials=10)
        assert len(calls) == 1
        assert all(v < 1e-8 for v in devs.values())

    def test_deterministic_across_runs(self, capsys):
        code1 = main(["verify-identities", "--seed", "7", "--trials", "3"])
        out1 = capsys.readouterr().out
        code2 = main(["verify-identities", "--seed", "7", "--trials", "3"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2


class TestErrorsAndOutput:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["twins", "--input", str(path)]) == 2

    def test_missing_keys(self, tmp_path):
        path = write(tmp_path, "bad.json", {"vertices": 4})
        assert main(["twins", "--input", str(path)]) == 2

    def test_circulant_containing_zero_exits_2(self, tmp_path):
        path = write(tmp_path, "bad.json", {"circulant": {"n": 8, "S": [0, 1, 7]}})
        assert main(["twins", "--input", path]) == 2

    @pytest.mark.parametrize(
        "argv, doc, phrase",
        [
            (["check", "--from", "0", "--to", "8", "--pi-multiple", "0.5"],
             FAMILY_Z16, "graph document has unknown keys ['S', 'family', 'pairs']"),
            (["twins"], FAMILY_Z16, "graph document has unknown keys"),
            (["family"], {"family": "k4n_matching", "n": 2, "matchng": [[0, 4], [1, 5]]},
             "k4n_matching document has unknown keys ['matchng']"),
            (["family"], {"family": "k4n_matching", "n": 2, "size": 8, "matching": []},
             'takes "n" or "size", not both'),
            (["family"], {"family": "quarter_weight", "base": "K5", "pair": [[0, 2]]},
             "quarter_weight document has unknown keys ['pair']"),
            (["family"], {"family": "quarter_weight", "base": {"n": 5, "edge": []}},
             "graph document has unknown keys ['edge']"),
            (["family"], {**FAMILY_Z16, "S": [1, 7, 9, 15], "q_max": 10},
             "circulant_twin document has unknown keys ['q_max']"),
            (["twins"], {"circulant": {"n": 8, "S": [1, 3, 5, 7], "pairs": []}},
             "circulant object has unknown keys ['pairs']"),
            (["twins"], {"circulant": {"n": 8, "S": [1, 3, 5, 7]}, "n": 8},
             "circulant document has unknown keys ['n']"),
            (["family"], {"family": "k4n_matching", "size": -4},
             "vertex count must be positive, got -4"),
        ],
    )
    def test_unknown_keys_and_empty_sizes_exit_2(self, tmp_path, capsys, argv, doc, phrase):
        code = main([argv[0], "--input", write(tmp_path, "doc.json", doc), *argv[1:]])
        assert phrase in assert_input_error(code, capsys.readouterr())

    @pytest.mark.parametrize(
        "command, doc, phrase",
        [
            ("twins", [1, 2], "graph document must be a JSON object"),
            ("twins", {"n": 3, "edges": [[0]]}, "edge [0] must have 2 or 3 entries"),
            ("family", {"family": "quarter_weight", "base": "C5", "pairs": [[0, 2]]},
             'unrecognized base graph name "C5"'),
            ("family", {"n": 2}, 'family document needs a "family" key'),
            ("family", {"family": "k4n_matching", "matching": [[0, 1]]},
             'k4n_matching needs "n" (quarter count) or "size"'),
            ("family", {"family": "quarter_weight", "pairs": [[0, 2]]},
             'quarter_weight needs a "base" graph'),
            ("family", {"family": "cycle"}, 'unknown family "cycle"'),
            ("twins", {"circulant": {"n": 8}}, "bad circulant object: 'S'"),
            ("family", {"family": "circulant_twin", "n": 8},
             "bad circulant_twin parameters: 'S'"),
        ],
        ids=["graph_not_object", "edge_length", "base_name", "family_key",
             "k4n_size", "quarter_base", "family_name", "circulant_key",
             "circulant_twin_key"],
    )
    def test_malformed_documents_exit_2(self, tmp_path, capsys, command, doc, phrase):
        code = main([command, "--input", write(tmp_path, "doc.json", doc)])
        assert phrase in assert_input_error(code, capsys.readouterr())

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("twins", {"n": 4.7, "edges": [[0, 1]]}),
            ("twins", {"n": "4", "edges": [[0, 1]]}),
            ("twins", {"n": 4, "edges": [[0, 1.9]]}),
            ("twins", {"n": 4, "edges": [[True, 2]]}),
            ("twins", {"n": 4, "edges": [[0, 1, "2"]]}),
            ("twins", {"circulant": {"n": 8.0, "S": [1, 7]}}),
            ("twins", {"circulant": {"n": 8, "S": [1, "7"]}}),
            ("family", {"family": "k4n_matching", "size": 8.9, "matching": [[0, 4]]}),
            ("family", {"family": "k4n_matching", "n": True, "matching": [[0, 1]]}),
            ("family", {"family": "k4n_matching", "size": 8, "matching": [[0, 4.5]]}),
            ("family", {"family": "quarter_weight", "base": "K5", "pairs": [[0, "2"]]}),
            ("family", {"family": "circulant_twin", "n": 8.0, "S": [1, 3, 5, 7],
                        "pairs": [[0, 4]]}),
            ("family", {"family": "circulant_twin", "n": 8, "S": [1, 3, 5, 7.0],
                        "pairs": [[0, 4]]}),
            ("family", {"family": "circulant_twin", "n": 8, "S": [1, 3, 5, 7],
                        "pairs": [[False, 4]]}),
        ],
        ids=["graph_n_float", "graph_n_str", "edge_vertex_float", "edge_vertex_bool",
             "edge_weight_str", "circulant_n_float", "circulant_S_str", "k4n_size_float",
             "k4n_n_bool", "k4n_matching_float", "quarter_pairs_str",
             "circulant_twin_n_float", "circulant_twin_S_float",
             "circulant_twin_pairs_bool"],
    )
    def test_non_integer_json_numbers_exit_2(self, tmp_path, capsys, command, doc):
        # each used to be truncated or coerced, e.g. size 8.9 with matching
        # [[0, 4.5]] verified K8 minus (0, 4)
        code = main([command, "--input", write(tmp_path, "doc.json", doc)])
        assert "must be" in assert_input_error(code, capsys.readouterr())

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        # json.load's RecursionError escaped main as a traceback
        path = tmp_path / "doc.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["twins", "--input", str(path)])
        assert "maximum recursion depth" in assert_input_error(code, capsys.readouterr())

    def test_missing_file(self):
        assert main(["twins", "--input", "/nonexistent/g.json"]) == 2

    @pytest.mark.parametrize("weight", [
        "NaN", "Infinity", "-Infinity",
        # an integer float() cannot convert: it overflows the float range
        pytest.param("1" + "0" * 400, id="int-beyond-float"),
    ])
    def test_non_finite_weight_exits_2(self, tmp_path, weight):
        path = tmp_path / "g.json"
        path.write_text(f'{{"n": 3, "edges": [[0, 1, {weight}], [1, 2]]}}')
        assert main(["check", "--input", str(path), "--from", "0", "--to", "2",
                     "--time", "1"]) == 2

    @pytest.mark.parametrize("command, doc", [
        ("twins", {"n": 10**9}),
        ("twins", {"circulant": {"n": 2**30, "S": [1, 2**30 - 1]}}),
        ("family", {"family": "k4n_matching", "size": 10**9}),
        ("family", {"family": "quarter_weight", "base": "K1000000000", "pairs": []}),
        ("family", {"family": "circulant_twin", "n": 2**30, "S": [1, 2**30 - 1]}),
    ], ids=["graph", "circulant", "k4n", "quarter_base", "circulant_twin"])
    def test_oversized_vertex_count_exits_2(self, tmp_path, capsys, command, doc):
        # each n fails numpy's allocation at once, before memory is committed
        code = main([command, "--input", write(tmp_path, "doc.json", doc)])
        assert "is too large" in assert_input_error(code, capsys.readouterr())

    @pytest.mark.parametrize(
        "doc, time",
        [
            # the degree sum overflows: this exited 3 as a numerical failure
            ({"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]}, "1"),
            # only the squared norm overflows: this reported fidelity 0.0
            # (exit 1) where C4 at unit weight and t = 1 gives 0.4546
            ({"n": 4, "edges": [[u, (u + 1) % 4, 1e160] for u in range(4)]}, "1e-160"),
        ],
        ids=["degree_overflows", "norm_overflows"],
    )
    def test_overflowing_weights_exit_2(self, tmp_path, capsys, doc, time):
        path = write(tmp_path, "g.json", doc)
        code = main(["check", "--input", path, "--from", "0", "--to", "1",
                     "--time", time])
        assert "overflow" in assert_input_error(code, capsys.readouterr())

    @pytest.mark.parametrize(
        "doc, argv",
        [
            (C4, ["check", "--from", "0", "--to", "2", "--time", "1e308"]),
            (C4, ["scan", "--from", "0", "--to", "2", "--t-max", "1e308"]),
            (C4, ["check", "--from", "0", "--to", "2", "--time", "1e307"]),
            (C4, ["scan", "--from", "0", "--to", "2", "--t-max", "1e300"]),
            # the scan's last time, 2001 pi, as a check and as a pgst scan,
            # which swept it without a check and gave a verdict (exit 1)
            (C4_HEAVY, ["check", "--from", "0", "--to", "2", "--time", "6285"]),
            (C4_HEAVY, ["scan", "--from", "0", "--to", "2", "--mode", "pgst",
                        "--q-max", "1000"]),
        ],
        ids=["check_time", "scan_t_max", "check_time_rounding", "scan_t_max_rounding",
             "check_time_heavy", "scan_pgst_table"],
    )
    def test_overflowing_phase_exits_2(self, tmp_path, capsys, doc, argv):
        # mu t = 4e308 overflowed to a NaN fidelity, printed as invalid JSON;
        # a finite mu t beyond pi/eps gave a verdict made of rounding
        path = write(tmp_path, "g.json", doc)
        code = main([argv[0], "--input", path, *argv[1:]])
        assert "phase" in assert_input_error(code, capsys.readouterr())

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--from", "0", "--to", "2", "--time", "1", "--pi-multiple", "0.5"],
            ["scan", "--from", "0", "--to", "2", "--t-max", "3", "--t-max-pi", "4"],
        ],
        ids=["time_and_pi_multiple", "t_max_and_t_max_pi"],
    )
    def test_conflicting_time_options_exit_2(self, tmp_path, capsys, argv):
        path = write(tmp_path, "g.json", C4)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--input", path, *argv[1:]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        from twinwalk.errors import ConvergenceFailureError

        def explode(path):
            raise ConvergenceFailureError("did not converge")

        monkeypatch.setattr("twinwalk.cli.load_graph", explode)
        path = write(tmp_path, "g.json", C4)
        assert main(["twins", "--input", path]) == 3

    def test_out_file(self, tmp_path, capsys):
        gpath = write(tmp_path, "g.json", C4)
        opath = tmp_path / "report.json"
        code = main(["twins", "--input", gpath, "--out", str(opath)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(opath.read_text()) == {"twin_pairs": [[0, 2], [1, 3]]}

    def test_entry_point_subprocess(self, tmp_path):
        gpath = write(tmp_path, "g.json", C4)
        proc = subprocess.run(
            [sys.executable, "-m", "twinwalk.cli", "twins", "--input", gpath],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"twin_pairs": [[0, 2], [1, 3]]}

    def test_closed_stdout_is_an_output_error(self, tmp_path):
        # `twinwalk twins ... | head -c 10` used to end in a BrokenPipeError
        # traceback and exit 1, the code for "witness not found"
        gpath = write(tmp_path, "g.json", C4)
        with subprocess.Popen(
            [sys.executable, "-m", "twinwalk.cli", "twins", "--input", gpath],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            proc.stdout.close()  # the reader is gone before the first write
            err = proc.stderr.read()
        assert proc.returncode == 2
        line, = err.splitlines()  # nothing more at interpreter exit
        assert json.loads(line)["error"].startswith("cannot write stdout: ")

    def test_stdout_closed_at_start_up_is_an_output_error(self, tmp_path):
        # with fd 1 closed, sys.stdout is None and print writes nothing:
        # `twinwalk twins ... >&-` lost the document and exited 0
        proc = run_sh(">&-", "twins", "--input", write(tmp_path, "g.json", C4))
        assert proc.returncode == 2
        assert json.loads(proc.stderr) == {"error": "cannot write stdout: it is closed"}

    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read_only"])
    def test_input_error_exits_2_without_stderr(self, tmp_path, redirect):
        # closed, sys.stderr is None and print(file=None) put the error line
        # on stdout; read-only, writing it raised OSError in main's handler,
        # which ended in exit 1, the code for "witness not found"
        proc = run_sh(redirect, "twins", "--input", str(tmp_path / "missing.json"))
        assert (proc.returncode, proc.stdout) == (2, "")

    def test_warning_without_stderr_stays_off_stdout(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "f.json",
                     {"family": "k4n_matching", "size": 6, "matching": [[0, 1]]})
        monkeypatch.setattr(sys, "stderr", None)  # as with fd 2 closed at start-up
        assert main(["family", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["reports"] == []


JSON_JUNK = [-1.5, 1.0, True, "1", None]


@st.composite
def cli_cases(draw):
    """A simple graph document on n <= 6 vertices with at most one flaw
    planted among its entries or keys, and two vertices in [-2, n + 2]."""
    n = draw(st.integers(1, 6))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.integers(0, len(pairs) - 1), unique=True, max_size=6)
                 if pairs else st.just([]))
    edges = [pairs[i] + draw(st.lists(st.floats(0.1, 3.0), max_size=1)) for i in picks]
    vertex = st.integers(0, n - 1)
    flaw = draw(st.sampled_from([None, None, "n", "endpoint", "weight", "shape", "repeat",
                                 "key"]))
    if flaw == "n":
        n_field = draw(st.sampled_from([float(n), str(n), True, 0]))
    else:
        n_field = n
    bad_edge = {
        "endpoint": [draw(st.sampled_from([-1, n, *JSON_JUNK])), draw(vertex)],
        "weight": [draw(vertex), draw(vertex),
                   draw(st.sampled_from([-1.0, 0, math.nan, math.inf, "2", True]))],
        "shape": draw(st.sampled_from([[0], [0, 1, 1.0, 1.0], 5, "ab"])),
        "repeat": edges[-1][1::-1] if edges else [0, 0],
    }.get(flaw)
    if bad_edge is not None:
        edges.insert(draw(st.integers(0, len(edges))), bad_edge)
    vertex = st.one_of(vertex, vertex, st.integers(-2, n + 2))
    doc = {"n": n_field, "edges": edges}
    if flaw == "key":
        doc[draw(st.sampled_from(["family", "S", "pairs", "edge"]))] = []
    return n, doc, draw(vertex), draw(vertex)


def well_formed(n, doc):
    """The graph rules: positive integer n, integer endpoints, numeric finite
    positive weights, no self loops or repeated edges."""
    if set(doc) != {"n", "edges"} or type(doc["n"]) is not int or doc["n"] < 1:
        return False
    seen = set()
    for e in doc["edges"]:
        if not isinstance(e, list) or len(e) not in (2, 3):
            return False
        ends, w = e[:2], e[2] if len(e) == 3 else 1.0
        if not all(type(v) is int and 0 <= v < n for v in ends) or ends[0] == ends[1]:
            return False
        if type(w) not in (int, float) or not 0 < w < math.inf:
            return False
        if frozenset(ends) in seen:
            return False
        seen.add(frozenset(ends))
    return True


@settings(max_examples=50, deadline=None)
@given(cli_cases())
def test_cli_exit_codes_match_the_input(case):
    """No traceback; exit 2 with a JSON error exactly for bad input, and
    otherwise a verdict on the requested vertices."""
    n, doc, a, b = case
    commands = {
        "check": ["check", "--pi-multiple", "0.5"],
        "pst": ["scan", "--mode", "pst", "--t-max-pi", "1"],
        "pgst": ["scan", "--mode", "pgst", "--q-max", "64"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(json.dumps(doc))
        for name, argv in commands.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--input", str(path),
                             "--from", str(a), "--to", str(b)])
            bad = (not well_formed(n, doc) or not (0 <= a < n and 0 <= b < n)
                   or (name == "pst" and a == b))
            if bad:
                assert code == 2, (name, code, out.getvalue())
                assert out.getvalue() == ""
                assert isinstance(json.loads(err.getvalue())["error"], str)
            else:
                assert code in (0, 1), (name, code, err.getvalue())
                obj = json.loads(out.getvalue())
                assert (obj["from"], obj["to"]) == (a, b)


@st.composite
def family_cases(draw):
    """A k4n_matching, quarter_weight or circulant_twin document on at most
    12 vertices with at most one planted flaw: a non-integer or out-of-range
    vertex, a reused vertex, a bad base (quarter_weight), a bad S
    (circulant_twin) or a key the schema does not define. Returns (flawed,
    document)."""
    kind = draw(st.sampled_from(["k4n_matching", "quarter_weight", "circulant_twin"]))
    flaws = [None, None, "vertex_type", "vertex_range", "reuse", "key"]
    if kind == "circulant_twin":
        # the power-of-two moduli and sets that meet the mod-4 class condition
        size = draw(st.sampled_from([4, 8]))
        sets = [[], [1, 3, 5, 7]] if size == 8 else [[]]
        doc = {"n": size, "S": draw(st.sampled_from(sets))}
        half = size // 2
        pairs = [[x, x + half] if draw(st.booleans()) else [x + half, x]
                 for x in draw(st.lists(st.integers(0, half - 1), unique=True))]
        flaws.append("S")
    else:
        if kind == "k4n_matching":
            size = 4 * draw(st.integers(1, 3))
            doc = {"n": size // 4} if draw(st.booleans()) else {"size": size}
        else:
            size = draw(st.integers(1, 12))
            doc = {"base": f"K{size}"}
            flaws.append("base")
        order = draw(st.permutations(range(size)))
        pairs = [order[i:i + 2] for i in range(0, 2 * draw(st.integers(0, size // 2)), 2)]
    flaw = draw(st.sampled_from(flaws))
    if flaw in ("vertex_type", "vertex_range"):
        bad = draw(st.sampled_from([1.5, "1", True, None] if flaw == "vertex_type"
                                   else [-1, size]))
        if pairs:
            pairs[draw(st.integers(0, len(pairs) - 1))][draw(st.integers(0, 1))] = bad
        else:
            pairs.append([bad, 0])
    elif flaw == "reuse":
        pairs.insert(draw(st.integers(0, len(pairs))), pairs[0][::-1] if pairs else [0, 0])
    elif flaw == "base":
        doc["base"] = draw(st.sampled_from(
            ["K0", "Q5", 5, {"n": 5, "edges": [[v, (v + 1) % 5] for v in range(5)]}]))
    elif flaw == "S":
        doc["S"] = draw(st.sampled_from([[0], [1], [1, 7], [1, 3, 5, 7.5], ["1"]]))
    elif flaw == "key":
        doc[draw(st.sampled_from(["matchng", "pair", "edges", "q_max"]))] = []
    doc["family"] = kind
    doc["matching" if kind == "k4n_matching" else "pairs"] = pairs
    return flaw is not None, doc


@settings(max_examples=50, deadline=None)
@given(family_cases())
def test_family_exit_codes_match_the_document(case):
    """Exit 2 with a JSON error exactly for a flawed family document, and
    otherwise a report (all witnesses pass on exit 0, none listed on 1)."""
    flawed, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["family", "--input", str(path), "--q-max", "64"])
    if flawed:
        assert code == 2, (code, out.getvalue())
        assert out.getvalue() == ""
        assert isinstance(json.loads(err.getvalue())["error"], str)
    else:
        assert code in (0, 1), (code, err.getvalue())
        obj = json.loads(out.getvalue())
        assert obj["all_passed"] is (code == 0)
        assert obj["provenance"]
