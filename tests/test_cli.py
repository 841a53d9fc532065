import json
import math
import subprocess
import sys

import pytest

from twinwalk.cli import main

C4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
P5 = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}
K3 = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
K4_MINUS_01 = {"n": 4, "edges": [[0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
K5 = {"n": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]}
FIG4_FIRST_PANEL = {
    "n": 8,
    "edges": [[u, v] for u in range(8) for v in range(u + 1, 8) if (v - u) % 2 == 1]
    + [[0, 4]],
}
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


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


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
        code = main(["check", "--input", path, "--from", "0", "--to", "2"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["check", "--from", "0", "--to", "2", "--time", "nan"], "--time"),
            (["check", "--from", "0", "--to", "2", "--pi-multiple", "inf"],
             "--pi-multiple"),
            (["check", "--from", "0", "--to", "2", "--time", "1", "--tol", "nan"],
             "--tol"),
            (["scan", "--from", "0", "--to", "2", "--t-max", "inf"], "--t-max"),
            (["scan", "--from", "0", "--to", "2", "--mode", "pgst",
              "--epsilons", "0.1,nan"], "--epsilons"),
        ],
    )
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, argv, option):
        path = write(tmp_path, "g.json", C4)
        code = main([argv[0], "--input", path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert option in json.loads(captured.err)["error"]


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
        with pytest.warns(UserWarning):
            code, obj = run(capsys, "family", "--input", path)
        assert code == 0
        assert obj["reports"] == []


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

    def test_missing_file(self):
        assert main(["twins", "--input", "/nonexistent/g.json"]) == 2

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_weight_exits_2(self, tmp_path, weight):
        path = tmp_path / "g.json"
        path.write_text(f'{{"n": 3, "edges": [[0, 1, {weight}], [1, 2]]}}')
        assert main(["check", "--input", str(path), "--from", "0", "--to", "2",
                     "--time", "1"]) == 2

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
