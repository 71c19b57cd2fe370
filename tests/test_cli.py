"""Command-line interface: exit codes, JSON/CSV output, serialization of
exact rationals, and manifest determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubiclab.cli import main
from conftest import make_diag5m2, make_fermat, make_wall14, make_watson5


@pytest.fixture(scope="module")
def fermat_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("polys") / "fermat.json"
    path.write_text(json.dumps(make_fermat().to_json_dict()))
    return str(path)


@pytest.fixture(scope="module")
def watson_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("polys") / "watson.json"
    path.write_text(json.dumps(make_watson5().to_json_dict()))
    return str(path)


@pytest.fixture(scope="module")
def diag5m2_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("polys") / "diag5m2.json"
    path.write_text(json.dumps(make_diag5m2().to_json_dict()))
    return str(path)


@pytest.fixture(scope="module")
def wall14_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("polys") / "wall14.json"
    path.write_text(json.dumps(make_wall14().to_json_dict()))
    return str(path)


@pytest.fixture(scope="module")
def bad_cubic_json(tmp_path_factory):
    # 2x^3 + 1 = 0: no 2-adic solution
    path = tmp_path_factory.mktemp("polys") / "bad.json"
    path.write_text(json.dumps(
        {"n": 1, "cubic": [[1, 1, 1, 2]], "quad": [], "lin": [0],
         "const": 1}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_fermat(self, capsys, fermat_json):
        code, out = run(capsys, ["analyze", "--poly", fermat_json])
        assert code == 0
        payload = json.loads(out)
        res = payload["result"]
        assert res["n"] == 3 and res["is_form"] is True
        assert res["delta_C"] == 1 and res["delta_phi"] == 0
        assert payload["manifest"]["command"] == "analyze"
        assert set(payload["manifest"]) == {"command", "inputs", "seed",
                                            "versions"}

    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["analyze", "--poly", "/nonexistent.json"])
        assert code == 1


class TestNcc:
    def test_certified(self, capsys, watson_json):
        code, out = run(capsys, ["ncc", "--poly", watson_json, "--p0", "20"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["status"] == "certified"
        assert res["P0"] == 20

    def test_violation(self, capsys, bad_cubic_json):
        code, out = run(capsys, ["ncc", "--poly", bad_cubic_json,
                                 "--p0", "5"])
        assert code == 2
        res = json.loads(out)["result"]
        assert res["status"] == "violation"
        assert res["violation"] == [2, 1]

    def test_degenerate(self, capsys, tmp_path):
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(
            {"n": 2, "cubic": [[1, 1, 1, 1]], "quad": [], "lin": [0, 0],
             "const": 0}))
        code, out = run(capsys, ["ncc", "--poly", str(path), "--p0", "5"])
        assert code == 1
        assert json.loads(out)["result"]["status"] == "degenerate"

    def test_over_budget_level_is_operational(self, capsys, wall14_json):
        # no root mod 2: only all 2^14 points prove it, which 10,000 cannot
        code = main(["ncc", "--poly", wall14_json, "--p0", "3",
                     "--budget", "10000"])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert "residue grid mod 2 needs 16384 points, budget is 10000" in err


    def test_violation_below_unreachable_level(self, capsys, wall14_json):
        # the 4^14 grid of k(2) = 2 is over budget; the 2^14 one has no root
        code, out = run(capsys, ["ncc", "--poly", wall14_json, "--p0", "5"])
        assert code == 2
        res = json.loads(out)["result"]
        assert res["status"] == "violation" and res["violation"] == [2, 1]


class TestDensities:
    def test_fermat_p2(self, capsys, fermat_json):
        code, out = run(capsys, ["densities", "--poly", fermat_json,
                                 "--p", "2", "--kmax", "2"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["rho"]["1"] == 4
        assert res["rho_star"]["1"] == 3
        assert res["k_threshold"] == 6
        assert res["rho_star_skipped"] == []

    @pytest.mark.parametrize("p", ["1", "4"])
    def test_non_prime_p_exits_one(self, capsys, fermat_json, p):
        code = main(["densities", "--poly", fermat_json, "--p", p,
                     "--kmax", "2"])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert err == "error: p must be a prime\n"

    @pytest.mark.parametrize("kmax", ["0", "-1"])
    def test_kmax_below_one_exits_one(self, capsys, fermat_json, kmax):
        code = main(["densities", "--poly", fermat_json, "--p", "2",
                     "--kmax", kmax])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert err == "error: k_max must be >= 1\n"

    def test_skipped_rho_star_levels_named(self, capsys, fermat_json):
        # the 125^3 grid of rho*(5^3) is over budget; rho(5^3) stratifies
        code, out = run(capsys, ["densities", "--poly", fermat_json, "--p",
                                 "5", "--kmax", "3", "--budget", "20000"])
        assert code == 0
        res = json.loads(out)["result"]
        assert list(res["rho"]) == ["1", "2", "3"]
        assert list(res["rho_star"]) == ["1", "2"]
        assert res["rho_star_skipped"] == [3]


class TestSeries:
    @pytest.mark.parametrize("p0", ["0", "-3"])
    def test_p0_below_one_exits_one(self, capsys, fermat_json, p0):
        code = main(["series", "--poly", fermat_json, "--p0", p0])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert err == "error: P0 must be >= 1\n"

    def test_rational_serialization(self, capsys, fermat_json):
        code, out = run(capsys, ["series", "--poly", fermat_json,
                                 "--p0", "3", "--mode", "qsum"])
        assert code == 0
        res = json.loads(out)["result"]
        parts = res["frak_value"].split("/")
        assert len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts)


class TestCount:
    def test_fermat(self, capsys, fermat_json):
        code, out = run(capsys, ["count", "--poly", fermat_json, "--P", "10"])
        assert code == 0
        assert json.loads(out)["result"]["count"] == 61

    @pytest.mark.parametrize("P", ["-1", "-3"])
    def test_negative_p_exits_one(self, capsys, fermat_json, P):
        code = main(["count", "--poly", fermat_json, "--P", P])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert err == "error: P must be >= 0\n"


@pytest.fixture(scope="module")
def box4_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("boxes") / "box_unit4.json"
    path.write_text(json.dumps({"bounds": [[0.5, 1.5]] * 4}))
    return str(path)


class TestBoxDimension:
    @pytest.mark.parametrize("argv", [["count", "--P", "4"],
                                      ["integral", "--Z", "4"]])
    def test_box_of_other_dimension_exits_one(self, capsys, watson_json,
                                              box4_json, argv):
        # watson5 has n = 5, the box 4 axes
        code = main([*argv, "--poly", watson_json, "--box", box4_json])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert err == "error: box has dim 4, expected 5\n"


class TestSearch:
    def test_found(self, capsys, fermat_json):
        code, out = run(capsys, ["search", "--poly", fermat_json])
        assert code == 0
        assert json.loads(out)["result"]["found"] == [0, 0, 0]

    def test_exhausted(self, capsys, bad_cubic_json):
        code, out = run(capsys, ["search", "--poly", bad_cubic_json,
                                 "--max-shell", "8"])
        assert code == 2
        res = json.loads(out)["result"]
        assert res["found"] is None and res["exhausted_to"] == 8


class TestExponents:
    def test_headline(self, capsys):
        code, out = run(capsys, ["exponents", "--T", "84"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["exp_u"] == "306.59"
        assert res["exp_P0"] == "549.76"
        assert res["exp_P"] == "2048.38"
        assert res["ceil_exp_P"] == 2049
        assert res["exact"]["P"] == "69645/34"

    def test_full_suite_fails(self, capsys):
        code, out = run(capsys, ["exponents", "--T", "84", "--psi", "1454.8",
                                 "--delta", "2.23"])
        assert code == 2
        res = json.loads(out)["result"]
        failed = [t["tag"] for t in res["tags"] if not t["pass"]]
        assert failed == ["S4"]
        assert res["psi_binding"] == "m9"

    def test_theorem_mode(self, capsys):
        code, out = run(capsys, ["exponents", "--theorem", "h14",
                                 "--n", "20"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["all_ok"] is True and len(res["rows"]) == 1

    def test_csv(self, capsys):
        code, out = run(capsys, ["exponents", "--theorem", "h14", "--n",
                                 "14", "--csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split(",")[0] == "n"
        assert lines[1].split(",")[0] == "14"


class TestCensus:
    def test_rows(self, capsys, fermat_json):
        code, out = run(capsys, ["census", "--poly", fermat_json,
                                 "--H", "2"])
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert {row["r"] for row in rows} <= {0, 1, 2, 3}
        # strict box |x| < H has side 2H - 1
        assert sum(row["count"] for row in rows) == 3 ** 3

    def test_bad_p_exits_one(self, capsys, fermat_json):
        code = main(["census", "--poly", fermat_json, "--H", "2",
                     "--p", "4"])
        assert code == 1
        assert "p must be a prime" in capsys.readouterr().err

    def test_python_m_cubiclab(self, fermat_json):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "cubiclab", "census", "--poly",
             fermat_json, "--H", "2"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["result"]["rows"]
        assert {row["r"]: row["count"] for row in rows} == {0: 1, 1: 6,
                                                            2: 12, 3: 8}

    def test_psi_report_refuses_p(self, capsys, fermat_json):
        code = main(["census", "--poly", fermat_json, "--H", "2",
                     "--psi-report", "--p", "4"])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert "--p" in err and "--psi-report" in err

    def test_psi_report_consistent(self, capsys, fermat_json):
        code, out = run(capsys, ["census", "--poly", fermat_json,
                                 "--H", "3", "--psi-report"])
        assert code == 0
        assert json.loads(out)["result"]["verdict"] == "consistent"


class TestProbe:
    def test_probe_row(self, capsys, fermat_json):
        code, out = run(capsys, ["probe", "--poly", fermat_json,
                                 "--q", "3", "--a", "1", "--P", "8"])
        assert code == 0
        row = json.loads(out)["result"]["rows"][0]
        assert row["|S|"] >= 0 and row["bound"] > 0

    @pytest.mark.parametrize("args,message", [
        (["--q", "0", "--a", "1"], "q = 0, a = 1, P = 10"),
        (["--q", "-3", "--a", "1"], "q = -3, a = 1, P = 10"),
        (["--q", "3", "--a", "3"], "q = 3, a = 3, P = 10"),
        (["--q", "7", "--a", "2", "--P", "0"], "q = 7, a = 2, P = 0"),
        (["--q", "7", "--a", "2", "--P", "-2"], "q = 7, a = 2, P = -2")])
    def test_bad_input_exits_one(self, capsys, fermat_json, args, message):
        code = main(["probe", "--poly", fermat_json, *args])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert err == ("error: need q >= 1, P >= 1 and gcd(a, q) = 1, "
                       f"got {message}\n")


class TestIntegral:
    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_monte_carlo_budget_below_two_points_exits_one(
            self, capsys, watson_json, budget):
        code = main(["integral", "--poly", watson_json, "--Z", "4",
                     "--budget", budget])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert "at least 2 points" in err

    def test_first_grid_over_budget_exits_one(self, capsys, fermat_json):
        code = main(["integral", "--poly", fermat_json, "--Z", "4",
                     "--budget", "100"])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert "quadrature grid (17)^3 exceeds budget" in err


class TestDeterminism:
    def test_repeat_byte_identical(self, capsys, fermat_json, tmp_path):
        box = tmp_path / "box.json"
        box.write_text(json.dumps(
            {"bounds": [[1.0, 2.0], [1.0, 2.0], [5.0, 6.0]]}))
        argv = ["integral", "--poly", fermat_json, "--Z", "4.0",
                "--seed", "11", "--box", str(box),
                "--budget", "40000000"]
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        assert out1 == out2
        assert json.loads(out1)["manifest"]["seed"] == 11

    @pytest.mark.parametrize("argv", [["count", "--P", "10"],
                                      ["search", "--max-shell", "3"]])
    def test_count_search_byte_identical(self, capsys, fermat_json, argv):
        argv = [argv[0], "--poly", fermat_json, *argv[1:]]
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("poly,argv", [
        pytest.param(poly, argv, id=argv[0]) for poly, argv in [
            ("watson_json", ["analyze"]),
            ("watson_json", ["ncc", "--p0", "7"]),
            ("watson_json", ["densities", "--p", "3", "--kmax", "2"]),
            ("watson_json", ["series", "--p0", "10", "--mode", "both"]),
            (None, ["exponents", "--T", "84", "--psi", "1"]),
            ("fermat_json", ["census", "--H", "3"]),
            ("fermat_json", ["probe", "--q", "5", "--a", "2"])]])
    def test_every_command_byte_identical(self, capsys, request, poly, argv):
        if poly:
            argv = [argv[0], "--poly", request.getfixturevalue(poly), *argv[1:]]
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        assert out1 == out2

    def test_budget_exceeded_is_operational(self, capsys, watson_json):
        code, _ = run(capsys, ["densities", "--poly", watson_json,
                               "--p", "3", "--kmax", "3",
                               "--budget", "100"])
        assert code == 1
