"""Command-line interface: exit codes, JSON/CSV output, serialization of
exact rationals, and manifest determinism."""

import ast
import inspect
import json
import os
import subprocess
import sys
import textwrap
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cubiclab import cli
from cubiclab.cli import COMMANDS, main, parse_args, usage
from conftest import make_diag5m2, make_fermat, make_wall14, make_watson5
from oracles import diagonal_zero_count


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
def x3m2y3_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("polys") / "x3m2y3.json"
    path.write_text(json.dumps(
        {"n": 2, "cubic": [[1, 1, 1, 1], [2, 2, 2, -2]], "quad": [],
         "lin": [0, 0], "const": 0}))
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


def refused(capsys, argv):
    """The stderr of a run that must exit 1 with one error line only."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestAnalyze:
    def test_fermat(self, capsys, fermat_json):
        code, out = run(capsys, ["analyze", "--poly", fermat_json])
        assert code == 0
        payload = json.loads(out)
        res = payload["result"]
        assert res["n"] == 3 and res["is_form"] is True
        assert res["delta_C"] == 1 and res["delta_phi"] == 0
        assert payload["manifest"]["command"] == "analyze"
        assert set(payload["manifest"]) == {"command", "inputs", "versions"}
        assert payload["manifest"]["inputs"] == {"poly": fermat_json}

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

    @pytest.mark.parametrize("p0", ["0", "-3"])
    def test_p0_below_one_exits_one(self, capsys, watson_json, p0):
        code = main(["ncc", "--poly", watson_json, "--p0", p0])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert err == "error: ncc: P0 must be >= 1\n"


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
        assert err == "error: densities: p must be a prime\n"

    @pytest.mark.parametrize("kmax", ["0", "-1"])
    def test_kmax_below_one_exits_one(self, capsys, fermat_json, kmax):
        code = main(["densities", "--poly", fermat_json, "--p", "2",
                     "--kmax", kmax])
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert err == "error: densities: k_max must be >= 1\n"

    def test_kmax_over_budget_exits_one(self, capsys, watson_json):
        # the levels are charged before the level loop starts
        err = refused(capsys, ["densities", "--poly", watson_json, "--p", "3",
                               "--kmax", "1000000000", "--budget", "20000"])
        assert err == ("error: densities: levels up to k_max needs "
                       "1000000000 points, budget is 20000\n")

    def test_kmax_within_budget_completes(self, capsys, watson_json):
        code, out = run(capsys, ["densities", "--poly", watson_json, "--p",
                                 "3", "--kmax", "1000", "--budget", "20000"])
        assert code == 0
        assert len(json.loads(out)["result"]["rho"]) == 1000

    def test_deep_stratified_levels_complete(self, capsys, fermat_json):
        # rho(3^80) stratifies about 26 levels deep at the origin: each step
        # lowers the level by 3, one level and a 3-content of 2
        code, out = run(capsys, ["densities", "--poly", fermat_json, "--p",
                                 "3", "--kmax", "80", "--budget", "20000"])
        assert code == 0
        assert len(json.loads(out)["result"]["rho"]) == 80

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
        assert err == "error: series: P0 must be >= 1\n"

    def test_diag5m2_reaches_p0_100(self, capsys, diag5m2_json, monkeypatch):
        # the slice kernel's 53^4 prefixes exceed the default budget; the
        # block kernel walks 5 p points and convolves 4 times p^2 products
        monkeypatch.delenv("CUBIC_LAB_BUDGET", raising=False)
        code, out = run(capsys, ["series", "--poly", diag5m2_json, "--p0",
                                 "100", "--mode", "both"])
        assert code == 0
        res = json.loads(out)["result"]
        assert not res["partial"] and res["k_used"]["97"] == 1
        for p in (53, 97):
            assert Fraction(res["factors"][str(p)]) == Fraction(
                diagonal_zero_count([1] * 5, -2, p), p**4)

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
        assert err == "error: count: P must be >= 0\n"

    def test_huge_p_refused_by_the_budget(self, capsys, fermat_json):
        # (2P + 1)^2 prefixes, sized without len() of a range past sys.maxsize
        err = refused(capsys, ["count", "--poly", fermat_json, "--P",
                               "99999999999999999999", "--budget", "100"])
        assert err == (f"error: count: solution count needs "
                       f"{(2 * 10**20 - 1)**2} points, budget is 100\n")


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
        assert err == f"error: {argv[0]}: box has dim 4, expected 5\n"

    def test_count_checks_P_before_the_box(self, capsys, watson_json,
                                            box4_json):
        err = refused(capsys, ["count", "--P", "-1", "--poly", watson_json,
                               "--box", box4_json])
        assert err == "error: count: P must be >= 0\n"


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

    def test_negative_max_shell_exits_one(self, capsys, fermat_json):
        err = refused(capsys, ["search", "--poly", fermat_json,
                               "--max-shell", "-3"])
        assert err == "error: search: max_shell must be >= 0\n"


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

    @pytest.mark.parametrize("argv", [["--psi", "5"], ["--delta", "2.2"],
                                      ["--psi", "5", "--delta", "2.2"]])
    def test_theorem_refuses_psi_and_delta(self, capsys, argv):
        # the h14 rows read neither: a given value would change nothing
        err = refused(capsys, ["exponents", "--theorem", "h14", *argv])
        assert err == ("error: exponents: --theorem reads neither --psi nor "
                       "--delta\n")

    @pytest.mark.parametrize("argv", [[], ["--theorem", "h14"]])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_refuses_n_below_one(self, capsys, argv, n):
        # --n 0 was read as absent: n = 14, or every row of the h14 check
        err = refused(capsys, ["exponents", *argv, "--n", n])
        assert err == "error: exponents: --n must be >= 1\n"

    @pytest.mark.parametrize("argv", [[], ["--T", "84", "--psi", "30"]])
    def test_csv_needs_theorem(self, capsys, argv):
        # only the theorem check prints rows
        err = refused(capsys, ["exponents", *argv, "--csv"])
        assert err == ("error: exponents: --csv needs --theorem: only its "
                       "rows are tabular\n")

    def test_huge_T_prints_every_digit(self, capsys):
        # 29-digit exponents: past the 28 digits of a default Decimal
        code, out = run(capsys, ["exponents", "--T", "1e27"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["exp_u"] == "3294117647058823529411764735.76"
        assert res["exp_P"] == "21941176470588235294117647264.15"
        assert res["ceil_exp_P"] == 21941176470588235294117647265

    def test_T_past_printable_digits_exits_one(self, capsys):
        # the exponents of --T 1e5000 have more digits than int -> str
        # prints; 4,000 digits still print whole
        limit = sys.get_int_max_str_digits() - 8
        for T in ("1e5000", f"1e{limit}"):
            err = refused(capsys, ["exponents", "--T", T])
            assert err == (f"error: exponents: --T: more than {limit} digits "
                           f"in its numerator or denominator\n")
        code, out = run(capsys, ["exponents", "--T", "1e4000"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["ceil_exp_P"] == (373 * 10**4000 + 3491) // 17 + 1
        assert res["exp_P"].startswith("2194117647058823529")
        code, out = run(capsys, ["exponents", "--T", "9" * limit])
        assert code == 0

    def test_psi_past_printable_digits_exits_one(self, capsys):
        # the psi tags' slacks hold T's digits and psi's: at T = 84 (two
        # digits) psi may have limit - 18; a numeral longer than int() reads
        # is refused by the same line
        room = sys.get_int_max_str_digits() - 18
        for psi in ("1e5000", f"1e{room}", "1" * (room + 20)):
            err = refused(capsys, ["exponents", "--psi", psi])
            assert err == (f"error: exponents: --psi: more than {room} "
                           f"digits in its numerator or denominator\n")
        for psi in (f"1e{room - 1}", "9" * room, f"1/{'7' * room}"):
            code, out = run(capsys, ["exponents", "--psi", psi])
            assert code in (0, 2)
            assert json.loads(out)["result"]["psi_binding"] == "m9"

    def test_delta_past_printable_digits_exits_one(self, capsys):
        # S4's requirement is quadratic in delta: at T = 84 and psi = 30
        # delta may have (limit - 18) // 2 digits; without psi delta is read
        # by no tag, and any delta prints
        room = (sys.get_int_max_str_digits() - 18) // 2
        for delta in ("1e2200", f"1e{room}", f"{10**room + 1}/{10**room}"):
            err = refused(capsys, ["exponents", "--psi", "30",
                                   "--delta", delta])
            assert err == (f"error: exponents: --delta: more than {room} "
                           f"digits in its numerator or denominator\n")
        for delta in (f"1e{room - 1}", f"{2 * 10**(room - 1) + 1}/"
                                       f"{10**(room - 1)}"):
            code, out = run(capsys, ["exponents", "--psi", "30",
                                     "--delta", delta])
            assert code == 2
            s4 = json.loads(out)["result"]["tags"][6]
            assert s4["tag"] == "S4" and s4["slack"] is not None
        code, out = run(capsys, ["exponents", "--delta", "1e9000"])
        assert code == 0

    @pytest.mark.parametrize("argv", [["--psi", "1/0"],
                                      ["--psi", "1", "--delta", "1/0"]])
    def test_zero_denominator_exits_one(self, capsys, argv):
        err = refused(capsys, ["exponents", *argv])
        assert err == "error: exponents: zero denominator in '1/0'\n"

    def test_delta_seven_thirds_fails_s1_and_s4(self, capsys):
        # 14 - 6 delta = 0: both tags fail with a note, nothing divides
        code = main(["exponents", "--psi", "100", "--delta", "7/3"])
        out, err = capsys.readouterr()
        assert code == 2 and not err
        res = json.loads(out)["result"]
        assert len(res["tags"]) == 21
        tags = {t["tag"]: t for t in res["tags"]}
        for tag in ("S1", "S4"):
            assert not tags[tag]["pass"] and "delta = 7/3" in tags[tag]["note"]
        assert res["psi_binding"] == "m9"


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
        assert err == ("error: probe: need q >= 1, P >= 1 and gcd(a, q) = 1, "
                       f"got {message}\n")

    @pytest.mark.parametrize("flag", ["--theta", "--psi-good"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_exits_one(self, capsys, fermat_json, flag,
                                        value):
        err = refused(capsys, ["probe", "--poly", fermat_json, "--q", "3",
                               "--a", "1", f"{flag}={value}"])
        assert err.startswith("error: probe: theta and psi must be finite")


    def test_bound_past_float_exits_one(self, capsys, fermat_json):
        err = refused(capsys, ["probe", "--poly", fermat_json, "--q", "3",
                               "--a", "1", "--theta", "1e300",
                               "--budget", "20000"])
        assert err.startswith("error: probe: the Weyl bound is not a finite "
                              "float")


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

    @pytest.mark.parametrize("poly", ["fermat_json", "watson_json"],
                             ids=["cc", "mc"])
    @pytest.mark.parametrize("Z", ["nan", "inf", "-inf"])
    def test_non_finite_z_exits_one(self, capsys, request, poly, Z):
        err = refused(capsys, ["integral", "--poly",
                               request.getfixturevalue(poly), f"--Z={Z}"])
        assert err == f"error: integral: Z must be finite, got {float(Z)}\n"

    @pytest.mark.parametrize("Z", ["0", "-4"])
    def test_non_positive_z_exits_one(self, capsys, fermat_json, Z):
        err = refused(capsys, ["integral", "--poly", fermat_json, "--Z", Z])
        assert err == f"error: integral: Z must be positive, got {float(Z)}\n"

    @pytest.mark.parametrize("poly", ["x3m2y3_json", "watson_json"],
                             ids=["cc", "mc"])
    def test_negative_seed_exits_one(self, capsys, request, poly):
        # one rule for n = 2 (Clenshaw-Curtis, which reads no seed) and
        # n = 5 (Monte-Carlo), checked before a budget of one point refuses
        # either method
        err = refused(capsys, ["integral", "--poly",
                               request.getfixturevalue(poly), "--Z", "4",
                               "--seed", "-1", "--budget", "1"])
        assert err == "error: integral: --seed must be >= 0\n"


class TestSieveBudget:
    # the sieve up to P0 is charged before it is built
    @pytest.mark.parametrize("cmd", ["ncc", "series"])
    def test_p0_over_budget_exits_one(self, capsys, watson_json, cmd):
        err = refused(capsys, [cmd, "--poly", watson_json, "--p0",
                               "1000000000", "--budget", "20000"])
        assert err == (f"error: {cmd}: primes up to P0 needs 1000000000 "
                       "points, budget is 20000\n")


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
        assert json.loads(out1)["manifest"]["inputs"]["seed"] == 11

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


def outcome(argv):
    """(exit code, stdout, stderr) of one in-process run of main."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestParser:
    # what main prints for one command line is what the parser says: the
    # command's usage line under --help (the same line the usage of every
    # command lists), else exit 1 with the parser's error as the one line
    @pytest.mark.parametrize("cmd", list(COMMANDS))
    @pytest.mark.parametrize("tail", [["--help"], [], ["--bogus"],
                                      ["--budget", "x"]],
                             ids=["help", "missing", "unknown", "bad-value"])
    def test_one_command_parser_prints_the_same(self, cmd, tail):
        if cmd == "exponents" and not tail:
            tail = ["--T"]  # it requires no argument: a missing value
        argv = [cmd, *tail]
        code, out, err = outcome(argv)
        if tail == ["--help"]:
            assert (code, out, err) == (0, f"usage: {usage(cmd)}\n", "")
            assert f" {usage(cmd)}\n" in outcome(["--help"])[1]
            return
        with pytest.raises(ValueError) as exc:
            parse_args(argv)
        assert (code, out, err) == (1, "", f"error: {exc.value}\n")
        assert err.startswith(f"error: {cmd}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,code", [([], 1), (["bogus"], 1),
                                           (["--help"], 0), (["-h"], 0)],
                             ids=["none", "unknown", "help", "h"])
    def test_no_command_builds_every_parser(self, argv, code):
        got, out, err = outcome(argv)
        assert got == code
        if argv == ["bogus"]:
            assert not out and err == (
                "error: unknown command 'bogus' (choose from analyze, ncc, "
                "densities, series, integral, count, search, exponents, "
                "census, probe)\n")
            return
        assert not err
        assert out.splitlines() == [("usage: " if i == 0 else " " * 7)
                                    + usage(name)
                                    for i, name in enumerate(COMMANDS)]

    def test_usage_lines(self):
        assert usage("count") == ("cubiclab count --poly POLY --P P "
                                  "[--budget BUDGET] [--box BOX]")
        assert usage("series") == (
            "cubiclab series --poly POLY --p0 P0 [--budget BUDGET] "
            "[--mode {euler,qsum,both}]")
        assert usage("analyze") == "cubiclab analyze --poly POLY"
        assert usage("census") == ("cubiclab census --poly POLY --H H "
                                   "[--budget BUDGET] [--csv] [--p P] "
                                   "[--psi-report]")
        assert usage("search").endswith("[--max-shell MAX_SHELL]")

    def test_a_named_command_builds_one_parser(self, monkeypatch,
                                               fermat_json):
        # a call naming a command reads that command's specs only
        class Unread:
            def __iter__(self):
                raise AssertionError("another command's specs were read")

        for name, (func, _) in list(COMMANDS.items()):
            if name != "count":
                monkeypatch.setitem(COMMANDS, name, (func, Unread()))
        assert outcome(["count", "--poly", fermat_json, "--P", "2"])[0] == 0
        assert outcome(["count", "--help"])[0] == 0
        assert outcome(["count", "--P", "x"])[0] == 1

    @pytest.mark.parametrize("argv,value", [
        (["--a", "-1", "--theta", "-0.5"], (-1, -0.5)),
        (["--a=-1", "--theta=-0.5"], (-1, -0.5)),
        (["--a", "3", "--a", "-4", "--theta", "1e-3"], (-4, 0.001))])
    def test_negative_and_repeated_values(self, argv, value):
        args = parse_args(["probe", "--poly", "f", "--q", "5", *argv])
        assert (args.a, args.theta) == value

    @pytest.mark.parametrize("argv,error", [
        (["search", "--poly", "f", "--max", "3"],
         "search: unrecognized argument '--max'"),
        (["census", "--poly", "f", "--H", "1", "--csv=yes"],
         "census: --csv takes no value"),
        (["count", "--poly", "f", "--P", "--csv"],
         "count: --P: expected a value"),
        (["count", "--poly", "f", "--P", "abc"],
         "count: --P: invalid int value 'abc'"),
        (["count", "--budget", "2"], "count: required: --poly, --P"),
        (["series", "--poly", "f", "--p0", "3", "--mode", "sum"],
         "series: --mode: invalid choice 'sum' (choose from euler, qsum, "
         "both)"),
        (["exponents", "--T", "1/0"], "exponents: --T: invalid Fraction value "
                                      "'1/0'"),
        (["count", "f.json"], "count: unrecognized argument 'f.json'")])
    def test_malformed_line_names_its_fault(self, argv, error):
        assert outcome(argv) == (1, "", f"error: {error}\n")

    def test_every_handler_listed_once(self):
        handlers = {f for name, f in vars(cli).items()
                    if name.startswith("cmd_")}
        listed = [func for func, _ in COMMANDS.values()]
        assert len(listed) == len(set(listed)) and set(listed) == handlers
        assert all(COMMANDS[name][0].__name__ == f"cmd_{name}"
                   for name in COMMANDS)


# -- the parser contract, drawn from the specs ------------------------------

SPECS = {name: specs for name, (_, specs) in COMMANDS.items()}
BAD_VALUES = {int: ["abc", "1.5", "", "0x10"], float: ["abc", "1/2", ""],
              Fraction: ["abc", "1/0", "1.2.3"]}


def _token_and_value(kwargs):
    """A strategy of (command-line text, the typed value it must parse to)."""
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"]).map(lambda v: (v, v))
    kind = kwargs.get("type")
    if kind is int:
        values = st.integers(-10**12, 10**12)
    elif kind is float:
        values = st.floats(allow_nan=False, allow_infinity=False)
    elif kind is Fraction:
        values = st.fractions(max_denominator=10**6)
    else:  # a path or an exact decimal
        return st.text("ab/._=-0179", min_size=1, max_size=10).filter(
            lambda t: not t.startswith("--")).map(lambda v: (v, v))
    return values.map(lambda v: (repr(v) if kind is float else str(v), v))


@st.composite
def command_lines(draw):
    """(command, token groups, expected values): each group is one flag
    and its value, in random order, in both `--f v` and `--f=v` form."""
    name = draw(st.sampled_from(list(SPECS)))
    chosen = [(flag, kw) for flag, kw in SPECS[name]
              if kw.get("required") or draw(st.booleans())]
    groups, values = [], {}
    for flag, kw in draw(st.permutations(chosen)):
        if kw.get("action") == "store_true":
            groups.append([flag])
            values[flag] = True
            continue
        text, values[flag] = draw(_token_and_value(kw))
        groups.append([f"{flag}={text}"] if draw(st.booleans())
                      else [flag, text])
    return name, groups, values


@st.composite
def defective_lines(draw):
    """A well-formed line with one defect injected."""
    name, groups, _ = draw(command_lines())
    specs = dict(SPECS[name])
    flags = [g[0].partition("=")[0] for g in groups]
    valued = [i for i, f in enumerate(flags)
              if specs[f].get("action") != "store_true"]
    toggles = [f for f, kw in specs.items() if kw.get("action") == "store_true"]
    defects = ["unknown flag"]
    if toggles:
        defects.append("store_true value")
    if any(kw.get("required") for kw in specs.values()):
        defects.append("dropped required flag")
    if valued:
        defects.append("dropped value")
    if any(specs[flags[i]].get("type") in BAD_VALUES for i in valued):
        defects.append("untypeable value")
    if any("choices" in specs[flags[i]] for i in valued):
        defects.append("out-of-choice value")
    defect = draw(st.sampled_from(defects))
    if defect == "unknown flag":
        bogus = draw(st.sampled_from(["--bogus", "--Poly", "-x", "--max",
                                      "stray", "--q=3" if name != "probe"
                                      else "--H=3"]))
        groups.insert(draw(st.integers(0, len(groups))), [bogus])
    elif defect == "store_true value":
        groups.insert(draw(st.integers(0, len(groups))),
                      [draw(st.sampled_from(toggles)) + "=1"])
    elif defect == "dropped required flag":
        required = [f for f, kw in specs.items() if kw.get("required")]
        drop = draw(st.sampled_from(required))
        groups = [g for g, f in zip(groups, flags) if f != drop]
    else:
        pick = [i for i in valued
                if defect == "dropped value"
                or (defect == "untypeable value"
                    and specs[flags[i]].get("type") in BAD_VALUES)
                or (defect == "out-of-choice value"
                    and "choices" in specs[flags[i]])]
        i = draw(st.sampled_from(pick))
        kw = specs[flags[i]]
        if defect == "dropped value":
            bad = None
        elif defect == "untypeable value":
            bad = draw(st.sampled_from(BAD_VALUES[kw["type"]]))
        else:
            bad = "bogus"
        groups[i] = [flags[i]] if bad is None else [flags[i], bad]
    return [name, *(t for g in groups for t in g)], defect


def record_handlers(mp):
    """Replace every handler by one that records its arguments, and the
    polynomial loader by a stub; returns (the recorder, its calls)."""
    calls = []

    def record(phi, args):
        calls.append(args)
        return {"rows": []}, 0  # rows, for the lines that give --csv

    for name, (_, specs) in list(COMMANDS.items()):
        mp.setitem(COMMANDS, name, (record, specs))
    mp.setattr(cli, "_load_poly", lambda path: None)
    return record, calls


class TestParserContract:
    @settings(max_examples=300, deadline=None)
    @given(line=command_lines())
    def test_well_formed_line_reaches_its_handler(self, line):
        name, groups, values = line
        with pytest.MonkeyPatch.context() as mp:
            record, calls = record_handlers(mp)
            code, _, err = outcome([name, *(t for g in groups for t in g)])
        assert (code, err) == (0, "")
        [args] = calls
        expected = [("command", name)] + [
            (cli._dest(flag), values.get(flag, kw.get(
                "default", False if kw.get("action") else None)))
            for flag, kw in SPECS[name]] + [("func", record)]
        assert list(vars(args).items()) == expected

    @settings(max_examples=300, deadline=None)
    @given(line=defective_lines())
    def test_defective_line_exits_one(self, line):
        argv, _ = line
        with pytest.MonkeyPatch.context() as mp:
            _, calls = record_handlers(mp)
            code, out, err = outcome(argv)
        assert (code, out, calls) == (1, "", [])
        assert err.startswith("error: ") and err.count("\n") == 1


# sizes at and around the shells whose prefixes meet the budgets below,
# negative and huge ones; budgets at those prefix counts, negative, and huge
# ones, which are drawn only with the small sizes (at most 1 for wall14's
# 14 variables)
SMALL_SIZES = [0, 1, 2, 3, 4, 5, 8, 9, 16, 17]
BUDGETS = [8, 9, 24, 25, 48, 49, 80, 81, 6560, 6561, 10**4]


@st.composite
def lattice_lines(draw):
    """(poly fixture, argv tail): a search or count line whose --max-shell
    or --P and --budget are drawn across 0, negative, boundary and huge
    values; without --budget the environment's small budget holds."""
    poly = draw(st.sampled_from(["fermat_json", "watson_json",
                                 "diag5m2_json", "wall14_json"]))
    budget = draw(st.one_of(st.none(), st.integers(-3, 0),
                            st.sampled_from(BUDGETS),
                            st.sampled_from([2**63, 10**30])))
    sizes = st.sampled_from(SMALL_SIZES if poly != "wall14_json"
                            else [0, 1])
    if budget is None or budget < 2**63:
        sizes = st.one_of(sizes, st.integers(-10**6, -1),
                          st.sampled_from([10**6, 2**63, 10**30]))
    flag = draw(st.sampled_from(["--max-shell", "--P"]))
    tail = ["search" if flag == "--max-shell" else "count",
            flag, str(draw(sizes))]
    if budget is not None:
        tail += ["--budget", str(budget)]
    return poly, tail


class TestLatticeContract:
    @settings(max_examples=200, deadline=None)
    @given(line=lattice_lines())
    def test_search_and_count_exit_cleanly(self, request, line):
        poly, (cmd, *tail) = line
        argv = [cmd, "--poly", request.getfixturevalue(poly), *tail]
        start = time.perf_counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("CUBIC_LAB_BUDGET", "10000")
            code, out, err = outcome(argv)
        assert time.perf_counter() - start < 30
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 1:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == "" and json.loads(out)["manifest"]["command"] == cmd


def _no_constant(name):
    raise AssertionError(f"non-JSON constant {name} in the payload")


class TestStrictJson:
    CASES = {
        "analyze": ("watson_json", []),
        "ncc": ("watson_json", ["--p0", "7"]),
        "densities": ("watson_json", ["--p", "3", "--kmax", "2"]),
        "series": ("watson_json", ["--p0", "10"]),
        "integral": ("watson_json", ["--Z", "4", "--budget", "2000"]),
        "count": ("fermat_json", ["--P", "10"]),
        "search": ("fermat_json", ["--max-shell", "3"]),
        "exponents": (None, ["--psi", "1454.8", "--delta", "2.23"]),
        "census": ("fermat_json", ["--H", "3"]),
        "probe": ("fermat_json", ["--q", "5", "--a", "2"]),
    }

    def test_every_command_has_a_case(self):
        assert set(self.CASES) == set(COMMANDS)

    @pytest.mark.parametrize("cmd", list(CASES))
    def test_payload_is_strict_json(self, capsys, request, cmd):
        poly, tail = self.CASES[cmd]
        argv = [cmd, *tail]
        if poly:
            argv[1:1] = ["--poly", request.getfixturevalue(poly)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2) and not err
        payload = json.loads(out, parse_constant=_no_constant)
        assert payload["manifest"]["command"] == cmd

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_result_exits_one(self, capsys, monkeypatch,
                                         fermat_json, value):
        # main serialises every handler's result: a NaN or an infinity is
        # refused before anything is printed
        specs = COMMANDS["analyze"][1]
        monkeypatch.setitem(COMMANDS, "analyze", (
            lambda phi, args: ({"value": value}, 0), specs))
        err = refused(capsys, ["analyze", "--poly", fermat_json])
        assert "not JSON compliant" in err

    def test_handler_returns_without_printing(self, capsys, fermat_json):
        args = parse_args(["count", "--poly", fermat_json, "--P", "10"])
        result, code = args.func(cli._load_poly(fermat_json), args)
        assert code == 0 and result.count == 61
        assert capsys.readouterr() == ("", "")


_X3M2Y3 = {"n": 2, "cubic": [[1, 1, 1, 1], [2, 2, 2, -2]], "quad": [],
           "lin": [0, 0], "const": 0}


class TestMalformedInput:
    # a polynomial or box file outside README's JSON format, a Z whose
    # phase overflows or has no fractional part, or a seed past 2^64, is
    # refused with one error line naming the command:
    # never read as a nearby value, never a traceback or a numpy warning.
    # Each case: (fields replacing x3m2y3's, box file text, command line)
    COUNT, INTEGRAL = ["count", "--P", "1"], ["integral", "--Z", "1"]
    CASES = {
        "const-float": ({"const": 1.5}, None, COUNT),
        "coefficient-float": ({"cubic": [[1, 1, 1, 1.7]]}, None, COUNT),
        "coefficient-string": ({"cubic": [[1, 1, 1, "7"]]}, None, COUNT),
        "coefficient-bool": ({"cubic": [[1, 1, 1, True]]}, None, COUNT),
        "index-float": ({"cubic": [[1.5, 1, 1, 1]]}, None, COUNT),
        "n-float": ({"n": 2.5}, None, COUNT),
        "n-bool": ({"n": True, "cubic": [[1, 1, 1, 1]], "lin": [0]}, None,
                   COUNT),
        "cubic-not-a-list": ({"cubic": 5}, None, COUNT),
        "lin-not-a-list": ({"lin": 5}, None, COUNT),
        "n-zero-count": ({"n": 0, "cubic": [], "lin": []}, None, COUNT),
        "n-zero-integral": ({"n": 0, "cubic": [], "lin": []}, None, INTEGRAL),
        "n-zero-series": ({"n": 0, "cubic": [], "lin": []}, None,
                          ["series", "--p0", "5"]),
        "bounds-number-count": ({}, '{"bounds": 5}', COUNT),
        "bounds-number-integral": ({}, '{"bounds": 5}', INTEGRAL),
        "bound-infinite-count": ({}, '{"bounds": [[0, Infinity], [0, 1]]}',
                                 COUNT),
        "bound-infinite-integral": (
            {}, '{"bounds": [[0, Infinity], [0, 1]]}', INTEGRAL),
        "bound-nan-integral": ({}, '{"bounds": [[0, NaN], [0, 1]]}',
                               INTEGRAL),
        "Z-overflows": ({}, None, ["integral", "--Z", "1e308"]),
        # 2 Z C(x) reaches 2^52 on the box, where no float phase has a
        # fractional part; a seed past the 64-bit key
        "Z-phase-without-fraction": ({}, None, ["integral", "--Z", "1e14"]),
        "seed-past-64-bits": ({}, None, ["integral", "--Z", "1", "--seed",
                                         str(2**64)]),
        "weight-past-floats-integral": (
            {"cubic": [[1, 1, 1, 10**400]]}, None, INTEGRAL),
        # an integral over a box with an axis lo > hi, by Clenshaw-Curtis
        # and by Monte-Carlo
        "box-reversed-integral": ({}, '{"bounds": [[0, 1], [1, 0]]}',
                                  INTEGRAL),
        "box-reversed-monte-carlo": (
            {"n": 4, "cubic": [[1, 1, 1, 1], [2, 2, 2, 1], [3, 3, 3, 1],
                               [4, 4, 4, -1]], "lin": [0] * 4},
            '{"bounds": [[0.5, 1.5], [1.5, 0.5], [0.5, 1.5], [0.5, 1.5]]}',
            ["integral", "--Z", "4"]),
        # a height whose series tail bound overflows, or has no float
        "height-tail-overflows-series": ({"cubic": [[1, 1, 1, 10**200]]},
                                         None, ["series", "--p0", "2"]),
        "height-past-floats-series": ({"cubic": [[1, 1, 1, 10**400]]}, None,
                                      ["series", "--p0", "2"]),
        # a count whose scaled box leaves the floats, or whose axis has more
        # integers than a walk can index
        "bound-scaled-infinite-count": (
            {}, '{"bounds": [[0, 1e308], [0, 1]]}', ["count", "--P", "10"]),
        "P-past-floats-count": ({}, '{"bounds": [[0, 1], [0, 1]]}',
                                ["count", "--P", "1" + "0" * 400]),
        "axis-too-long-box-count": (
            {}, '{"bounds": [[0, 1e300], [0, 1]]}', ["count", "--P", "10"]),
        "axis-too-long-count": (
            {"n": 1, "cubic": [[1, 1, 1, 2]], "lin": [0], "const": 1}, None,
            ["count", "--P", "100000000000000000000", "--budget", "10"]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_with_one_error_line(self, tmp_path, case):
        fields, box, (cmd, *tail) = self.CASES[case]
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({**_X3M2Y3, **fields}))
        argv = [cmd, "--poly", str(poly), *tail]
        if box:
            (tmp_path / "box.json").write_text(box)
            argv += ["--box", str(tmp_path / "box.json")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = outcome(argv)
        assert (code, out, caught) == (1, "", [])
        assert err.startswith(f"error: {cmd}: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestEveryFlagIsLive:
    # a flag a command offers changes what it does: its handler reads it,
    # and --csv, which _emit reads, prints the rows as CSV
    CSV_CASES = {**TestStrictJson.CASES,
                 "exponents": (None, ["--theorem", "h14", "--n", "14"])}

    @pytest.mark.parametrize("cmd", list(COMMANDS))
    def test_handler_reads_every_flag(self, cmd):
        func, specs = COMMANDS[cmd]
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        offered = {cli._dest(flag) for flag, _ in specs} - {"poly", "csv"}
        assert offered <= read, sorted(offered - read)

    @pytest.mark.parametrize("cmd", [name for name, (_, specs) in
                                     COMMANDS.items() if "--csv" in dict(specs)])
    def test_csv_prints_rows(self, capsys, request, cmd):
        poly, tail = self.CSV_CASES[cmd]
        if poly:
            tail = ["--poly", request.getfixturevalue(poly), *tail]
        code = main([cmd, *tail, "--csv"])
        out, err = capsys.readouterr()
        assert code in (0, 2) and not err
        lines = out.splitlines()
        assert len(lines) >= 2 and not out.startswith("{")
        width = lines[0].count(",")
        assert width and all(line.count(",") == width for line in lines)
