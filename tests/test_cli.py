import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import momexp
from momexp import (
    CMatrix,
    GaussianRational,
    TruncationPolicy,
    eval_exp,
    jordan_decompose,
    matrix_from_json,
    matrix_to_json,
    parse_specifier,
    solve,
    verify_decomposition,
)
from momexp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_matrix(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json(m)))
    return str(path)


@pytest.fixture
def identity2(tmp_path):
    return write_matrix(tmp_path, "I.json", CMatrix.identity(2, "float"))


@pytest.fixture
def identity2_exact(tmp_path):
    return write_matrix(tmp_path, "Iq.json", CMatrix.identity(2))


@pytest.fixture
def example1(tmp_path):
    return write_matrix(
        tmp_path, "ex1.json", CMatrix([[1.0, 0, 1], [1, 2, 0], [0, 0, 1]])
    )


class TestEval:
    def test_geometric_identity(self, capsys, identity2):
        code, doc = run(
            capsys, "eval", "--matrix", identity2, "--z", "1,0", "--moment", "geom:2"
        )
        assert code == 0
        assert doc["status"] == "converged"
        assert abs(doc["value"]["entries"][0][0][0] - 2.0) < 1e-10
        assert abs(doc["value"]["entries"][0][1][0]) < 1e-14

    def test_geometric_exact_backend(self, capsys, identity2_exact):
        code, doc = run(
            capsys, "eval", "--matrix", identity2_exact, "--z", "1,0",
            "--moment", "geom:2",
        )
        assert code == 0
        assert doc["value"]["entries"][0][0] == ["2", "0"]

    def test_radius_exceeded_exit_3(self, capsys, identity2):
        code, doc = run(
            capsys, "eval", "--matrix", identity2, "--z", "3,0", "--moment", "geom:2"
        )
        assert code == 3
        assert doc["status"] == "radius_exceeded"

    def test_geometric_float_sigma_rule(self, capsys, tmp_path):
        # rho = 0.5, but I - A fails the sigma rule: the terms are summed
        path = write_matrix(tmp_path, "S.json", CMatrix([[0.5, 1e13], [0.0, 0.5]]))
        code, doc = run(capsys, "eval", "--matrix", path, "--moment", "geom:1")
        assert code == 0 and doc["status"] == "converged"
        got = [[complex(*x) for x in r] for r in doc["value"]["entries"]]
        for g, w in zip(sum(got, []), (2, 4e13, 0, 2)):
            assert abs(g - w) <= 1e-12 * 4e13
        code, doc = run(capsys, "solve", "--matrix", path, "--moment", "geom:1",
                        "--v0", "[[1,0],[1,0]]", "--z", "1")
        assert code == 0 and doc["results"][0]["status"] == "converged"

    @pytest.mark.parametrize("m, moment, code, status", [
        (CMatrix([[Fraction(5, 13), Fraction(-12, 13)], [Fraction(12, 13), Fraction(5, 13)]]),
         "geom:1", 3, "radius_exceeded"),
        (CMatrix([[0, 10**400], [0, 0]]), "geom:1", 0, "converged"),
        # decided exactly, so an entry with no float is no numeric failure
        (CMatrix([[1, 0], [0, 10**400]]), "geom:2", 3, "radius_exceeded"),
    ], ids=["rotation-rho-one", "nilpotent-past-float-range", "diagonal-past-float-range"])
    def test_geometric_exact_radius(self, capsys, tmp_path, m, moment, code, status):
        path = write_matrix(tmp_path, "Q.json", m)
        got, doc = run(capsys, "eval", "--matrix", path, "--moment", moment)
        assert (got, doc["status"]) == (code, status)
        if code == 0:
            assert matrix_from_json(doc["value"]) == (CMatrix.identity(2) - m).inverse()

    def test_no_exact_radius_decision_reads_a_float_spectrum(self, capsys, tmp_path,
                                                             monkeypatch):
        # the rotation has rho = 1: z = 1/2, 1 and 2 put Az inside, on and
        # outside the radius of geom:1
        def eigvals(a):
            raise AssertionError("a float spectrum was read")

        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        A = CMatrix([[Fraction(5, 13), Fraction(-12, 13)], [Fraction(12, 13), Fraction(5, 13)]])
        v = (GaussianRational(1), GaussianRational(2))
        seq = parse_specifier("geom:1")
        sol = solve(A, v, seq)
        path = write_matrix(tmp_path, "R.json", A)
        for z, status in ((Fraction(1, 2), "converged"), (1, "radius_exceeded"),
                          (2, "radius_exceeded")):
            rep, vrep = eval_exp(A, z, seq), sol.evaluate_report(z)
            assert (rep.status, vrep.status) == (status, status)
            if status == "converged":
                inv = (CMatrix.identity(2) - A.scale(z)).inverse()
                assert rep.value == inv
                assert vrep.value == tuple(r[0] + 2 * r[1] for r in inv.rows)
            code = 0 if status == "converged" else 3
            got, doc = run(capsys, "eval", "--matrix", path, "--moment", "geom:1",
                           "--z", str(float(z)))
            assert (got, doc["status"]) == (code, status)
            got, doc = run(capsys, "solve", "--matrix", path, "--moment", "geom:1",
                           "--v0", '[["1","0"],["2","0"]]', "--z", str(float(z)))
            assert (got, doc["results"][0]["status"]) == (code, status)

    @pytest.mark.parametrize("z, code, status", [
        ("1", 3, "radius_exceeded"), ("-1", 3, "radius_exceeded"), ("0,1", 3, "radius_exceeded"),
        ("0.5", 0, "converged"),
    ])
    def test_solve_decides_the_exact_radius(self, capsys, tmp_path, z, code, status):
        # the exact rotation has rho = 1, its float copy rho just below 1
        A = CMatrix([[Fraction(5, 13), Fraction(-12, 13)], [Fraction(12, 13), Fraction(5, 13)]])
        path = write_matrix(tmp_path, "R.json", A)
        got, doc = run(capsys, "solve", "--matrix", path, "--moment", "geom:1",
                       "--v0", '[["1","0"],["2","0"]]', "--z", z)
        (result,) = doc["results"]
        assert (got, result["status"]) == (code, status)
        if code == 0:
            want = (CMatrix.identity(2) - A.scale(Fraction(1, 2))).inverse().to_float()
            y = [complex(*x) for x in result["y"]]
            for g, row in zip(y, want.rows):
                assert abs(g - (row[0] + 2 * row[1])) <= 1e-14
        else:
            assert result["y"] is None

    @pytest.mark.parametrize("v0", ['[["1","0"],["2","0"]]', "[[1,0],[2,0]]"],
                             ids=["exact-v0", "float-v0"])
    def test_solve_exact_closed_form_inside_the_radius(self, capsys, tmp_path, v0):
        # P J_2(1 - 1e-12) P^-1 has rho = 1 - 1e-12, though its float rho
        # reads 1 + 3.8e-8: the value is the exact (I - A)^{-1} v0, rounded
        a = 1 - Fraction(1, 10**12)
        P = CMatrix([[1, 2], [3, 7]])
        A = P @ CMatrix([[a, 1], [0, a]]) @ P.inverse()
        path = write_matrix(tmp_path, "NEAR.json", A)
        code, doc = run(capsys, "solve", "--matrix", path, "--moment", "geom:1",
                        "--v0", v0, "--z", "1")
        (result,) = doc["results"]
        assert (code, result["status"]) == (0, "converged")
        inv = (CMatrix.identity(2) - A).inverse()
        assert [complex(*y) for y in result["y"]] == [complex(r[0] + 2 * r[1]) for r in inv.rows]

    def test_eval_exact_closed_form_at_a_float_z(self, capsys, tmp_path):
        # the same matrix at z = 1.0000000000001, exact rho(Az) = 1 - 9e-13:
        # eval reads z as the binary rational it is, as solve does, so both
        # verbs decide the radius exactly and print the exact value, rounded
        a = 1 - Fraction(1, 10**12)
        P = CMatrix([[1, 2], [3, 7]])
        A = P @ CMatrix([[a, 1], [0, a]]) @ P.inverse()
        path = write_matrix(tmp_path, "NEAR.json", A)
        z = "1.0000000000001"
        code, doc = run(capsys, "eval", "--matrix", path, "--moment", "geom:1", "--z", z)
        assert (code, doc["status"], doc["terms_used"], doc["tail_estimate"]) == (
            0, "converged", 0, 0.0)
        inv = (CMatrix.identity(2) - A.scale(Fraction(float(z)))).inverse().to_float()
        got = [[complex(*x) for x in row] for row in doc["value"]["entries"]]
        assert got == [list(row) for row in inv.rows]
        code, doc = run(capsys, "solve", "--matrix", path, "--moment", "geom:1",
                        "--v0", '[["1","0"],["0","0"]]', "--z", z)
        (result,) = doc["results"]
        assert (code, result["status"]) == (0, "converged")
        assert [complex(*y) for y in result["y"]] == [row[0] for row in got]

    @pytest.mark.parametrize("z, want", [
        ("1", [["1", "1", "1/3"], ["0", "1", "1"], ["0", "0", "1"]]),
        ("2", [["1", "2", "4/3"], ["0", "1", "2"], ["0", "0", "1"]]),
        ("0.5", [[1.0, 0.5, 0.25 / 3], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]]),
    ], ids=["1", "2", "0.5"])
    def test_exact_series_without_a_closed_form(self, capsys, tmp_path, z, want):
        # qfac:2 has no closed form: the exact shift N is summed exactly at an
        # integer z, to I + zN + z^2 N^2 / [2]_q! with [2]_q! = 3, and printed
        # exactly; at any other z it is summed and printed in floats
        N = CMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        path = write_matrix(tmp_path, "N.json", N)
        code, doc = run(capsys, "eval", "--matrix", path, "--moment", "qfac:2", "--z", z)
        assert (code, doc["status"]) == (0, "converged")
        zero = "0" if isinstance(want[0][0], str) else 0.0
        assert doc["value"]["entries"] == [[[x, zero] for x in row] for row in want]

    @pytest.mark.parametrize("moment", ["factorial", "qfac:2"])
    def test_nonzero_trace_skips_the_exact_series(self, capsys, tmp_path, monkeypatch,
                                                  moment):
        # tr A = 3 shows that A is not nilpotent, so the exact series could not
        # end: eval sums only A.to_float(), and prints its float copy's document
        backends = []

        def spy(A, *args):
            backends.append(A.backend)
            return eval_exp(A, *args)

        monkeypatch.setattr("momexp.cli.eval_exp", spy)
        A = CMatrix([[1, 1], [0, 2]])
        argv = ["--moment", moment, "--z", "1"]
        doc = run(capsys, "eval", "--matrix", write_matrix(tmp_path, "A.json", A), *argv)
        fdoc = run(capsys, "eval", "--matrix",
                   write_matrix(tmp_path, "Af.json", A.to_float()), *argv)
        assert doc == fdoc and doc[0] == 0
        assert backends == ["float", "float"]
        # at z = 0 the series ends at once, so it is summed and printed exactly
        code, doc = run(capsys, "eval", "--matrix", str(tmp_path / "A.json"),
                        "--moment", moment, "--z", "0")
        assert code == 0 and backends[2:] == ["exact"]
        assert doc["value"] == matrix_to_json(CMatrix.identity(2))

    def test_both_paths_report_discrepancy(self, capsys, example1):
        code, doc = run(
            capsys, "eval", "--matrix", example1, "--z", "0.3,0",
            "--moment", "factorial", "--path", "both",
        )
        assert code == 0
        assert doc["discrepancy"] <= 1e-10

    def test_value_round_trips(self, capsys, example1):
        code, doc = run(
            capsys, "eval", "--matrix", example1, "--z", "0.5,0.1",
            "--moment", "ml:2",
        )
        assert code == 0
        m = matrix_from_json(doc["value"])
        assert matrix_to_json(m) == doc["value"]

    def test_stdout_is_strict_json(self, capsys, identity2):
        def reject(name):
            raise AssertionError(f"stdout holds the non-JSON constant {name}")

        code = main(["eval", "--matrix", identity2, "--z", "3,0", "--moment", "geom:2"])
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == 3
        assert doc["tail_estimate"] is None

    def test_exact_non_nilpotent_stops(self, capsys, tmp_path):
        # the exact series is infinite, so eval sums A.to_float() instead
        A = CMatrix([[1, 1], [0, 2]])
        path = write_matrix(tmp_path, "A.json", A)
        fpath = write_matrix(tmp_path, "Af.json", A.to_float())
        code, doc = run(capsys, "eval", "--matrix", path, "--moment", "factorial")
        assert code == 0
        assert doc == run(capsys, "eval", "--matrix", fpath, "--moment", "factorial")[1]
        assert doc["status"] == "converged"
        assert doc["value"]["entries"][0][0][0] == pytest.approx(2.718281828459045)

    @pytest.mark.parametrize("path", ["series", "both"])
    def test_exact_infinite_series_falls_back_to_float(self, capsys, tmp_path, path):
        A = CMatrix([[1, 0], [2, 3]])
        argv = ["--moment", "factorial", "--z", "1,0", "--path", path]
        exact = write_matrix(tmp_path, "E.json", A)
        code, doc = run(capsys, "eval", "--matrix", exact, *argv)
        fcode, fdoc = run(capsys, "eval", "--matrix",
                          write_matrix(tmp_path, "Ef.json", A.to_float()), *argv)
        assert (code, doc) == (fcode, fdoc) and code == 0
        if path == "both":
            assert 0.0 <= doc["discrepancy"] <= 1e-10

    def test_jordan_path_with_moments_past_float_range(self, capsys, tmp_path):
        # 16 x 16 Jordan block: the entry (0, 15) divides by m(15) ~ 1e315
        n = 16
        J = CMatrix([[0.5 if j == i else 1.0 if j == i + 1 else 0.0 for j in range(n)]
                     for i in range(n)])
        path = write_matrix(tmp_path, "J.json", J)
        argv = ["eval", "--matrix", path, "--moment", "qfac:1000", "--path"]
        code, doc = run(capsys, *argv, "jordan")  # stdout is one JSON document
        assert code == 0 and doc["status"] == "converged"
        series = run(capsys, *argv, "series")[1]
        got = matrix_from_json(doc["value"])
        assert (got - matrix_from_json(series["value"])).row_sum_norm() <= 1e-12

    @pytest.mark.parametrize("argv, status", [
        (["--moment", "geom:2"], "radius_exceeded"),
        (["--moment", "factorial", "--z", "3", "--max-terms", "6"], "max_terms_reached"),
    ], ids=["radius_exceeded", "max_terms_reached"])
    def test_both_paths_when_one_does_not_converge(self, capsys, tmp_path, argv, status):
        path = write_matrix(tmp_path, "A.json", CMatrix([[3.0, 1], [0, -1]]))
        code, doc = run(capsys, "eval", "--matrix", path, *argv, "--path", "both")
        assert code == 3  # and stdout is one JSON document
        assert doc["status"] == status and doc["discrepancy"] is None
        if status == "radius_exceeded":
            assert doc["value"] is None

    def test_divergent_sum_exit_3(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "A.json", CMatrix([[300.0, 0], [0, 1]]))
        code, doc = run(capsys, "eval", "--matrix", path, "--moment", "factorial")
        assert code == 3
        assert doc["status"] == "aborted_divergent" and doc["value"] is None

    def test_deterministic_output(self, capsys, example1):
        argv = ["eval", "--matrix", example1, "--moment", "factorial"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestSolve:
    def test_basic(self, capsys, example1):
        code, doc = run(
            capsys, "solve", "--matrix", example1, "--moment", "factorial",
            "--v0", "[[1,0],[0,0],[1,0]]", "--z", "0,0", "--z", "0.5,0",
        )
        assert code == 0
        first = doc["results"][0]
        assert first["status"] == "converged"
        assert first["y"][0][0] == pytest.approx(1.0)
        assert first["y"][2][0] == pytest.approx(1.0)

    def test_residual_check_exact(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "A.json", CMatrix([[1, 0], [2, 3]]))
        code, doc = run(
            capsys, "solve", "--matrix", path, "--moment", "qfac:2",
            "--v0", '[["1","0"],["2","0"]]', "--check", "residual",
        )
        assert code == 0
        assert doc["residual"] == 0.0

    @pytest.mark.parametrize("moment", ["factorial", "geom:2"])
    @pytest.mark.parametrize("z", [[], ["--z", "0.5"]], ids=["no-z", "z"])
    def test_float_v0_on_an_exact_matrix(self, capsys, tmp_path, moment, z):
        # a float --v0 is read as the binary rationals it is: the exact
        # residual, and the document of its "p/q" spelling
        path = write_matrix(tmp_path, "A.json", CMatrix([[1, 0], [2, 3]]))
        argv = ["solve", "--matrix", path, "--moment", moment, "--check", "residual", *z]
        code, doc = run(capsys, *argv, "--v0", "[[0.5,0],[2,0]]")
        assert (code, doc["residual"]) == (0, 0.0)
        assert (code, doc) == run(capsys, *argv, "--v0", '[["1/2","0"],["2","0"]]')

    def test_residual_check_complex_fractional(self, capsys, tmp_path):
        # complex fractional entries: the imaginary numerators are compared too
        A = CMatrix([[GaussianRational(Fraction(1, 2), 1), Fraction(-1, 3)],
                     [GaussianRational(0, Fraction(2, 5)), 3]])
        path = write_matrix(tmp_path, "A.json", A)
        code, doc = run(
            capsys, "solve", "--matrix", path, "--moment", "qfac:2",
            "--v0", '[["1","1/2"],["-2/3","0"]]', "--check", "residual", "--order", "30",
        )
        assert code == 0
        assert doc == {"results": [], "residual": 0.0}

    def test_residual_check_past_float_range(self, capsys, tmp_path):
        # the exact residual needs no float, so a 401-digit entry is fine
        # unless --z asks for a float value
        path = write_matrix(tmp_path, "big.json", CMatrix([[10**400, 0], [0, 1]]))
        argv = ["solve", "--matrix", path, "--moment", "factorial",
                "--v0", '[["1","0"],["2","0"]]', "--check", "residual", "--order", "30"]
        code, doc = run(capsys, *argv)
        assert code == 0
        assert doc == {"results": [], "residual": 0.0}
        assert main(argv + ["--z", "0.5"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: entry (0, 0) of --matrix {path} is past the float range\n"

    def test_v0_entry_past_float_range(self, capsys, tmp_path):
        # a 401-digit --v0 entry has no float either, and the line names it
        path = write_matrix(tmp_path, "D2.json", CMatrix([[1.0, 0], [0, -2.0]]))
        v0 = json.dumps([["1", "0"], [str(10**400), "0"]])
        code = main(["solve", "--matrix", path, "--moment", "factorial",
                     "--v0", v0, "--z", "0.5"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == "error: entry 1 of --v0 is past the float range\n"

    def test_qres_check(self, capsys, example1):
        code, doc = run(
            capsys, "solve", "--matrix", example1, "--moment", "qfac:2",
            "--v0", "[[1,0],[1,0],[1,0]]", "--z", "0.25,0", "--check", "qres",
        )
        assert code == 0
        assert doc["q_residual"] <= 1e-8

    def test_qres_needs_qfac(self, capsys, example1):
        code, _ = run(
            capsys, "solve", "--matrix", example1, "--moment", "factorial",
            "--v0", "[[1,0],[1,0],[1,0]]", "--check", "qres",
        )
        assert code == 2


class TestJordan:
    def test_example1_blocks(self, capsys, example1):
        code, doc = run(capsys, "jordan", "--matrix", example1)
        assert code == 0
        blocks = sorted((round(b[0]), b[2]) for b in doc["blocks"])
        assert blocks == [(1, 2), (2, 1)]
        assert doc["residual"] <= 1e-8

    def test_verify_roundtrip(self, capsys, tmp_path, example1):
        code, doc = run(capsys, "jordan", "--matrix", example1)
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(
            json.dumps({"blocks": doc["blocks"], "P": doc["P"], "P_inv": doc["P_inv"]})
        )
        code, out = run(
            capsys, "verify-jordan", "--matrix", example1,
            "--decomposition", str(dec_path),
        )
        assert code == 0
        assert out["ok"]

    def test_residual_is_the_one_verify_jordan_reads(self, capsys, tmp_path):
        A = write_matrix(tmp_path, "A.json", CMatrix([[0.0, 1, 1], [-1, 2, 1], [1, -1, 1]]))
        code, doc = run(capsys, "jordan", "--matrix", A)
        assert code == 0 and doc["P"] != matrix_to_json(CMatrix.identity(3, "float"))
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps(doc))
        code, out = run(
            capsys, "verify-jordan", "--matrix", A, "--decomposition", str(dec_path)
        )
        assert code == 0 and out == {"residual": doc["residual"], "ok": True}
        assert doc["residual"] > 0

    def test_stalled_staircase_exit_3(self, capsys, tmp_path):
        """Pins a known defect, not a contract: diag(1, 1.005) is diagonal,
        but its two eigenvalues fall in one cluster whose kernel staircase
        stalls, so the verb exits 3 where a decomposition exists (ROADMAP
        "State", item 3).  A change that mends the staircase flips this
        test to exit 0."""
        A = write_matrix(tmp_path, "A.json", CMatrix([[1.0, 0.0], [0.0, 1.005]]))
        code = main(["jordan", "--matrix", A])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("error: kernel staircase stalled") and err.count("\n") == 1

    def test_verify_exact_witness(self, capsys, tmp_path):
        A = write_matrix(tmp_path, "A.json", CMatrix([[1, 0, 1], [1, 2, 0], [0, 0, 1]]))
        P = CMatrix([[1, -1, 0], [-1, 0, 1], [0, 1, 0]])
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(
            json.dumps(
                {
                    "blocks": [["1", "0", 2], ["2", "0", 1]],
                    "P": matrix_to_json(P),
                    "P_inv": matrix_to_json(P.inverse()),
                }
            )
        )
        code, out = run(
            capsys, "verify-jordan", "--matrix", A, "--decomposition", str(dec_path)
        )
        assert code == 0
        assert out["ok"] and out["residual"] == 0.0

    def test_verify_exact_witness_with_numeric_blocks(self, capsys, tmp_path):
        A = write_matrix(tmp_path, "A.json", CMatrix([[1, 0, 1], [1, 2, 0], [0, 0, 1]]))
        P = CMatrix([[1, -1, 0], [-1, 0, 1], [0, 1, 0]])
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(
            json.dumps(
                {
                    "blocks": [[1.0, 0.0, 2], [2.0, 0.0, 1]],
                    "P": matrix_to_json(P),
                    "P_inv": matrix_to_json(P.inverse()),
                }
            )
        )
        code, out = run(
            capsys, "verify-jordan", "--matrix", A, "--decomposition", str(dec_path)
        )
        assert code == 0
        assert out == {"residual": 0.0, "ok": True}

    def test_verify_exact_error_past_float_range(self, capsys, tmp_path):
        # P P_inv - I is exactly diag(10^400 - 1, 0): not ok, reported as a
        # decomposition that fails rather than as an input past the float range
        big = CMatrix([[10**400, 0], [0, 1]])
        A = write_matrix(tmp_path, "A.json", big)
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps({
            "blocks": [["1", "0", 1], ["1", "0", 1]],
            "P": matrix_to_json(big),
            "P_inv": matrix_to_json(CMatrix.identity(2)),
        }))
        code = main(["verify-jordan", "--matrix", A, "--decomposition", str(dec_path)])
        out, err = capsys.readouterr()
        assert code == 3 and err == ""
        assert json.loads(out) == {"residual": 0.0, "ok": False}

    def test_verify_own_output_for_exact_matrix(self, capsys, tmp_path):
        A = write_matrix(tmp_path, "A.json", CMatrix([[1, 0, 1], [1, 2, 0], [0, 0, 1]]))
        code, doc = run(capsys, "jordan", "--matrix", A)
        assert code == 0
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps(doc))
        code, out = run(
            capsys, "verify-jordan", "--matrix", A, "--decomposition", str(dec_path)
        )
        assert code == 0
        assert out["ok"]


def normal_matrix(n, rho, seed):
    """A seeded complex n x n Q diag(mu) Q^H with Q unitary and |mu| <= rho."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    mu = rho * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return q @ np.diag(mu) @ q.conj().T


def gaussian64():
    """A real Gaussian 64 x 64 / 8 at z = 1.5 / ||A||."""
    a = np.random.default_rng(2024).normal(size=(64, 64)) / 8.0
    return a, complex(1.5 / float(np.abs(a).sum(axis=1).max()))


def shifted_half():
    """0.5 I + 1e40 e_1 e_2^T (8 x 8): ||Az|| overstates the growth of (Az)^p."""
    a = 0.5 * np.eye(8)
    a[0, 1] = 1e40
    return a, 1.0


def similarity12():
    """A = P J P^-1, 12 x 12, with integer P of cond P <= 300 and Jordan
    blocks of sizes 3, 2, 2, 1, 3, 1, at z = 2 / ||A|| on the ray at angle 0.6."""
    rng = np.random.default_rng(2033)
    while True:
        p = rng.integers(-3, 4, (12, 12)).astype(float)
        if abs(np.linalg.det(p)) >= 0.5 and np.linalg.cond(p) <= 300:
            break
    j = np.diag([2.0, 2, 2, -1, -1, 0.5, 0.5, 3, 1, 1, 1, -2])
    j += np.diag([1.0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0], 1)
    a = p @ j @ np.linalg.inv(p)
    return a, complex(2.0 / float(np.abs(a).sum(axis=1).max()) * np.exp(0.6j))


def distinct64():
    """A normal 64 x 64 Q diag(k (1 + 0.3i)) Q^H, k = 1..64: the Jordan
    verb's eig path at its size limit."""
    rng = np.random.default_rng(64)
    q, _ = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    return q @ np.diag(np.arange(1, 65) * (1 + 0.3j)) @ q.conj().T, None


SEEDED = {
    "R64": gaussian64,
    "C30": lambda: (normal_matrix(30, 1.25, 2025), 1.0),
    "M30": lambda: (normal_matrix(30, 1.25, 2029), 1.0),
    "M10": lambda: (normal_matrix(10, 1.2, 2030), 0.5 + 0.5j),
    "M12": lambda: (normal_matrix(12, 1.5, 2031), 1.0),
    "N8": shifted_half,
    "D16": lambda: (np.diag([-16.0, 0.5, 0.25, -0.5, 0.125]), 1.0),
    "PJ12": similarity12,
    "N64": distinct64,
}


def bits(doc):
    """A JSON value with each float as its hex string, so that == compares
    bits and tells -0.0 from 0.0; a non-finite float becomes None, as the
    CLI writes it."""
    if isinstance(doc, float):
        return doc.hex() if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: bits(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [bits(v) for v in doc]
    return doc


def entries(m):
    """A float CMatrix in the matrix JSON layout, without the library's codec."""
    return {"n": m.n, "entries": [[[x.real, x.imag] for x in row] for row in m.rows]}


class TestSeededInputs:
    """Each seeded float input, through the CLI, prints the library's own
    report on the matrix read back from the same JSON file, to the bit:
    status, terms_used, tail_estimate and every value bit, or the Jordan
    blocks, P, P^-1 and residual.  The accuracy of those reports is checked
    against oracles in test_evaluation.py and test_jordan.py."""

    @pytest.mark.parametrize("name, moment, tol", [
        ("R64", "factorial", None),
        ("C30", "factorial", None),
        ("C30", "factorial", "1e-8"),
        ("M30", "ml:2", None),
        ("M10", "ml:3", None),
        ("M12", "ml:4", None),
        ("N8", "ml:2", None),
        ("D16", "ml:2", None),
        ("PJ12", "factorial", None),
        ("PJ12", "ml:1", None),
        ("N64", None, None),
    ], ids=["R64-factorial", "C30-factorial", "C30-factorial-tol1e-8", "M30-ml2",
            "M10-ml3", "M12-ml4", "N8-ml2", "D16-ml2", "PJ12-factorial", "PJ12-ml1",
            "N64-jordan-subprocess"])
    def test_prints_the_library_report(self, capsys, tmp_path, name, moment, tol):
        a, z = SEEDED[name]()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            {"n": len(a), "entries": [[[x.real, x.imag] for x in row] for row in a.tolist()]}))
        A = CMatrix([[complex(re, im) for re, im in row]
                     for row in json.loads(path.read_text())["entries"]])
        if moment is None:
            # the jordan verb through the module's command line, in a new interpreter
            src = str(Path(momexp.__file__).resolve().parent.parent)
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            proc = subprocess.run([sys.executable, "-m", "momexp.cli", "jordan",
                                   "--matrix", str(path)],
                                  env=env, capture_output=True, text=True, timeout=120)
            code, out = proc.returncode, proc.stdout
            dec = jordan_decompose(A)
            want = {"blocks": [[lam.real, lam.imag, size] for lam, size in dec.blocks],
                    "P": entries(dec.P), "P_inv": entries(dec.P_inv),
                    "residual": verify_decomposition(A, dec, tol=1e-8)["residual"]}
        else:
            argv = ["eval", "--matrix", str(path), "--moment", moment,
                    f"--z={z.real!r},{z.imag!r}"] + (["--tol", tol] if tol else [])
            code, out = main(argv), capsys.readouterr().out
            policy = TruncationPolicy(tol=float(tol)) if tol else TruncationPolicy()
            rep = eval_exp(A, z, parse_specifier(moment), policy)
            want = {"value": None if rep.value is None else entries(rep.value),
                    "terms_used": rep.terms_used, "tail_estimate": rep.tail_estimate,
                    "status": rep.status}
        got = bits(json.loads(out))
        assert got == bits(want)
        assert code == (3 if name == "D16" else 0)
        if name == "D16":
            assert got["status"] == "aborted_divergent"
        if name == "R64":
            # a real Az prints +0.0 for every imaginary part
            assert {im for row in got["value"]["entries"] for _, im in row} == {(0.0).hex()}


class TestSeries:
    def test_phi_factorial(self, capsys):
        code, doc = run(capsys, "series", "--op", "phi", "--moment", "factorial",
                        "--order", "6")
        assert code == 0
        assert doc["phi"] == ["1", "-1", "1", "-1", "1", "-1", "1"]

    def test_inverse_then_derive(self, capsys, tmp_path):
        A = write_matrix(tmp_path, "A.json", CMatrix([[1, 1], [0, 1]]))
        code, doc = run(
            capsys, "series", "--op", "inverse", "--matrix", A,
            "--moment", "factorial", "--order", "4",
        )
        assert code == 0
        s_path = tmp_path / "s.json"
        s_path.write_text(json.dumps(doc))
        code, out = run(capsys, "series", "--op", "derive", "--series", str(s_path))
        assert code == 0
        assert len(out["coeffs"]) == 4

    def test_ml_specifier_round_trips(self, capsys, tmp_path):
        # a sequence written into series JSON reads back as the same sequence
        A = write_matrix(tmp_path, "A.json", CMatrix([[0.5, 0.25], [0.0, -1.0]]))
        code, doc = run(capsys, "series", "--op", "inverse", "--matrix", A,
                        "--moment", "ml:1.2345678", "--order", "4")
        assert code == 0 and doc["sequence"] == "ml:1.2345678"
        s_path = tmp_path / "s.json"
        s_path.write_text(json.dumps(doc))
        code, out = run(capsys, "series", "--op", "derive", "--series", str(s_path))
        assert code == 0 and out["sequence"] == "ml:1.2345678"
        code, out = run(capsys, "series", "--op", "product", "--series", str(s_path),
                        "--series2", str(s_path))
        assert code == 0 and out["sequence"] == "ml:1.2345678"

    def test_custom_specifier_round_trips(self, capsys, tmp_path):
        # series JSON names the table's file, so derive and product read it back
        table = tmp_path / "t.json"
        table.write_text(json.dumps(["1", "2", "6", "24", "120"]))
        spec = f"custom:{table}"
        A = write_matrix(tmp_path, "A.json", CMatrix([[1, 1], [0, 1]]))
        code, doc = run(capsys, "series", "--op", "inverse", "--matrix", A,
                        "--moment", spec, "--order", "4")
        assert code == 0 and doc["sequence"] == spec
        s_path = tmp_path / "s.json"
        s_path.write_text(json.dumps(doc))
        code, out = run(capsys, "series", "--op", "derive", "--series", str(s_path))
        assert code == 0 and out == {"sequence": spec, "coeffs": doc["coeffs"][1:]}
        code, out = run(capsys, "series", "--op", "product", "--series", str(s_path),
                        "--series2", str(s_path))
        assert code == 0 and out["sequence"] == spec and len(out["coeffs"]) == 5

    def test_relative_custom_path_reads_beside_the_series(self, capsys, tmp_path,
                                                          monkeypatch):
        # a relative table path written in ci/ reads back from its parent:
        # it names a file beside the series JSON, and prints as written
        ci = tmp_path / "ci"
        ci.mkdir()
        (ci / "T.json").write_text(json.dumps(["1", "2", "6", "24", "120"]))
        write_matrix(ci, "A.json", CMatrix([[1, 1], [0, 1]]))
        monkeypatch.chdir(ci)
        code, doc = run(capsys, "series", "--op", "inverse", "--matrix", "A.json",
                        "--moment", "custom:T.json", "--order", "4")
        assert code == 0 and doc["sequence"] == "custom:T.json"
        (ci / "ST.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "series", "--op", "derive", "--series", "ci/ST.json")
        assert code == 0 and out == {"sequence": "custom:T.json", "coeffs": doc["coeffs"][1:]}
        code, out = run(capsys, "series", "--op", "product", "--series", "ci/ST.json",
                        "--series2", "ci/ST.json")
        assert code == 0 and out["sequence"] == "custom:T.json"

    def test_product(self, capsys, tmp_path):
        A = CMatrix([[1, 1], [0, 1]])
        doc = {
            "sequence": "factorial",
            "coeffs": [matrix_to_json(A.pow(p)) for p in range(4)],
        }
        p1 = tmp_path / "s1.json"
        p1.write_text(json.dumps(doc))
        code, out = run(
            capsys, "series", "--op", "product", "--series", str(p1),
            "--series2", str(p1),
        )
        assert code == 0
        # E(A)^2 = E(2A) for factorial moments
        two_a = matrix_from_json(out["coeffs"][1])
        assert two_a == A.scale(2)


def _matrix_text(rows, quoted=True):
    """The matrix JSON text the CLI prints for ``rows`` of (re, im) part
    texts, each in quotes for an exact matrix."""
    q = '"' if quoted else ""
    entries = ", ".join("[" + ", ".join(f"[{q}{re}{q}, {q}{im}{q}]" for re, im in row) + "]"
                        for row in rows)
    return f'{{"n": {len(rows)}, "entries": [{entries}]}}'


class TestWireFormat:
    """The text of each matrix the CLI prints, byte for byte.  ``series
    --op derive`` drops a series' first coefficient, so it echoes each later
    coefficient through the reader and the writer."""

    BIG = 2**64 + 1

    def derive(self, capsys, tmp_path, seq, coeffs):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"sequence": seq, "coeffs": coeffs}))
        code = main(["series", "--op", "derive", "--series", str(path)])
        return code, capsys.readouterr().out

    def test_exact_parts_print_reduced(self, capsys, tmp_path):
        # each part over its own lowest denominator, with no "/1", whatever
        # the input's; a numerator past 2^64 prints in full
        rows = [[["2/4", "0"], ["-10/12", "0/5"]], [["6/2", "0"], ["0/7", "-0"]]]
        big = [[[f"{self.BIG}/3", f"-{self.BIG}"], ["1", "0"]], [["0", "-4/2"], ["0", "0"]]]
        code, out = self.derive(capsys, tmp_path, "qfac:2",
                                [{"entries": r} for r in (rows, rows, big)])
        assert code == 0
        want = [_matrix_text([[("1/2", "0"), ("-5/6", "0")], [("3", "0"), ("0", "0")]]),
                _matrix_text([[(f"{self.BIG}/3", f"-{self.BIG}"), ("1", "0")],
                              [("0", "-2"), ("0", "0")]])]
        assert out == f'{{"sequence": "qfac:2", "coeffs": [{", ".join(want)}]}}\n'

    def test_exact_real_result_prints_zero_imaginary_parts(self, capsys, tmp_path):
        # a computed real matrix stores no imaginary numerators: each prints "0"
        path = write_matrix(tmp_path, "A.json",
                            CMatrix([[Fraction(1, 2), Fraction(-5, 6)], [3, 1]]))
        code = main(["series", "--op", "inverse", "--matrix", path,
                     "--moment", "factorial", "--order", "2"])
        want = [_matrix_text([[(a, "0") for a in row] for row in c]) for c in (
            [["1", "0"], ["0", "1"]], [["-1/2", "5/6"], ["-3", "-1"]],
            [["-9/4", "-5/4"], ["9/2", "-3/2"]])]
        assert code == 0
        assert capsys.readouterr().out == (
            f'{{"sequence": "factorial", "coeffs": [{", ".join(want)}]}}\n')

    def test_float_parts_print_as_repr(self, capsys, tmp_path):
        # -0.0 keeps its sign, 1e300 prints as Python's repr, an int part as a float
        rows = [[[-0.0, 1e300], [0.5, -0.0]], [[1e-300, 0], [3, -2.5]]]
        code, out = self.derive(capsys, tmp_path, "factorial",
                                [{"entries": rows}, {"n": 2, "entries": rows}])
        assert code == 0
        want = _matrix_text([[("-0.0", "1e+300"), ("0.5", "-0.0")],
                             [("1e-300", "0.0"), ("3.0", "-2.5")]], quoted=False)
        assert out == f'{{"sequence": "factorial", "coeffs": [{want}]}}\n'

    @pytest.mark.parametrize("entries, error", [
        ([[["1/2", "0"], [1.0, 0]], [[0, 0], [1, 0]]], "mixed exact and float values"),
        ([[[1, 0], [2, 0]]], "matrix must be square and nonempty"),
        ([[[1, 0], [2, 0]], [[1, 0]]], "matrix must be square and nonempty"),
    ], ids=["mixed", "one-row", "ragged"])
    def test_malformed_matrix_exit_2(self, capsys, tmp_path, entries, error):
        path = tmp_path / "A.json"
        path.write_text(json.dumps({"entries": entries}))
        assert main(["eval", "--matrix", str(path), "--moment", "factorial"]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


class TestProbe:
    @pytest.mark.parametrize(
        "spec,suspected",
        # qfac:1e10's roots m(p)^{1/p} pass the float range from p = 63 on
        [("factorial", False), ("geom:2", True), ("qfac:2", False), ("qfac:1e10", False)],
    )
    def test_probe(self, capsys, spec, suspected):
        code, doc = run(capsys, "probe", "--moment", spec)
        assert code == 0
        assert doc["finite_radius_suspected"] is suspected

    @pytest.mark.parametrize("terms", ["0", "-3", "7"])
    def test_too_few_terms_names_the_option(self, capsys, terms):
        code = main(["probe", "--moment", "factorial", "--terms", terms])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: --terms must be at least 8, got {terms}\n"


SERIES_DOC = ["series", "--op", "derive", "--series", "{doc}"]
DECOMPOSITION_DOC = ["verify-jordan", "--matrix", "{one}", "--decomposition", "{doc}"]
MATRIX_DOC = ["eval", "--matrix", "{doc}", "--moment", "factorial"]


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--op", "inverse", "--moment", "factorial"],
            ["series", "--op", "phi"],
            ["series", "--op", "derive"],
            ["series", "--op", "derive", "--series", "{int_coeffs}"],
            ["solve", "--matrix", "{ex1}", "--moment", "factorial", "--v0", "5"],
            ["eval", "--matrix", "{entries5}", "--moment", "factorial"],
            ["eval", "--matrix", "{null_entry}", "--moment", "factorial"],
            ["verify-jordan", "--matrix", "{ex1}", "--decomposition", "{short_block}"],
            ["verify-jordan", "--matrix", "{ex1}", "--decomposition", "{list_doc}"],
            ["eval", "--matrix", "{exact}", "--z", "inf", "--moment", "factorial"],
            ["eval", "--matrix", "{ex1}", "--moment", "factorial", "--tol", "0"],
            ["eval", "--matrix", "{ex1}", "--moment", "factorial", "--max-terms", "0"],
            ["solve", "--matrix", "{ex1}", "--moment", "factorial",
             "--v0", "[[1,0],[0,0],[1,0]]", "--tol", "0"],
            ["series", "--op", "phi", "--moment", "factorial", "--order", "-1"],
            ["solve", "--matrix", "{ex1}", "--moment", "factorial",
             "--v0", "[[1,0],[0,0],[1,0]]", "--check", "residual", "--order", "-5"],
            ["series", "--op", "phi", "--moment", "ml:nan", "--order", "3"],
            ["probe", "--moment", "ml:inf"],
            ["verify-jordan", "--matrix", "{one}", "--decomposition", "{negative_size}"],
            ["verify-jordan", "--matrix", "{one}", "--decomposition", "{bool_size}"],
            ["eval", "--matrix", "{zero_den}", "--moment", "factorial"],
            ["probe", "--moment", "qfac:1/0"],
            ["probe", "--moment", "geom:1/0"],
            ["probe", "--moment", "custom:{zero_table}"],
            ["eval", "--matrix", "{ex1}", "--moment", "factorial", "--tol", "inf"],
            ["eval", "--matrix", "{ex1}", "--moment", "factorial", "--tol", "nan"],
            ["jordan", "--matrix", "{ex1}", "--tol", "nan"],
            ["jordan", "--matrix", "{ex1}", "--tol", "inf"],
            ["jordan", "--matrix", "{ex1}", "--eig-tol", "nan"],
            ["jordan", "--matrix", "{ex1}", "--eig-tol", "-1"],
            ["verify-jordan", "--matrix", "{ex1}", "--decomposition", "{eye_dec}",
             "--tol", "inf"],
            ["series", "--op", "inverse", "--matrix", "{exact}", "--moment", "ml:2"],
            ["series", "--op", "product", "--series", "{exact_ml}",
             "--series2", "{exact_ml}"],
            ["eval", "--matrix", "{bool_entry}", "--moment", "factorial"],
            ["eval", "--matrix", "{nan_entry}", "--moment", "factorial"],
            ["jordan", "--matrix", "{infinity_entry}"],
            ["solve", "--matrix", "{e400_entry}", "--moment", "factorial", "--v0", "[[1,0]]",
             "--z", "0.5"],
            ["eval", "--matrix", "{digits401_entry}", "--moment", "factorial"],
            ["solve", "--matrix", "{ex1}", "--moment", "factorial",
             "--v0", "[[NaN,0],[0,0],[1,0]]", "--z", "0.5"],
            ["verify-jordan", "--matrix", "{one}", "--decomposition", "{nan_dec}"],
        ],
        ids=[
            "inverse-without-matrix", "phi-without-moment", "derive-without-series",
            "non-list-coeffs", "scalar-v0", "non-list-row", "null-entry",
            "short-block-entry", "list-decomposition", "infinite-z",
            "zero-tol", "zero-max-terms", "solve-zero-tol",
            "negative-phi-order", "negative-residual-order",
            "nan-ml-parameter", "infinite-ml-parameter",
            "negative-block-size", "bool-block-size", "zero-denominator-entry",
            "zero-denominator-qfac", "zero-denominator-geom", "zero-denominator-custom",
            "infinite-tol", "nan-tol", "jordan-nan-tol", "jordan-infinite-tol",
            "jordan-nan-eig-tol", "jordan-negative-eig-tol", "verify-infinite-tol",
            "exact-inverse-float-sequence", "exact-product-float-sequence",
            "bool-entry", "nan-entry", "infinity-entry", "1e400-entry", "401-digit-entry",
            "nan-v0", "nan-decomposition",
        ],
    )
    def test_input_error_exit_2(self, capsys, tmp_path, example1, identity2_exact,
                                argv):
        eye = matrix_to_json(CMatrix.identity(3, "float"))
        one = matrix_to_json(CMatrix.identity(1, "float"))
        docs = {
            "entries5": {"entries": [5]},
            "null_entry": {"entries": [[[None, 0.0]]]},  # a non-finite value as emitted
            "int_coeffs": {"sequence": "factorial", "coeffs": 5},
            "short_block": {"blocks": [[1, 0]], "P": eye, "P_inv": eye},
            "list_doc": [1, 2],
            "one": one,
            "negative_size": {"blocks": [[2, 0, 2], [2, 0, -1]], "P": one, "P_inv": one},
            "bool_size": {"blocks": [[1, 0, True]], "P": one, "P_inv": one},
            "zero_den": {"entries": [[["1/0", "0"]]]},
            "bool_entry": {"entries": [[[True, False]]]},
            "zero_table": ["1", "1/0"],
            "eye_dec": {"blocks": [[1, 0, 1]] * 3, "P": eye, "P_inv": eye},
            "exact_ml": {"sequence": "ml:2",
                         "coeffs": [matrix_to_json(CMatrix.identity(2))] * 3},
            # json writes these as NaN and Infinity; 1e400 is written as text
            "nan_entry": {"entries": [[[math.nan, 0.0]]]},
            "infinity_entry": {"entries": [[[0.0, math.inf]]]},
            "e400_entry": '{"entries": [[[1e400, 0]]]}',
            "digits401_entry": {"entries": [[[10**400, 0.0]]]},
            "nan_dec": {"blocks": [[1, 0, 1]], "P": {"entries": [[[math.nan, 0.0]]]},
                        "P_inv": one},
        }
        files = {"ex1": example1, "exact": identity2_exact}
        for name, doc in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            files[name] = str(path)
        code = main([a.format(**files) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_word_ml_parameter_names_the_parameter(self, capsys):
        assert main(["probe", "--moment", "ml:two"]) == 2
        assert capsys.readouterr() == ("", "error: k must be a real number, got 'two'\n")

    @pytest.mark.parametrize(
        "argv, doc, named",
        [
            (SERIES_DOC, {"sequence": 5, "coeffs": []}, "specifier must be a string, got 5"),
            (SERIES_DOC, {"coeffs": []}, "with a 'sequence'"),
            (DECOMPOSITION_DOC, {"blocks": [[1, 0, 1]], "P_inv": None}, "needs 'P'"),
            (DECOMPOSITION_DOC, {"blocks": [[1, 0, 1]], "P": None}, "needs 'P_inv'"),
            (MATRIX_DOC, {"entries": [[5]]}, "scalar entry must be a [re, im] pair, got 5"),
            (MATRIX_DOC, {"rows": [[[1, 0]]]}, "with an 'entries' field"),
            (MATRIX_DOC, {"n": 2, "entries": [[[1, 0]]]}, "declared n=2 but got 1 rows"),
            (["probe", "--moment", "custom:{doc}"], {"table": ["1"]},
             "custom sequence file must hold a JSON list"),
            # the --z and --v0 lines name the option
            (["eval", "--matrix", "{one}", "--moment", "factorial", "--z", "1,2,3"], None,
             "--z values are written 're,im', got '1,2,3'"),
            (["eval", "--matrix", "{one}", "--moment", "factorial", "--z", "1,x"], None,
             "--z values are written 're,im', got '1,x'"),
            (["solve", "--matrix", "{one}", "--moment", "factorial", "--v0", "[[1,0],[2,0]]"],
             None, "--v0 has 2 entries for a 1 x 1 matrix"),
        ],
        ids=["non-string-sequence", "no-sequence", "no-P", "no-P_inv", "non-pair-entry",
             "no-entries", "wrong-n", "non-list-custom-table", "three-part-z", "non-number-z",
             "v0-of-the-wrong-length"],
    )
    def test_malformed_document_names_the_field(self, capsys, tmp_path, argv, doc, named):
        # an input error with exit 2 that says what is wrong, not a traceback
        # or a bare key name
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        one = write_matrix(tmp_path, "one.json", CMatrix.identity(1, "float"))
        code = main([a.format(doc=path, one=one) for a in argv])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and named in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--matrix", "{big}", "--moment", "factorial"],
            ["jordan", "--matrix", "{big}"],
            ["solve", "--matrix", "{big}", "--moment", "factorial", "--v0", "[[1,0],[2,0]]",
             "--z", "0.5"],
            ["eval", "--matrix", "{big}", "--moment", "factorial", "--path", "jordan"],
            ["verify-jordan", "--matrix", "{big}", "--decomposition", "{eye_dec}"],
            ["verify-jordan", "--matrix", "{eye}", "--decomposition", "{big_dec}"],
        ],
        ids=["eval-factorial", "jordan", "solve", "eval-jordan",
             "verify-jordan-matrix", "verify-jordan-decomposition"],
    )
    def test_entry_past_float_range_exit_3(self, capsys, tmp_path, argv):
        # an exact 401-digit entry has no float: a numeric failure, not a
        # traceback, and the one error line names the entry and its input
        big = CMatrix([[1, 0], [0, 10**400]])
        eye = CMatrix.identity(2, "float")
        files = {"big": write_matrix(tmp_path, "big.json", big),
                 "eye": write_matrix(tmp_path, "eye.json", eye)}
        for name, P in (("eye_dec", eye), ("big_dec", big)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"blocks": [[1.0, 0.0, 1]] * 2,
                                        "P": matrix_to_json(P),
                                        "P_inv": matrix_to_json(eye)}))
            files[name] = str(path)
        argv = [a.format(**files) for a in argv]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        if files["big_dec"] in argv:
            source = f"--decomposition {files['big_dec']}"
        else:
            source = f"--matrix {files['big']}"
        assert err == f"error: entry (1, 1) of {source} is past the float range\n"

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["jordan", "--matrix", "{exact}", "--backend", "exact"],
            ["eval", "--matrix", "{exact}", "--moment", "factorial",
             "--backend", "float"],
            ["solve", "--matrix", "{exact}", "--moment", "factorial",
             "--v0", "[[1,0],[0,0]]", "--backend", "float"],
            ["verify-jordan", "--matrix", "{exact}", "--decomposition", "{dec}",
             "--backend", "float"],
            ["series", "--op", "inverse", "--matrix", "{exact}", "--moment", "factorial",
             "--backend", "exact"],
        ],
        ids=["jordan", "eval", "solve", "verify-jordan", "series"],
    )
    def test_jordan_has_no_backend(self, capsys, tmp_path, identity2_exact, argv):
        # no verb takes --backend: the matrix JSON entries choose it
        eye = matrix_to_json(CMatrix.identity(2))
        dec = tmp_path / "dec.json"
        dec.write_text(
            json.dumps({"blocks": [["1", "0", 1]] * 2, "P": eye, "P_inv": eye}))
        argv = [a.format(exact=identity2_exact, dec=dec) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        assert main(argv[:-2]) == 0

    def test_missing_file(self, capsys):
        assert main(["eval", "--matrix", "/nope.json", "--moment", "factorial"]) == 2

    def test_bad_moment(self, capsys, identity2):
        assert (
            main(["eval", "--matrix", identity2, "--moment", "bogus:1"]) == 2
        )

    def test_singular_x0_like_input(self, capsys, tmp_path):
        bad = write_matrix(tmp_path, "bad.json", CMatrix([[1.0, 2.0], [2.0, 4.0]]))
        code = main(["jordan", "--matrix", bad])
        # decomposition itself is fine for singular A; inversion guard is
        # exercised through verify-jordan with a singular P instead
        dec = {
            "blocks": [["0", "0", 1], ["5", "0", 1]],
            "P": matrix_to_json(CMatrix([[1, 2], [2, 4]])),
            "P_inv": matrix_to_json(CMatrix.identity(2)),
        }
        p = tmp_path / "dec.json"
        p.write_text(json.dumps(dec))
        code = main(
            ["verify-jordan", "--matrix", bad, "--decomposition", str(p)]
        )
        assert code == 3
