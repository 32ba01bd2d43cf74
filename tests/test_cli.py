import json

import pytest

from momexp import matrix_from_json, matrix_to_json, CMatrix
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
        path = write_matrix(tmp_path, "A.json", CMatrix([[1, 1], [0, 2]]))
        code, doc = run(capsys, "eval", "--matrix", path, "--moment", "factorial")
        assert code == 3
        assert doc["status"] == "max_terms_reached"
        assert doc["terms_used"] <= 3

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


class TestProbe:
    @pytest.mark.parametrize(
        "spec,suspected",
        [("factorial", False), ("geom:2", True), ("qfac:2", False)],
    )
    def test_probe(self, capsys, spec, suspected):
        code, doc = run(capsys, "probe", "--moment", spec)
        assert code == 0
        assert doc["finite_radius_suspected"] is suspected


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
            ["solve", "--matrix", "{exact}", "--moment", "factorial",
             "--v0", "[[1,0],[2,0]]", "--check", "residual"],
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
        ],
        ids=[
            "inverse-without-matrix", "phi-without-moment", "derive-without-series",
            "non-list-coeffs", "scalar-v0", "non-list-row", "null-entry",
            "short-block-entry", "list-decomposition", "infinite-z",
            "zero-tol", "zero-max-terms", "solve-zero-tol",
            "float-v0-exact-residual", "negative-phi-order", "negative-residual-order",
            "nan-ml-parameter", "infinite-ml-parameter",
            "negative-block-size", "bool-block-size", "zero-denominator-entry",
            "zero-denominator-qfac", "zero-denominator-geom", "zero-denominator-custom",
            "infinite-tol", "nan-tol", "jordan-nan-tol", "jordan-infinite-tol",
            "jordan-nan-eig-tol", "jordan-negative-eig-tol", "verify-infinite-tol",
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
            "zero_table": ["1", "1/0"],
            "eye_dec": {"blocks": [[1, 0, 1]] * 3, "P": eye, "P_inv": eye},
        }
        files = {"ex1": example1, "exact": identity2_exact}
        for name, doc in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            files[name] = str(path)
        code = main([a.format(**files) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_jordan_has_no_backend(self, capsys, identity2_exact):
        assert main(["jordan", "--matrix", identity2_exact, "--backend", "exact"]) == 2

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
