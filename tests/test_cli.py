import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from matwaring.cli import main
from matwaring.config import DEFAULT_TOLS
from matwaring.serialize import (
    dumps_canonical,
    load_json,
    matrix_from_json,
    matrix_to_json,
    save_certificate,
)
from matwaring.verify import check_certificate, verify_certificate
from matwaring.waring import four_term_decompose

from conftest import planted_matrix, random_complex, random_traceless


def write_matrix(path, A):
    path.write_text(dumps_canonical(matrix_to_json(A)))
    return str(path)


def save_matrix_level_cert(out, target_path):
    """Write a four-term certificate of the stored target over a fixed
    witness, without tuples: the kind of certificate that carries the
    similarity steps and the witness."""
    A = matrix_from_json(load_json(target_path))
    n = A.shape[0]
    B = planted_matrix(np.random.default_rng(n), np.arange(1.0, n + 1))
    save_certificate(out, four_term_decompose(B, A), DEFAULT_TOLS)


def run_cli(*args):
    """Through a real process boundary, so the verifier sees only bytes."""
    proc = subprocess.run(
        [sys.executable, "-m", "matwaring.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def a3(tmp_path, rng):
    return write_matrix(tmp_path / "a3.json", random_traceless(rng, 3))


class TestMatrixJson:
    def test_round_trip(self, rng):
        A = random_traceless(rng, 4)
        doc = json.loads(dumps_canonical(matrix_to_json(A)))
        assert np.array_equal(matrix_from_json(doc), A)

    def test_seventeen_digit_floats_round_trip(self):
        x = 0.1 + 0.2  # not representable exactly; must survive the writer
        doc = json.loads(dumps_canonical({"x": x}))
        assert doc["x"] == x


class TestDecompose:
    def test_auto_picks_two_term_on_prime(self, tmp_path, a3):
        out = str(tmp_path / "cert.json")
        code = main(["decompose", "[X1,X2]", a3, "--mode", "auto", "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["mode"] == "two-term"
        assert verify_certificate(doc) == []

    def test_central_polynomial_exits_3(self, tmp_path, rng):
        a2 = write_matrix(tmp_path / "a2.json", random_traceless(rng, 2))
        code, _, err = run_cli("decompose", "[X1,X2]^2", a2, "--mode", "four")
        assert code == 3
        assert "central" in err

    def test_trivial_zero_matrix(self, tmp_path):
        z = write_matrix(tmp_path / "z.json", np.zeros((2, 2)))
        out = str(tmp_path / "cert.json")
        code, stdout, _ = run_cli("decompose", "X1", z, "--out", out)
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["residual"] == 0.0
        assert verify_certificate(doc) == []

    def test_parse_error_exits_2(self, a3):
        code, _, err = run_cli("decompose", "X0 +", a3)
        assert code == 2

    def test_budget_exhausted_exits_4(self, a3, tmp_path):
        code, _, err = run_cli("decompose", "[X1,X2]", a3, "--mode", "five",
                               "--budget", "30",
                               "--out", str(tmp_path / "c.json"))
        assert code == 4

    def test_nonzero_trace_rejected_for_two_and_four(self, tmp_path, rng):
        A = random_traceless(rng, 3) + np.eye(3)
        path = write_matrix(tmp_path / "t.json", A)
        for mode in ("two", "four"):
            code, _, err = run_cli("decompose", "[X1,X2]", path, "--mode", mode)
            assert code == 2
            assert "trace" in err

    def test_auto_projects_with_warning(self, tmp_path, rng):
        A = random_traceless(rng, 3) + np.eye(3)
        path = write_matrix(tmp_path / "t.json", A)
        out = str(tmp_path / "cert.json")
        code, _, err = run_cli("decompose", "[X1,X2]", path, "--mode", "auto",
                               "--out", out)
        assert code == 0
        assert "projecting" in err

    def test_five_term_mode(self, tmp_path, rng):
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = write_matrix(tmp_path / "t.json", T)
        out = str(tmp_path / "cert.json")
        code, _, _ = run_cli("decompose", "X1^2+X1", path, "--mode", "five",
                             "--out", out)
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["mode"] == "five-term"
        assert verify_certificate(doc) == []

    def test_tolerance_flags(self, tmp_path, a3):
        out = str(tmp_path / "cert.json")
        code = main(["decompose", "[X1,X2]", a3, "--tol-end", "1e-4",
                     "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["tolerances"]["end_tol"] == 1e-4

    def test_rank_tolerance_flag_is_gone(self, a3):
        # no decomposition reads a rank tolerance, so the flag does not exist
        code, _, err = run_cli("decompose", "[X1,X2]", a3, "--tol-rank", "1e-3")
        assert code == 2
        assert "--tol-rank" in err

    def test_malformed_matrix_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "entries": [["1", 0], [0, 0], [0, 0], [0, 0]]}')
        code = main(["decompose", "[X1,X2]", str(path),
                     "--out", str(tmp_path / "cert.json")])
        assert code == 2
        assert "entry 0" in capsys.readouterr().err

    def test_non_object_matrix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[[1, 0]]")
        code = main(["decompose", "[X1,X2]", str(path),
                     "--out", str(tmp_path / "cert.json")])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path, a3):
        out1, out2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
        run_cli("decompose", "[X1,X2]", a3, "--seed", "9", "--out", out1)
        run_cli("decompose", "[X1,X2]", a3, "--seed", "9", "--out", out2)
        assert open(out1, "rb").read() == open(out2, "rb").read()

    @pytest.mark.parametrize("poly, mode, n", [
        ("[X1,X2]", "four", 24), ("(X1+X2*X3+X3*X1)^4", "five", 12)])
    def test_determinism_across_blas_threads(self, tmp_path, poly, mode, n):
        A = random_complex(np.random.default_rng(n), n)
        if mode == "four":
            A -= (np.trace(A) / n) * np.eye(n)
        target = write_matrix(tmp_path / "a.json", A)
        texts = []
        for threads in ("1", "2"):
            out = tmp_path / f"cert{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "matwaring.cli", "decompose", poly,
                 target, "--mode", mode, "--seed", "7", "--out", str(out)],
                capture_output=True, text=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestVerify:
    def make_cert(self, tmp_path, a3, matrix_level=False):
        out = str(tmp_path / "cert.json")
        if matrix_level:
            save_matrix_level_cert(out, a3)
        else:
            assert main(["decompose", "[X1,X2]", a3, "--out", out]) == 0
        return out

    def test_fresh_certificate_passes(self, tmp_path, a3):
        out = self.make_cert(tmp_path, a3)
        code, stdout, _ = run_cli("verify", out)
        assert code == 0 and stdout.startswith("OK")

    @pytest.mark.parametrize("matrix_level", [False, True])
    def test_ok_line_says_what_was_checked(self, tmp_path, a3, capsys,
                                           matrix_level):
        doc = json.loads(open(self.make_cert(tmp_path, a3,
                                             matrix_level)).read())
        target = matrix_from_json(doc["target"])
        bound = DEFAULT_TOLS.end_tol * max(1.0, np.linalg.norm(target))
        steps = len(doc.get("similarity_steps", []))
        assert (steps > 0) == matrix_level
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "cert.json")]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith(f"OK: {doc['mode']} certificate verifies "
                                 "(n=3, residual ")
        assert stdout.endswith(f" <= {bound:.1e}, {steps} similarity "
                               "steps)\n")

    def test_looser_tol_end_is_held_to_the_verifiers_bound(self, tmp_path,
                                                           a3, capsys):
        out = str(tmp_path / "cert.json")
        assert main(["decompose", "[X1,X2]", a3, "--tol-end", "1e-4",
                     "--out", out]) == 0
        doc = json.loads(open(out).read())
        target = matrix_from_json(doc["target"])
        own = DEFAULT_TOLS.end_tol * max(1.0, np.linalg.norm(target))
        assert doc["residual_bound"] > own
        capsys.readouterr()
        assert main(["verify", out]) == 0
        assert f" <= {own:.1e}," in capsys.readouterr().out
        # a residual between the verifier's bound and the stored one fails
        doc["target"]["entries"][0][0] += 10 * own
        verdict = check_certificate(doc)
        assert own < verdict.residual <= doc["residual_bound"]
        assert verdict.bound == pytest.approx(own, rel=1e-3)
        assert len(verdict.failures) == 1
        assert verdict.failures[0].startswith("reconstruction residual")

    def test_raised_residual_bound_cannot_pass_a_replaced_target(
            self, tmp_path, rng, capsys):
        # the bound tamper of a stored bound raised to hide a new target
        def tamper(doc):
            doc["target"] = matrix_to_json(random_traceless(rng, 4))
            doc["residual_bound"] = 1e6

        code, stdout = self.nan_tampered_verdict(tmp_path, rng, capsys, tamper)
        assert code == 1
        assert "reconstruction residual" in stdout

    def test_raised_cert_tol_cannot_pass_a_corrupted_transform(
            self, tmp_path, rng, capsys):
        def tamper(doc):
            doc["similarity_steps"][0]["t"]["entries"][0][0] += 1.0
            doc["cert_tol"] = 1e9

        code, stdout = self.nan_tampered_verdict(tmp_path, rng, capsys, tamper,
                                                 matrix_level=True)
        assert code == 1
        assert "similarity step" in stdout

    def test_tighter_stored_bound_is_enforced(self, tmp_path, a3):
        doc = json.loads(open(self.make_cert(tmp_path, a3)).read())
        doc["residual_bound"] = doc["residual"] / 2
        failures = verify_certificate(doc)
        assert len(failures) == 1
        assert failures[0].startswith("reconstruction residual")

    def test_matrix_level_steps_are_checked(self, tmp_path, a3):
        doc = json.loads(open(self.make_cert(tmp_path, a3,
                                             matrix_level=True)).read())
        assert doc["similarity_steps"]
        assert verify_certificate(doc) == []
        for step in doc["similarity_steps"]:
            step["t_inv"]["entries"][0][0] += 0.5
        failures = verify_certificate(doc)
        assert len(failures) >= len(doc["similarity_steps"])
        assert all(f.startswith("similarity step") for f in failures)

    @pytest.mark.parametrize("text, failure", [
        ("X1^1000000", "malformed field 'polynomial': polynomial degree"),
        # cheap programs now, however many their words: they run, and the
        # reconstruction gate refuses their images
        ("(X1+X2)^40", "reconstruction residual"),
        ("+".join(["(X1+X2)^8"] * 1000), "reconstruction residual"),
        ("+".join(f"X{i}*X{i + 1}" for i in range(1, 3000)),
         "malformed field 'polynomial': polynomial program exceeds the limit"),
        ("(" * 5000 + "X1" + ")" * 5000,
         "malformed field 'polynomial': polynomial text is nested too deeply"),
    ], ids=["long-word", "many-words", "many-products", "many-nodes",
            "deep-nesting"])
    def test_oversized_polynomial_fails_without_stalling(self, tmp_path, a3,
                                                         text, failure):
        doc = json.loads(open(self.make_cert(tmp_path, a3)).read())
        doc["polynomial"] = text
        start = time.perf_counter()
        failures = verify_certificate(doc)
        assert time.perf_counter() - start < 5.0
        assert len(failures) == 1
        assert failures[0].startswith(failure)

    def test_tampered_tuple_fails(self, tmp_path, a3):
        out = self.make_cert(tmp_path, a3)
        doc = json.loads(open(out).read())
        doc["tuples"][0][0]["entries"][2][0] += 1e-2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, _ = run_cli("verify", str(bad))
        assert code == 1
        assert "residual" in stdout

    def test_sign_injection_fails(self, tmp_path, rng):
        a4 = write_matrix(tmp_path / "a4.json", random_traceless(rng, 4))
        out = str(tmp_path / "cert.json")
        assert main(["decompose", "X1", a4, "--mode", "four", "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["mode"] == "four-term"
        doc["coefficients"] = [[1, 0], [1, 0], [1, 0], [-1, 0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, _ = run_cli("verify", str(bad))
        assert code == 1
        assert "discipline" in stdout

    def test_tampered_transform_fails(self, tmp_path, a3):
        out = self.make_cert(tmp_path, a3, matrix_level=True)
        doc = json.loads(open(out).read())
        doc["similarity_steps"][0]["t"]["entries"][0][0] *= 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, _ = run_cli("verify", str(bad))
        assert code == 1

    def nan_tampered_verdict(self, tmp_path, rng, capsys, tamper,
                             matrix_level=False):
        # json writes and reads the NaN literal; a NaN bound must not pass
        a4 = write_matrix(tmp_path / "a4.json", random_traceless(rng, 4))
        out = self.make_cert(tmp_path, a4, matrix_level)
        doc = json.loads(open(out).read())
        tamper(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["verify", str(bad)])
        return code, capsys.readouterr().out

    def test_nan_residual_bound_fails(self, tmp_path, rng, capsys):
        def tamper(doc):
            doc["target"] = matrix_to_json(random_traceless(rng, 4))
            doc["residual_bound"] = float("nan")

        code, stdout = self.nan_tampered_verdict(tmp_path, rng, capsys, tamper)
        assert code == 1
        assert "reconstruction residual" in stdout

    def test_nan_cert_tol_fails(self, tmp_path, rng, capsys):
        def tamper(doc):
            doc["similarity_steps"][0]["t"] = matrix_to_json(
                random_traceless(rng, 4))
            doc["cert_tol"] = float("nan")

        code, stdout = self.nan_tampered_verdict(tmp_path, rng, capsys, tamper,
                                                 matrix_level=True)
        assert code == 1
        assert "similarity step" in stdout

    @pytest.mark.parametrize("matrix_level", [False, True])
    @pytest.mark.parametrize("field", ["residual_bound", "cert_tol"])
    def test_nan_stored_bound_alone_fails(self, tmp_path, rng, capsys, field,
                                          matrix_level):
        # an untampered certificate, but for one NaN bound
        code, stdout = self.nan_tampered_verdict(
            tmp_path, rng, capsys, lambda doc: doc.update({field: math.nan}),
            matrix_level)
        assert code == 1
        assert stdout.startswith("FAIL: ") and "nan" in stdout.lower()

    def test_infinite_bound_cannot_pass_an_overflowing_target(
            self, tmp_path, rng, capsys):
        # ||target||_F overflows, so the verifier's own bound is infinite too
        def tamper(doc):
            doc["target"]["entries"][1][0] = 1e200
            doc["residual_bound"] = math.inf

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code, stdout = self.nan_tampered_verdict(tmp_path, rng, capsys,
                                                     tamper)
        assert code == 1
        assert "reconstruction residual inf exceeds bound inf" in stdout
        # and no NumPy overflow warning beside it
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []

    def malformed_verdict(self, tmp_path, a3, field, value):
        doc = json.loads(open(self.make_cert(tmp_path, a3)).read())
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return run_cli("verify", str(bad))

    def test_malformed_coefficients_fail_cleanly(self, tmp_path, a3):
        code, stdout, stderr = self.malformed_verdict(tmp_path, a3,
                                                      "coefficients", 5)
        assert code == 1
        assert stdout.startswith("FAIL: malformed field 'coefficients'")
        assert "Traceback" not in stderr

    def test_malformed_similarity_step_fails_cleanly(self, tmp_path, a3):
        code, stdout, stderr = self.malformed_verdict(tmp_path, a3,
                                                      "similarity_steps", [5])
        assert code == 1
        assert stdout.startswith("FAIL: malformed field 'similarity_steps'")
        assert "Traceback" not in stderr

    def test_malformed_tuple_fails_cleanly(self, tmp_path, a3):
        code, stdout, stderr = self.malformed_verdict(tmp_path, a3,
                                                      "tuples", [5])
        assert code == 1
        assert stdout.startswith("FAIL: malformed field 'tuples'")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("field, tamper", [
        ("cert_tol", lambda doc: doc.update(cert_tol=[1])),
        ("residual_bound", lambda doc: doc.update(residual_bound=None)),
        ("target", lambda doc: doc.pop("target")),
        ("polynomial", lambda doc: doc.update(polynomial=5)),
    ])
    def test_malformed_scalar_fails_cleanly(self, tmp_path, a3, field, tamper):
        doc = json.loads(open(self.make_cert(tmp_path, a3)).read())
        tamper(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, stderr = run_cli("verify", str(bad))
        assert code == 1
        assert stdout.startswith(f"FAIL: malformed field '{field}'")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("keep", [1, 0])
    def test_short_tuple_is_named(self, tmp_path, a3, keep):
        doc = json.loads(open(self.make_cert(tmp_path, a3)).read())
        doc["tuples"][1] = doc["tuples"][1][:keep]
        assert verify_certificate(doc) == [
            f"tuple 1 has {keep} matrices; polynomial needs 2"]

    def test_extra_tuple_matrix_ignored(self, tmp_path, a3):
        doc = json.loads(open(self.make_cert(tmp_path, a3)).read())
        doc["tuples"][0].append(doc["target"])
        assert verify_certificate(doc) == []

    @pytest.mark.parametrize("field, tamper", [
        ("similarity_steps", lambda doc: doc["similarity_steps"][0].pop("t")),
        ("similarity_steps",
         lambda doc: doc["similarity_steps"][0].update(t=5)),
        ("similarity_steps", lambda doc: doc["similarity_steps"][0].update(
            t=matrix_to_json(np.eye(2)), t_inv=matrix_to_json(np.eye(2)))),
        ("tuples", lambda doc: doc["tuples"][0].__setitem__(0, 5)),
        ("terms", lambda doc: (doc.update(tuples=None), doc.pop("terms"))),
        ("terms", lambda doc: doc.update(
            tuples=None, terms=[matrix_to_json(np.eye(2))] * 2)),
        ("polynomial", lambda doc: doc.update(polynomial="X1+")),
        (None, lambda doc: doc.pop("n")),
    ], ids=["step-without-t", "step-t-not-a-matrix", "step-wrong-size",
            "tuple-entry-not-a-matrix", "no-terms", "terms-wrong-size",
            "polynomial-unparsable", "no-n"])
    def test_hand_edited_document_never_raises(self, tmp_path, a3, capsys,
                                               field, tamper):
        # the step tampers need the steps, which only matrix-level
        # certificates carry
        matrix_level = field == "similarity_steps"
        doc = json.loads(open(self.make_cert(tmp_path, a3,
                                             matrix_level)).read())
        tamper(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["verify", str(bad)])
        stdout = capsys.readouterr().out
        if field is None:
            # verifies; n is read from the target
            assert code == 0
            assert stdout.startswith("OK") and "(n=3," in stdout
        else:
            assert code == 1
            assert stdout.startswith(f"FAIL: malformed field '{field}'")

    @pytest.mark.parametrize("stored, failure", [
        (99, "99, but the target is 5x5"),
        ("x", "not an integer"),
        (5.0, "not an integer"),
        (True, "not an integer"),
    ])
    def test_stored_n_is_the_target_size(self, tmp_path, rng, capsys, stored,
                                         failure):
        a5 = write_matrix(tmp_path / "a5.json", random_traceless(rng, 5))
        out = tmp_path / "cert.json"
        assert main(["decompose", "[X1,X2]", a5, "--mode", "four",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "four-term" and doc["n"] == 5
        doc["n"] = stored
        assert verify_certificate(doc) == [f"malformed field 'n': {failure}"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert capsys.readouterr().out.startswith(
            f"FAIL: malformed field 'n': {failure}")

    def test_garbage_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else"}')
        code, stdout, _ = run_cli("verify", str(bad))
        assert code == 1  # recognized JSON, unrecognized certificate
        missing = tmp_path / "missing.json"
        code, _, _ = run_cli("verify", str(missing))
        assert code == 2


    def test_non_object_document_fails_cleanly(self, tmp_path, capsys):
        for text in ("[1, 2]", '"x"'):
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            capsys.readouterr()
            code = main(["verify", str(bad)])
            assert code == 1
            assert "not a certificate document" in capsys.readouterr().out


class TestClassifyCommand:
    def test_central(self):
        code, out, _ = run_cli("classify", "[X1,X2]^2", "2")
        assert code == 0 and out.startswith("central")

    def test_generic(self):
        code, out, _ = run_cli("classify", "[X1,X2]^2", "3")
        assert code == 0 and out.startswith("generic")


class TestSearchImageCommand:
    def test_writes_witness_and_args(self, tmp_path):
        out = str(tmp_path / "w.json")
        code, _, _ = run_cli("search-image", "[X1,X2]", "3",
                             "--goal", "distinct-eigs", "--out", out)
        assert code == 0
        doc = json.loads(open(out).read())
        image = matrix_from_json(doc["image"])
        args = [matrix_from_json(a) for a in doc["args"]]
        from matwaring.freealg import evaluate, parse
        recomputed = evaluate(parse(doc["polynomial"]), args)
        assert np.allclose(recomputed, image)

    def test_budget_exhaustion_exit_code(self):
        code, _, _ = run_cli("search-image", "[X1,X2]", "2",
                             "--goal", "nonzero-trace", "--budget", "20")
        assert code == 4
