import base64
import copy
import json
import math
import os
import string
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from matwaring.cli import main
from matwaring.config import DEFAULT_TOLS
from matwaring.serialize import (
    dumps_canonical,
    matrix_from_json,
    matrix_to_json,
)
from matwaring.verify import check_certificate, verify_certificate

from conftest import (
    TARGET_FORMS,
    decimal,
    edit_target,
    in_form,
    packed,
    random_complex,
    random_traceless,
    target_of,
)


def write_matrix(path, A):
    path.write_text(dumps_canonical(matrix_to_json(A)))
    return str(path)


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


def _with_char(text, at, char):
    return text[:at] + char + text[at + 1:]


def _with_part(target, value):
    """The matrix of a packed target, with the imaginary part of its middle
    entry set to value."""
    M = target_of({"target": target})
    M.imag.flat[M.size // 2] = value
    return M


_B64 = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"


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
        doc = json.loads(Path(out).read_text())
        assert doc["mode"] == "two-term"
        assert verify_certificate(doc) == []

    def test_packed_target_file(self, tmp_path, rng):
        A = random_traceless(rng, 4)
        A[0, 1] = complex(-0.0, -0.0)
        path = tmp_path / "a4.json"
        path.write_text(json.dumps(packed(A)))
        out = str(tmp_path / "cert.json")
        assert main(["decompose", "[X1,X2]", str(path), "--out", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert np.array_equal(target_of(doc).view(np.uint64),
                              A.view(np.uint64))
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
        doc = json.loads(Path(out).read_text())
        assert doc["residual"] == 0.0
        assert verify_certificate(doc) == []

    def test_reports_relative_residual_and_k(self, tmp_path, rng, capsys):
        out = str(tmp_path / "cert.json")
        for scale, k in ((0.1, None), (1e-9, -9)):
            A = scale * random_traceless(rng, 3)
            path = write_matrix(tmp_path / "a.json", A)
            assert main(["decompose", "[X1,X2]", path, "--out", out]) == 0
            residual = json.loads(Path(out).read_text())["residual"]
            shown = (f"(residual {residual:.3e}, relative "
                     f"{residual / np.linalg.norm(A):.3e}")
            tail = ")" if k is None else f", k = {k})"
            assert capsys.readouterr().out == (
                f"two-term certificate written to {out} {shown}{tail}\n")
        # a zero target has no relative residual
        path = write_matrix(tmp_path / "z.json", np.zeros((3, 3)))
        assert main(["decompose", "[X1,X2]", path, "--out", out]) == 0
        assert capsys.readouterr().out == (
            f"two-term certificate written to {out} (residual 0.000e+00)\n")

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
        doc = json.loads(Path(out).read_text())
        assert doc["mode"] == "five-term"
        assert verify_certificate(doc) == []

    def test_tolerance_flags(self, tmp_path, a3):
        out = str(tmp_path / "cert.json")
        code = main(["decompose", "[X1,X2]", a3, "--tol-end", "1e-4",
                     "--out", out])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert doc["tolerances"]["end_tol"] == 1e-4

    def test_rank_tolerance_flag_is_gone(self, a3):
        # no decomposition reads a rank tolerance, so the flag does not exist
        code, _, err = run_cli("decompose", "[X1,X2]", a3, "--tol-rank", "1e-3")
        assert code == 2
        assert "--tol-rank" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("command, flag", [
        *(("decompose", f"--tol-{name}")
          for name in ("gap", "hollow", "split", "cert", "end")),
        ("classify", "--tol"),
    ])
    def test_tolerance_not_positive_and_finite_exits_2(
            self, tmp_path, capsys, command, flag, value):
        # a NaN or infinite tolerance reached the gates, which blamed the
        # target or its clusters and exited 5
        A = random_traceless(np.random.default_rng(5), 4)
        path = write_matrix(tmp_path / "a4.json", A / np.linalg.norm(A))
        args = ([path, "--out", str(tmp_path / "cert.json")]
                if command == "decompose" else ["4"])
        assert main([command, "[X1,X2]", *args, f"{flag}={value}"]) == 2
        assert (f"{flag} must be a positive finite number"
                in capsys.readouterr().err)

    def test_malformed_matrix_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "entries": [["1", 0], [0, 0], [0, 0], [0, 0]]}')
        code = main(["decompose", "[X1,X2]", str(path),
                     "--out", str(tmp_path / "cert.json")])
        assert code == 2
        assert "entry 0" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"n": Infinity, "entries": []}',
        '{"n": 1, "entries": [[1' + "0" * 400 + ', 0]]}',
    ], ids=["n-infinite", "entry-past-double"])
    def test_number_past_double_range_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "big.json"
        path.write_text(text)
        code = main(["decompose", "[X1,X2]", str(path),
                     "--out", str(tmp_path / "cert.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("n", ["2.9", "2.0", "true", '"2"'])
    def test_size_that_is_not_an_integer_exits_2(self, tmp_path, capsys, n):
        path = tmp_path / "sized.json"
        path.write_text('{"n": ' + n + ', "entries": '
                        '[[1, 0], [0, 0], [0, 0], [-1, 0]]}')
        code = main(["decompose", "[X1,X2]", str(path),
                     "--out", str(tmp_path / "cert.json")])
        assert code == 2
        assert "nonnegative integer" in capsys.readouterr().err

    def test_non_object_matrix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[[1, 0]]")
        code = main(["decompose", "[X1,X2]", str(path),
                     "--out", str(tmp_path / "cert.json")])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("entries", ["5", "null", '{"0": [1, 0]}'])
    def test_entries_that_are_not_a_list_exit_2(self, tmp_path, capsys,
                                                 entries):
        path = tmp_path / "scalar.json"
        path.write_text('{"n": 2, "entries": ' + entries + '}')
        code = main(["decompose", "[X1,X2]", str(path),
                     "--out", str(tmp_path / "cert.json")])
        assert code == 2
        assert "entries must be a list" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path, a3):
        out1, out2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
        run_cli("decompose", "[X1,X2]", a3, "--seed", "9", "--out", out1)
        run_cli("decompose", "[X1,X2]", a3, "--seed", "9", "--out", out2)
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    @pytest.mark.parametrize("poly, mode, n", [
        ("[X1,X2]", "four", 24), ("(X1+X2*X3+X3*X1)^4", "five", 12),
        ("[X1,X2]", "four", 33),    # the (p, q, r) pattern
        ("[X1,X2]", "two", 31),
        ("[X1,X2]", "two", 64)])   # butterfly rounds only, no reflector
    def test_determinism_across_blas_threads(self, tmp_path, poly, mode, n):
        A = random_complex(np.random.default_rng(n), n)
        if mode != "five":
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
    def make_cert(self, tmp_path, a3):
        out = str(tmp_path / "cert.json")
        assert main(["decompose", "[X1,X2]", a3, "--out", out]) == 0
        return out

    def test_fresh_certificate_passes(self, tmp_path, a3):
        out = self.make_cert(tmp_path, a3)
        code, stdout, _ = run_cli("verify", out)
        assert code == 0 and stdout.startswith("OK")

    def test_ok_line_says_what_was_checked(self, tmp_path, a3, capsys):
        doc = json.loads(Path(self.make_cert(tmp_path, a3)).read_text())
        target = matrix_from_json(doc["target"])
        bound = DEFAULT_TOLS.end_tol * max(1.0, np.linalg.norm(target))
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "cert.json")]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith(f"OK: {doc['mode']} certificate verifies "
                                 "(n=3, residual ")
        assert stdout.endswith(f" <= {bound:.1e})\n")

    def test_looser_tol_end_is_held_to_the_verifiers_bound(self, tmp_path,
                                                           a3, capsys):
        out = str(tmp_path / "cert.json")
        assert main(["decompose", "[X1,X2]", a3, "--tol-end", "1e-4",
                     "--out", out]) == 0
        doc = json.loads(Path(out).read_text())
        target = matrix_from_json(doc["target"])
        own = DEFAULT_TOLS.end_tol * max(1.0, np.linalg.norm(target))
        assert doc["residual_bound"] > own
        capsys.readouterr()
        assert main(["verify", out]) == 0
        assert capsys.readouterr().out.endswith(f" <= {own:.1e})\n")
        # a residual between the verifier's bound and the stored one fails,
        # on the packed target and on the same target at version 1
        def moved(M):
            M[0, 0] += 10 * own
            return M

        for form in TARGET_FORMS:
            tampered = in_form(copy.deepcopy(doc), form)
            assert verify_certificate(tampered) == []
            verdict = check_certificate(edit_target(tampered, moved))
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

    def test_tighter_stored_bound_is_enforced(self, tmp_path, a3):
        doc = json.loads(Path(self.make_cert(tmp_path, a3)).read_text())
        doc["residual_bound"] = doc["residual"] / 2
        failures = verify_certificate(doc)
        assert len(failures) == 1
        assert failures[0].startswith("reconstruction residual")

    @pytest.mark.parametrize("text, failure", [
        ("X1^1000000", "malformed field 'polynomial': polynomial degree"),
        # cheap programs now, however many their words: they run, and the
        # reconstruction gate refuses their images
        ("(X1+X2)^40", "reconstruction residual"),
        ("+".join(["(X1+X2)^8"] * 1000), "reconstruction residual"),
        ("+".join(f"X{a}*X{b}" for a in range(1, 65) for b in range(1, 65)),
         "malformed field 'polynomial': polynomial program exceeds the limit"),
        ("(" * 5000 + "X1" + ")" * 5000,
         "malformed field 'polynomial': polynomial text is nested too deeply"),
    ], ids=["long-word", "many-words", "many-products", "many-nodes",
            "deep-nesting"])
    def test_oversized_polynomial_fails_without_stalling(self, tmp_path, a3,
                                                         text, failure):
        doc = json.loads(Path(self.make_cert(tmp_path, a3)).read_text())
        doc["polynomial"] = text
        start = time.perf_counter()
        failures = verify_certificate(doc)
        assert time.perf_counter() - start < 5.0
        assert len(failures) == 1
        assert failures[0].startswith(failure)

    @pytest.mark.parametrize("n", [3.0, 3.5, True, "3"])
    def test_target_size_that_is_not_an_integer_fails(self, tmp_path, a3,
                                                      n):
        doc = json.loads(Path(self.make_cert(tmp_path, a3)).read_text())
        for form in TARGET_FORMS:
            tampered = in_form(copy.deepcopy(doc), form)
            assert verify_certificate(tampered) == []
            if n is True:
                # one entry, which a size read as 1 would take
                edit_target(tampered, lambda M: M[:1, :1])
            tampered["target"]["n"] = n
            assert verify_certificate(tampered) == [
                "malformed field 'target': not a matrix document"]

    @pytest.mark.parametrize("n, tamper, reason", [
        (3, lambda t: t.update(c16le=t["c16le"][:-1]), "not base64"),
        (3, lambda t: t.update(c16le=t["c16le"][:-4]), "packs 141 bytes"),
        (3, lambda t: t.update(c16le=_with_char(t["c16le"], 9, "!")),
         "not base64"),
        (3, lambda t: t.update(c16le=_with_char(t["c16le"], 9, "é")),
         "not base64"),
        (3, lambda t: t.update(c16le=t["c16le"] + "\n"), "not base64"),
        # 144 bytes fill whole quartets; padding after them decodes to the
        # same bytes, and only the re-encoding shows it
        (3, lambda t: t.update(c16le=t["c16le"] + "=="), "not canonical"),
        # 400 bytes end in a quartet "XY==" whose last four bits are zero;
        # with one of them set it decodes to the same bytes
        (5, lambda t: t.update(c16le=_with_char(
            t["c16le"], -3, _B64[_B64.index(t["c16le"][-3]) ^ 1])),
         "not canonical"),
        (5, lambda t: t.update(c16le=t["c16le"][:-1]), "not base64"),
        (5, lambda t: t.update(c16le=t["c16le"] + "="), "not base64"),
        (3, lambda t: t.update(packed(_with_part(t, math.nan))), "finite"),
        (3, lambda t: t.update(packed(_with_part(t, math.inf))), "finite"),
        (3, lambda t: t.update(packed(_with_part(t, -math.inf))), "finite"),
        # the bytes of a 2x2 matrix
        (3, lambda t: t.update(c16le=packed(np.eye(2))["c16le"]),
         "packs 64 bytes"),
        (3, lambda t: t.update(c16le=packed(np.eye(2))["c16le"], n=2.0),
         "nonnegative integer"),
        (3, lambda t: t.update(c16le=packed(np.eye(1))["c16le"], n=True),
         "nonnegative integer"),
        (3, lambda t: t.update(c16le=packed(np.eye(2))["c16le"], n="2"),
         "nonnegative integer"),
        (3, lambda t: t.update(entries=decimal(np.eye(3))["entries"]),
         "both entries and c16le"),
        (3, lambda t: t.update(c16le=None), "must be a string"),
    ], ids=["truncated", "truncated-quartet", "non-base64-character",
            "non-ascii-character", "newline", "padding-after-whole-quartets",
            "trailing-bits", "short-padding", "long-padding", "nan-part",
            "inf-part", "minus-inf-part", "length-of-another-n",
            "n-float", "n-true", "n-string", "entries-and-c16le",
            "c16le-not-a-string"])
    def test_malformed_packed_target_fails_cleanly(self, tmp_path, rng,
                                                   capsys, n, tamper, reason):
        path = write_matrix(tmp_path / "a.json", random_traceless(rng, n))
        doc = json.loads(Path(self.make_cert(tmp_path, path)).read_text())
        assert verify_certificate(doc) == []
        tamper(in_form(doc, "packed")["target"])
        with pytest.raises(ValueError, match=reason):
            matrix_from_json(doc["target"])
        assert verify_certificate(doc) == [
            "malformed field 'target': not a matrix document"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "FAIL: malformed field 'target': not a matrix document\n"
        assert err == ""

    @pytest.mark.parametrize("bit", [51, 52, 63])
    def test_one_bit_flip_in_packed_target_fails(self, tmp_path, a3, bit):
        # bits 51, 52 and 63 of the first entry's real part are the highest
        # of its mantissa, the lowest of its exponent and its sign; each
        # flip leaves a finite part, which the reconstruction gate refuses
        doc = json.loads(Path(self.make_cert(tmp_path, a3)).read_text())
        raw = bytearray(base64.b64decode(in_form(doc, "packed")["target"][
            "c16le"]))
        raw[bit // 8] ^= 1 << bit % 8
        doc["target"]["c16le"] = base64.b64encode(raw).decode("ascii")
        failures = verify_certificate(doc)
        assert len(failures) == 1
        assert failures[0].startswith("reconstruction residual")

    def test_tampered_tuple_fails(self, tmp_path, a3):
        out = self.make_cert(tmp_path, a3)
        doc = json.loads(Path(out).read_text())
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
        doc = json.loads(Path(out).read_text())
        assert doc["mode"] == "four-term"
        doc["coefficients"] = [[1, 0], [1, 0], [1, 0], [-1, 0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, _ = run_cli("verify", str(bad))
        assert code == 1
        assert "discipline" in stdout

    def nan_tampered_verdict(self, tmp_path, rng, capsys, tamper):
        # json writes and reads the NaN literal; a NaN bound must not pass
        a4 = write_matrix(tmp_path / "a4.json", random_traceless(rng, 4))
        out = self.make_cert(tmp_path, a4)
        doc = json.loads(Path(out).read_text())
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

    @pytest.mark.parametrize("field", ["residual_bound"])
    def test_nan_stored_bound_alone_fails(self, tmp_path, rng, capsys, field):
        # an untampered certificate, but for one NaN bound
        code, stdout = self.nan_tampered_verdict(
            tmp_path, rng, capsys, lambda doc: doc.update({field: math.nan}))
        assert code == 1
        assert stdout.startswith("FAIL: ") and "nan" in stdout.lower()

    def test_infinite_bound_cannot_pass_an_overflowing_target(
            self, tmp_path, rng, capsys):
        # ||target||_F overflows, so the verifier's own bound is infinite too
        def overflowing(M):
            M.real[0, 1:3] = 1.5e308
            return M

        def tamper(doc, form):
            assert verify_certificate(in_form(doc, form)) == []
            edit_target(doc, overflowing)
            doc["residual_bound"] = math.inf

        for form in TARGET_FORMS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                code, stdout = self.nan_tampered_verdict(
                    tmp_path, rng, capsys, lambda doc: tamper(doc, form))
            assert code == 1
            assert "reconstruction residual inf exceeds bound inf" in stdout
            # and no NumPy overflow warning beside it
            assert [str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)] == []

    def test_overflowing_tuples_fail_without_numpy_warnings(self, tmp_path):
        # f's products on tuple parts of 1e200 overflow, and the residual is
        # NaN: the gate reports it, with no NumPy warning beside it
        A = random_traceless(np.random.default_rng(5), 5)
        out = tmp_path / "cert.json"
        assert main(["decompose", "[X1,X2]",
                     write_matrix(tmp_path / "a5.json", A), "--mode", "two",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "two-term"
        doc["tuples"][0][0]["entries"][0][0] = 1e200
        doc["tuples"][0][1]["entries"][0][0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            failures = verify_certificate(doc)
        assert len(failures) == 1
        assert failures[0].startswith("reconstruction residual nan exceeds "
                                      "bound ")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, stderr = run_cli("verify", str(bad))
        assert (code, stdout, stderr) == (1, f"FAIL: {failures[0]}\n", "")

    def malformed_verdict(self, tmp_path, a3, field, value):
        doc = json.loads(Path(self.make_cert(tmp_path, a3)).read_text())
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

    def test_malformed_tuple_fails_cleanly(self, tmp_path, a3):
        code, stdout, stderr = self.malformed_verdict(tmp_path, a3,
                                                      "tuples", [5])
        assert code == 1
        assert stdout.startswith("FAIL: malformed field 'tuples'")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("field, tamper", [
        ("residual_bound", lambda doc: doc.update(residual_bound=None)),
        ("target", lambda doc: doc.pop("target")),
        ("polynomial", lambda doc: doc.update(polynomial=5)),
    ])
    def test_malformed_scalar_fails_cleanly(self, tmp_path, a3, field, tamper):
        doc = json.loads(Path(self.make_cert(tmp_path, a3)).read_text())
        tamper(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, stderr = run_cli("verify", str(bad))
        assert code == 1
        assert stdout.startswith(f"FAIL: malformed field '{field}'")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("keep", [1, 0])
    def test_short_tuple_is_named(self, tmp_path, a3, keep):
        doc = json.loads(Path(self.make_cert(tmp_path, a3)).read_text())
        doc["tuples"][1] = doc["tuples"][1][:keep]
        assert verify_certificate(doc) == [
            f"tuple 1 has {keep} matrices; polynomial needs 2"]

    @pytest.mark.parametrize("key, value", [
        ("similarity_steps", [{"label": "forged", "t": 5}]),
        ("witness", {"n": 1, "entries": [[1.0, 0.0]]}),
        ("terms", [{"n": 1, "entries": [[1.0, 0.0]]}]),
    ], ids=["similarity-steps", "witness", "terms"])
    def test_construction_keys_are_ignored(self, tmp_path, a3, key, value):
        # older documents carried these keys; a pass rests on the
        # reconstruction gate over the tuples alone, whatever they hold
        def moved(M):
            M[0, 0] += 1e-2
            return M

        doc = json.loads(Path(self.make_cert(tmp_path, a3)).read_text())
        doc[key] = value
        for form in TARGET_FORMS:
            tampered = in_form(copy.deepcopy(doc), form)
            assert verify_certificate(tampered) == []
            failures = verify_certificate(edit_target(tampered, moved))
            assert len(failures) == 1
            assert failures[0].startswith("reconstruction residual")

    def test_extra_tuple_matrix_ignored(self, tmp_path, a3):
        doc = json.loads(Path(self.make_cert(tmp_path, a3)).read_text())
        doc["tuples"][0].append(doc["target"])
        assert verify_certificate(doc) == []

    @pytest.mark.parametrize("failure, tamper", [
        ("malformed field 'tuples'",
         lambda doc: doc["tuples"][0].__setitem__(0, 5)),
        ("certificate has no argument tuples",
         lambda doc: doc.update(tuples=None)),
        # terms are never read in place of the tuples, not even the null
        # that older documents stored
        ("certificate has no argument tuples",
         lambda doc: doc.update(tuples=None, terms=None)),
        ("certificate has no argument tuples",
         lambda doc: doc.update(
             tuples=None, terms=[matrix_to_json(np.eye(2))] * 2)),
        ("malformed field 'polynomial'",
         lambda doc: doc.update(polynomial="X1+")),
        (None, lambda doc: doc.pop("n")),
        # numbers past the double range: an infinite n, an integer literal
        # of 401 digits
        ("malformed field 'target'",
         lambda doc: doc["target"].update(n=math.inf)),
        ("malformed field 'tuples'",
         lambda doc: doc["tuples"][0][0].update(n=math.inf)),
        ("malformed field 'coefficients'",
         lambda doc: doc["coefficients"][0].__setitem__(0, 10 ** 400)),
        # a coefficient is a list of exactly two numbers
        ("malformed field 'coefficients'",
         lambda doc: (doc["coefficients"][0].append("junk"),
                      doc["coefficients"][1].append(None))),
        ("malformed field 'residual_bound'",
         lambda doc: doc.update(residual_bound=10 ** 400)),
        # only a decimal (version 1) target can hold an integer literal
        ("malformed field 'target'",
         lambda doc: in_form(doc, "v1")["target"]["entries"][0].__setitem__(
             0, 10 ** 400)),
        ("malformed field 'tuples'",
         lambda doc: doc["tuples"][1][0]["entries"][0].__setitem__(
             0, 10 ** 400)),
        ("unknown mode 'six-term'", lambda doc: doc.update(mode="six-term")),
        ("certificate has tuples but no polynomial text",
         lambda doc: doc.update(polynomial=None)),
        ("2 coefficients but 1 tuples", lambda doc: doc["tuples"].pop()),
    ], ids=["tuple-entry-not-a-matrix", "no-tuples", "no-terms",
            "terms-wrong-size", "polynomial-unparsable", "no-n",
            "target-n-infinite", "tuple-n-infinite", "coefficient-past-double",
            "coefficient-extra-elements",
            "residual-bound-past-double",
            "target-entry-past-double", "tuple-entry-past-double",
            "unknown-mode", "no-polynomial", "tuple-missing"])
    def test_hand_edited_document_never_raises(self, tmp_path, a3, capsys,
                                               failure, tamper):
        doc = json.loads(Path(self.make_cert(tmp_path, a3)).read_text())
        tamper(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        failures = verify_certificate(json.loads(bad.read_text()))
        capsys.readouterr()
        code = main(["verify", str(bad)])
        stdout = capsys.readouterr().out
        if failure is None:
            # verifies; n is read from the target
            assert code == 0
            assert stdout.startswith("OK") and "(n=3," in stdout
        else:
            assert code == 1
            assert stdout.startswith(f"FAIL: {failure}")
            assert failures[0].startswith(failure)

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

    def test_directory_exits_2(self, tmp_path, capsys):
        # an unreadable path is an input error like a missing file
        code = main(["verify", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


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

    def test_variable_index_over_the_limit_is_a_parse_error(self):
        code, _, err = run_cli("classify", "X100000000", "2")
        assert code == 2 and "variable index exceeds" in err


class TestSearchImageCommand:
    def test_writes_witness_and_args(self, tmp_path):
        out = str(tmp_path / "w.json")
        code, _, _ = run_cli("search-image", "[X1, X2]", "3",
                             "--goal", "distinct-eigs", "--out", out)
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert doc["polynomial"] == "[X1, X2]"    # the text as given
        image = matrix_from_json(doc["image"])
        args = [matrix_from_json(a) for a in doc["args"]]
        from matwaring.freealg import evaluate, parse
        recomputed = evaluate(parse(doc["polynomial"]), args)
        assert np.allclose(recomputed, image)

    def test_budget_exhaustion_exit_code(self):
        code, _, _ = run_cli("search-image", "[X1,X2]", "2",
                             "--goal", "nonzero-trace", "--budget", "20")
        assert code == 4
