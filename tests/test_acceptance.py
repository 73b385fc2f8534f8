"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime limit is pinned here.
"""

import json
import time

import numpy as np
import pytest

from matwaring.canon import partition_spectrum, zero_diagonal_similarity
from matwaring.config import DEFAULT_TOLS
from matwaring.errors import (
    BudgetExhaustedError,
    MultiplicityTooLargeError,
)
from matwaring.freealg import classify, fro, parse
from matwaring.serialize import certificate_to_json, dumps_canonical
from matwaring.theory import (
    CORNER_K0,
    CORNER_L0,
    hollow_block_basis,
    joint_commutant_dimension,
    make_projector,
    pattern_projectors,
    subspace_sum_rank,
)
from matwaring.unitaries import (
    build_decoupling_unitary,
    corner_unitary,
    split_hollow,
)
from matwaring.verify import verify_certificate
from matwaring.waring import (
    five_term_express,
    four_term_decompose,
    two_term_decompose,
    waring_express,
)

from conftest import planted_matrix, random_complex, random_traceless, sorted_eigs
from test_linalg import kron_sylvester_oracle, schur_sylvester
from test_unitaries import all_patterns


class _Criterion:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.description} "
              f"({elapsed:.2f}s < {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget"
            )
        return False


def test_criterion_1_golden_constants():
    with _Criterion(1, "golden projector and corner constants", 1):
        plus = make_projector(0.5, "+")
        minus = make_projector(0.5, "-")
        assert np.abs(plus - np.array([[0.5, 0.5], [0.5, 0.5]])).max() <= 1e-14
        assert np.abs(minus - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() <= 1e-14

        K0 = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])
        L0 = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]]) / 3
        assert np.abs(CORNER_K0 - K0).max() <= 1e-14
        assert np.abs(CORNER_L0 - L0).max() <= 1e-14

        U0 = corner_unitary()
        T0 = np.diag([1.0, 0, 0]).astype(complex)
        S0 = np.diag([0, 1.0, 0]).astype(complex)
        assert np.abs(U0 @ T0 @ U0.conj().T - K0).max() <= 1e-14
        assert np.abs(U0 @ S0 @ U0.conj().T - L0).max() <= 1e-14


def test_criterion_2_hollow_coverage_and_splits():
    with _Criterion(2, "V + U V U* covers hollow matrices; 50 splits per "
                       "pattern at 1e-9", 30):
        rng = np.random.default_rng(2024)
        for n in range(2, 9):
            for pattern in all_patterns(n):
                U, _ = build_decoupling_unitary(n, pattern)
                V, _ = hollow_block_basis(n, pattern)
                rank = subspace_sum_rank(V, V.conjugated(U))
                assert rank >= n * n - n, (n, pattern, rank)
                for _ in range(50):
                    M = random_complex(rng, n)
                    np.fill_diagonal(M, 0.0)
                    split = split_hollow(M, pattern)
                    assert split.residual <= 1e-9, (n, pattern, split.residual)


def test_criterion_3_commutant_contained_in_diagonals():
    with _Criterion(3, "joint commutant of the projector quadruple has "
                       "dimension <= n", 30):
        for n in range(2, 9):
            for pattern in all_patterns(n):
                U, _ = build_decoupling_unitary(n, pattern)
                projs = pattern_projectors(n, pattern)
                mats = projs + [U @ R @ U.conj().T for R in projs]
                dim = joint_commutant_dimension(mats)
                assert dim <= n, (n, pattern, dim)


FOUR_TERM_SPECTRA = {
    2: [[1, -1]],                                  # case A
    3: [[1, 2, 3]],                                # case B via the 3x3 corner
    4: [[1, 1, 2, 3]],                             # case A
    5: [[1, 1, 2, 2, 3]],                          # case B, odd corner
    6: [[1, 1, 1, 2, 3, 4], [1, 1, 2, 2, 3, 3]],   # case A and case B
}


def test_criterion_4_four_term_end_to_end():
    with _Criterion(4, "four-term decomposition at 1e-8 with matching "
                       "spectra and valid certificates", 60):
        rng = np.random.default_rng(4)
        for n in range(2, 7):
            for spectrum in FOUR_TERM_SPECTRA[n]:
                B = planted_matrix(rng, spectrum)
                spec_b = sorted_eigs(B)
                part = partition_spectrum(B)
                for _ in range(20):
                    A = random_traceless(rng, n)
                    cert = four_term_decompose(part, A)
                    assert cert.residual <= 1e-8 * max(1.0, fro(A))
                    for W in cert.terms:
                        assert np.abs(sorted_eigs(W) - spec_b).max() <= 1e-6
                    for step in cert.steps + cert.term_certs:
                        assert step.residual_inverse <= DEFAULT_TOLS.cert_tol
                        bound = (DEFAULT_TOLS.cert_tol * step.condition_estimate
                                 * fro(step.source))
                        assert step.residual_map <= bound


EXPRESS_POLYS = ["[X1,X2]", "X1*X2*X3 - X3*X2*X1", "X1^2 + X2"]


def test_criterion_5_waring_express_verified_independently():
    with _Criterion(5, "waring_express on three polynomials, n in {2,3,4}, "
                       "verified from serialized bytes", 120):
        rng = np.random.default_rng(5)
        for text in EXPRESS_POLYS:
            f = parse(text)
            for n in (2, 3, 4):
                for k in range(10):
                    A = random_traceless(rng, n)
                    cert = waring_express(f, A, seed=1000 * n + k)
                    assert cert.residual <= 1e-6 * max(1.0, fro(A))
                    payload = dumps_canonical(
                        certificate_to_json(cert, DEFAULT_TOLS)
                    )
                    doc = json.loads(payload)
                    assert verify_certificate(doc) == [], (text, n, k)


def test_criterion_6_two_term():
    with _Criterion(6, "two-term decomposition for prime n and multilinear f, "
                       "verified independently", 30):
        rng = np.random.default_rng(6)
        cases = [("[X1,X2]", 3), ("X1*X2*X3 - X3*X2*X1", 4)]
        for text, n in cases:
            f = parse(text)
            A = random_traceless(rng, n)
            cert = two_term_decompose(f, A, seed=6)
            assert cert.coefficients == [1.0, -1.0]
            assert len(cert.tuples) == 2
            doc = json.loads(dumps_canonical(
                certificate_to_json(cert, DEFAULT_TOLS)))
            assert verify_certificate(doc) == [], (text, n)


def test_criterion_7_five_term_and_trace_obstruction():
    with _Criterion(7, "five-term succeeds for X1^2+X1 and hits the trace "
                       "obstruction for [X1,X2]", 30):
        cert = five_term_express(parse("X1^2 + X1"), np.eye(3, dtype=complex),
                                 seed=7)
        assert cert.residual <= 1e-6 * max(1.0, fro(np.eye(3)))
        doc = json.loads(dumps_canonical(
            certificate_to_json(cert, DEFAULT_TOLS)))
        assert verify_certificate(doc) == []

        with pytest.raises(BudgetExhaustedError):
            five_term_express(parse("[X1,X2]"), np.eye(3, dtype=complex),
                              budget=100, seed=7)


def test_criterion_8_negative_controls():
    with _Criterion(8, "multiplicity gate, classifier verdicts, and the "
                       "central-polynomial refusal (exit 3)", 10):
        with pytest.raises(MultiplicityTooLargeError):
            partition_spectrum(np.diag([1.0, 1.0, 1.0, 2.0]))

        assert classify(parse("[X1,X2]^2"), 2).verdict == "central"
        assert classify(parse("[X1,X2]^2"), 3).verdict == "generic"

        import tempfile, os
        from matwaring.cli import main
        from matwaring.serialize import matrix_to_json
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "a2.json")
            with open(path, "w") as fh:
                fh.write(dumps_canonical(matrix_to_json(
                    np.array([[0, 1], [1, 0]], dtype=complex))))
            code = main(["decompose", "[X1,X2]^2", path, "--mode", "four",
                         "--out", os.path.join(tmp, "c.json")])
            assert code == 3


def test_criterion_9_oracle_equivalence():
    with _Criterion(9, "Sylvester matches the dense Kronecker oracle; "
                       "zero-diagonal preserves spectra", 20):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            A1 = random_complex(rng, p)
            A2 = random_complex(rng, q) + 8 * np.eye(q)
            C = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
            X = schur_sylvester(A1, A2, C)
            X_ref = kron_sylvester_oracle(A1, A2, C)
            assert (np.linalg.norm(X - X_ref)
                    <= 1e-10 * max(np.linalg.norm(X_ref), 1e-30))

        for _ in range(100):
            n = int(rng.integers(2, 9))
            A = random_traceless(rng, n)
            hol = zero_diagonal_similarity(A)
            M = hol.target
            assert np.abs(sorted_eigs(M) - sorted_eigs(A)).max() <= 1e-8
