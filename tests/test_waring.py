import gc
import json
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from matwaring import freealg, linalg, waring
from matwaring.canon import partition_spectrum, zero_diagonal_similarity
from matwaring.errors import (
    BudgetExhaustedError,
    IllConditionedError,
    MultiplicityTooLargeError,
    NonzeroTraceError,
    NotGenericError,
    PreconditionUnmetError,
    ResidualTooLargeError,
)
from matwaring.freealg import classify, evaluate, fro, parse, random_tuple
from matwaring.config import DEFAULT_TOLS
from matwaring.linalg import blkdiag
from matwaring.serialize import certificate_to_json, dumps_canonical
from matwaring.unitaries import split_hollow
from matwaring.verify import check_certificate, verify_certificate
from matwaring.waring import (
    GOAL_DISTINCT_EIGS,
    GOAL_MULTIPLICITY_HALF,
    GOAL_NONZERO_TRACE,
    diff_of_similar,
    five_term_express,
    four_term_decompose,
    image_search,
    two_term_decompose,
    waring_express,
)

from conftest import (
    planted_matrix,
    random_complex,
    random_traceless,
    random_unitary,
    sorted_eigs,
    word_by_word_oracle,
)


def check_term_cert(cert, witness):
    for tc in cert.term_certs:
        bound = 1e-9 * tc.condition_estimate * fro(witness)
        assert fro(tc.t @ witness @ tc.t_inv - tc.target) <= bound
        assert fro(tc.t @ tc.t_inv - np.eye(witness.shape[0])) <= 1e-9


class TestDiffOfSimilar:
    def test_zero_coupling(self, rng):
        part = partition_spectrum(planted_matrix(rng, [1, 1, 2, 3]))
        D = blkdiag(part.blocks)
        [(Bp, Bpp, _)] = diff_of_similar(part, [np.zeros_like(D)])
        assert np.array_equal(Bp, D)
        assert np.array_equal(Bpp, D)

    def test_case_a_n2_hand_pattern(self):
        # blocks (1), (-1); C = [[0, c], [d, 0]] splits into the upper
        # assembly [[1, c], [0, -1]] minus the lower assembly [[1, 0], [-d, -1]]
        part = partition_spectrum(np.diag([1.0, -1.0]))
        c, d = 0.7, -0.3
        C = np.array([[0, c], [d, 0]], dtype=complex)
        [(Bp, Bpp, (cu, cl))] = diff_of_similar(part, [C])
        assert np.allclose(Bp, [[1, c], [0, -1]])
        assert np.allclose(Bpp, [[1, 0], [-d, -1]])
        assert np.allclose(sorted_eigs(Bp), [-1, 1])
        assert np.allclose(sorted_eigs(Bpp), [-1, 1])

    def test_difference_is_exact(self, rng):
        part = partition_spectrum(planted_matrix(rng, [1, 1, 2, 2, 3]))
        sizes = part.block_sizes
        edges = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        C = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        for a, b in zip(edges[:-1], edges[1:]):
            C[a:b, a:b] = 0.0
        [(Bp, Bpp, (cu, cl))] = diff_of_similar(part, [C])
        assert np.array_equal(Bp - Bpp, C)  # assembly, not arithmetic
        D = blkdiag(part.blocks)
        for cert, target in ((cu, Bp), (cl, Bpp)):
            resid = fro(cert.t @ D @ cert.t_inv - target)
            assert resid <= 1e-9 * max(1.0, cert.condition_estimate * fro(D))

    def test_nonzero_diagonal_block_rejected(self, rng):
        part = partition_spectrum(planted_matrix(rng, [1, 2]))
        with pytest.raises(ValueError):
            diff_of_similar(part, [np.eye(2)])

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 60])
    def test_small_diagonal_block_entry_rejected(self, rng, scale):
        # C's one entry lies in a diagonal block, where Bp - Bpp is zero:
        # the check is relative to ||C||_F at every scale, with no floor
        # that lets a small C through
        part = partition_spectrum(planted_matrix(rng, range(1, 9)))
        assert part.case_tag == "A"
        C = np.zeros((8, 8), dtype=complex)
        C[0, 0] = 1e-14 * scale
        with pytest.raises(ValueError, match="must vanish"):
            diff_of_similar(part, [C])


class TestFourTerm:
    def test_zero_target(self):
        # no special case: the general path expresses zero exactly
        B = np.diag([1.0, -1.0]).astype(complex)
        cert = four_term_decompose(partition_spectrum(B), np.zeros((2, 2)))
        assert cert.residual == 0.0
        assert cert.coefficients == [1.0, -1.0, 1.0, -1.0]
        check_term_cert(cert, B)

    def test_n2_hollow_target(self):
        B = np.diag([1.0, -1.0]).astype(complex)
        A = np.array([[0, 1], [1, 0]], dtype=complex)
        cert = four_term_decompose(partition_spectrum(B), A)
        assert cert.residual <= 1e-10
        for W in cert.terms:
            assert np.allclose(sorted_eigs(W), [-1, 1], atol=1e-8)
        check_term_cert(cert, B)

    @pytest.mark.parametrize("spectrum", [
        [1, -1],                # n=2, case A
        [1, 2, 3],              # n=3, case B through the 3x3 corner
        [1, 1, 2, 3],           # n=4, case A
        [1, 1, 2, 2, 3],        # n=5, case B, odd with corner
        [1, 1, 1, 2, 3, 4],     # n=6, case A with a 3-cluster
        [1, 1, 2, 2, 3, 3],     # n=6, case B, even
    ])
    def test_planted_spectra(self, rng, spectrum):
        n = len(spectrum)
        B = planted_matrix(rng, spectrum)
        part = partition_spectrum(B)
        for _ in range(3):
            A = random_traceless(rng, n)
            cert = four_term_decompose(part, A)
            assert cert.residual <= 1e-8 * max(1.0, fro(A))
            for W in cert.terms:
                assert np.allclose(sorted_eigs(W), sorted_eigs(B), atol=1e-6)
            check_term_cert(cert, B)

    def test_multiplicity_gate(self):
        B = np.diag([2.0, 2.0, 2.0, 5.0]).astype(complex)
        with pytest.raises(MultiplicityTooLargeError):
            four_term_decompose(partition_spectrum(B),
                                random_traceless(np.random.default_rng(0), 4))

    def test_trace_gate(self, rng):
        B = planted_matrix(rng, [1, 2])
        with pytest.raises(NonzeroTraceError):
            four_term_decompose(partition_spectrum(B), np.eye(2))


class TestImageSearch:
    def test_plain_variable_hits_first_sample(self):
        f = parse("X1")
        B, args = image_search(f, 3, GOAL_MULTIPLICITY_HALF, seed=0)
        assert np.array_equal(B, args[0])

    def test_commutator_distinct_eigs_and_traceless(self):
        f = parse("[X1,X2]")
        B, args = image_search(f, 2, GOAL_DISTINCT_EIGS, seed=1)
        assert abs(np.trace(B)) <= 1e-12 * max(1.0, fro(B))
        # every sampled commutator image is traceless (regression guard on
        # the evaluator, checked on the same stream the search would draw)
        from matwaring.freealg import random_tuple
        for i in range(20):
            rng = np.random.default_rng([1, i])
            img = evaluate(f, random_tuple(rng, 2, 2))
            assert abs(np.trace(img)) <= 1e-12 * max(1.0, fro(img))

    def test_trace_goal_exhausts_for_commutator(self):
        f = parse("[X1,X2]")
        with pytest.raises(BudgetExhaustedError) as err:
            image_search(f, 2, GOAL_NONZERO_TRACE, budget=50, seed=0)
        assert err.value.diagnostic is not None

    def test_deterministic(self):
        f = parse("X1*X2")
        a = image_search(f, 3, GOAL_DISTINCT_EIGS, seed=3)
        b = image_search(f, 3, GOAL_DISTINCT_EIGS, seed=3)
        assert np.array_equal(a[0], b[0])


def distinct_eigs_oracle(image, tols):
    """Reference: the distinct-eigenvalue goal as a loop over pairs."""
    n = image.shape[0]
    eigs = np.linalg.eigvals(image)
    scale = max(float(np.abs(eigs).max(initial=0.0)), np.finfo(float).tiny)
    gaps = [abs(eigs[i] - eigs[j]) for i in range(n) for j in range(i + 1, n)]
    return min(gaps, default=np.inf) > tols.gap_tol * scale


def test_distinct_eigs_goal_matches_oracle():
    f = parse("[X1,X2]")
    images = [evaluate(f, random_tuple(np.random.default_rng([0, i]), 5, 2))
              for i in range(200)]
    # one pair at 0.5x and at 2x the gap tolerance, relative to the scale 3
    for factor, expected in ((0.5, False), (2.0, True)):
        diag = np.diag([3.0, -1.0, 1.0, 1.0 + factor * DEFAULT_TOLS.gap_tol * 3])
        assert distinct_eigs_oracle(diag, DEFAULT_TOLS) == expected
        images.append(diag)
    images.append(np.array([[2.5 + 1j]]))  # no pairs
    for image in images:
        got = waring._goal_satisfied(GOAL_DISTINCT_EIGS, image, DEFAULT_TOLS)
        assert got == distinct_eigs_oracle(image, DEFAULT_TOLS)
    assert waring._goal_satisfied(GOAL_DISTINCT_EIGS, images[-1], DEFAULT_TOLS)


class TestWaringExpress:
    def test_plain_variable(self, rng):
        A = random_traceless(rng, 3)
        cert = waring_express(parse("X1"), A, seed=2)
        assert cert.residual <= 1e-6 * max(1.0, fro(A))
        assert len(cert.tuples) == 4

    def test_commutator_n3(self, rng):
        A = random_traceless(rng, 3)
        cert = waring_express(parse("[X1,X2]"), A, seed=2)
        assert cert.residual <= 1e-7 * max(1.0, fro(A))
        # residual is recomputed from the tuples, from scratch
        f = parse(cert.polynomial)
        recon = sum(c * evaluate(f, tp)
                    for c, tp in zip(cert.coefficients, cert.tuples))
        assert fro(A - recon) <= 1e-7 * max(1.0, fro(A))

    def test_central_polynomial_refused(self):
        with pytest.raises(NotGenericError):
            waring_express(parse("[X1,X2]^2"), np.zeros((2, 2)), seed=0)

    def test_identity_refused(self):
        with pytest.raises(NotGenericError):
            waring_express(parse("[X1,X1]"), np.zeros((2, 2)), seed=0)

    def test_two_central_accepted_for_four_term(self, rng):
        # 2-central polynomials are neither identities nor central, so the
        # four-term route still applies (only two-term refuses them)
        A = random_traceless(rng, 2)
        cert = waring_express(parse("[X1,X2]"), A, seed=4)
        assert cert.residual <= 1e-6 * max(1.0, fro(A))

    def test_sign_discipline(self, rng):
        cert = waring_express(parse("[X1,X2]"), random_traceless(rng, 3), seed=0)
        assert cert.coefficients == [1.0, -1.0, 1.0, -1.0]


class TestTwoTerm:
    def test_zero_target(self, rng):
        cert = two_term_decompose(parse("[X1,X2]"), np.zeros((3, 3)), seed=0)
        assert np.allclose(cert.terms[0], cert.terms[1], atol=1e-10)
        assert cert.residual <= 1e-10

    def test_prime_size(self, rng):
        A = random_traceless(rng, 3)
        cert = two_term_decompose(parse("[X1,X2]"), A, seed=1)
        assert cert.residual <= 1e-7 * max(1.0, fro(A))
        assert cert.coefficients == [1.0, -1.0]
        assert len(cert.tuples) == 2
        check_term_cert(cert, cert.witness)

    def test_multilinear_composite_size(self, rng):
        f = parse("X1*X2*X3 - X3*X2*X1")
        assert f.is_multilinear()
        A = random_traceless(rng, 4)
        cert = two_term_decompose(f, A, seed=1)
        assert cert.residual <= 1e-7 * max(1.0, fro(A))

    def test_precondition_unmet(self, rng):
        f = parse("X1^2 + X2")
        assert not f.is_multilinear()
        with pytest.raises(PreconditionUnmetError) as err:
            two_term_decompose(f, random_traceless(rng, 4), seed=0)
        assert "four-term" in str(err.value)

    def test_two_central_refused(self, rng):
        # [X1,X2] is 2-central on M_2; the two-term route must refuse it
        with pytest.raises(NotGenericError):
            two_term_decompose(parse("[X1,X2]"), random_traceless(rng, 2), seed=0)

    def test_nearly_hollow_target(self, rng):
        # a ~1e-10 diagonal is still taken to zero by the full deflation, so
        # the triangular halves pass the exact-assembly check
        A = random_complex(rng, 5)
        np.fill_diagonal(A, 0.0)
        d = rng.standard_normal(5)
        d -= d.mean()
        A += np.diag(1e-10 * fro(A) * d / np.linalg.norm(d))
        cert = two_term_decompose(parse("[X1,X2]"), A, seed=0)
        assert cert.residual <= 1e-8 * fro(A)


_TRIANGULAR = ["block-triangular-upper", "block-triangular-lower"]


@pytest.mark.parametrize("route,n,first_step,halves", [
    (waring_express, 4, "spectral-partition", 2),
    (two_term_decompose, 3, "diagonalize-witness", 1),
])
def test_shared_assembly_certificate_layout(rng, route, n, first_step, halves):
    # both routes run one assembly: block-diagonalizing step, zero-diagonal
    # step, one triangular pair per half, then one term per triangular part
    cert = route(parse("[X1,X2]"), random_traceless(rng, n), seed=2)
    assert [s.label for s in cert.steps] == (
        [first_step, "zero-diagonal"] + _TRIANGULAR * halves
    )
    assert [tc.label for tc in cert.term_certs] == [
        f"term{k}-similar-to-witness" for k in range(1, 2 * halves + 1)
    ]
    assert all(np.array_equal(tc.source, cert.witness) for tc in cert.term_certs)


@pytest.mark.parametrize("route,n", [
    (waring_express, 16),
    (waring_express, 32),
    (waring_express, 33),
    (waring_express, 64),
    (two_term_decompose, 64),
])
def test_large_n_round_trip(rng, route, n):
    # the promised range n <= 64, through the canonical bytes and back
    cert = route(parse("[X1,X2]"), random_traceless(rng, n), seed=1)
    doc = json.loads(dumps_canonical(certificate_to_json(cert, DEFAULT_TOLS)))
    assert verify_certificate(doc) == []
    assert doc["residual"] <= doc["residual_bound"]


class TestFiveTerm:
    def test_traceless_target_degenerates(self, rng):
        f = parse("X1^2 + X1")
        A = random_traceless(rng, 3)
        cert = five_term_express(f, A, seed=0)
        assert cert.coefficients[0] == 0
        assert cert.residual <= 1e-6 * max(1.0, fro(A))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_target(self, n):
        cert = five_term_express(parse("X1^2 + X1"),
                                 np.zeros((n, n), dtype=complex), seed=0)
        assert cert.coefficients[0] == 0
        assert verify_certificate(certificate_to_json(cert, DEFAULT_TOLS)) == []

    @pytest.mark.parametrize("scale", [1e-9, 1e-3])
    def test_small_target_keeps_its_trace(self, scale):
        # the trace test is relative to ||T|| alone: with a floor of 1 the
        # trace of a 1e-9 target was dropped, for a relative error of 0.93
        f = parse("X1^2 + X1*X2")
        T = scale * np.diag([1.0, 2.0, 3.0]).astype(complex)
        cert = five_term_express(f, T)
        assert cert.coefficients[0] != 0
        recon = sum(c * evaluate(f, tp)
                    for c, tp in zip(cert.coefficients, cert.tuples))
        assert fro(T - recon) <= 1e-4 * fro(T)
        assert verify_certificate(json.loads(dumps_canonical(
            certificate_to_json(cert, DEFAULT_TOLS)))) == []

    def test_identity_target(self):
        f = parse("X1")
        cert = five_term_express(f, np.eye(2, dtype=complex), seed=0)
        assert cert.residual <= 1e-8
        assert len(cert.coefficients) == 5
        assert cert.coefficients[1:] == [1.0, -1.0, 1.0, -1.0]

    def test_trace_obstruction(self):
        with pytest.raises(BudgetExhaustedError):
            five_term_express(parse("[X1,X2]"), np.eye(3, dtype=complex),
                              budget=60, seed=0)

    def test_classifies_once(self, rng, monkeypatch):
        calls = []

        def counting_classify(*args, **kwargs):
            calls.append(args)
            return classify(*args, **kwargs)

        monkeypatch.setattr(waring, "classify", counting_classify)
        five_term_express(parse("X1^2 + X1"), random_complex(rng, 3), seed=0)
        assert len(calls) == 1

    def test_reconstruction_from_tuples(self, rng):
        f = parse("X1^2 + X1")
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cert = five_term_express(f, T, seed=0)
        recon = sum(c * evaluate(f, tp)
                    for c, tp in zip(cert.coefficients, cert.tuples))
        assert fro(T - recon) <= 1e-6 * max(1.0, fro(T))


@pytest.mark.parametrize("route, text, n", [
    (waring_express, "[X1,X2]", 9),
    (two_term_decompose, "[X1,X2]", 7),
    (five_term_express, "(X1+X2*X3+X3*X1)^4", 12),
])
def test_certificate_text_same_as_word_by_word(monkeypatch, route, text, n):
    # the program of [X1,X2] makes the products that its two words make,
    # and stacked tuples must not move a single certificate byte
    A = random_complex(np.random.default_rng(n), n)
    if route is not five_term_express:
        A = A - (np.trace(A) / n) * np.eye(n)

    def certificate():
        # a fresh f, so the witness search runs on the evaluator in force
        # instead of being taken from the first f's memo
        cert = route(parse(text), A, seed=5)
        return cert, dumps_canonical(certificate_to_json(cert, DEFAULT_TOLS))

    program, program_text = certificate()
    monkeypatch.setattr(freealg, "evaluate", word_by_word_oracle)
    monkeypatch.setattr(waring, "evaluate", word_by_word_oracle)
    words, words_text = certificate()
    if route is not five_term_express:
        assert words_text == program_text
        return
    # two squarings round differently from 81 words, and the construction
    # after the witness may take another of its valid branches on that: the
    # certificates share the trace tuple and, to rounding, its coefficient,
    # and both verify
    assert words_text != program_text
    for text_ in (program_text, words_text):
        assert verify_certificate(json.loads(text_)) == []
    assert all(np.array_equal(a, b)
               for a, b in zip(program.tuples[0], words.tuples[0]))
    c0, w0 = program.coefficients[0], words.coefficients[0]
    assert abs(c0 - w0) <= 1e-12 * abs(w0)


@pytest.mark.parametrize("route, text, n", [
    (waring_express, "[X1,X2]", 5),
    (two_term_decompose, "[ X1 , X2 ]", 5),
    (five_term_express, "(X1+X2*X3+X3*X1)^4", 4),
])
def test_certificate_carries_the_parsed_text(route, text, n):
    A = random_traceless(np.random.default_rng(n), n)
    doc = certificate_to_json(route(parse(text), A), DEFAULT_TOLS)
    assert doc["polynomial"] == text


def test_operator_built_polynomial_certifies():
    x1, x2 = parse("X1"), parse("X2")
    f = x1 * x2 - x2 * x1
    cert = waring_express(f, random_traceless(np.random.default_rng(6), 6))
    doc = json.loads(dumps_canonical(certificate_to_json(cert, DEFAULT_TOLS)))
    assert doc["polynomial"] == f.text
    assert verify_certificate(doc) == []


_ROADMAP_TARGET = random_traceless(np.random.default_rng(5), 8)


@pytest.mark.parametrize("route, text, A", [
    *[(waring_express, "[X1,X2]", s * _ROADMAP_TARGET)
      for s in (1e4, 1e6, 1e8)],
    (waring_express, "[X1,X2]", 1e4 * np.diag(np.ones(7), 1)),
    *[(two_term_decompose, "[X1,X2]",
       s * random_traceless(np.random.default_rng(5), 7))
      for s in (1e2, 1e4, 1e6)],
    *[(waring_express, text, 1e6 * _ROADMAP_TARGET)
      for text in ("X1 + X1^2", "X1^2 + X2 + 1")],
], ids=["four-1e4", "four-1e6", "four-1e8", "jordan-1e4", "two-1e2",
        "two-1e4", "two-1e6", "ungraded-X1+X1^2-1e6",
        "ungraded-X1^2+X2+1-1e6"])
def test_large_targets_verify(route, text, A):
    # a witness of fixed scale made these ill-conditioned. A graded f's
    # target is scaled down by 2^(-k D) into the band on the memo's
    # witness; an ungraded f's witness is scaled up toward the target
    f = parse(text)
    cert = route(f, A)
    assert verify_certificate(json.loads(dumps_canonical(
        certificate_to_json(cert, DEFAULT_TOLS)))) == []
    if f.grading() is None:
        assert cert.k == 0
        assert 5 * fro(A) <= fro(cert.witness) <= 20 * fro(A)
    else:
        assert cert.k > 0
        scaled = A * 2.0 ** (-cert.k * cert.degree)
        assert 10 <= fro(cert.witness) / fro(scaled) <= 1e4
    assert max(c.condition_estimate
               for c in cert.steps + cert.term_certs) < 100


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-170, 1e-150, 1e-8, 1.0,
                                   1e8, 1e150, 1e200, 1e300])
@pytest.mark.parametrize("route, text, n", [
    (waring_express, "[X1,X2]", 8),
    (two_term_decompose, "[X1,X2]", 7),
    (five_term_express, "(X1+X2*X3+X3*X1)^4", 4),
], ids=["four-term", "two-term", "five-term"])
def test_relative_accuracy_at_every_scale(route, text, n, scale):
    # a graded f's target is rescaled by an exact power of two, so the
    # relative error, by the word-by-word oracle, is that of a target near
    # the witness's scale. Below 1e-154 and above 1e154 the squares of the
    # entries leave the double range; fro prescales there, so no gate sees
    # a norm of 0 or inf
    rng = np.random.default_rng(23)
    A = random_complex(rng, n)
    if route is not five_term_express:
        A -= (np.trace(A) / n) * np.eye(n)
    A *= scale / fro(A)
    f = parse(text)
    cert = route(f, A)
    assert verify_certificate(json.loads(dumps_canonical(
        certificate_to_json(cert, DEFAULT_TOLS)))) == []
    recon = sum(c * word_by_word_oracle(f, tp)
                for c, tp in zip(cert.coefficients, cert.tuples))
    assert fro(A - recon) <= 1e-9 * fro(A)


def _stages(B, A):
    """(transforms, scaled outputs) of every numeric stage on the witness
    B and the target A."""
    _, T, Q = linalg.eigendecompose(B)
    part = partition_spectrum(B)
    hollow = zero_diagonal_similarity(A)
    four = four_term_decompose(part, A)
    eig = waring._diagonalized(B, DEFAULT_TOLS)
    transforms = [Q, part.to_block_diag.t, hollow.t,
                  eig.to_block_diag.t, *(tc.t for tc in four.term_certs)]
    outputs = [T, *part.blocks, hollow.target, *four.terms, *eig.blocks]
    return transforms, outputs


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
@pytest.mark.parametrize("n", [8, 9])
def test_every_stage_commutes_with_a_power_of_two(n, k):
    # each stage works on 2^-e X, e the exponent of X's largest part, so
    # on 2^k X it makes the same transforms and 2^k times the outputs;
    # a NumPy overflow warning fails the suite
    rng = np.random.default_rng(n)
    B, A = random_complex(rng, n), random_traceless(rng, n)
    transforms, outputs = _stages(B, A)
    transforms_k, outputs_k = _stages(2.0 ** k * B, 2.0 ** k * A)
    assert len(transforms_k) == len(transforms)
    for M, M_k in zip(transforms, transforms_k):
        assert M_k.tobytes() == M.tobytes()
    assert len(outputs_k) == len(outputs)
    for M, M_k in zip(outputs, outputs_k):
        assert M_k.tobytes() == freealg._times_pow2(M, k).tobytes()


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-40, 1e-8, 1e-3, 1e150,
                                   1e200, 1e300])
@pytest.mark.parametrize("route, n", [
    (two_term_decompose, 7),
    (waring_express, 8),
], ids=["two-term", "four-term"])
def test_ungraded_f_at_every_scale(route, n, scale):
    # an ungraded f cannot rescale the target exactly: its witness is
    # scaled toward 10 ||A||_F, down as well as up, and the zero-diagonal
    # form runs on the target times a power of two
    f = parse("X1 + X1^2")
    A = random_traceless(np.random.default_rng(5), n)
    A *= scale / fro(A)
    cert = route(f, A)
    assert verify_certificate(json.loads(dumps_canonical(
        certificate_to_json(cert, DEFAULT_TOLS)))) == []
    assert cert.k == 0
    assert 5 * fro(A) <= fro(cert.witness) <= 20 * fro(A)
    recon = sum(c * word_by_word_oracle(f, tp)
                for c, tp in zip(cert.coefficients, cert.tuples))
    assert fro(A - recon) <= 1e-12 * fro(A)


@pytest.mark.parametrize("route, n", [
    (two_term_decompose, 7),
    (waring_express, 8),
], ids=["two-term", "four-term"])
def test_triangular_gate_holds_past_the_square_range(route, n):
    # at 1e160 the witness's parts are past 2^512, where their squares
    # overflow; the Sylvester solve runs on 2^-e times its problem, so its
    # residual gate still compares finite norms, and a solve_tol of 1e-300
    # fails it
    f = parse("X1 + X1^2")
    A = random_traceless(np.random.default_rng(5), n)
    A *= 1e160 / fro(A)
    tols = replace(DEFAULT_TOLS, solve_tol=1e-300)
    with pytest.raises(IllConditionedError, match="Sylvester solve residual"):
        route(f, A, tols=tols)


def test_constant_term_is_not_scaled_away(monkeypatch):
    # scaled down, f(sigma t) tends to f(0) = I, far above 10 ||A||_F: one
    # evaluation at sigma = 0 ends the search with the searched witness
    f = parse("X1^2 + X2 + 1")
    A = 1e-8 * random_traceless(np.random.default_rng(5), 8)
    image, args = image_search(f, 8, GOAL_MULTIPLICITY_HALF)
    calls = []

    def counted(f, t):
        calls.append(t)
        return evaluate(f, t)

    monkeypatch.setattr(waring, "evaluate", counted)
    B, _ = waring._scaled_toward(f, image, args, A, GOAL_MULTIPLICITY_HALF,
                                 DEFAULT_TOLS)
    assert B is image
    assert len(calls) == 1 and not np.any(calls[0])


def test_tiny_residual_is_stored_and_verified():
    # at ||A||_F = 1e-150 the residual's squares underflow: np.linalg.norm
    # gives 0.0, and fro gives the norm of the residual prescaled by 2^500
    A = random_traceless(np.random.default_rng(5), 7)
    A *= 1e-150 / fro(A)
    cert = two_term_decompose(parse("[X1,X2]"), A)
    R = A - (cert.terms[0] - cert.terms[1])
    assert np.linalg.norm(R) == 0.0
    prescaled = float(np.linalg.norm(R * 2.0 ** 500)) * 2.0 ** -500
    assert cert.residual == prescaled > 0
    verdict = check_certificate(json.loads(_certificate_text(cert)))
    assert verdict.failures == []
    assert verdict.residual == prescaled


def test_residual_gate_refuses_nan():
    A = np.eye(2, dtype=complex)
    with pytest.raises(ResidualTooLargeError, match="x reconstruction"):
        waring._residual_gate(A, [1.0], [np.nan * A], DEFAULT_TOLS, "x")


def test_residual_gate_refuses_an_overflowing_target():
    # the bound end_tol * ||A||_F is infinite, which no verifier accepts
    A = np.zeros((8, 8), dtype=complex)
    A[0, 1] = A[1, 0] = 1.5e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ResidualTooLargeError):
            waring_express(parse("[X1,X2]"), A)


@pytest.mark.parametrize("text", ["X1 + X1^2", "[X1,X2]"])
@pytest.mark.parametrize("route", [waring_express, two_term_decompose,
                                   five_term_express])
def test_infinite_bound_is_refused_before_the_witness_search(
        monkeypatch, route, text):
    # ||A||_F overflows, so the end gate's bound end_tol * ||A||_F is inf and
    # no certificate of A can pass it: every route says so before it
    # classifies f or searches for a witness, graded f or not, and NumPy
    # warns of nothing
    A = np.zeros((8, 8), dtype=complex)
    A[0, 1] = A[1, 0] = 1.5e308

    def no_search(*args, **kwargs):
        raise AssertionError("the route searched")

    monkeypatch.setattr(waring, "classify", no_search)
    monkeypatch.setattr(waring, "image_search", no_search)
    with pytest.raises(ResidualTooLargeError) as err:
        route(parse(text), A)
    assert str(err.value).startswith(
        "target check: the end gate's bound end_tol * max(1, ||target||_F) "
        "is inf")
    assert err.value.residual is None
    with pytest.raises(ResidualTooLargeError, match="A check: .* is inf"):
        four_term_decompose(partition_spectrum(planted_matrix(
            np.random.default_rng(1), [1, 2, 3, 4, 5, 6, 7, 8])), A)


@pytest.mark.parametrize("route, n, name", [
    (waring_express, 8, "four-term"),
    (two_term_decompose, 7, "two-term"),
])
def test_end_gate_names_the_route(route, n, name):
    tols = replace(DEFAULT_TOLS, end_tol=1e-30)
    A = random_traceless(np.random.default_rng(2), n)
    with pytest.raises(ResidualTooLargeError,
                       match=f"{name} reconstruction failed"):
        route(parse("[X1,X2]"), A, tols=tols)


def test_scale_exponent_band_and_clamp():
    B = np.eye(2, dtype=complex)
    args = (np.eye(2, dtype=complex), 4 * np.eye(2, dtype=complex))
    A = 1e-300 * np.eye(2, dtype=complex)
    # the k nearest 0 that puts ||B|| / ||2^(-k D) A|| in [10, 1e4]
    k = waring._scale_exponent(B, args, A, ((1, 1), 2))
    ratios = [fro(B) / fro(A * 2.0 ** (-j * 2)) for j in (k, k + 1)]
    assert 10 <= ratios[0] <= 1e4 < ratios[1]
    # a weight of 5 would take part 2 (largest part 4 = 2^2, exponent 3)
    # below the normal range first: k stops where it still has headroom
    k = waring._scale_exponent(B, args, A, ((1, 5), 2))
    emin = np.finfo(float).minexp + waring._HEADROOM
    assert 3 + 5 * k >= emin > 3 + 5 * (k - 1)


@pytest.mark.parametrize("span", [4, 8, 12, 16])
def test_graded_target_verifies(span):
    # D A D^-1 keeps A's diagonal, which is below hollow_tol of the graded
    # norm at span 8 and more. Zeroed only to hollow_tol, it cost 1e-8 of
    # normwise accuracy; zeroed to rounding, both routes stay at 1e-12
    f = parse("[X1,X2]")
    for route, A0 in ((waring_express, _ROADMAP_TARGET),
                      (two_term_decompose,
                       random_traceless(np.random.default_rng(5), 7))):
        D = np.logspace(0, span, len(A0))
        A = D[:, None] / D * A0
        cert = route(f, A)
        assert verify_certificate(json.loads(dumps_canonical(
            certificate_to_json(cert, DEFAULT_TOLS)))) == []
        recon = sum(c * word_by_word_oracle(f, tp)
                    for c, tp in zip(cert.coefficients, cert.tuples))
        assert fro(A - recon) <= 1e-12 * fro(A), route.__name__


def test_split_failure_names_its_stage():
    # the span-8 graded matrix, exactly hollow: its split misses it by
    # rounding, about 1e-15 ||A||_F, which a split_tol of 1e-17 refuses
    D = np.logspace(0, 8, 8)
    A = D[:, None] / D * _ROADMAP_TARGET
    np.fill_diagonal(A, 0.0)
    tols = replace(DEFAULT_TOLS, split_tol=1e-17)
    with pytest.raises(ResidualTooLargeError) as err:
        split_hollow(A, (4, 4), tols)
    mags = np.abs(A[A != 0])
    assert str(err.value).startswith(
        "hollow split of the zero-diagonal form M (n = 8) over (4, 4) failed "
        f"(||M||_F {fro(A):.3e}, max/min nonzero |M_ij| "
        f"{mags.max() / mags.min():.3e}, "
        f"max |M_ii| {np.abs(np.diag(A)).max():.3e}) (residual ")
    assert err.value.residual > tols.split_tol * fro(A)


def test_term_certificate_failure_names_the_first_term(rng):
    # eigenvectors of condition 1e2 and a target 1e2 past the witness's
    # gaps: the term transforms (condition 3e6-2e7) leave residuals of
    # 1e-10 and more, every earlier certificate 2e-13 at most, so a cert_tol
    # of 1e-12 fails all four terms in one pass, and the first is named
    S = random_unitary(rng, 8) @ np.diag(np.logspace(0, -2, 8)) @ (
        random_unitary(rng, 8))
    B = S @ np.diag(np.arange(1.0, 9.0)) @ np.linalg.inv(S)
    A = 1e2 * random_traceless(rng, 8)
    four_term_decompose(partition_spectrum(B), A)
    tols = replace(DEFAULT_TOLS, cert_tol=1e-12)
    with pytest.raises(IllConditionedError,
                       match=r"exceeds 1\.0e-12 \(condition estimate "
                             r"\S+, term1-similar-to-witness\)$"):
        four_term_decompose(partition_spectrum(B, tols), A, tols)


def test_witness_not_scaled_when_large_enough(rng):
    f = parse("[X1,X2]")
    B, _ = image_search(f, 6, GOAL_MULTIPLICITY_HALF)
    A = random_traceless(rng, 6)
    A *= fro(B) / (20 * fro(A))
    assert np.array_equal(waring_express(f, A).witness, B)


def test_every_route_calls_the_public_stages(monkeypatch):
    # each stage has one definition, and the routes call it: a call through
    # any module's binding of it is counted, as the benchmark's tracer
    # wraps every binding
    stages = (linalg.sylvester_solve, linalg.block_triangular_similarity,
              linalg.certify_similarity, waring.diff_of_similar,
              waring.four_term_decompose)
    calls = {}

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "matwaring":
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in stages):
                    monkeypatch.setattr(module, attr, counting(value))
    f = parse("X1^2 + X1*X2")
    rng = np.random.default_rng(6)
    for route, target, idle in [
        (waring_express, random_traceless(rng, 6), set()),
        (five_term_express, random_complex(rng, 6), set()),
        (two_term_decompose, random_traceless(rng, 5),
         {"four_term_decompose"}),
    ]:
        calls.update({fn.__name__: 0 for fn in stages})
        route(f, target)
        assert {name for name, n in calls.items() if not n} == idle


class TestMultilinearityDetector:
    @pytest.mark.parametrize("text,expected", [
        ("[X1,X2]", True),
        ("X1*X2*X3 - X3*X2*X1", True),
        ("X1", True),
        ("X1^2 + X2", False),
        ("X1*X2 + X1", False),
        ("[X1,X2] + (0.5)", False),
        ("(3.0)", False),
        # read off the program's multidegrees: cancelled words still count
        ("X1*X2 - X1*X2", True),
        ("0*[X1,X2]", True),
        ("[X1,X2] + X1^2 - X1^2", False),
        ("(X1+X2)^40", False),
    ])
    def test_cases(self, text, expected):
        assert parse(text).is_multilinear() is expected

    def test_zero_of_multilinear_shape_is_refused(self, rng):
        # the two-term route applies at n = 4, and classify refuses the zero
        f = parse("X1*X2 - X1*X2")
        with pytest.raises(NotGenericError):
            two_term_decompose(f, random_traceless(rng, 4), seed=0)


def _certificate_text(cert):
    return dumps_canonical(certificate_to_json(cert, DEFAULT_TOLS))


class TestWitnessMemo:
    """A parsed f keeps its witness per (n, goal, budget, seed, tols), so
    later targets skip classification, search and witness factorization."""

    @pytest.mark.parametrize("route, text, n", [
        (waring_express, "[X1,X2]", 6),
        (two_term_decompose, "[X1,X2]", 5),
        (five_term_express, "X1^2 + X1*X2", 4),
    ])
    def test_reused_f_writes_what_a_fresh_f_writes(self, route, text, n):
        rng = np.random.default_rng(n)
        # small enough for the searched witness; the middle one is far past
        # it, and is rescaled by 2^(-k D) to ride on the same witness
        targets = [s * random_complex(rng, n) for s in (1e-2, 1e8, 1e-2)]
        if route is not five_term_express:
            targets = [A - (np.trace(A) / n) * np.eye(n) for A in targets]
        f = parse(text)
        certs = []
        for A in targets:
            certs.append(route(f, A, seed=3))
            assert _certificate_text(certs[-1]) == _certificate_text(
                route(parse(text), A, seed=3))
        assert [cert.k > 0 for cert in certs] == [False, True, False]
        # every target shares the memo's witness, which is read-only
        assert not certs[0].witness.flags.writeable
        assert all(cert.witness is certs[0].witness for cert in certs)

    @pytest.mark.parametrize("route", [waring_express, two_term_decompose])
    def test_prefix_runs_once_per_key(self, monkeypatch, route):
        calls = {"classify": 0, "image_search": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(waring, name,
                                counting(name, getattr(waring, name)))
        rng = np.random.default_rng(0)
        f = parse("[X1,X2]")

        def run(n=5, **kwargs):
            route(f, random_traceless(rng, n), **kwargs)
            return calls["classify"], calls["image_search"]

        assert [run() for _ in range(3)] == [(1, 1)] * 3
        assert run(n=7) == (2, 2)
        assert run(seed=1) == (3, 3)
        assert run(budget=999) == (4, 4)
        tighter = replace(DEFAULT_TOLS, end_tol=1e-7)
        assert run(tols=tighter) == (5, 5)
        assert run(tols=tighter) == (5, 5)
        assert run() == (5, 5)
        # eight keys are kept, the least recently used dropped: a sweep over
        # seeds cannot grow the memo
        for seed in range(2, 10):
            run(seed=seed)
        assert run(seed=9) == (13, 13)
        assert run() == (14, 14)

    @pytest.mark.parametrize("route, text, n", [
        (waring_express, "[X1,X2]", 4),
        (two_term_decompose, "[X1,X2]", 3),
        (five_term_express, "X1^2 + X1*X2", 3),
    ])
    def test_shared_arrays_are_read_only(self, rng, route, text, n):
        f = parse(text)
        A = 1e-2 * random_traceless(rng, n)   # the witness is not scaled up
        first = route(f, A, seed=2)
        text_ = _certificate_text(first)
        # steps[2] is the first triangular certificate: its source is the
        # block diagonal of the partition's triangular plan
        shared = [first.witness, first.steps[0].t, first.steps[0].t_inv,
                  first.steps[0].source, first.term_certs[0].source,
                  first.steps[2].source]
        if route is five_term_express:
            shared += [*first.tuples[0], first.terms[0]]
        for M in shared:
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 7.0
        assert _certificate_text(route(f, A, seed=2)) == text_

    def test_triangular_plan_made_once_and_targets_batched(self,
                                                            monkeypatch):
        # A graded f's targets of every scale ride on the memo's witness, so
        # the plan made for the first target serves all of them.
        gaps, transforms, passes = [], [], []

        def recording(log, fn, entry):
            def wrapper(*args):
                log.append(entry(*args))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(linalg, "spectral_gap", recording(
            gaps, linalg.spectral_gap, lambda values, labels: len(values)))
        monkeypatch.setattr(linalg, "sylvester_solve", recording(
            transforms, linalg.sylvester_solve,
            lambda sizes, upper, tols: (tuple(sizes), len(upper))))
        certify = recording(passes, linalg.certify_similarity,
                            lambda Ts, T_invs, source, targets, tols,
                            labels: labels)
        monkeypatch.setattr(linalg, "certify_similarity", certify)
        monkeypatch.setattr(waring, "certify_similarity", certify)
        f = parse("[X1,X2]")
        n = 12
        rng = np.random.default_rng(12)
        A = 1e-3 * random_traceless(rng, n)    # within the band: k = 0
        first = waring_express(f, A)
        for scale in (1e-3, 1e-12, 1e8):
            del gaps[:], transforms[:], passes[:]
            cert = waring_express(f, scale * random_traceless(rng, n))
            assert (cert.k == 0) == (scale == 1e-3)
            # no witness is partitioned: the memo's keeps its plan and gap
            assert cert.witness is first.witness
            assert gaps == []
            # both halves' upper and lower problems share the (6, 6)
            # pattern: one transform call and one certification pass for
            # the four, one pass for the four terms
            assert transforms == [((6, 6), 4)]
            tri = [labels for labels in passes
                   if labels[0].startswith("block-triangular")]
            terms = [labels for labels in passes
                     if labels[0].startswith("term")]
            assert tri == [["block-triangular-upper",
                            "block-triangular-lower"] * 2]
            assert terms == [[f"term{k}-similar-to-witness"
                              for k in range(1, 5)]]

    @pytest.mark.parametrize("route, text, n", [
        (waring_express, "[X1,X2]", 6),
        (two_term_decompose, "[X1,X2]", 5),
        (five_term_express, "(X1+X2*X3+X3*X1)^4", 4),
    ])
    def test_graded_target_neither_factors_nor_bisects(self, monkeypatch,
                                                       route, text, n):
        # after the memo's first factorization, a target of any scale calls
        # neither factorization, and evaluate only from _finish
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, sys._getframe(1).f_code.co_name))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("partition_spectrum", "_diagonalized", "evaluate"):
            monkeypatch.setattr(waring, name, counting(getattr(waring, name)))
        f = parse(text)
        rng = np.random.default_rng(n)
        targets = [s * random_complex(rng, n) for s in (1, 1e-8, 1e8, 1e-150)]
        if route is not five_term_express:
            targets = [A - (np.trace(A) / n) * np.eye(n) for A in targets]
        route(f, targets[0])
        assert len([c for c in calls if c[0] != "evaluate"]) == 1
        for A in targets[1:]:
            del calls[:]
            assert route(f, A).k != 0
            assert calls == [("evaluate", "_finish")]

    @pytest.mark.parametrize("route, text, n", [
        (waring_express, "[X1,X2]", 6),
        (two_term_decompose, "[X1,X2]", 5),
        (five_term_express, "(X1+X2*X3+X3*X1)^4", 4),
    ])
    def test_warm_route_inverts_only_the_term_transforms(self, monkeypatch,
                                                         route, text, n):
        # the zero-diagonal and triangular steps certify with the inverses
        # they built; the witness's factorization, with its inverse, is
        # the memo's, so one np.linalg.inv call is left: the term stack
        inverted, inv = [], np.linalg.inv

        def counting_inv(a):
            inverted.append(np.shape(a))
            return inv(a)

        f = parse(text)
        rng = np.random.default_rng(n)
        targets = [s * random_complex(rng, n) for s in (1, 1e-8)]
        if route is not five_term_express:
            targets = [A - (np.trace(A) / n) * np.eye(n) for A in targets]
        route(f, targets[0])
        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        cert = route(f, targets[1])
        assert inverted == [(len(cert.term_certs), n, n)]

    def test_memo_entry_dies_with_f(self):
        f = parse("[X1,X2]")
        waring_express(f, random_traceless(np.random.default_rng(4), 4))
        # the memo is kept beside f, not on it
        assert vars(f).keys() == {"text", "program"}
        assert f in waring._MEMO
        gc.collect()
        before, alive = len(waring._MEMO), weakref.ref(f)
        del f
        gc.collect()
        # no entry refers back to f, so f is collected and its entry goes
        assert alive() is None
        assert len(waring._MEMO) == before - 1

    def test_failures_are_raised_again(self, monkeypatch):
        # [X1,X2] is 2-central on M_2 (its square is scalar)
        f = parse("[X1,X2]")
        for _ in range(2):
            with pytest.raises(NotGenericError, match="2-central"):
                two_term_decompose(f, np.diag([1.0, -1.0]), seed=0)
        # a search that ran out of samples is searched again, not stored
        searches = []

        def counting_search(*args, **kwargs):
            searches.append(args)
            return image_search(*args, **kwargs)

        monkeypatch.setattr(waring, "image_search", counting_search)
        for _ in range(2):
            with pytest.raises(BudgetExhaustedError):
                five_term_express(f, np.eye(3, dtype=complex), budget=20)
        assert len(searches) == 2
