import json
from dataclasses import replace

import numpy as np
import pytest

from matwaring import freealg, waring
from matwaring.canon import partition_spectrum
from matwaring.errors import (
    BudgetExhaustedError,
    MultiplicityTooLargeError,
    NonzeroTraceError,
    NotGenericError,
    PreconditionUnmetError,
)
from matwaring.freealg import classify, evaluate, parse, random_tuple
from matwaring.config import DEFAULT_TOLS
from matwaring.linalg import blkdiag, fro
from matwaring.serialize import certificate_to_json, dumps_canonical
from matwaring.verify import verify_certificate
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
    sorted_eigs,
)
from test_freealg import word_by_word_oracle


def check_term_cert(cert, witness):
    for tc in cert.term_certs:
        bound = 1e-9 * tc.condition_estimate * fro(witness)
        assert fro(tc.t @ witness @ tc.t_inv - tc.target) <= bound
        assert fro(tc.t @ tc.t_inv - np.eye(witness.shape[0])) <= 1e-9


class TestDiffOfSimilar:
    def test_zero_coupling(self, rng):
        part = partition_spectrum(planted_matrix(rng, [1, 1, 2, 3]))
        D = blkdiag(part.blocks)
        Bp, Bpp, _ = diff_of_similar(part, np.zeros_like(D))
        assert np.array_equal(Bp, D)
        assert np.array_equal(Bpp, D)

    def test_case_a_n2_hand_pattern(self):
        # blocks (1), (-1); C = [[0, c], [d, 0]] splits into the upper
        # assembly [[1, c], [0, -1]] minus the lower assembly [[1, 0], [-d, -1]]
        part = partition_spectrum(np.diag([1.0, -1.0]))
        c, d = 0.7, -0.3
        C = np.array([[0, c], [d, 0]], dtype=complex)
        Bp, Bpp, (cu, cl) = diff_of_similar(part, C)
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
        Bp, Bpp, (cu, cl) = diff_of_similar(part, C)
        assert np.array_equal(Bp - Bpp, C)  # assembly, not arithmetic
        D = blkdiag(part.blocks)
        for cert, target in ((cu, Bp), (cl, Bpp)):
            resid = fro(cert.t @ D @ cert.t_inv - target)
            assert resid <= 1e-9 * max(1.0, cert.condition_estimate * fro(D))

    def test_nonzero_diagonal_block_rejected(self, rng):
        part = partition_spectrum(planted_matrix(rng, [1, 2]))
        with pytest.raises(ValueError):
            diff_of_similar(part, np.eye(2))


class TestFourTerm:
    def test_zero_target(self):
        B = np.diag([1.0, -1.0]).astype(complex)
        cert = four_term_decompose(B, np.zeros((2, 2)))
        assert all(np.allclose(W, B) for W in cert.terms)
        assert cert.residual == 0.0
        assert cert.coefficients == [1.0, -1.0, 1.0, -1.0]

    def test_n2_hollow_target(self):
        B = np.diag([1.0, -1.0]).astype(complex)
        A = np.array([[0, 1], [1, 0]], dtype=complex)
        cert = four_term_decompose(B, A)
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
        for _ in range(3):
            A = random_traceless(rng, n)
            cert = four_term_decompose(B, A)
            assert cert.residual <= 1e-8 * max(1.0, fro(A))
            for W in cert.terms:
                assert np.allclose(sorted_eigs(W), sorted_eigs(B), atol=1e-6)
            check_term_cert(cert, B)

    def test_multiplicity_gate(self):
        B = np.diag([2.0, 2.0, 2.0, 5.0]).astype(complex)
        with pytest.raises(MultiplicityTooLargeError):
            four_term_decompose(B, random_traceless(np.random.default_rng(0), 4))

    def test_trace_gate(self, rng):
        B = planted_matrix(rng, [1, 2])
        with pytest.raises(NonzeroTraceError):
            four_term_decompose(B, np.eye(2))


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
        # deflation stops once the diagonal is below hollow_tol, so the
        # hollow form keeps this ~1e-10 diagonal; the triangular halves must
        # drop it rather than fail the exact-assembly check on it
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


_ROADMAP_TARGET = random_traceless(np.random.default_rng(5), 8)


@pytest.mark.parametrize("route, A", [
    *[(waring_express, s * _ROADMAP_TARGET) for s in (1e4, 1e6, 1e8)],
    (waring_express, 1e4 * np.diag(np.ones(7), 1)),
    *[(two_term_decompose,
       s * random_traceless(np.random.default_rng(5), 7))
      for s in (1e2, 1e4, 1e6)],
], ids=["four-1e4", "four-1e6", "four-1e8", "jordan-1e4", "two-1e2",
        "two-1e4", "two-1e6"])
def test_large_targets_verify(route, A):
    # a witness of fixed scale made these ill-conditioned; scaled up toward
    # the target, it keeps every transform well conditioned
    cert = route(parse("[X1,X2]"), A)
    assert verify_certificate(json.loads(dumps_canonical(
        certificate_to_json(cert, DEFAULT_TOLS)))) == []
    assert 5 * fro(A) <= fro(cert.witness) <= 20 * fro(A)
    assert max(c.condition_estimate
               for c in cert.steps + cert.term_certs) < 100


def test_witness_not_scaled_when_large_enough(rng):
    f = parse("[X1,X2]")
    B, _ = image_search(f, 6, GOAL_MULTIPLICITY_HALF)
    A = random_traceless(rng, 6)
    A *= fro(B) / (20 * fro(A))
    assert np.array_equal(waring_express(f, A).witness, B)


class TestMultilinearityDetector:
    @pytest.mark.parametrize("text,expected", [
        ("[X1,X2]", True),
        ("X1*X2*X3 - X3*X2*X1", True),
        ("X1", True),
        ("X1^2 + X2", False),
        ("X1*X2 + X1", False),
        ("[X1,X2] + (0.5)", False),
        ("(3.0)", False),
    ])
    def test_cases(self, text, expected):
        assert parse(text).is_multilinear() is expected


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
        # small enough for the searched witness; the middle one is scaled
        # far past it, so _scaled_up replaces the witness, which is then
        # factored afresh
        targets = [s * random_complex(rng, n) for s in (1e-2, 1e8, 1e-2)]
        if route is not five_term_express:
            targets = [A - (np.trace(A) / n) * np.eye(n) for A in targets]
        f = parse(text)
        for k, A in enumerate(targets):
            cert = route(f, A, seed=3)
            assert _certificate_text(cert) == _certificate_text(
                route(parse(text), A, seed=3))
            # only the memo's witness is shared, and so read-only
            assert cert.witness.flags.writeable == (k == 1)

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
        shared = [first.witness, first.steps[0].t, first.steps[0].t_inv,
                  first.steps[0].source, first.term_certs[0].source]
        if route is five_term_express:
            shared += [*first.tuples[0], first.terms[0]]
        for M in shared:
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 7.0
        assert _certificate_text(route(f, A, seed=2)) == text_

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
