import cmath
import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from matwaring.canon import (
    _assign_to_clusters,
    _check_cluster_gaps,
    _decoupled,
    _fov_vector,
    _isotropic_vectors,
    _midpoint_round,
    cluster_eigenvalues,
    partition_spectrum,
    zero_diagonal_similarity,
)
from matwaring.config import CLUSTER_TOL, DEFAULT_TOLS
from matwaring.errors import (
    ClusterGapTooSmallError,
    MultiplicityTooLargeError,
    NonzeroTraceError,
    ResidualTooLargeError,
)
from matwaring.freealg import _exponent, _times_pow2, fro
from matwaring.linalg import blkdiag, eigendecompose

from conftest import planted_matrix, random_traceless, random_unitary, sorted_eigs


class TestClusterEigenvalues:
    def test_merges_close_values(self):
        clusters = cluster_eigenvalues([1.0, 1.0 + 1e-12, 2.0], 1e-8)
        assert [(round(v.real, 6), m) for v, m in clusters] == [(1.0, 2), (2.0, 1)]

    def test_distinct_stay_singletons(self):
        clusters = cluster_eigenvalues([1.0, 5.0, -3.0, 2.0j], 1e-8)
        assert all(m == 1 for _, m in clusters)
        assert sum(m for _, m in clusters) == 4

    def test_all_equal(self):
        clusters = cluster_eigenvalues([0.0, 0.0, 0.0], 1e-8)
        assert clusters == [(0j, 3)]

    def test_chained_merging(self):
        # union-find glues a chain of pairwise-close values into one cluster
        vals = [1.0, 1.0 + 8e-9, 1.0 + 1.6e-8]
        clusters = cluster_eigenvalues(vals, 1e-8)
        assert len(clusters) == 1 and clusters[0][1] == 3


def decoupled_along(B, clusters):
    """_decoupled on B's Schur form with the given clusters contiguous, as
    partition_spectrum calls it."""
    _, T, Q = eigendecompose(
        B, key=lambda eigs: _assign_to_clusters(eigs, clusters))
    return _decoupled(B, T, Q, [c[1] for c in clusters], DEFAULT_TOLS)


class TestBlockDiagonalize:
    def test_already_block_diagonal(self):
        B = np.diag([1.0, 2.0]).astype(complex)
        blocks, cert = _decoupled(B, B, np.eye(2), (1, 1), DEFAULT_TOLS)
        assert [b.item() for b in blocks] == [1.0, 2.0]
        assert np.array_equal(cert.t, np.eye(2))

    def test_two_by_two_hand_value(self):
        # Sylvester relation: X - 2X = -5 gives X = 5, so T = [[1, 5], [0, 1]]
        B = np.array([[1.0, 5.0], [0.0, 2.0]], dtype=complex)
        blocks, cert = _decoupled(B, B, np.eye(2), (1, 1), DEFAULT_TOLS)
        assert np.allclose([b.item() for b in blocks], [1.0, 2.0])
        assert np.allclose(cert.t, [[1, 5], [0, 1]])

    def test_planted_five(self, rng):
        B = planted_matrix(rng, [1, 1, 2, 2, 3])
        clusters = cluster_eigenvalues(np.linalg.eigvals(B), CLUSTER_TOL)
        blocks, cert = decoupled_along(B, clusters)
        assert [b.shape[0] for b in blocks] == [2, 2, 1]
        recon = cert.t @ blkdiag(blocks) @ cert.t_inv
        assert np.linalg.norm(recon - B) <= 1e-9 * np.linalg.norm(B)
        part = partition_spectrum(B)
        cert = part.to_block_diag
        recon = cert.t @ blkdiag(part.blocks) @ cert.t_inv
        assert np.linalg.norm(recon - B) <= 1e-9 * np.linalg.norm(B)

    def test_jordan_coupled_cluster(self, rng):
        # non-diagonalizable inside a cluster is fine; only clusters separate
        J = np.array([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2.0]])
        Q = random_unitary(rng, 4)
        B = Q @ J @ Q.conj().T
        clusters = cluster_eigenvalues(np.linalg.eigvals(B), CLUSTER_TOL)
        blocks, cert = decoupled_along(B, clusters)
        recon = cert.t @ blkdiag(blocks) @ cert.t_inv
        assert np.linalg.norm(recon - B) <= 1e-9 * np.linalg.norm(B)

    def test_tight_clusters_rejected(self):
        clusters = [(1.0 + 0j, 1), (1.0 + 1e-10 + 0j, 1)]
        with pytest.raises(ClusterGapTooSmallError):
            _check_cluster_gaps(clusters, DEFAULT_TOLS)


class TestPartitionSpectrum:
    def test_case_a_single_big_cluster(self, rng):
        part = partition_spectrum(planted_matrix(rng, [1, 1, 2, 3]))
        assert part.case_tag == "A"
        assert part.block_sizes == (2, 2)
        spectrum = np.linalg.eigvals(part.blocks[0])
        assert sorted(np.round(np.real(spectrum), 6)) == [1, 1]

    def test_case_a_greedy_prefix(self, rng):
        part = partition_spectrum(planted_matrix(rng, [1, 2, 3, 4]))
        assert part.case_tag == "A"
        assert part.block_sizes == (2, 2)

    def test_case_b_greedy(self, rng):
        part = partition_spectrum(planted_matrix(rng, [1, 1, 2, 2, 3]))
        assert part.case_tag == "B"
        assert part.block_sizes == (2, 2, 1)

    def test_case_b_strict_bounds(self, rng):
        for spectrum in ([1, 1, 2, 2, 3], [1, 2, 3, 4, 5], [1, 1, 2, 2, 3, 3, 4]):
            part = partition_spectrum(planted_matrix(rng, spectrum))
            n = len(spectrum)
            assert sum(part.block_sizes) == n
            if part.case_tag == "B":
                assert all(2 * s < n for s in part.block_sizes)

    def test_multiplicity_too_large(self):
        with pytest.raises(MultiplicityTooLargeError):
            partition_spectrum(np.eye(3))
        with pytest.raises(MultiplicityTooLargeError):
            partition_spectrum(np.diag([1.0, 1.0, 1.0, 2.0]))

    def test_reconstruction(self, rng):
        for spectrum in ([1, 2], [1, 1, 2, 3], [1, 1, 2, 2, 3], [1, 2, 3]):
            B = planted_matrix(rng, spectrum)
            part = partition_spectrum(B)
            recon = part.to_block_diag.t @ blkdiag(part.blocks) @ part.to_block_diag.t_inv
            kappa = part.to_block_diag.condition_estimate
            assert np.linalg.norm(recon - B) <= 1e-9 * kappa * np.linalg.norm(B)

    def test_spectra_union(self, rng):
        B = planted_matrix(rng, [1, 1, 2, 2, 3])
        part = partition_spectrum(B)
        spectra = [np.linalg.eigvals(b) for b in part.blocks]
        merged = sorted(np.round(np.concatenate(spectra).real, 6))
        assert merged == [1, 1, 2, 2, 3]


class TestZeroDiagonal:
    def test_zero_matrix(self):
        # every step runs, the reflector of the odd group too, so T is
        # unitary but not the identity
        hol = zero_diagonal_similarity(np.zeros((3, 3)))
        assert np.array_equal(hol.target, np.zeros((3, 3)))
        assert fro(hol.t @ hol.t.conj().T - np.eye(3)) <= 1e-15

    def test_diag_plus_minus_one(self):
        # spectrum must be preserved, diagonal must vanish
        hol = zero_diagonal_similarity(np.diag([1.0, -1.0]))
        assert np.abs(np.diag(hol.target)).max() < 1e-12
        assert np.allclose(sorted_eigs(hol.target), [-1.0, 1.0], atol=1e-10)

    def test_already_hollow(self, rng):
        A = random_traceless(rng, 4)
        np.fill_diagonal(A, 0.0)
        hol = zero_diagonal_similarity(A)
        assert np.allclose(hol.t, np.eye(4))
        assert np.array_equal(hol.target, A)

    def test_nonzero_trace_rejected(self):
        with pytest.raises(NonzeroTraceError):
            zero_diagonal_similarity(np.eye(2))

    def test_spectrum_preserved(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            A = random_traceless(rng, n)
            hol = zero_diagonal_similarity(A)
            assert not np.diag(hol.target).any()
            assert np.allclose(sorted_eigs(hol.target), sorted_eigs(A),
                               atol=1e-8)

    def test_failure_names_its_steps(self):
        # a hollow_tol below rounding: every step runs and the gate fails
        tols = dataclasses.replace(DEFAULT_TOLS, hollow_tol=1e-30)
        A = np.arange(25.0).reshape(5, 5) % 7
        A[0, 0] -= np.trace(A)
        with pytest.raises(ResidualTooLargeError, match=re.escape(
                "deflation left a nonzero diagonal on the result (n = 5) "
                "(residual ")):
            zero_diagonal_similarity(A, tols)

    def test_certificate_orientation(self, rng):
        # the stored transform maps the input onto the hollow form
        A = random_traceless(rng, 5)
        cert = zero_diagonal_similarity(A)
        assert np.linalg.norm(cert.t @ A @ cert.t_inv - cert.target) <= (
            1e-9 * cert.condition_estimate * np.linalg.norm(A))

    @pytest.mark.parametrize("n", [2, 5, 12, 33, 64])
    def test_certificate_inverse_is_the_adjoint(self, rng, n):
        # the transform is the unitary's adjoint P*, certified with the
        # accumulated P itself as its inverse
        cert = zero_diagonal_similarity(random_traceless(rng, n))
        assert np.array_equal(cert.t_inv, cert.t.conj().T)
        assert cert.residual_inverse <= 1e-13 * n


def fov_vector_stack_oracle(C, s):
    """_fov_vector as it was written for a stack C (..., 2, 2), with the
    kappa = 0 and radius = 0 branches as np.where: v of shape (..., 2)."""
    a, b, c, d = C[..., 0, 0], C[..., 0, 1], C[..., 1, 0], C[..., 1, 1]
    delta = d - a
    kappa = b * np.conj(delta) - np.conj(c) * delta
    mag = np.abs(kappa)
    phase = np.where(mag > 0, np.conj(kappa) / np.where(mag > 0, mag, 1.0),
                     1.0)
    r = ((b * np.conj(delta) + np.conj(c) * delta) * phase).real
    p = np.abs(delta) ** 2
    radius = np.hypot(p, r)
    cos = np.where(radius > 0,
                   (1 - 2 * s) * p / np.where(radius > 0, radius, 1.0), 1.0)
    theta = np.arccos(np.clip(cos, -1.0, 1.0)) - np.arctan2(r, p)
    return np.stack([np.cos(theta / 2), phase * np.sin(theta / 2)], axis=-1)


def _fov_cases(rng):
    """(C, s): random blocks plus the degenerate ones: equal diagonal
    entries (radius 0), a segment for a field of values (kappa 0), zero."""
    dense = (rng.standard_normal((40, 2, 2))
             + 1j * rng.standard_normal((40, 2, 2)))
    degenerate = np.array([np.ones((2, 2)), np.diag([1.0, -1.0]),
                           [[1.0, 2.0], [2.0, -1.0]], np.zeros((2, 2))])
    return (np.concatenate([dense, degenerate]),
            np.r_[rng.random(40), 0.0, 0.5, 1.0, 0.5])


def fov_stack(C, s):
    """_fov_vector on the entries of the stack C, as v of shape (..., 2)."""
    return np.stack(_fov_vector(C[..., 0, 0], C[..., 0, 1], C[..., 1, 0],
                                C[..., 1, 1], s), axis=-1)


def test_fov_vector_stack_matches_each_matrix(rng):
    C, s = _fov_cases(rng)
    v = fov_stack(C, s)
    # vectorized transcendentals may round differently from scalar ones
    each = np.array([fov_stack(Ci, si) for Ci, si in zip(C, s)])
    assert np.abs(v - each).max() <= 4 * _EPS
    assert np.abs(np.linalg.norm(v, axis=1) - 1).max() <= 4 * _EPS
    value = np.einsum("ki,kij,kj->k", v.conj(), C, v)
    wanted = (1 - s) * C[:, 0, 0] + s * C[:, 1, 1]
    assert np.all(np.abs(value - wanted)
                  <= 16 * _EPS * np.linalg.norm(C, axis=(1, 2)))


def test_fov_vector_arrays_equal_the_stack_form(rng):
    # the kappa = 0 and radius = 0 selects are arithmetic, adding and
    # dividing by exact zeros where they do not fire, so the values are
    # equal entry for entry, those cases included; one scalar s as well, as
    # in the butterfly rounds
    C, s = _fov_cases(rng)
    assert np.array_equal(fov_stack(C, s), fov_vector_stack_oracle(C, s))
    assert np.array_equal(fov_stack(C, 0.5), fov_vector_stack_oracle(C, 0.5))


def test_fov_vector_on_python_scalars(rng):
    C, s = _fov_cases(rng)
    for Ci, si, want in zip(C, s, fov_vector_stack_oracle(C, s)):
        v0, v1 = _fov_vector(*map(complex, Ci.ravel()), float(si))
        assert abs(v0 - want[0]) <= 1e-15 and abs(v1 - want[1]) <= 1e-15


def assert_unitary_hollow(A, hol):
    n = A.shape[0]
    T, M = hol.t, hol.target
    assert fro(T @ T.conj().T - np.eye(n)) <= 1e-13 * n
    assert fro(T @ A @ T.conj().T - M) <= 1e-13 * n * fro(A)
    assert not np.diag(M).any()


_PAIR_C = {"diag": np.diag([1.0, -1.0]), "dense": np.array([[1.0, 2.0],
                                                            [3.0, -1.0]])}


@pytest.mark.parametrize("A", [
    blkdiag([np.ones((2, 2)), -np.eye(2)]),
    *[np.kron(np.eye(4), C) for C in _PAIR_C.values()],
    *[np.kron(C, np.ones((4, 4))) for C in _PAIR_C.values()],
], ids=["ones-plus-minus-identity",
        *[f"kron-identity-{k}" for k in _PAIR_C],
        *[f"kron-{k}-ones" for k in _PAIR_C]])
def test_zero_diagonal_degenerate_pairs(A):
    # butterfly pairs with equal diagonal entries (radius 0) or a segment
    # for a field of values (kappa 0): the midpoint rotation must stay
    # finite and unitary
    hol = zero_diagonal_similarity(A)
    assert_unitary_hollow(A.astype(complex), hol)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16, 31, 32, 33, 63, 64])
def test_zero_diagonal_sizes_around_powers_of_two(n):
    # n - m reflectors, then log2 m butterfly rounds, m = 2^floor(log2 n)
    A = random_traceless(np.random.default_rng(n), n)
    hol = zero_diagonal_similarity(A)
    assert_unitary_hollow(A, hol)
    # random spectra are well separated: match each eigenvalue both ways
    M = hol.target
    dist = np.abs(np.linalg.eigvals(M)[:, None] - np.linalg.eigvals(A))
    assert max(dist.min(0).max(), dist.min(1).max()) <= 1e-10 * fro(A)



def isotropic_vector_scalar(B):
    """_isotropic_vectors of one block, as it was written on Python scalars
    before the stacked form: unit x with x* B x = 0 (to rounding) for a
    trace-zero B, d >= 2."""
    diag = np.diag(B).tolist()
    i = max(range(len(diag)), key=lambda t: abs(diag[t]))
    # the other diagonal entries, turned so that -b_i points along +1
    z = {t: zt * -diag[i].conjugate() for t, zt in enumerate(diag) if t != i}
    angle = {t: cmath.phase(zt) % (2 * np.pi) for t, zt in z.items()}
    j, k = min(z, key=angle.get), max(z, key=angle.get)
    if z[j].imag > 0 > z[k].imag and (z[j].conjugate() * z[k]).imag < 0:
        # the segment from z_j to z_k crosses the ray
        s = z[j].imag / (z[j].imag - z[k].imag)
    else:
        # an entry lies on the ray (up to rounding of the trace)
        s = 0.0 if abs(cmath.phase(z[j])) <= abs(cmath.phase(z[k])) else 1.0
    # j == k leaves v = (1, 0), so y = e_j
    v0, v1 = _fov_vector(diag[j], B.item(j, k), B.item(k, j), diag[k], s)
    y = np.zeros(len(diag), dtype=complex)
    np.add.at(y, [j, k], [v0, v1])
    By = B[:, j] * v0 + B[:, k] * v1
    w = complex(y.conj() @ By)
    c = complex(np.conj(v0) * B.item(j, i) + np.conj(v1) * B.item(k, i))
    total = abs(diag[i]) + abs(w)
    u0, u1 = _fov_vector(diag[i], complex(By[i]), c, w,
                         abs(diag[i]) / total if total else 0.0)
    x = u1 * y
    x[i] += u0
    return x


def zero_diagonal_two_phase(A, tols=DEFAULT_TOLS):
    """zero_diagonal_similarity as it was written before the halving loop,
    on A as given: with m the largest power of two at most n, n - m
    sequential reflectors on the leading indices, then log2 m butterfly
    rounds on the trailing m. (M, T, reflectors, rounds)."""
    n = A.shape[0]
    norm_a = fro(A)
    W = A.astype(complex)
    P = np.eye(n, dtype=complex)
    m = 1 << max(n.bit_length() - 1, 0)
    r = n - m
    reflectors = rounds = 0
    for k in range(r):
        if np.abs(np.diag(W)[k:]).max() <= tols.hollow_tol * norm_a:
            break
        u = isotropic_vector_scalar(W[k:, k:])
        u[0] += np.exp(1j * np.angle(u[0]))
        u /= np.linalg.norm(u)
        W[k:, :] -= 2 * np.outer(u, u.conj() @ W[k:, :])
        W[:, k:] -= 2 * np.outer(W[:, k:] @ u, u.conj())
        P[:, k:] -= 2 * np.outer(P[:, k:] @ u, u.conj())
        reflectors += 1
    while ((1 << rounds) < m
           and np.abs(np.diag(W)[r:]).max() > tols.hollow_tol * norm_a):
        h = 1 << rounds
        p = r + np.arange(m).reshape(-1, 2, h)[:, 0].ravel()
        _midpoint_round(W, P, p, p + h)
        rounds += 1
    return W, P.conj().T, reflectors, rounds


def _unit_scale_target(n):
    """A random trace-zero target whose largest part lies in [1/2, 1), which
    zero_diagonal_similarity's power-of-two scaling leaves as it is."""
    A = random_traceless(np.random.default_rng(n), n)
    return _times_pow2(A, -_exponent(A))


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_zero_diagonal_powers_of_two_match_the_two_phase_loop(n):
    # a power of two runs the same butterfly pairs in both loops, in
    # another order within a round, which an entrywise update does not see;
    # the reference keeps the rounding on its diagonal, which the stage
    # sets to zero
    A = _unit_scale_target(n)
    hol = zero_diagonal_similarity(A)
    M, T, _, _ = zero_diagonal_two_phase(A)
    assert np.array_equal(hol.target, M - np.diag(np.diag(M)))
    assert np.array_equal(hol.t, T)


@pytest.mark.parametrize("n", range(2, 65))
def test_zero_diagonal_halving_loop_against_the_two_phase_loop(n):
    # other sizes shed their reflectors at other indices, so only the
    # form and the spectrum compare
    A = _unit_scale_target(n)
    hol = zero_diagonal_similarity(A)
    M, _, _, _ = zero_diagonal_two_phase(A)
    assert_unitary_hollow(A, hol)
    dist = np.abs(np.linalg.eigvals(hol.target)[:, None]
                  - np.linalg.eigvals(M))
    assert max(dist.min(0).max(), dist.min(1).max()) <= 1e-10 * fro(A)


@pytest.mark.parametrize("scale", [1e-300, 1e-155, 1e150])
def test_zero_diagonal_at_extreme_scales(scale):
    # the steps run on A times a power of two with its largest part in
    # [1/2, 1), where no square of an entry leaves the double range, so T
    # is the one of that matrix
    A = random_traceless(np.random.default_rng(12), 12)
    A *= scale / fro(A)
    hol = zero_diagonal_similarity(A)
    assert_unitary_hollow(A, hol)
    unit = zero_diagonal_similarity(_times_pow2(A, -_exponent(A)))
    assert np.array_equal(hol.t, unit.t)


def _test_blocks(rng, d):
    dense = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    zero_col = dense.copy()
    zero_col[:, d // 2] = 0.0
    yield "random", dense
    yield "diagonal", np.diag(np.diag(dense))
    # every angle from the ray is 0 or pi: the neighbours tie
    yield "real-diagonal", np.diag(dense.real.diagonal())
    yield "upper", np.triu(dense)
    yield "zero-column", zero_col
    # constant diagonal: zero up to rounding once the trace is removed
    yield "circulant", np.array([np.roll(dense[0], k) for k in range(d)])


def _jordan(rng, n):
    """Unitarily rotated J_a(lam) + J_b(mu) with a lam + b mu = 0."""
    a = int(rng.integers(1, n))
    lam = complex(rng.standard_normal(), rng.standard_normal())
    J = np.diag(np.r_[np.full(a, lam), np.full(n - a, -lam * a / (n - a))])
    J += np.diag(np.r_[np.ones(a - 1), 0.0, np.ones(n - a - 1)], 1)
    Q = random_unitary(rng, n)
    return Q @ J @ Q.conj().T


def _graded(rng, n):
    """D A D^-1 with the diagonal D spanning 1e8."""
    D = np.logspace(-4, 4, n) * np.exp(2j * np.pi * rng.random(n))
    return (D[:, None] / D) * random_traceless(rng, n)


def _target(kind, n, log_scale, seed):
    rng = np.random.default_rng(seed)
    if kind == "jordan":
        A = _jordan(rng, n)
    elif kind == "graded":
        A = _graded(rng, n)
    else:
        A = dict(_test_blocks(rng, n))[kind]
    return 10.0 ** log_scale * (A - np.trace(A) / n * np.eye(n))


_KINDS = ["random", "diagonal", "real-diagonal", "upper", "zero-column",
          "circulant", "jordan", "graded"]
_EPS = np.finfo(float).eps
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)
_targets = st.tuples(st.sampled_from(_KINDS), st.integers(2, 64),
                     st.floats(-8, 8), st.integers(0, 2**32 - 1))


def isotropic_vector_oracle(B):
    """The isotropic vector of one block as it was written on numpy arrays,
    with the 2x2 solves on stacks of one."""
    diag = np.diag(B)
    i = int(np.argmax(np.abs(diag)))
    rest = np.delete(np.arange(B.shape[0]), i)
    z = diag[rest] * -np.conj(diag[i])
    angle = np.angle(z)
    jj, kk = np.argmin(angle % (2 * np.pi)), np.argmax(angle % (2 * np.pi))
    if z[jj].imag > 0 > z[kk].imag and (np.conj(z[jj]) * z[kk]).imag < 0:
        s = z[jj].imag / (z[jj].imag - z[kk].imag)
    else:
        s = 0.0 if abs(angle[jj]) <= abs(angle[kk]) else 1.0
    jk = rest[[jj, kk]]
    v = fov_vector_stack_oracle(B[np.ix_(jk, jk)], s)
    y = np.zeros(B.shape[0], dtype=complex)
    np.add.at(y, jk, v)
    By = B[:, jk] @ v
    w = y.conj() @ By
    C = np.array([[diag[i], By[i]], [v.conj() @ B[jk, i], w]])
    total = abs(diag[i]) + abs(w)
    v = fov_vector_stack_oracle(C, abs(diag[i]) / total if total else 0.0)
    x = v[1] * y
    x[i] += v[0]
    return x


def assert_isotropic(B, case):
    """A unit x with |x* B x| at rounding level relative to ||B||_F."""
    x = _isotropic_vectors(B[None])[0]
    assert abs(np.linalg.norm(x) - 1) <= 4 * _EPS, case
    assert abs(x.conj() @ B @ x) <= 32 * _EPS * fro(B), case


@pytest.mark.parametrize("d", [2, 3, 4, 5, 12, 33, 63])
def test_isotropic_vector_matches_array_form(rng, d):
    # d = 2 leaves one other diagonal entry, so j == k
    for kind, block in _test_blocks(rng, d):
        B = block - np.trace(block) / d * np.eye(d)
        x, want = _isotropic_vectors(B[None])[0], isotropic_vector_oracle(B)
        for v in (x, want):
            assert abs(np.linalg.norm(v) - 1) <= 4 * _EPS, kind
            assert abs(v.conj() @ B @ v) <= 1e-14 * fro(B), kind
        assert np.abs(x - want).max() <= 1e-14, kind


@pytest.mark.parametrize("d", range(3, 16))
def test_isotropic_vectors_match_the_scalar_form(rng, d):
    # one stack of every block kind, against the scalar form one block at
    # a time; NumPy and Python round complex products differently, so they
    # agree to rounding (d = 2 can also tie |b_0| = |b_1| differently)
    kinds, blocks = zip(*(kind for _ in range(3)
                          for kind in _test_blocks(rng, d)))
    B = np.stack([b - np.trace(b) / d * np.eye(d) for b in blocks])
    X = _isotropic_vectors(B)
    for kind, Bg, x in zip(kinds, B, X):
        assert np.abs(x - isotropic_vector_scalar(Bg)).max() <= 1e-14, kind
        assert abs(x.conj() @ Bg @ x) <= 32 * _EPS * fro(Bg), kind


@pytest.mark.parametrize("d", list(range(2, 21)) + [32, 33, 64])
def test_isotropic_vector_block_kinds(rng, d):
    for kind, block in _test_blocks(rng, d):
        assert_isotropic(block - np.trace(block) / d * np.eye(d), (kind, d))


@_PROPERTY
@given(_targets)
def test_isotropic_vector_property(case):
    assert_isotropic(_target(*case), case)


@_PROPERTY
@given(_targets)
def test_zero_diagonal_similarity_property(case):
    A = _target(*case)
    n = A.shape[0]
    hol = zero_diagonal_similarity(A)
    assert_unitary_hollow(A, hol)
    M = hol.target
    # every eigenvalue of M is one of A up to a perturbation of size
    # sigma_min(A - mu I); Jordan and graded spectra are too ill-conditioned
    # to compare eigenvalue lists directly
    for mu in np.linalg.eigvals(M):
        sigma = np.linalg.svd(A - mu * np.eye(n), compute_uv=False)[-1]
        assert sigma <= 1e-12 * n * fro(A)


def cluster_eigenvalues_union_find(eigs, tol):
    """Reference: union-find over every pair with |a - b| <= tol * scale,
    groups in order of their first member, then a stable sort by mean."""
    eigs = np.asarray(eigs, dtype=complex)
    m = len(eigs)
    scale = max(float(np.abs(eigs).max(initial=0.0)), 1e-300)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(eigs[i] - eigs[j]) <= tol * scale:
                parent[find(i)] = find(j)

    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    clusters = [
        (complex(np.mean(eigs[idx])), len(idx)) for idx in groups.values()
    ]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def test_clusters_match_union_find(rng):
    for _ in range(300):
        m = int(rng.integers(0, 30))
        # lattice points with perturbations around every tolerance below
        eigs = rng.integers(-3, 4, m) + 1j * rng.integers(-2, 3, m)
        eigs = eigs + rng.choice([0, 1e-9, 1e-7, 1e-3], m) * (
            rng.standard_normal(m) + 1j * rng.standard_normal(m))
        tol = float(rng.choice([1e-8, 1e-7, 1e-3, 0.3]))
        clusters = cluster_eigenvalues(eigs, tol)
        # bit-equal means, same multiplicities, same order
        assert clusters == cluster_eigenvalues_union_find(eigs, tol)
        if not m:
            continue
        reps = np.array([c[0] for c in clusters])
        keys = [int(np.argmin(np.abs(reps - lam))) for lam in eigs]
        counts = np.bincount(keys, minlength=len(clusters)).tolist()
        if counts == [c[1] for c in clusters]:
            assert _assign_to_clusters(eigs, clusters).tolist() == keys
        else:
            with pytest.raises(ClusterGapTooSmallError):
                _assign_to_clusters(eigs, clusters)


def bubble_reorder_oracle(T, Q, keys):
    """Reference: stable-sort the diagonal of T by integer keys with a bubble
    sort of adjacent swaps, each a 2x2 unitary rotation of T and Q."""
    T, Q, keys = T.copy(), Q.copy(), list(keys)
    changed = True
    while changed:
        changed = False
        for i in range(len(keys) - 1):
            if keys[i] > keys[i + 1]:
                a, b, c = T[i, i], T[i, i + 1], T[i + 1, i + 1]
                v = np.array([b, c - a], dtype=complex)
                nv = np.linalg.norm(v)
                if nv:
                    v /= nv
                    G = np.array([[v[0], -np.conj(v[1])],
                                  [v[1], np.conj(v[0])]])
                    T[:, i : i + 2] = T[:, i : i + 2] @ G
                    T[i : i + 2, :] = G.conj().T @ T[i : i + 2, :]
                    Q[:, i : i + 2] = Q[:, i : i + 2] @ G
                    T[i + 1, i] = 0.0
                keys[i], keys[i + 1] = keys[i + 1], keys[i]
                changed = True
    return T, Q, keys


@pytest.mark.parametrize("n", list(range(2, 41)))
def test_reorder_schur_matches_bubble_oracle(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    T0, Q0 = scipy.linalg.schur(A, output="complex")
    keys = rng.integers(0, max(2, n // 3), n)  # repeated keys
    T_ref, Q_ref, keys_ref = bubble_reorder_oracle(T0, Q0, keys)
    order = np.argsort(keys, kind="stable")
    assert keys_ref == sorted(keys)

    def key(eigs):
        # each eigenvalue's key is that of its position on T0's diagonal;
        # the position breaks ties, so the order is the oracle's stable one
        pos = np.argmin(np.abs(eigs[:, None] - np.diag(T0)), axis=1)
        assert sorted(pos) == list(range(n))
        return keys[pos] * n + pos

    eigs, T, Q = eigendecompose(A, key=key)
    assert np.array_equal(eigs, np.diag(T))
    assert np.allclose(np.diag(T), np.diag(T0)[order], rtol=0, atol=1e-12)
    assert np.allclose(np.diag(T), np.diag(T_ref), rtol=0, atol=1e-12)
    # same invariant subspaces: Q and Q_ref agree up to column phases
    assert np.allclose(np.abs(Q.conj().T @ Q_ref), np.eye(n), rtol=0,
                       atol=1e-12)
    assert not np.tril(T, -1).any()
    assert fro(Q @ T @ Q.conj().T - A) <= 1e-12 * fro(A)


def grouping_oracle(B):
    """The three-branch group selection that partition_spectrum made before
    its one greedy pass: (case_tag, block_sizes, the clusters of each
    block)."""
    eigs = eigendecompose(B)[0]
    n = len(eigs)
    clusters = cluster_eigenvalues(eigs, CLUSTER_TOL)
    if n % 2 == 0:
        half = n // 2
        halves = [i for i, c in enumerate(clusters) if c[1] == half]
        if halves:
            big = halves[0]
            if len(halves) == 2:
                # two equal halves: keep the order B already leads with
                big = int(np.argmin([abs(eigs[0] - c[0]) for c in clusters]))
            rest = [c for i, c in enumerate(clusters) if i != big]
            return "A", (half, half), [[clusters[big]], rest]
        # a prefix of clusters whose multiplicities sum to n/2
        cum = np.cumsum([c[1] for c in clusters])
        j = int(np.searchsorted(cum, half))
        if j < len(cum) and cum[j] == half:
            return "A", (half, half), [clusters[:j + 1], clusters[j + 1:]]
    cum = j = 0
    while j < len(clusters) and 2 * (cum + clusters[j][1]) <= n:
        cum += clusters[j][1]
        j += 1
    q = clusters[j][1]
    return ("B", (cum, q, n - cum - q),
            [clusters[:j], clusters[j:j + 1], clusters[j + 1:]])


def assert_grouping_matches_oracle(diagonal):
    """partition_spectrum of diag(diagonal), distinct integers repeated,
    has the oracle's case, sizes and eigenvalue multiset per block."""
    B = np.diag(np.asarray(diagonal, dtype=complex))
    part = partition_spectrum(B)
    case_tag, sizes, groups = grouping_oracle(B)
    assert (part.case_tag, part.block_sizes) == (case_tag, sizes), diagonal
    assert len(part.blocks) == len(groups)
    for block, group in zip(part.blocks, groups):
        got = sorted(np.rint(np.diag(block).real).astype(int).tolist())
        assert got == sorted(round(v.real) for v, m in group
                             for _ in range(m)), diagonal
    return part


@pytest.mark.parametrize("diagonal, blocks", [
    # two n/2 clusters: the one np.linalg.eig lists first goes first
    ([5, 5, 5, 1, 1, 1], [[5, 5, 5], [1, 1, 1]]),
    ([1, 1, 1, 5, 5, 5], [[1, 1, 1], [5, 5, 5]]),
    # one n/2 cluster that sorts last still goes first
    ([1, 2, 2, 3, 3, 3], [[3, 3, 3], [1, 2, 2]]),
    # a prefix that sums to n/2
    ([1, 2, 2, 3, 4, 4], [[1, 2, 2], [3, 4, 4]]),
])
def test_grouping_explicit_cases(diagonal, blocks):
    part = assert_grouping_matches_oracle(diagonal)
    assert part.case_tag == "A"
    assert [sorted(np.rint(np.diag(b).real).astype(int).tolist())
            for b in part.blocks] == blocks


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_grouping_matches_oracle_property(data):
    n = data.draw(st.integers(2, 12), label="n")
    mults = []
    while sum(mults) < n:
        mults.append(data.draw(st.integers(1, min(n // 2, n - sum(mults)))))
    values = data.draw(st.lists(st.integers(-20, 20), min_size=len(mults),
                                max_size=len(mults), unique=True))
    diagonal = data.draw(st.permutations(np.repeat(values, mults).tolist()))
    assert_grouping_matches_oracle(diagonal)
