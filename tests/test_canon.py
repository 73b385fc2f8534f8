import numpy as np
import pytest
import scipy.linalg

from matwaring.canon import (
    _deflation_vector,
    _reorder_schur,
    block_diagonalize_by_cluster,
    cluster_eigenvalues,
    partition_spectrum,
    zero_diagonal_similarity,
)
from matwaring.config import DEFAULT_TOLS
from matwaring.errors import (
    ClusterGapTooSmallError,
    MultiplicityTooLargeError,
    NonzeroTraceError,
)
from matwaring.linalg import blkdiag, fro

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


class TestBlockDiagonalize:
    def test_already_block_diagonal(self, rng):
        B = np.diag([1.0, 2.0]).astype(complex)
        clusters = cluster_eigenvalues([1.0, 2.0], 1e-8)
        blocks, cert = block_diagonalize_by_cluster(B, clusters)
        assert np.allclose(cert.t @ blkdiag(blocks) @ cert.t_inv, B, atol=1e-12)

    def test_two_by_two_hand_value(self):
        # Sylvester relation: X - 2X = -5 gives X = 5, so T = [[1, 5], [0, 1]]
        B = np.array([[1.0, 5.0], [0.0, 2.0]], dtype=complex)
        clusters = cluster_eigenvalues([1.0, 2.0], 1e-8)
        blocks, cert = block_diagonalize_by_cluster(B, clusters)
        assert np.allclose([b.item() for b in blocks], [1.0, 2.0])
        assert np.allclose(cert.t, [[1, 5], [0, 1]])

    def test_planted_five(self, rng):
        B = planted_matrix(rng, [1, 1, 2, 2, 3])
        clusters = cluster_eigenvalues(np.linalg.eigvals(B),
                                       DEFAULT_TOLS.cluster_tol)
        blocks, cert = block_diagonalize_by_cluster(B, clusters)
        recon = cert.t @ blkdiag(blocks) @ cert.t_inv
        assert np.linalg.norm(recon - B) <= 1e-9 * np.linalg.norm(B)

    def test_jordan_coupled_cluster(self, rng):
        # non-diagonalizable inside a cluster is fine; only clusters separate
        J = np.array([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2.0]])
        Q = random_unitary(rng, 4)
        B = Q @ J @ Q.conj().T
        clusters = cluster_eigenvalues(np.linalg.eigvals(B),
                                       DEFAULT_TOLS.cluster_tol)
        blocks, cert = block_diagonalize_by_cluster(B, clusters)
        recon = cert.t @ blkdiag(blocks) @ cert.t_inv
        assert np.linalg.norm(recon - B) <= 1e-9 * np.linalg.norm(B)

    def test_tight_clusters_rejected(self, rng):
        B = np.diag([1.0, 1.0 + 1e-10]).astype(complex)
        clusters = [(1.0 + 0j, 1), (1.0 + 1e-10 + 0j, 1)]
        with pytest.raises(ClusterGapTooSmallError):
            block_diagonalize_by_cluster(B, clusters)


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
        hol = zero_diagonal_similarity(np.zeros((3, 3)))
        assert np.abs(hol.m).max() == 0
        assert np.allclose(hol.to_hollow.t, np.eye(3))

    def test_diag_plus_minus_one(self):
        # spectrum must be preserved, diagonal must vanish
        hol = zero_diagonal_similarity(np.diag([1.0, -1.0]))
        assert np.abs(np.diag(hol.m)).max() < 1e-12
        assert np.allclose(sorted_eigs(hol.m), [-1.0, 1.0], atol=1e-10)

    def test_already_hollow(self, rng):
        A = random_traceless(rng, 4)
        np.fill_diagonal(A, 0.0)
        hol = zero_diagonal_similarity(A)
        assert np.allclose(hol.to_hollow.t, np.eye(4))
        assert np.array_equal(hol.m, A)

    def test_nonzero_trace_rejected(self):
        with pytest.raises(NonzeroTraceError):
            zero_diagonal_similarity(np.eye(2))

    def test_spectrum_preserved(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            A = random_traceless(rng, n)
            hol = zero_diagonal_similarity(A)
            assert np.abs(np.diag(hol.m)).max() <= 1e-8 * np.linalg.norm(hol.m)
            assert np.allclose(sorted_eigs(hol.m), sorted_eigs(A), atol=1e-8)

    def test_certificate_orientation(self, rng):
        # the stored transform maps the input onto the hollow form
        A = random_traceless(rng, 5)
        hol = zero_diagonal_similarity(A)
        cert = hol.to_hollow
        assert np.linalg.norm(cert.t @ A @ cert.t_inv - hol.m) <= 1e-9 * (
            cert.condition_estimate * np.linalg.norm(A))


def deflation_vector_loop(block):
    """Reference: score one candidate at a time, e_k first, then the pairwise
    sums (e_i + e_j)/sqrt(2) for i < j; keep the first to beat the running
    best by 1e-15."""
    d = block.shape[0]
    norm_block = fro(block)
    candidates = [np.eye(d, dtype=complex)[:, k] for k in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = np.zeros(d, dtype=complex)
            v[i] = v[j] = 1 / np.sqrt(2)
            candidates.append(v)
    best_v, best_score = None, -1.0
    for v in candidates:
        w = block @ v
        nw = np.linalg.norm(w)
        if nw <= 1e-14 * max(norm_block, 1e-300):
            score = 1.0
        else:
            score = float(np.linalg.norm(w - (v.conj() @ w) * v) / nw)
        if score > best_score + 1e-15:
            best_v, best_score = v, score
    return best_v, best_score


def _deflation_blocks(rng, d):
    dense = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    zero_col = dense.copy()
    zero_col[:, d // 2] = 0.0
    yield "random", dense
    yield "diagonal", np.diag(np.diag(dense))
    yield "upper", np.triu(dense)
    yield "zero-column", zero_col
    # every e_k scores the same up to rounding: exercises the 1e-15 tie rule
    yield "circulant", np.array([np.roll(dense[0], k) for k in range(d)])


@pytest.mark.parametrize("d", list(range(2, 21)) + [32, 33, 64])
def test_deflation_vector_matches_loop(rng, d):
    for kind, block in _deflation_blocks(rng, d):
        v, score = _deflation_vector(block)
        v_ref, score_ref = deflation_vector_loop(block)
        assert np.array_equal(v, v_ref), (kind, d)
        assert abs(score - score_ref) <= 1e-14, (kind, d)
        # a strided view would change block @ v in the last bits
        assert v.flags.c_contiguous


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
    T, Q = _reorder_schur(T0, Q0, keys)
    T_ref, Q_ref, keys_ref = bubble_reorder_oracle(T0, Q0, keys)
    order = np.argsort(keys, kind="stable")
    assert keys_ref == sorted(keys)
    assert np.allclose(np.diag(T), np.diag(T0)[order], rtol=0, atol=1e-12)
    assert np.allclose(np.diag(T), np.diag(T_ref), rtol=0, atol=1e-12)
    # same invariant subspaces: Q and Q_ref agree up to column phases
    assert np.allclose(np.abs(Q.conj().T @ Q_ref), np.eye(n), rtol=0,
                       atol=1e-12)
    assert not np.tril(T, -1).any()
    assert fro(Q @ T @ Q.conj().T - A) <= 1e-12 * fro(A)
