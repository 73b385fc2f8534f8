import numpy as np
import pytest

from matwaring import unitaries
from matwaring.config import DEFAULT_TOLS
from matwaring.linalg import as_cmatrix, block_labels
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
    assign_parameters,
    build_decoupling_unitary,
    conjugating_rotation,
    corner_unitary,
    split_hollow,
)

P2 = np.diag([1.0, 0.0]).astype(complex)

Q_GRID = np.linspace(0.01, 0.99, 100)


def dense_split_oracle(M, pattern):
    """Reference split: minimum-norm least squares on the dense n^2 x 2m
    system whose columns are the pattern's matrix units and their
    U-conjugates."""
    n = M.shape[0]
    U, _ = build_decoupling_unitary(n, pattern)
    basis, positions = hollow_block_basis(n, pattern)
    m = len(positions)
    cols = np.empty((n * n, 2 * m), dtype=complex)
    for k, E in enumerate(basis.mats):
        cols[:, k] = E.ravel()
        cols[:, m + k] = (U @ E @ U.conj().T).ravel()
    coeffs, *_ = np.linalg.lstsq(cols, M.ravel(), rcond=None)
    C1 = np.zeros((n, n), dtype=complex)
    C2 = np.zeros((n, n), dtype=complex)
    r, c = np.array(positions).T
    C1[r, c] = coeffs[:m]
    C2[r, c] = coeffs[m:]
    return C1, C2


def all_patterns(n):
    """Every valid pattern at size n: (n/2, n/2) when even, plus all
    (p, q, r) with p + q + r = n and p, q, r < n/2."""
    patterns = []
    if n % 2 == 0:
        patterns.append((n // 2, n // 2))
    for p in range(1, n):
        for q in range(1, n - p):
            r = n - p - q
            if r >= 1 and 2 * p < n and 2 * q < n and 2 * r < n:
                patterns.append((p, q, r))
    return patterns


class TestProjectors:
    def test_half_plus(self):
        M = make_projector(0.5, "+")
        assert np.allclose(M, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_half_minus(self):
        M = make_projector(0.5, "-")
        assert np.allclose(M, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_idempotent_hermitian_rank_one(self, sign):
        for q in Q_GRID:
            M = make_projector(q, sign)
            assert np.abs(M @ M - M).max() <= 1e-14
            assert np.abs(M - M.conj().T).max() == 0
            assert abs(np.trace(M) - 1) <= 1e-14
            assert np.linalg.matrix_rank(M) == 1

    def test_q_out_of_range(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                make_projector(bad)


class TestConjugatingRotation:
    def test_takes_p2_to_projector(self):
        for q in Q_GRID:
            G = conjugating_rotation(q)
            R = make_projector(q, "+")
            assert np.abs(G @ P2 @ G.conj().T - R).max() <= 1e-14

    def test_complement_identity(self):
        # G (I - P2) G* equals the minus projector at parameter 1 - q
        for q in Q_GRID:
            G = conjugating_rotation(q)
            R = make_projector(1 - q, "-")
            lhs = G @ (np.eye(2) - P2) @ G.conj().T
            assert np.abs(lhs - R).max() <= 1e-14

    def test_unitarity(self):
        for q in Q_GRID:
            G = conjugating_rotation(q)
            assert np.linalg.norm(G.conj().T @ G - np.eye(2)) <= 1e-15


class TestCornerUnitary:
    def test_column_orthonormality(self):
        U0 = corner_unitary()
        assert np.abs(U0.conj().T @ U0 - np.eye(3)).max() <= 1e-14
        # the hand check: (1,1,0).(1,-1,1) = 0
        assert abs(U0[:, 0].conj() @ U0[:, 1]) <= 1e-15

    def test_first_projection(self):
        U0 = corner_unitary()
        T0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert np.abs(U0 @ T0 @ U0.conj().T - CORNER_K0).max() <= 1e-14

    def test_second_projection(self):
        U0 = corner_unitary()
        S0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        assert np.abs(U0 @ S0 @ U0.conj().T - CORNER_L0).max() <= 1e-14

    def test_images_are_rank_one_orthogonal_projections(self):
        for K in (CORNER_K0, CORNER_L0):
            assert np.abs(K @ K - K).max() <= 1e-14
            assert np.abs(K - K.conj().T).max() == 0
            assert np.linalg.matrix_rank(K) == 1


class TestAssignParameters:
    COMBOS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0),
              (1, 1, 0), (0, 1, 1), (1, 0, 1), (2, 2, 2), (3, 1, 2),
              (1, 2, 1), (4, 0, 4)]

    @pytest.mark.parametrize("combo", COMBOS)
    @pytest.mark.parametrize("corner", [False, True])
    def test_invariants(self, combo, corner):
        a = assign_parameters(*combo, odd_corner=corner)
        assert (len(a.qs), len(a.ts), len(a.ss)) == combo
        joint = list(a.qs) + list(a.ts)
        assert len(set(joint)) == len(joint)
        refl = [1 - t for t in a.ts] + list(a.ss)
        assert len({round(x, 12) for x in refl}) == len(refl)
        for x in joint + list(a.ss):
            assert 0 < x < 1
        if corner:
            for x in joint + list(a.ss) + [1 - t for t in a.ts]:
                assert abs(x - 0.5) > 1e-9 and abs(x - 1 / 3) > 1e-9

    def test_deterministic(self):
        assert assign_parameters(2, 1, 3) == assign_parameters(2, 1, 3)


class TestDecouplingUnitary:
    def test_n2_is_single_rotation(self):
        U, _ = build_decoupling_unitary(2, (1, 1))
        G = conjugating_rotation(assign_parameters(1, 0, 0).qs[0])
        assert np.allclose(U, G)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_unitarity_all_patterns(self, n):
        for pattern in all_patterns(n):
            U, _ = build_decoupling_unitary(n, pattern)
            assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-12

    def test_even_commutant_collapses(self):
        U, _ = build_decoupling_unitary(4, (2, 2))
        (R,) = pattern_projectors(4, (2, 2))
        dim = joint_commutant_dimension([R, U @ R @ U.conj().T])
        assert dim <= 4

    def test_general_commutant_collapses(self):
        U, _ = build_decoupling_unitary(5, (2, 2, 1))
        R1, R2 = pattern_projectors(5, (2, 2, 1))
        mats = [R1, R2, U @ R1 @ U.conj().T, U @ R2 @ U.conj().T]
        assert joint_commutant_dimension(mats) <= 5

    def test_layout_permutation_is_bijection(self):
        _, cells = build_decoupling_unitary(7, (3, 3, 1))
        assert sorted(sum(cells, ())) == list(range(7))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_layout_cells_carry_u(self, n):
        # U is block diagonal on its cells: zero between cells
        for pattern in all_patterns(n):
            U, cells = build_decoupling_unitary(n, pattern)
            assert sorted(sum(cells, ())) == list(range(n))
            inside = np.zeros((n, n), dtype=bool)
            for I in cells:
                inside[np.ix_(I, I)] = True
            assert np.abs(U[~inside]).max(initial=0.0) == 0

    def test_invalid_patterns(self):
        with pytest.raises(ValueError):
            build_decoupling_unitary(4, (1, 3))
        with pytest.raises(ValueError):
            build_decoupling_unitary(6, (3, 2, 1))  # 3 is not < 3
        with pytest.raises(ValueError):
            build_decoupling_unitary(5, (2, 3))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_hollow_coverage(self, n):
        # the decoupling property dualizes: V + U V U* contains every
        # hollow matrix, i.e. has dimension at least n^2 - n
        for pattern in all_patterns(n):
            U, _ = build_decoupling_unitary(n, pattern)
            V, _ = hollow_block_basis(n, pattern)
            assert subspace_sum_rank(V, V.conjugated(U)) >= n * n - n


class TestSplitHollow:
    def test_zero_matrix(self):
        split = split_hollow(np.zeros((4, 4)), (2, 2))
        assert np.abs(split.c1).max() == 0
        assert np.abs(split.c2).max() == 0

    def test_member_of_pattern_space(self, rng):
        M = np.zeros((4, 4), dtype=complex)
        M[:2, 2:] = rng.standard_normal((2, 2))
        M[2:, :2] = rng.standard_normal((2, 2))
        split = split_hollow(M, (2, 2))
        assert split.residual <= 1e-9

    def test_inside_diagonal_block(self):
        # E12 + E21 is hollow but sits inside a diagonal block of (2, 2)
        M = np.zeros((4, 4), dtype=complex)
        M[0, 1] = M[1, 0] = 1.0
        split = split_hollow(M, (2, 2))
        assert split.residual <= 1e-9

    def test_exact_zero_diagonal_blocks(self, rng):
        for n, pattern in [(4, (2, 2)), (5, (2, 2, 1)), (6, (2, 2, 2))]:
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            np.fill_diagonal(M, 0.0)
            split = split_hollow(M, pattern)
            edges = np.concatenate([[0], np.cumsum(pattern)]).astype(int)
            for a, b in zip(edges[:-1], edges[1:]):
                assert np.abs(split.c1[a:b, a:b]).max() == 0
                assert np.abs(split.c2[a:b, a:b]).max() == 0
            assert split.residual <= 1e-9 * max(1, np.linalg.norm(M))

    def test_non_hollow_rejected(self, rng):
        with pytest.raises(ValueError):
            split_hollow(np.eye(4), (2, 2))

    def test_any_nonzero_diagonal_rejected(self, rng):
        # a trace-zero diagonal of max 5.2e-10 on a hollow 8x8 M: far
        # within hollow_tol ||M||_F, but the split would drop it and miss M
        # by about half its norm
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        np.fill_diagonal(M, 0.0)
        d = rng.standard_normal(8)
        d -= d.mean()
        d *= 5.2e-10 / np.abs(d).max()
        assert 5.2e-10 < DEFAULT_TOLS.hollow_tol * np.linalg.norm(M)
        with pytest.raises(ValueError,
                           match=r"input is not hollow \(max diagonal "
                                 r"5\.200e-10\)"):
            split_hollow(M + np.diag(d), (4, 4))


_ORACLE_CASES = [(n, pattern) for n in range(2, 10) for pattern in all_patterns(n)]
_ORACLE_CASES += [(16, (8, 8)), (33, (16, 1, 16)), (33, (11, 11, 11))]


@pytest.mark.parametrize("n,pattern", _ORACLE_CASES,
                         ids=[f"{n}-{pattern}" for n, pattern in _ORACLE_CASES])
def test_split_matches_dense_oracle(rng, n, pattern):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    np.fill_diagonal(M, 0.0)
    split = split_hollow(M, pattern)
    C1, C2 = dense_split_oracle(M, pattern)
    bound = 1e-12 * np.linalg.norm(M)
    assert np.linalg.norm(split.c1 - C1) <= bound
    assert np.linalg.norm(split.c2 - C2) <= bound
    edges = np.concatenate([[0], np.cumsum(pattern)]).astype(int)
    for a, b in zip(edges[:-1], edges[1:]):
        assert not split.c1[a:b, a:b].any()
        assert not split.c2[a:b, a:b].any()


def per_call_split(M, pattern):
    """The split as it was before the plan: U and every cell system's
    pseudo-inverse built afresh for each M. Returns (U, C1, C2)."""
    M = as_cmatrix(M)
    n = M.shape[0]
    U, cells = build_decoupling_unitary(n, pattern)
    labels = block_labels(pattern)
    groups = [np.array([c for c in cells if len(c) == d])
              for d in (2, 3)]
    groups = [g for g in groups if len(g)]
    C1 = np.zeros((n, n), dtype=complex)
    C2 = np.zeros((n, n), dtype=complex)
    for I in groups:
        for J in groups:
            rows, cols = I[:, None, :, None], J[None, :, None, :]
            free = labels[rows] != labels[cols]
            kI, kJ, dI, dJ = free.shape
            RI = U[I[:, :, None], I[:, None, :]]
            RJ = U[J[:, :, None], J[:, None, :]]
            kron = np.einsum("pac,qbd->pqabcd", RI, RJ.conj()).reshape(
                kI, kJ, dI * dJ, -1)
            mask = free.reshape(kI, kJ, 1, dI * dJ)
            system = np.concatenate([np.eye(dI * dJ) * mask, kron * mask],
                                    axis=-1)
            x = np.linalg.pinv(system) @ M[rows, cols].reshape(kI, kJ, -1, 1)
            C1[rows, cols] = np.where(
                free, x[..., : dI * dJ, 0].reshape(free.shape), 0)
            C2[rows, cols] = np.where(
                free, x[..., dI * dJ :, 0].reshape(free.shape), 0)
    return U, C1, C2


def _bits(a):
    return a.view(np.int64)


_PLAN_CASES = [(2, (1, 1)), (4, (2, 2)), (32, (16, 16)),
               (5, (2, 2, 1)), (12, (5, 4, 3)), (33, (16, 1, 16)),
               (33, (11, 11, 11))]


@pytest.mark.parametrize("n,pattern", _PLAN_CASES,
                         ids=[f"{n}-{pattern}" for n, pattern in _PLAN_CASES])
def test_planned_split_is_bit_identical_to_per_call_split(rng, n, pattern):
    # odd n puts the 3x3 corner in the plan, next to the 2x2 cells
    for _ in range(2):     # the second split reuses the plan
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        np.fill_diagonal(M, 0.0)
        split = split_hollow(M, pattern)
        U, C1, C2 = per_call_split(M, pattern)
        for got, want in ((split.u, U), (split.c1, C1), (split.c2, C2)):
            assert np.array_equal(_bits(got), _bits(want))


def test_second_split_at_a_key_solves_nothing(rng, monkeypatch):
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv",
                        lambda *a, **k: calls.append(1) or pinv(*a, **k))
    unitaries._split_plan.cache_clear()
    M = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    np.fill_diagonal(M, 0.0)
    split_hollow(M, (3, 3, 1))
    assert len(calls) > 0
    calls.clear()
    split_hollow(2 * M, (3, 3, 1))
    assert calls == []


def test_split_plan_keeps_at_most_eight_keys():
    keys = [(n, (n // 2, n // 2)) for n in range(2, 22, 2)]
    for n, pattern in keys:
        split_hollow(np.zeros((n, n)), pattern)
    info = unitaries._split_plan.cache_info()
    assert info.maxsize == 8
    assert info.currsize <= 8


def test_split_unitary_is_read_only():
    split = split_hollow(np.zeros((4, 4)), (2, 2))
    with pytest.raises(ValueError):
        split.u[0, 0] = 1.0
