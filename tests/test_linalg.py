import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from matwaring.config import DEFAULT_TOLS
from matwaring.errors import IllConditionedError, SpectraOverlapError
from matwaring.freealg import fro
from matwaring.linalg import (
    TriangularPlan,
    block_labels,
    block_triangular_similarity,
    blkdiag,
    certify_similarity,
    eigendecompose,
    project_traceless,
    spectral_gap,
    sylvester_solve,
)
from matwaring.theory import (
    SubspaceBasis,
    joint_commutant_dimension,
    subspace_sum_rank,
)

from conftest import (
    planted_matrix,
    planted_triangular,
    random_complex,
    random_unitary,
)


def kron_sylvester_oracle(A1, A2, C):
    """Independent dense route: solve the (pq)x(pq) linear system assembled
    from the Kronecker structure of X -> A1 X - X A2 (row-major vec)."""
    p, q = A1.shape[0], A2.shape[0]
    K = np.kron(A1, np.eye(q)) - np.kron(np.eye(p), A2.T)
    return np.linalg.solve(K, C.ravel()).reshape(p, q)


def triangular_sylvester(R1, R2, C, tols=DEFAULT_TOLS):
    """sylvester_solve of one problem: X with R1 X - X R2 = C for
    upper-triangular R1, R2 with disjoint spectra, the coupling block of
    the unit block-upper transform of [[R1, -C], [0, R2]]."""
    p, q = len(R1), len(R2)
    upper = np.block([[R1, -C], [np.zeros((q, p)), R2]]).astype(complex)
    return sylvester_solve((p, q), upper[None], tols)[0][0, :p, p:]


def checked_sylvester(R1, R2, C):
    """triangular_sylvester through block_triangular_similarity, which makes
    the triangularity and spectral-gap checks sylvester_solve leaves to its
    callers."""
    p, q = len(R1), len(R2)
    off = np.zeros((p + q, p + q), dtype=complex)
    off[:p, p:] = -C
    T = block_triangular_similarity(TriangularPlan([R1, R2]), [off],
                                    ["upper"])[0].t
    return T[:p, p:]


def schur_sylvester(A1, A2, C):
    """triangular_sylvester on dense operands through their complex Schur
    forms A_i = Q_i R_i Q_i*: solve R1 Y - Y R2 = Q1* C Q2, return Q1 Y Q2*."""
    R1, Q1 = scipy.linalg.schur(A1, output="complex")
    R2, Q2 = scipy.linalg.schur(A2, output="complex")
    Y = triangular_sylvester(R1, R2, Q1.conj().T @ C @ Q2)
    return Q1 @ Y @ Q2.conj().T


def recursive_transform_oracle(blocks, off):
    """Reference: unit block-upper T with T blkdiag(blocks) T^-1 =
    blkdiag(blocks) + off, by recursion on the trailing blocks. The first
    block row X solves B_0 X - X blkdiag(rest) = -off[0, rest] T_22, where
    T_22 is the transform of the trailing blocks."""
    n = off.shape[0]
    if len(blocks) == 1:
        return np.eye(n, dtype=complex)
    s = blocks[0].shape[0]
    T22 = recursive_transform_oracle(blocks[1:], off[s:, s:])
    X = scipy.linalg.solve_sylvester(blocks[0], -blkdiag(blocks[1:]),
                                     -off[:s, s:] @ T22)
    T = np.eye(n, dtype=complex)
    T[:s, s:] = X
    T[s:, s:] = T22
    return T


def matrix_unit(n, i, j):
    E = np.zeros((n, n), dtype=complex)
    E[i, j] = 1.0
    return E


class TestEigendecompose:
    def test_diagonal(self):
        eigs, T, Q = eigendecompose(np.diag([1.0, 2.0]))
        assert sorted(eigs.real) == [1.0, 2.0]

    def test_nilpotent(self):
        eigs, T, Q = eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.abs(eigs).max() < 1e-14
        assert abs(T[1, 0]) == 0  # strictly upper

    def test_reconstruction(self, rng):
        A = random_complex(rng, 4)
        eigs, T, Q = eigendecompose(A)
        resid = np.linalg.norm(A - Q @ T @ Q.conj().T)
        assert resid <= 1e-12 * np.linalg.norm(A)
        assert np.linalg.norm(Q @ Q.conj().T - np.eye(4)) < 1e-13



def jordan_coupled(rng, values, size):
    """A unitary similarity of the direct sum of size x size Jordan blocks,
    one at each value."""
    n = len(values) * size
    J = np.diag(np.repeat(np.asarray(values, dtype=complex), size))
    J += np.diag(np.arange(1, n) % size != 0, 1)
    Q = random_unitary(rng, n)
    return Q @ J @ Q.conj().T


def assert_ordered_schur(A, key=None):
    """eigendecompose(A, key) is a Schur form to n eps ||A||_F (at least
    4 eps, the rounding of Q T Q* itself) with Q unitary and the diagonal in
    key order; returns it."""
    n = A.shape[0]
    eps = np.finfo(float).eps
    eigs, T, Q = eigendecompose(A, key)
    assert np.array_equal(eigs, np.diag(T))
    assert not np.tril(T, -1).any()
    assert (np.linalg.norm(Q @ T @ Q.conj().T - A)
            <= max(n, 4) * eps * np.linalg.norm(A))
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) <= 8 * n * eps
    if key is not None:
        assert np.all(np.diff(key(eigs)) >= 0)
    return eigs, T, Q


def counting_eig(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counted(a):
        calls.append(a.shape[0])
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    return calls


class TestOrderedSchur:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 33, 64])
    def test_random(self, rng, n, monkeypatch):
        calls = counting_eig(monkeypatch)
        A = random_complex(rng, n)
        assert_ordered_schur(A, lambda w: (w.real > 0).astype(int))
        if n >= 12:
            # the eigenvectors carry to the end: one eig, no fresh one
            assert calls == [n]

    def test_without_key_in_eig_order(self, rng):
        A = random_complex(rng, 12)
        eigs, _, _ = assert_ordered_schur(A)
        w = np.linalg.eig(A)[0]
        assert np.allclose(eigs, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, size", [(8, 4), (32, 4), (32, 8), (64, 8)])
    def test_jordan_coupled(self, rng, n, size, monkeypatch):
        calls = counting_eig(monkeypatch)
        A = jordan_coupled(rng, np.arange(n // size), size)
        # the largest value first: every cluster moves
        eigs, _, _ = assert_ordered_schur(
            A, lambda w: -np.rint(w.real).astype(int))
        assert len(calls) > 1   # the carried vectors lost their accuracy
        assert np.allclose(np.rint(eigs.real),
                           np.repeat(np.arange(n // size)[::-1], size))

    @pytest.mark.parametrize("n", [16, 64])
    def test_one_jordan_block(self, rng, n):
        assert_ordered_schur(jordan_coupled(rng, [0.0], n))

    def test_unmatched_trailing_spectrum_is_refused(self, rng, monkeypatch):
        # a fresh eig whose eigenvalues all sit at 5, where only four of the
        # trailing keys belong
        A = jordan_coupled(rng, [0.0, 5.0], 4)
        eig = np.linalg.eig

        def skewed(a):
            w, V = eig(a)
            return (w if a.shape[0] == 8 else np.full_like(w, 5.0)), V

        monkeypatch.setattr(np.linalg, "eig", skewed)
        with pytest.raises(SpectraOverlapError, match="matched to their keys"):
            eigendecompose(A, lambda w: (w.real > 2.5).astype(int))

    @pytest.mark.parametrize("n", [32, 64])
    def test_half_multiplicity(self, rng, n):
        # +1 and -1, n/2 times each, behind a non-normal similarity
        X = random_complex(rng, n) + n * np.eye(n)
        A = X @ np.diag(np.repeat([1.0, -1.0], n // 2)) @ np.linalg.inv(X)
        eigs, _, _ = assert_ordered_schur(A, lambda w: (w.real < 0).astype(int))
        assert np.allclose(eigs, np.repeat([-1.0, 1.0], n // 2)[::-1],
                           rtol=0, atol=1e-8)

class TestSylvester:
    def test_scalar_case(self):
        X = triangular_sylvester(np.array([[1.0]]), np.array([[2.0]]),
                                 np.array([[3.0]]))
        assert np.allclose(X, [[-3.0]])

    def test_zero_rhs(self, rng):
        A1 = planted_triangular(rng, [1, 2])
        A2 = planted_triangular(rng, [5, 6, 7])
        X = triangular_sylvester(A1, A2, np.zeros((2, 3)))
        assert np.abs(X).max() < 1e-12

    def test_against_kron_oracle(self, rng):
        for _ in range(50):
            p, q = rng.integers(1, 5), rng.integers(1, 5)
            A1 = random_complex(rng, p)
            A2 = random_complex(rng, q) + 10 * np.eye(q)  # shift spectra apart
            C = random_complex(rng, p)[:, :1] @ random_complex(rng, q)[:1, :]
            X = schur_sylvester(A1, A2, C)
            X_ref = kron_sylvester_oracle(A1, A2, C)
            assert np.linalg.norm(X - X_ref) <= 1e-10 * np.linalg.norm(X_ref)

    def test_spectra_overlap_rejected(self, rng):
        A = planted_triangular(rng, [1, 2])
        with pytest.raises(SpectraOverlapError):
            checked_sylvester(A, np.array([[2.0]]), np.ones((2, 1)))

    def test_non_triangular_operand_rejected(self, rng):
        A = planted_matrix(rng, [1, 2, 3])
        with pytest.raises(ValueError, match="every block must be upper"):
            checked_sylvester(A, np.array([[20.0]]), np.ones((3, 1)))
        with pytest.raises(ValueError, match="every block must be upper"):
            checked_sylvester(np.array([[20.0]]), A, np.ones((1, 3)))

    def test_checked_route_agrees(self, rng):
        R1 = planted_triangular(rng, [1, 2])
        R2 = planted_triangular(rng, [5, 6, 7])
        C = random_complex(rng, 5)[:2, :3]
        assert np.allclose(checked_sylvester(R1, R2, C),
                           triangular_sylvester(R1, R2, C))

    def test_residual_message_carries_gap_and_scale(self, rng):
        R1 = np.triu(random_complex(rng, 3))
        R2 = np.triu(random_complex(rng, 2)) + 10 * np.eye(2)
        d1, d2 = np.diag(R1), np.diag(R2)
        gap = np.abs(d1[:, None] - d2).min()
        scale = np.abs(np.concatenate([d1, d2])).max()
        tols = dataclasses.replace(DEFAULT_TOLS, solve_tol=1e-300)
        with pytest.raises(IllConditionedError) as err:
            triangular_sylvester(R1, R2, random_complex(rng, 3)[:, :2], tols)
        assert f"(gap {gap:.3e}, scale {scale:.3e})" in str(err.value)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e100, 1e160, 1e300])
    def test_residual_gate_holds_at_every_scale(self, rng, scale):
        # past about 2^512 (or below 2^-512) the squares in the gate's norms
        # overflowed (underflowed), and a defect over an infinite (zero)
        # norm passed any solve_tol
        blocks = [np.array([[scale * (k + 1)]]) for k in range(6)]
        off = scale * np.triu(random_complex(rng, 6), 1)
        tols = dataclasses.replace(DEFAULT_TOLS, solve_tol=1e-300)
        with pytest.raises(IllConditionedError,
                           match="Sylvester solve residual"):
            block_triangular_similarity(TriangularPlan(blocks), [off],
                                        ["upper"], tols)

    def test_transform_does_not_depend_on_a_power_of_two(self, rng):
        upper = planted_triangular(rng, [1, 2, 5, 6, 7]) + np.triu(
            random_complex(rng, 5), 1)
        T, T_inv = sylvester_solve((2, 1, 2), upper[None])
        for k in (-600, -40, 40, 600):
            scaled, scaled_inv = sylvester_solve((2, 1, 2),
                                                 upper[None] * 2.0 ** k)
            assert scaled.tobytes() == T.tobytes()
            assert scaled_inv.tobytes() == T_inv.tobytes()

    def test_certificate_at_the_top_of_the_double_range(self, rng):
        # at 1e300 the squares in the map residual's norm overflowed, and
        # the certificate carried residual_map inf; it is taken on the pair
        # times 2^-e and scaled back
        blocks = [np.array([[1e300 * (k + 1)]]) for k in range(6)]
        off = 1e300 * np.triu(random_complex(rng, 6), 1)
        [cert] = block_triangular_similarity(TriangularPlan(blocks), [off],
                                             ["upper"])
        bound = (DEFAULT_TOLS.cert_tol * cert.condition_estimate
                 * fro(cert.source))
        assert 0 < cert.residual_map <= bound < np.inf


class TestSubspaces:
    def test_same_unit(self):
        V = SubspaceBasis.from_matrices([matrix_unit(2, 0, 1)])
        assert subspace_sum_rank(V, V) == 1

    def test_two_units(self):
        V1 = SubspaceBasis.from_matrices([matrix_unit(2, 0, 1)])
        V2 = SubspaceBasis.from_matrices([matrix_unit(2, 1, 0)])
        assert subspace_sum_rank(V1, V2) == 2

    def test_invariance_under_recombination(self, rng):
        mats = [random_complex(rng, 3) for _ in range(4)]
        V1 = SubspaceBasis.from_matrices(mats)
        R = random_complex(rng, 4)  # invertible with probability 1
        recombined = [sum(R[i, j] * mats[j] for j in range(4)) for i in range(4)]
        V1r = SubspaceBasis.from_matrices(recombined)
        V2 = SubspaceBasis.from_matrices([random_complex(rng, 3) for _ in range(2)])
        assert subspace_sum_rank(V1, V2) == subspace_sum_rank(V1r, V2)


class TestCommutant:
    def test_identity_gives_everything(self):
        assert joint_commutant_dimension([np.eye(3)]) == 9

    def test_distinct_diagonal(self):
        assert joint_commutant_dimension([np.diag([1.0, 2.0, 3.0])]) == 3

    def test_adding_identity_changes_nothing(self, rng):
        mats = [random_complex(rng, 3) for _ in range(2)]
        assert (joint_commutant_dimension(mats)
                == joint_commutant_dimension(mats + [np.eye(3)]))


class TestProjectTraceless:
    def test_identity(self):
        assert np.abs(project_traceless(np.eye(2))).max() == 0

    def test_traceless_unchanged(self, rng):
        A = random_complex(rng, 3)
        A -= np.trace(A) / 3 * np.eye(3)
        assert np.allclose(project_traceless(A), A)

    def test_forced_by_definition(self):
        out = project_traceless(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(out, [[0.5, 0], [0, -0.5]])
        assert abs(np.trace(project_traceless(out))) < 1e-14


class TestCertificates:
    def test_bounds_hold(self, rng):
        T = random_complex(rng, 4)
        X = random_complex(rng, 4)
        Y = T @ X @ np.linalg.inv(T)
        [cert] = certify_similarity(T[None], np.linalg.inv(T)[None], X,
                                    Y[None], DEFAULT_TOLS, [""])
        assert cert.residual_inverse <= DEFAULT_TOLS.cert_tol
        bound = (DEFAULT_TOLS.cert_tol * cert.condition_estimate
                 * np.linalg.norm(X))
        assert cert.residual_map <= bound

    def test_wrong_target_rejected(self, rng):
        T = random_complex(rng, 3)
        X = random_complex(rng, 3)
        with pytest.raises(IllConditionedError):
            certify_similarity(T[None], np.linalg.inv(T)[None], X,
                               (X + np.eye(3))[None], DEFAULT_TOLS, [""])

    @pytest.mark.parametrize("scale", [1e-160, 1e100, 1e160, 1e300])
    def test_wrong_target_rejected_at_every_scale(self, rng, scale):
        # at 1e160 both sides of the map gate were inf, and inf > inf let
        # the wrong target through with residual_map inf
        I = np.eye(3)
        X = random_complex(rng, 3)
        with pytest.raises(IllConditionedError,
                           match="certificate map residual"):
            certify_similarity(I[None], I[None], scale * X,
                               (scale * (X + I))[None], DEFAULT_TOLS, ["x"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, rng, bad):
        # a NaN residual compared false against its bound and passed
        T = random_complex(rng, 3)
        X = random_complex(rng, 3)
        target = T @ X @ np.linalg.inv(T)
        target[1, 2] = bad
        with pytest.raises(IllConditionedError,
                           match="certificate map residual"):
            certify_similarity(T[None], np.linalg.inv(T)[None], X,
                               target[None], DEFAULT_TOLS, ["x"])

    def test_non_finite_inverse_rejected(self, rng):
        T = random_complex(rng, 3)
        T_inv = np.linalg.inv(T)
        T_inv[0, 0] = np.nan
        with pytest.raises(IllConditionedError):
            certify_similarity(T[None], T_inv[None], T, T[None],
                               DEFAULT_TOLS, ["x"])

    def test_messages_carry_condition_estimate(self, rng):
        # the Hilbert matrix fails the inverse gate, a wrong target the map gate
        X = random_complex(rng, 12)
        hilbert = scipy.linalg.hilbert(12).astype(complex)
        for T, target in ((hilbert, X), (random_complex(rng, 12), X + np.eye(12))):
            T_inv = np.linalg.inv(T)
            cond = np.linalg.norm(T) * np.linalg.norm(T_inv)
            with pytest.raises(IllConditionedError) as err:
                certify_similarity(T[None], T_inv[None], X, target[None],
                                   DEFAULT_TOLS, [""])
            assert f"condition estimate {cond:.3e}" in str(err.value)


class TestBlockTriangular:
    def test_zero_offdiag_gives_identity(self, rng):
        blocks = [planted_triangular(rng, [1, 2]), planted_triangular(rng, [5])]
        [cert] = block_triangular_similarity(
            TriangularPlan(blocks), [np.zeros((3, 3))], ["upper"])
        assert np.allclose(cert.t, np.eye(3))

    def test_scalar_blocks_hand_value(self):
        # 1*X - X*2 = -3 gives X = 3, so T = [[1, 3], [0, 1]] maps
        # diag(1, 2) onto [[1, 3], [0, 2]]
        off = np.array([[0, 3.0], [0, 0]])
        plan = TriangularPlan([np.eye(1), 2 * np.eye(1)])
        [cert] = block_triangular_similarity(plan, [off], ["upper"])
        assert np.allclose(cert.t, [[1, 3], [0, 1]])
        target = cert.t @ np.diag([1.0, 2.0]) @ cert.t_inv
        assert np.allclose(target, [[1, 3], [0, 2]])

    @pytest.mark.parametrize("orientation", ["upper", "lower"])
    def test_three_blocks_round_trip(self, rng, orientation):
        blocks = [planted_triangular(rng, [1, 1.5]), planted_triangular(rng, [4]),
                  planted_triangular(rng, [7, 8, 9])]
        sizes = [2, 1, 3]
        n = 6
        edges = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        off = random_complex(rng, n)
        mask = np.zeros((n, n), dtype=bool)
        for bi, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            for bj, (c, d) in enumerate(zip(edges[:-1], edges[1:])):
                if (bj > bi) if orientation == "upper" else (bj < bi):
                    mask[a:b, c:d] = True
        off = off * mask
        [cert] = block_triangular_similarity(
            TriangularPlan(blocks), [off], [orientation])
        lhs = cert.t @ blkdiag(blocks) @ cert.t_inv
        rhs = blkdiag(blocks) + off
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1, np.linalg.norm(rhs))

    @pytest.mark.parametrize("orientation", ["upper", "lower"])
    @pytest.mark.parametrize("sizes", [(3, 2), (2, 1, 3), (2, 1, 3, 1, 2),
                                       (1,) * 8, (1,) * 33, (1,) * 64])
    def test_matches_recursive_oracle(self, rng, orientation, sizes):
        n = sum(sizes)
        eigs = np.linalg.eigvals(random_complex(rng, n))
        edges = np.cumsum((0,) + sizes)
        blocks = [planted_triangular(rng, eigs[a:b])
                  for a, b in zip(edges, edges[1:])]
        labels = np.repeat(np.arange(len(sizes)), sizes)
        upper = labels[None, :] > labels[:, None]
        mask = upper if orientation == "upper" else upper.T
        off = random_complex(rng, n) * mask
        T = block_triangular_similarity(
            TriangularPlan(blocks), [off], [orientation])[0].t
        if orientation == "upper":
            T_ref = recursive_transform_oracle(blocks, off)
        else:
            S = recursive_transform_oracle([b.T for b in blocks], off.T)
            T_ref = np.linalg.inv(S).T
        assert np.linalg.norm(T - T_ref) <= 1e-12 * np.linalg.norm(T_ref)

    @pytest.mark.parametrize("orientation", ["upper", "lower"])
    @pytest.mark.parametrize("sizes, diagonal", [
        ((16, 16), (True, True)),           # a witness's case A groups
        ((10, 13, 10), (True, True, True)),  # its case B groups at n = 33
        ((3, 4, 2), (True, False, True)),
        ((3, 4, 2), (False, True, True)),
        ((2, 3, 4), (True, True, False)),
    ])
    def test_diagonal_and_triangular_blocks_match_sylvester_oracle(
            self, rng, orientation, sizes, diagonal):
        # a diagonal block over diagonal blocks is one division step, any
        # other block row a row at a time; both against solve_sylvester
        n = sum(sizes)
        eigs = np.linalg.eigvals(random_complex(rng, n))
        edges = np.cumsum((0,) + sizes)
        blocks = [np.diag(eigs[a:b]) if diag
                  else planted_triangular(rng, eigs[a:b])
                  for a, b, diag in zip(edges, edges[1:], diagonal)]
        labels = np.repeat(np.arange(len(sizes)), sizes)
        upper = labels[None, :] > labels[:, None]
        off = random_complex(rng, n) * (upper if orientation == "upper"
                                        else upper.T)
        T = block_triangular_similarity(
            TriangularPlan(blocks), [off], [orientation])[0].t
        if orientation == "upper":
            T_ref = recursive_transform_oracle(blocks, off)
        else:
            S = recursive_transform_oracle([b.T for b in blocks], off.T)
            T_ref = np.linalg.inv(S).T
        assert np.linalg.norm(T - T_ref) <= 1e-12 * np.linalg.norm(T_ref)

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_block_residual_message(self, rng, diagonal):
        # the gate of column block J reports the gap between block J and
        # the blocks before it, and their scale, like a Sylvester solve
        sizes = (2, 3, 2)
        n = sum(sizes)
        eigs = np.linalg.eigvals(random_complex(rng, n))
        edges = np.cumsum((0,) + sizes)
        blocks = [np.diag(eigs[a:b]) if diagonal
                  else planted_triangular(rng, eigs[a:b])
                  for a, b in zip(edges, edges[1:])]
        d = np.concatenate([np.diag(b) for b in blocks])
        labels = np.repeat(np.arange(3), sizes)
        off = random_complex(rng, n) * (labels[None, :] > labels[:, None])
        tols = dataclasses.replace(DEFAULT_TOLS, solve_tol=1e-300)
        with pytest.raises(IllConditionedError) as err:
            block_triangular_similarity(
                TriangularPlan(blocks), [off], ["upper"], tols)
        gap = np.abs(d[:2, None] - d[2:5]).min()
        scale = np.abs(d[:5]).max()
        assert f"(gap {gap:.3e}, scale {scale:.3e})" in str(err.value)

    @pytest.mark.parametrize("p, q", [(1, 1), (4, 3), (8, 8)])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_sylvester_solve_matches_scipy(self, rng, p, q, diagonal):
        eigs = np.linalg.eigvals(random_complex(rng, p + q))
        R1, R2 = ((np.diag(eigs[:p]), np.diag(eigs[p:])) if diagonal else
                  (planted_triangular(rng, eigs[:p]),
                   planted_triangular(rng, eigs[p:])))
        C = random_complex(rng, max(p, q))[:p, :q]
        X = triangular_sylvester(R1, R2, C)
        X_ref = scipy.linalg.solve_sylvester(R1, -R2, C)
        assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)

    @pytest.mark.parametrize("orientation", ["upper", "lower"])
    def test_scalar_blocks_residual_message(self, rng, orientation):
        # the 1x1 transform gates every column like the ztrsyl loop, and
        # reports the gap and scale of the failing column's solve
        n = 6
        eigs = np.linalg.eigvals(random_complex(rng, n))
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        off = random_complex(rng, n) * (upper if orientation == "upper"
                                        else upper.T)
        tols = dataclasses.replace(DEFAULT_TOLS, solve_tol=1e-300)
        with pytest.raises(IllConditionedError) as err:
            block_triangular_similarity(
                TriangularPlan([np.array([[e]]) for e in eigs]), [off],
                [orientation], tols)
        order = eigs if orientation == "upper" else eigs[::-1]
        messages = {f"(gap {np.abs(order[:j] - order[j]).min():.3e}, "
                    f"scale {np.abs(order[:j + 1]).max():.3e})"
                    for j in range(1, n)}
        assert any(m in str(err.value) for m in messages)

    @pytest.mark.parametrize("orientation", ["upper", "lower"])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_scalar_blocks_overflow_raises_without_warning(self, n,
                                                           orientation):
        # the suite turns a RuntimeWarning into an error, so a NumPy overflow
        # warning on the way would fail this test as well
        upper = np.triu(np.full((n, n), 1e300), 1)
        off = upper if orientation == "upper" else upper.T
        blocks = [np.array([[k + 1.0]]) for k in range(n)]
        with pytest.raises(IllConditionedError):
            block_triangular_similarity(
                TriangularPlan(blocks), [off], [orientation])

    def test_overlap_names_the_two_blocks(self, rng):
        blocks = [planted_triangular(rng, [1, 2]), planted_triangular(rng, [5]),
                  planted_triangular(rng, [2, 7])]
        with pytest.raises(SpectraOverlapError, match="blocks 0 and 2 "):
            block_triangular_similarity(
                TriangularPlan(blocks), [np.zeros((5, 5))], ["upper"])

    def test_overlapping_spectra_rejected(self, rng):
        blocks = [planted_triangular(rng, [1, 2]), planted_triangular(rng, [2])]
        off = np.zeros((3, 3))
        off[0, 2] = 1.0
        with pytest.raises(SpectraOverlapError):
            block_triangular_similarity(
                TriangularPlan(blocks), [off], ["upper"])

    @pytest.mark.parametrize("orientation", ["upper", "lower"])
    def test_non_triangular_block_rejected(self, rng, orientation):
        blocks = [planted_matrix(rng, [1, 2]), planted_matrix(rng, [5])]
        with pytest.raises(ValueError, match="every block must be upper"):
            block_triangular_similarity(
                TriangularPlan(blocks), [np.zeros((3, 3))], [orientation])

    @pytest.mark.parametrize("shape, orientation", [
        ((2, 2), "upper"), ((3, 3), "left")])
    def test_wrong_shape_or_orientation_rejected(self, rng, shape,
                                                  orientation):
        blocks = [planted_triangular(rng, [1, 2]), planted_triangular(rng, [5])]
        with pytest.raises(ValueError, match="must be"):
            block_triangular_similarity(
                TriangularPlan(blocks), [np.zeros(shape)], [orientation])

    def test_misplaced_entries_rejected(self, rng):
        blocks = [planted_matrix(rng, [1]), planted_matrix(rng, [2])]
        off = np.array([[0, 0], [1.0, 0]])
        with pytest.raises(ValueError):
            block_triangular_similarity(
                TriangularPlan(blocks), [off], ["upper"])


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)


@_PROPERTY
@given(st.integers(1, 8), st.integers(1, 8), st.floats(-8, 8),
       st.integers(0, 2**32 - 1))
def test_triangular_sylvester_property(p, q, log_scale, seed):
    # triangular operands with spectra shifted apart, at scales 1e-8..1e8
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    R1 = scale * np.triu(random_complex(rng, p))
    R2 = scale * (np.triu(random_complex(rng, q)) + 10 * np.eye(q))
    C = scale * random_complex(rng, max(p, q))[:p, :q]
    X = triangular_sylvester(R1, R2, C)
    X_ref = kron_sylvester_oracle(R1, R2, C)
    assert np.linalg.norm(X - X_ref) <= 1e-10 * np.linalg.norm(X_ref)


@_PROPERTY
@given(st.lists(st.integers(1, 8), min_size=1, max_size=6),
       st.sampled_from(["upper", "lower"]), st.floats(-8, 8),
       st.integers(0, 2**32 - 1))
def test_block_triangular_property(sizes, orientation, log_scale, seed):
    # non-normal triangular blocks whose eigenvalues lie within 0.2 of
    # distinct points of a grid of spacing 0.5, so the block spectra are at
    # least 0.1 apart before scaling
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    grid = rng.permutation(25)[:len(sizes)]
    blocks = []
    for point, d in zip(grid, sizes):
        radius = 0.2 * np.sqrt(rng.random(d))
        eigs = 0.5 * (point % 5 + 1j * (point // 5)) + radius * np.exp(
            2j * np.pi * rng.random(d))
        strict = np.triu(random_complex(rng, d), 1) / d
        blocks.append(scale * (np.diag(eigs) + strict))
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    upper = labels[None, :] > labels[:, None]
    mask = upper if orientation == "upper" else upper.T
    off = scale * random_complex(rng, n) * mask
    T = block_triangular_similarity(
        TriangularPlan(blocks), [off], [orientation])[0].t
    if orientation == "upper":
        T_ref = recursive_transform_oracle(blocks, off)
    else:
        S = recursive_transform_oracle([b.T for b in blocks], off.T)
        T_ref = np.linalg.inv(S).T
    assert np.linalg.norm(T - T_ref) <= 1e-12 * np.linalg.norm(T_ref)


# ---------------------------------------------------------------------------
# the stacked triangular path against the one-problem-per-call form it
# replaced, kept here as the oracle
# ---------------------------------------------------------------------------

def oracle_certify(T, T_inv, source, target):
    """certify_similarity of one transform with its inverse, as it was
    written per call: (residual_inverse, residual_map,
    condition_estimate)."""
    cond = fro(T) * fro(T_inv)
    assert cond < np.inf
    residual_inverse = fro(T @ T_inv - np.eye(T.shape[0]))
    residual_map = fro(T @ source @ T_inv - target)
    assert residual_inverse <= DEFAULT_TOLS.cert_tol
    assert residual_map <= DEFAULT_TOLS.cert_tol * cond * fro(source)
    return residual_inverse, residual_map, cond


def oracle_sylvester_solve(sizes, upper, tols=DEFAULT_TOLS):
    """The unit block-upper transform of one (n, n) problem, row by row,
    with its inverse by back substitution, block row by block row:
    (T, T_inv)."""
    n = upper.shape[0]
    lam = np.diag(upper)
    labels = block_labels(sizes)
    D = np.where(labels[:, None] == labels, upper, 0)
    edges = np.cumsum((0, *sizes)).tolist()
    coupled = np.logical_or.reduceat(np.triu(D, 1).any(axis=1), edges[:-1])
    diagonal_on = (~np.logical_or.accumulate(coupled[::-1])[::-1]).tolist()
    T = np.eye(n, dtype=complex)
    T_inv = np.eye(n, dtype=complex)
    for b in range(len(sizes) - 2, -1, -1):
        s, e = edges[b], edges[b + 1]
        if diagonal_on[b]:
            T[s:e, e:] = (-(upper[s:e, e:] @ T[e:, e:])
                          / (lam[s:e, None] - lam[e:]))
        else:
            for i in range(e - 1, s - 1, -1):
                rhs = -(upper[i, i + 1:] @ T[i + 1:, e:])
                T[i, e:] = (rhs / (lam[i] - lam[e:]) if diagonal_on[b + 1]
                            else np.linalg.solve(
                                lam[i] * np.eye(n - e) - D[e:, e:].T, rhs))
        T_inv[s:e, e:] = -T[s:e, e:] @ T_inv[e:, e:]
    assert np.isfinite(T).all()
    return T, T_inv


def oracle_block_triangular(blocks, off, orientation):
    """block_triangular_similarity of one problem as it was written per
    call: (T, t_inv, residual_inverse, residual_map, condition_estimate)."""
    sizes = [b.shape[0] for b in blocks]
    D = blkdiag(blocks)
    labels = block_labels(sizes)
    gap, _, _ = spectral_gap(np.diag(D), labels)
    assert gap > DEFAULT_TOLS.gap_tol * np.abs(np.diag(D)).max()
    keys = labels if orientation == "upper" else -labels
    p = np.argsort(keys, kind="stable")
    ix = np.ix_(p, p)
    target = D + off
    T, T_inv = np.empty_like(target), np.empty_like(target)
    T[ix], T_inv[ix] = oracle_sylvester_solve(
        sizes if orientation == "upper" else sizes[::-1], target[ix])
    return (T, T_inv, *oracle_certify(T, T_inv, D, target))


def _stack_patterns(n):
    h = n // 3
    return [(n // 2, n - n // 2), (h, h + 1, n - 2 * h - 1), (1,) * n]


@pytest.mark.parametrize("n", [8, 12, 33, 64])
@pytest.mark.parametrize("pattern", [0, 1, 2], ids=["h-h", "p-q-r", "ones"])
@pytest.mark.parametrize("S", [1, 2, 4])
@pytest.mark.parametrize("orientations", ["upper", "lower", "both"])
@pytest.mark.parametrize("kind", ["diagonal", "mixed"])
def test_stacked_similarities_match_per_call_oracle(rng, n, pattern, S,
                                                     orientations, kind):
    sizes = _stack_patterns(n)[pattern]
    eigs = np.linalg.eigvals(random_complex(rng, n))
    edges = np.cumsum((0,) + sizes)
    # diagonal blocks take the division steps; "mixed" makes every second
    # block triangular, whose rows take the small solves
    blocks = [planted_triangular(rng, eigs[a:b]) if kind == "mixed" and k % 2
              else np.diag(eigs[a:b])
              for k, (a, b) in enumerate(zip(edges, edges[1:]))]
    labels = block_labels(sizes)
    above = labels[None, :] > labels[:, None]
    kinds = (["upper", "lower"] * S)[:S] if orientations == "both" else (
        [orientations] * S)
    offs = [random_complex(rng, n) * (above if o == "upper" else above.T)
            for o in kinds]
    certs = block_triangular_similarity(
        TriangularPlan(blocks), offs, kinds, DEFAULT_TOLS)
    assert len(certs) == S
    # A stacked call takes a division step or a solve for every problem in
    # it alike. Mixed blocks listed both ways round differ in which blocks
    # are diagonal, so there some problems take solves where a call of
    # their own divides: T agrees to rounding, and residuals, which are
    # rounding themselves, are compared only where the arithmetic is the
    # same.
    same_steps = not (kind == "mixed" and orientations == "both" and S > 1)
    for cert, off, o in zip(certs, offs, kinds):
        T, T_inv, res_inv, res_map, cond = oracle_block_triangular(blocks,
                                                                    off, o)
        assert cert.label == f"block-triangular-{o}"
        assert fro(cert.t - T) <= 1e-13 * fro(T)
        assert fro(cert.t_inv - T_inv) <= 1e-13 * fro(T_inv)
        assert abs(cert.condition_estimate - cond) <= 1e-12 * cond
        if same_steps:
            assert abs(cert.residual_inverse - res_inv) <= 1e-12 * res_inv
            assert abs(cert.residual_map - res_map) <= 1e-12 * res_map
        # on and below the block diagonal (in the orientation's block
        # order) T is the identity, exactly
        keys = labels if o == "upper" else -labels
        fixed = keys[None, :] <= keys[:, None]
        for M in (cert.t, cert.t_inv, T, T_inv):
            assert np.array_equal(M[fixed], np.eye(n)[fixed])
        assert np.array_equal(cert.target, blkdiag(blocks) + off)
