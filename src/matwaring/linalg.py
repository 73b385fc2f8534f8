"""Dense complex matrix substrate.

Eigen/Schur wrappers, a Sylvester solver for upper-triangular operands
(slices of a reordered Schur form, one LAPACK ztrsyl each), the
eigenvector recurrence of a triangular matrix for 1x1 blocks, subspace and
commutant rank computations, and similarity certificates. Matrices are
numpy complex arrays; everything here targets desk scale (n <= 64). scipy
is imported by the Schur and ztrsyl steps only, so the two-term route and
the verifier run without loading it.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    IllConditionedError,
    SpectraOverlapError,
)

# numerical-rank cutoff, relative to the largest singular value
RANK_TOL = 1e-10


def as_cmatrix(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def fro(A):
    # a norm past the double range is inf, which every gate refuses
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(A))


def blkdiag(blocks):
    blocks = [as_cmatrix(b) for b in blocks]
    n = sum(b.shape[0] for b in blocks)
    D = np.zeros((n, n), dtype=complex)
    s = 0
    for b in blocks:
        e = s + b.shape[0]
        D[s:e, s:e] = b
        s = e
    return D


def eigendecompose(A):
    """Complex Schur form. Returns (eigenvalues, schur_form, schur_unitary)
    with A = Q T Q*, Q unitary, T upper triangular, eigenvalues = diag(T)."""
    import scipy.linalg

    A = as_cmatrix(A)
    T, Q = scipy.linalg.schur(A, output="complex")
    return np.diag(T).copy(), T, Q


def block_labels(sizes):
    """Block index of every row (and column) of the block pattern `sizes`."""
    return np.repeat(np.arange(len(sizes)), sizes)


def spectral_gap(values, labels):
    """Smallest |v_i - v_j| over pairs with different labels, with the two
    labels of that pair; the gap is inf when there is no such pair."""
    values, labels = np.asarray(values), np.asarray(labels)
    d = np.where(labels[:, None] != labels, np.abs(values[:, None] - values),
                 np.inf)
    if not d.size:
        return np.inf, None, None
    i, j = np.unravel_index(np.argmin(d), d.shape)
    return float(d[i, j]), labels[i], labels[j]


def _require_upper_triangular(M, what):
    if np.tril(M, -1).any():
        raise ValueError(f"{what} must be upper triangular")


def sylvester_solve(R1, R2, C, tols: Tolerances = DEFAULT_TOLS):
    """Solve R1 X - X R2 = C for upper-triangular R1, R2 with disjoint spectra.

    The spectra are read off the diagonals and one LAPACK ztrsyl call does
    the Bartels-Stewart back substitution; the dense Kronecker
    linearization is kept as an independent oracle in the test suite.
    """
    R1, R2, C = as_cmatrix(R1), as_cmatrix(R2), np.asarray(C, dtype=complex)
    p, q = R1.shape[0], R2.shape[0]
    if C.shape != (p, q):
        raise ValueError(f"C must be {p}x{q}, got {C.shape}")
    _require_upper_triangular(R1, "R1")
    _require_upper_triangular(R2, "R2")
    eigs = np.concatenate([np.diag(R1), np.diag(R2)])
    scale = np.abs(eigs).max(initial=0.0)
    gap, _, _ = spectral_gap(eigs, block_labels((p, q)))
    if gap <= tols.gap_tol * max(scale, np.finfo(float).tiny):
        raise SpectraOverlapError(
            f"spectra of the operands are not disjoint (gap {gap:.3e}, "
            f"scale {scale:.3e})"
        )
    return _trsyl(R1, R2, C, tols)


def _trsyl(R1, R2, C, tols):
    """R1 X - X R2 = C by one ztrsyl call, gated on its relative residual.

    The caller has checked that R1, R2 are finite, upper triangular and of
    disjoint spectra; the gap and scale are recomputed only for the message
    of a failing residual gate.
    """
    from scipy.linalg import lapack

    X, s, info = lapack.ztrsyl(R1, R2, C, isgn=-1)
    if info:
        raise SpectraOverlapError(
            f"triangular Sylvester solve failed (ztrsyl info {info})")
    X /= s
    denom = fro(C) or 1.0
    residual = fro(R1 @ X - X @ R2 - C) / denom
    if residual > tols.solve_tol:
        raise _solve_residual_error(residual, np.diag(R1), np.diag(R2), tols)
    return X


def _solve_residual_error(residual, eigs1, eigs2, tols):
    """The IllConditionedError of a Sylvester residual over solve_tol, with
    the gap between the two spectra and their scale."""
    eigs = np.concatenate([eigs1, eigs2])
    gap, _, _ = spectral_gap(eigs, block_labels((len(eigs1), len(eigs2))))
    return IllConditionedError(
        f"Sylvester solve residual {residual:.3e} exceeds "
        f"{tols.solve_tol:.1e} (gap {gap:.3e}, "
        f"scale {np.abs(eigs).max(initial=0.0):.3e})"
    )


@dataclass(frozen=True)
class SubspaceBasis:
    """Basis matrices spanning a linear subspace of M_n(C)."""

    n: int
    mats: tuple

    @classmethod
    def from_matrices(cls, mats):
        mats = tuple(as_cmatrix(M) for M in mats)
        if not mats:
            raise ValueError("a subspace basis needs at least one matrix")
        n = mats[0].shape[0]
        for M in mats:
            if M.shape != (n, n):
                raise ValueError("basis matrices must share the ambient size")
        return cls(n, mats)

    def conjugated(self, U):
        U = as_cmatrix(U)
        return SubspaceBasis(self.n, tuple(U @ M @ U.conj().T for M in self.mats))


def _numerical_rank(columns):
    if columns.size == 0:
        return 0
    s = np.linalg.svd(columns, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def subspace_sum_rank(V1: SubspaceBasis, V2: SubspaceBasis):
    """Numerical rank of the span of V1 together with V2."""
    if V1.n != V2.n:
        raise ValueError("ambient sizes differ")
    cols = np.stack([M.ravel() for M in V1.mats + V2.mats], axis=1)
    return _numerical_rank(cols)


def joint_commutant_dimension(mats):
    """Dimension of {A : AM = MA for every M in mats}.

    Stacks the linearized commutator operators and counts the null space.
    With row-major vec, vec(MA - AM) = (kron(M, I) - kron(I, M^T)) vec(A).
    """
    mats = [as_cmatrix(M) for M in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[0]
    eye = np.eye(n)
    rows = [np.kron(M, eye) - np.kron(eye, M.T) for M in mats]
    K = np.vstack(rows)
    return n * n - _numerical_rank(K)


def project_traceless(A):
    A = as_cmatrix(A)
    n = A.shape[0]
    return A - (np.trace(A) / n) * np.eye(n)


# ---------------------------------------------------------------------------
# similarity certificates
# ---------------------------------------------------------------------------

@dataclass
class SimilarityCertificate:
    """Explicit invertible T with its inverse, certifying T source T^-1 = target.

    Checkable from stored data alone: residual_inverse = ||T Tinv - I||_F and
    residual_map = ||T source Tinv - target||_F, with condition_estimate =
    ||T||_F ||Tinv||_F.
    """

    t: np.ndarray
    t_inv: np.ndarray
    source: np.ndarray
    target: np.ndarray
    residual_inverse: float
    residual_map: float
    condition_estimate: float
    label: str = ""


def certify_similarity(T, source, target, tols: Tolerances = DEFAULT_TOLS,
                       label=""):
    """Build a certificate for T source T^-1 = target, validating both
    residual bounds before returning."""
    T = as_cmatrix(T)
    source = as_cmatrix(source)
    target = as_cmatrix(target)
    n = T.shape[0]
    T_inv = np.linalg.inv(T)
    residual_inverse = fro(T @ T_inv - np.eye(n))
    cond = fro(T) * fro(T_inv)
    residual_map = fro(T @ source @ T_inv - target)
    cert = SimilarityCertificate(T, T_inv, source, target, residual_inverse,
                                 residual_map, cond, label)
    context = f"condition estimate {cond:.3e}, {label or 'unlabeled'}"
    if not cond < np.inf:
        raise IllConditionedError(
            f"certificate transform exceeds the double range ({context})")
    if residual_inverse > tols.cert_tol:
        raise IllConditionedError(
            f"certificate inverse residual {residual_inverse:.3e} exceeds "
            f"{tols.cert_tol:.1e} ({context})"
        )
    bound = tols.cert_tol * cond * fro(source)
    if residual_map > bound:
        raise IllConditionedError(
            f"certificate map residual {residual_map:.3e} exceeds bound "
            f"{bound:.3e} ({context})"
        )
    return cert


# ---------------------------------------------------------------------------
# block-triangular similarity (diagonal blocks with pairwise disjoint spectra)
# ---------------------------------------------------------------------------

def _check_strictly_block_upper(off, labels):
    bad = np.abs(off[labels[None, :] <= labels[:, None]]).max(initial=0.0)
    if bad:
        raise ValueError("off-diagonal part must vanish on and below the "
                         f"block diagonal (max violation {bad:.3e})")


def _unit_upper_transform(blocks, upper, tols):
    """T with T blkdiag(blocks) T^-1 = upper, T unit block upper.

    The blocks and upper are upper triangular. Column block j of T is
    (X_j; I; 0) with L_j X_j - X_j B_j = -upper[:s_j, block j], where s_j is
    the offset of block B_j and L_j the leading s_j x s_j part of upper,
    whose spectrum is that of the blocks before B_j; both operands are
    triangular, so each column block is one ztrsyl call. When every block
    is 1x1, T is the unit eigenvector matrix of upper (_eigenvector_transform).
    """
    if len(blocks) == upper.shape[0]:
        return _eigenvector_transform(upper, tols)
    T = np.eye(upper.shape[0], dtype=complex)
    s = 0
    for b in blocks:
        e = s + b.shape[0]
        if s:
            T[:s, s:e] = _trsyl(upper[:s, :s], b, -upper[:s, s:e], tols)
        s = e
    return T


def _eigenvector_transform(U, tols):
    """Unit upper T with U T = T diag(U), for upper triangular U with
    distinct diagonal entries.

    Row i of T follows from the rows below it (the ztrevc recurrence):
    T[i, j] (U[i, i] - U[j, j]) = -U[i, i+1:] T[i+1:, j] for j > i. Column
    j is the 1x1 Sylvester solve of the column loop, and is gated the same
    way: the relative residual of (U T - T diag(U))[:j, j] against
    U[:j, j] stays within solve_tol.
    """
    n = U.shape[0]
    lam = np.diag(U)
    T = np.eye(n, dtype=complex)
    with np.errstate(all="ignore"):
        for i in range(n - 2, -1, -1):
            T[i, i + 1:] = (-(U[i, i + 1:] @ T[i + 1:, i + 1:])
                            / (lam[i] - lam[i + 1:]))
        if not np.isfinite(T).all():
            gap, _, _ = spectral_gap(lam, np.arange(n))
            raise IllConditionedError(
                f"triangular transform overflows (gap {gap:.3e}, "
                f"scale {np.abs(lam).max():.3e})")
        defect = np.linalg.norm(np.triu(U @ T - T * lam, 1), axis=0)
        rhs = np.linalg.norm(np.triu(U, 1), axis=0)
        residual = defect / np.where(rhs > 0, rhs, 1.0)
    bad = np.flatnonzero(~(residual <= tols.solve_tol))
    if bad.size:
        j = bad[0]
        raise _solve_residual_error(residual[j], lam[:j], lam[j:j + 1], tols)
    return T


def block_triangular_similarity(blocks, off_diag, orientation="upper",
                                tols: Tolerances = DEFAULT_TOLS):
    """Certify blkdiag(blocks) similar to blkdiag + off_diag.

    Every block must be upper triangular, with pairwise disjoint spectra
    read off the diagonal; off_diag must vanish on and below (or above) the
    block diagonal. The transform is I + N with N strictly block triangular,
    one Sylvester solve per column block after the first. The lower
    orientation lists the blocks last to first, an exact index permutation
    that makes the target block upper over the same triangular blocks.
    """
    blocks = [as_cmatrix(b) for b in blocks]
    off = as_cmatrix(off_diag)
    sizes = [b.shape[0] for b in blocks]
    n = int(sum(sizes))
    if off.shape != (n, n):
        raise ValueError(f"off-diagonal part must be {n}x{n}")
    if orientation not in ("upper", "lower"):
        raise ValueError("orientation must be 'upper' or 'lower'")
    D = blkdiag(blocks)
    _require_upper_triangular(D, "every block")

    labels = block_labels(sizes)
    eigs = np.diag(D)
    scale = np.abs(eigs).max(initial=0.0)
    gap, i, j = spectral_gap(eigs, labels)
    if gap <= tols.gap_tol * max(scale, np.finfo(float).tiny):
        raise SpectraOverlapError(
            f"blocks {i} and {j} have overlapping spectra (gap {gap:.3e})"
        )

    upper = orientation == "upper"
    keys = labels if upper else -labels
    p = np.argsort(keys, kind="stable")
    ix = np.ix_(p, p)
    _check_strictly_block_upper(off[ix], keys[p])
    target = D + off
    T = np.empty_like(target)
    T[ix] = _unit_upper_transform(blocks if upper else blocks[::-1],
                                  target[ix], tols)
    return certify_similarity(T, D, target, tols,
                              label=f"block-triangular-{orientation}")
