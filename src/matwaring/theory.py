"""The paper's lemmas on the decoupling construction, checked by brute force.

The decoupling unitary U collapses the joint commutant of the pattern
projectors to the diagonal matrices, and V + U V U* covers every hollow
matrix, V = V(pattern) the hollow-block subspace. Here are the projectors
R_q, K0, L0 and the pattern's, V's basis and the rank counts that check
this. The tests hold `unitaries` to them; no pipeline module imports this.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_cmatrix, block_labels
from .unitaries import _validate_pattern

# numerical-rank cutoff, relative to the largest singular value
RANK_TOL = 1e-10


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


def make_projector(q, sign="+"):
    """2x2 rank-one idempotent [[q, s], [s, 1-q]] with s = sign sqrt(q(1-q))."""
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    s = {"+": 1, "-": -1, 1: 1, -1: -1}[sign]
    root = np.sqrt(q * (1 - q))
    return np.array([[q, s * root], [s * root, 1 - q]], dtype=complex)


CORNER_K0 = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]],
                     dtype=complex)
CORNER_L0 = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]], dtype=complex) / 3.0


def pattern_projectors(n, pattern):
    """The diagonal 0/1 projectors whose commutant cuts out V(pattern)-perp:
    one for (h, h), two for (p, q, r)."""
    pattern = _validate_pattern(n, pattern)
    if len(pattern) == 2:
        h = pattern[0]
        return [np.diag([1.0] * h + [0.0] * h).astype(complex)]
    p, q, _ = pattern
    d1 = [1.0] * p + [0.0] * (n - p)
    d2 = [0.0] * p + [1.0] * q + [0.0] * (n - p - q)
    return [np.diag(d1).astype(complex), np.diag(d2).astype(complex)]


def hollow_block_basis(n, pattern):
    """Matrix units E_ij for every position outside the diagonal blocks."""
    pattern = _validate_pattern(n, pattern)
    labels = block_labels(pattern)
    off_blocks = labels[:, None] != labels[None, :]
    positions = [tuple(ij) for ij in np.argwhere(off_blocks).tolist()]
    mats = []
    for i, j in positions:
        E = np.zeros((n, n), dtype=complex)
        E[i, j] = 1.0
        mats.append(E)
    return SubspaceBasis(n, tuple(mats)), positions
