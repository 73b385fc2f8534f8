"""Dense complex matrix substrate, on numpy alone.

A complex Schur form in a given eigenvalue order (unitary deflation from
one eigendecomposition), similarity certificates, and block-triangular
similarities: the block back-substitution (sylvester_solve) that makes a
block upper-triangular matrix block diagonal, over a TriangularPlan of
fixed blocks, and inverts its transform in the same loop. A certificate
checks a transform against the inverse its caller built with it; nothing
here calls np.linalg.inv. certify_similarity, sylvester_solve and
block_triangular_similarity take stacks of problems, which the routes
solve and certify together; one problem is a stack of one. Matrices are
numpy complex arrays; everything here targets desk scale (n <= 64).
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    IllConditionedError,
    SpectraOverlapError,
)
from .freealg import _exponent, _times_pow2, fro


def as_cmatrix(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def read_only(a):
    """a, with writing switched off: for arrays that are kept and shared
    between results."""
    a.setflags(write=False)
    return a


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


def eigendecompose(A, key=None):
    """Complex Schur form in key order. Returns (eigenvalues, schur_form,
    schur_unitary) with A = Q T Q*, Q unitary, T upper triangular,
    eigenvalues = diag(T).

    key, if given, maps the array of A's eigenvalues to one integer key
    each, and the diagonal of T runs in stable key order; without it, in
    the order np.linalg.eig lists them.

    T is built by unitary deflation from one eig. Householder QR of the
    ordered eigenvector matrix is one reflector per step: step k maps e_k
    onto the k-th eigenvector as carried through the reflectors before it,
    which deflates column k of Q* A Q up to that vector's residual. Column
    k is kept while the part dropped below its diagonal stays within
    sqrt(n) eps ||A||_F. Inside a Jordan block or a tight cluster the
    carried vectors lose that accuracy; from the first column past it, the
    trailing block W gets a fresh eig, whose eigenvalues take the keys of
    the nearest ones they replace. Should its first vector miss too, the
    least right singular vector of W - lambda I replaces it (lambda is an
    eigenvalue of a matrix near W), and is kept in any case.

    All of this runs on 2^-e A, e the exponent of A's largest part, where
    no square of an entry over- or underflows: Q and the order do not
    depend on a power-of-two scale of A, and T and the eigenvalues are
    scaled back by 2^e. key sees A's own eigenvalues.
    """
    A = as_cmatrix(A)
    n = A.shape[0]
    e = _exponent(A) or 0
    W, Q = _times_pow2(A, -e), np.eye(n, dtype=complex)
    tol = np.sqrt(n) * np.finfo(float).eps * fro(W)
    w, V = np.linalg.eig(W)
    keys = (np.zeros(n, dtype=int) if key is None
            else np.asarray(key(_times_pow2(w, e))))
    k = 0
    while n - k > 1:
        order = np.argsort(keys, kind="stable")
        w, keys, V = w[order], keys[order], V[:, order]
        H, M, kept = _deflation(W[k:, k:], V, tol)
        if not kept:
            # in a tight cluster eig's own vector can miss by far more
            shifted = W[k:, k:] - w[0] * np.eye(n - k)
            V[:, 0] = np.linalg.svd(shifted)[2][-1].conj()
            H, M, kept = _deflation(W[k:, k:], V, tol)
            kept = max(kept, 1)
        W[:k, k:] = W[:k, k:] @ H
        W[k:, k:] = M
        Q[:, k:] = Q[:, k:] @ H
        k += kept
        if n - k > 1:
            fresh, V = np.linalg.eig(W[k:, k:])
            nearest = np.argmin(np.abs(fresh[:, None] - w[kept:]), axis=1)
            w, keys, left = fresh, keys[kept:][nearest], keys[kept:]
            if not np.array_equal(np.sort(keys), left):
                raise SpectraOverlapError(
                    "the trailing eigenvalues could not be matched to their "
                    f"keys {left.tolist()}")
    T = _times_pow2(np.triu(W), e)
    return np.diag(T).copy(), T, Q


def _deflation(W, V, tol):
    """(H, H* W H, m): H the unitary QR factor of V, and m the number of
    leading columns of H* W H whose part below the diagonal is within tol,
    len(W) when every column is."""
    H = np.linalg.qr(V)[0]
    M = H.conj().T @ W @ H
    dropped = np.linalg.norm(np.tril(M, -1), axis=0)[:-1]
    late = np.flatnonzero(dropped > tol)
    return H, M, late[0] if late.size else len(W)


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


def certify_similarity(Ts, T_invs, source, targets, tols: Tolerances, labels):
    """Certificates of T source T^-1 = target for each T in the stack Ts
    (S, n, n) with its inverse in T_invs, its target and label, all on one
    source, validating both residual bounds of each in one pass; the first
    failing certificate in stack order raises. Nothing is inverted here:
    each caller passes the inverse its step built, and the inverse gate
    checks it.

    A gate passes when value <= bound < inf, so NaN and an infinite bound
    fail. The map residuals and ||source||_F are taken on source and
    targets times 2^-e, e the exponent of their largest part, where no
    square over- or underflows, and scaled back by 2^e.
    """
    pair = np.concatenate([np.asarray(source, dtype=complex)[None],
                           np.asarray(targets, dtype=complex)])
    with np.errstate(all="ignore"):    # inf and nan fail the gates below
        e = _exponent(pair) or 0
        pair = _times_pow2(pair, -e)
        res_inv, res_map, norm_t, norm_inv, norm_source = (
            np.linalg.norm(M, axis=(-2, -1)) for M in (
                Ts @ T_invs - np.eye(Ts.shape[-1]),
                Ts @ pair[0] @ T_invs - pair[1:], Ts, T_invs, pair[0]))
        res_map = np.ldexp(res_map, e)
        norm_source = float(np.ldexp(norm_source, e))
    res_inv, res_map, norm_t, norm_inv = (
        a.tolist() for a in (res_inv, res_map, norm_t, norm_inv))
    certs = []
    for k, label in enumerate(labels):
        cond = norm_t[k] * norm_inv[k]
        context = f"condition estimate {cond:.3e}, {label or 'unlabeled'}"
        if not cond < np.inf:
            raise IllConditionedError(
                f"certificate transform exceeds the double range ({context})")
        if not res_inv[k] <= tols.cert_tol < np.inf:
            raise IllConditionedError(
                f"certificate inverse residual {res_inv[k]:.3e} exceeds "
                f"{tols.cert_tol:.1e} ({context})")
        bound = tols.cert_tol * cond * norm_source
        if not res_map[k] <= bound < np.inf:
            raise IllConditionedError(
                f"certificate map residual {res_map[k]:.3e} exceeds bound "
                f"{bound:.3e} ({context})")
        certs.append(SimilarityCertificate(Ts[k], T_invs[k], source,
                                           targets[k], res_inv[k], res_map[k],
                                           cond, label))
    return certs


# ---------------------------------------------------------------------------
# block-triangular similarity (diagonal blocks with pairwise disjoint spectra)
# ---------------------------------------------------------------------------

def sylvester_solve(sizes, upper, tols: Tolerances = DEFAULT_TOLS):
    """(T, T_inv): unit block-upper T with upper T = T D, so T D T^-1 =
    upper, where D is the block diagonal of upper over the block sizes, for
    each problem of the stack upper (S, n, n), with its inverse.

    The diagonal blocks are upper triangular, with disjoint spectra. T is
    built bottom-up, one block row at a time (the ztrevc recurrence,
    blocked: Bartels-Stewart). With e the end of row i's block, the part of
    row i right of its block solves
        T[i, e:] (upper[i, i] - D[e:, e:]) = -upper[i, i+1:] T[i+1:, e:],
    which needs only the rows below it. When D[e:, e:] is diagonal in every
    problem this is a division, and a diagonal block's rows are one
    vectorized step; otherwise each row is a small solve, batched over S.
    T_inv is built in the same loop, by back substitution: once block row
    i of T is done, T_inv[i, e:] = -T[i, e:] T_inv[e:, e:].
    Column block J of T is the Sylvester solve of block J against
    everything before it, and is gated the same way, first failure first:
    the relative residual of (upper T - T D) above block J against upper
    above block J stays within solve_tol.

    Each problem is solved and gated as 2^-e upper, e the exponent of its
    largest part, where no square in the gate's norms over- or underflows;
    a power of two is exact, and T does not depend on the scale.
    """
    n = upper.shape[-1]
    given = np.diagonal(upper, axis1=-2, axis2=-1)  # for the messages
    upper = _times_pow2(np.asarray(upper, dtype=complex), -np.array(
        [_exponent(u) or 0 for u in upper])[:, None, None])
    lam = np.diagonal(upper, axis1=-2, axis2=-1)
    labels = block_labels(sizes)
    D = np.where(labels[:, None] == labels, upper, 0)
    edges = np.cumsum((0, *sizes)).tolist()
    # whether each block, and every block after it, is diagonal
    coupled = np.logical_or.reduceat(np.triu(D, 1).any((0, 2)), edges[:-1])
    diagonal_on = (~np.logical_or.accumulate(coupled[::-1])[::-1]).tolist()
    T = np.broadcast_to(np.eye(n, dtype=complex), upper.shape).copy()
    T_inv = T.copy()
    with np.errstate(all="ignore"):
        for b in range(len(sizes) - 2, -1, -1):
            s, e = edges[b], edges[b + 1]
            if diagonal_on[b]:
                T[:, s:e, e:] = (-(upper[:, s:e, e:] @ T[:, e:, e:])
                                 / (lam[:, s:e, None] - lam[:, None, e:]))
            else:
                for i in range(e - 1, s - 1, -1):
                    rhs = -(upper[:, i, None, i + 1:] @ T[:, i + 1:, e:])
                    T[:, i, e:] = (
                        rhs / (lam[:, i, None, None] - lam[:, None, e:])
                        if diagonal_on[b + 1] else np.linalg.solve(
                            lam[:, i, None, None] * np.eye(n - e)
                            - D[:, e:, e:].mT, rhs.mT).mT)[:, 0]
            # [[I, X], [0, Y]]^-1 = [[I, -X Y^-1], [0, Y^-1]]
            T_inv[:, s:e, e:] = -T[:, s:e, e:] @ T_inv[:, e:, e:]
        # Frobenius norm of each column block; both vanish on and below
        # the block diagonal, exactly
        TD = T * lam[:, None] if diagonal_on[0] else T @ D
        defect, rhs = (np.hypot.reduceat(np.linalg.norm(M, axis=-2),
                                         edges[:-1], axis=-1)
                       for M in (upper @ T - TD, upper - D))
        residual = defect / np.where(rhs > 0, rhs, 1.0)
    overflow = ~np.isfinite(T).all(axis=(-2, -1))
    bad = np.argwhere(overflow[:, None] | ~(residual <= tols.solve_tol))
    if bad.size:
        k, J = bad[0]
        if overflow[k]:
            gap, _, _ = spectral_gap(given[k], labels)
            raise IllConditionedError(
                f"triangular transform overflows (gap {gap:.3e}, "
                f"scale {np.abs(given[k]).max():.3e})")
        # the gap between block J and the blocks before it
        e = edges[J + 1]
        gap, _, _ = spectral_gap(given[k, :e], labels[:e] == J)
        raise IllConditionedError(
            f"Sylvester solve residual {residual[k, J]:.3e} exceeds "
            f"{tols.solve_tol:.1e} (gap {gap:.3e}, "
            f"scale {np.abs(given[k, :e]).max():.3e})")
    return T, T_inv


class TriangularPlan:
    """What block-triangular similarities over fixed blocks share, made once
    with the triangularity check and spectral gap: the block diagonal D and,
    per orientation, the block pattern, stable index permutation and entries
    an off-diagonal part must leave zero; the arrays are read-only."""

    def __init__(self, blocks):
        sizes = tuple(np.shape(b)[0] for b in blocks)
        self.D = read_only(blkdiag(blocks))
        if np.tril(self.D, -1).any():
            raise ValueError("every block must be upper triangular")
        labels = block_labels(sizes)
        eigs = np.diag(self.D)
        self.scale = np.abs(eigs).max(initial=0.0)
        self.gap = spectral_gap(eigs, labels)
        # the lower orientation lists the blocks last to first, an exact
        # index permutation that makes its target block upper
        keys = {"upper": labels, "lower": -labels}
        self.patterns = {"upper": sizes, "lower": sizes[::-1]}
        self.perms = {o: read_only(np.argsort(k, kind="stable"))
                      for o, k in keys.items()}
        self.vanish = {o: read_only(k <= k[:, None]) for o, k in keys.items()}


def block_triangular_similarity(plan, offs, orientations,
                                tols: Tolerances = DEFAULT_TOLS):
    """Certify plan.D, the block diagonal of plan's blocks, similar to
    plan.D + off for each off with its orientation, in order.

    The blocks are upper triangular, with pairwise disjoint spectra read off
    the diagonal; an off must vanish on and below (upper) or above (lower)
    the block diagonal. Each transform is I + N with N strictly block
    triangular, found by one bottom-up block back-substitution
    (sylvester_solve), which builds its inverse alongside; the lower
    orientation lists the blocks last to first, an exact index permutation
    that makes the target block upper over the same triangular blocks. One
    sylvester_solve call per block pattern, one certification.
    """
    gap, i, j = plan.gap
    if gap <= tols.gap_tol * max(plan.scale, np.finfo(float).tiny):
        raise SpectraOverlapError(
            f"blocks {i} and {j} have overlapping spectra (gap {gap:.3e})"
        )
    for off, o in zip(offs, orientations):
        if o not in plan.vanish:
            raise ValueError("orientation must be 'upper' or 'lower'")
        if np.shape(off) != plan.D.shape:
            raise ValueError(f"off-diagonal part must be {plan.D.shape}")
        bad = np.abs(off[plan.vanish[o]]).max(initial=0.0)
        if bad:
            raise ValueError("off-diagonal part must vanish on and below "
                             f"the block diagonal (max violation {bad:.3e})")
    targets = plan.D + np.stack(offs)
    Ts, T_invs = np.empty_like(targets), np.empty_like(targets)
    for sizes in dict.fromkeys(map(plan.patterns.get, orientations)):
        ks = [k for k, o in enumerate(orientations)
              if plan.patterns[o] == sizes]
        p = np.stack([plan.perms[orientations[k]] for k in ks])
        ix = (np.array(ks)[:, None, None], p[:, :, None], p[:, None, :])
        Ts[ix], T_invs[ix] = sylvester_solve(sizes, targets[ix], tols)
    return certify_similarity(Ts, T_invs, plan.D, targets, tols,
                              [f"block-triangular-{o}" for o in orientations])
