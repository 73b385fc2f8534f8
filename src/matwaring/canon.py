"""Canonical forms feeding the decompositions.

Eigenvalue clustering, certified block diagonalization along clusters, the
spectral partition into two or three blocks with pairwise disjoint spectra,
and the similarity taking a trace-zero matrix to zero diagonal.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    ClusterGapTooSmallError,
    MultiplicityTooLargeError,
    NonzeroTraceError,
    ResidualTooLargeError,
)
from .linalg import (
    SimilarityCertificate,
    as_cmatrix,
    blkdiag,
    block_triangular_similarity,
    certify_similarity,
    eigendecompose,
    fro,
    spectral_gap,
)


def cluster_eigenvalues(eigs, tol):
    """Union-find clustering of eigenvalues under |a - b| <= tol * scale.

    Returns a list of (representative, multiplicity) with the representative
    the cluster mean, sorted by (real, imag). Multiplicities sum to len(eigs).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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


@dataclass
class SpectralPartition:
    """Two- or three-block split of B with pairwise disjoint block spectra.

    case_tag 'A': n even, block_sizes = (n/2, n/2).
    case_tag 'B': block_sizes = (p, q, r) with p, q, r < n/2.
    to_block_diag certifies B = T blkdiag(blocks) T^-1.
    case_tag 'distinct': the n 1x1 eigenvalue blocks of a witness with
    distinct eigenvalues; the two-term route certifies that diagonalization
    itself, so to_block_diag is None.
    """

    case_tag: str
    block_sizes: tuple
    blocks: list
    to_block_diag: SimilarityCertificate


@dataclass
class HollowForm:
    """M = T A T^-1 with (numerically) zero diagonal; to_hollow maps A to M."""

    m: np.ndarray
    to_hollow: SimilarityCertificate


# ---------------------------------------------------------------------------
# Schur reordering (LAPACK ztrsen, one call per key boundary)
# ---------------------------------------------------------------------------

def _reorder_schur(T, Q, keys):
    """Stable-sort the diagonal of T by integer keys, keeping Q T Q* fixed.

    ztrsen moves the selected entries to the top and keeps the relative order
    within the selected and within the unselected ones, so selecting
    keys <= k for each distinct key k in turn is a stable sort.
    """
    keys = np.asarray(keys)
    for k in np.unique(keys)[:-1]:
        select = keys <= k
        T, Q, _, _, _, _, info = lapack.ztrsen(select, T, Q, job="N")
        if info:
            raise ClusterGapTooSmallError(
                f"Schur reordering failed (ztrsen info {info})")
        keys = np.concatenate([keys[select], keys[~select]])
    return T, Q


def _assign_to_clusters(eigs, clusters):
    reps = np.array([c[0] for c in clusters])
    keys = []
    for lam in eigs:
        keys.append(int(np.argmin(np.abs(reps - lam))))
    counts = np.bincount(keys, minlength=len(clusters))
    expected = np.array([c[1] for c in clusters])
    if not np.array_equal(counts, expected):
        raise ClusterGapTooSmallError(
            "eigenvalues could not be assigned to the given clusters "
            f"(got counts {counts.tolist()}, expected {expected.tolist()})"
        )
    return keys


def _check_cluster_gaps(clusters, tols):
    reps = np.array([c[0] for c in clusters], dtype=complex)
    scale = np.abs(reps).max(initial=0.0)
    gap, i, j = spectral_gap(reps, np.arange(len(reps)))
    if gap <= tols.gap_tol * max(scale, np.finfo(float).tiny):
        raise ClusterGapTooSmallError(
            f"clusters {reps[i]} and {reps[j]} are closer than the "
            f"gap tolerance (gap {gap:.3e})"
        )


def block_diagonalize_by_cluster(B, clusters, tols: Tolerances = DEFAULT_TOLS,
                                 schur=None):
    """B = T blkdiag(C_1..C_k) T^-1 with C_i carrying cluster i's spectrum.

    Reorders the Schur form (computed here unless given as
    (eigenvalues, T, Q)) so the given cluster order is contiguous, then
    strips the coupling by block-triangular similarity. Returns
    (blocks, cert) with B = cert.t blkdiag(blocks) cert.t_inv.
    """
    B = as_cmatrix(B)
    _check_cluster_gaps(clusters, tols)
    if schur is None:
        eigs, T, Q = eigendecompose(B)
    else:
        eigs, T, Q = schur
    keys = _assign_to_clusters(eigs, clusters)
    T, Q = _reorder_schur(T, Q, keys)

    sizes = [c[1] for c in clusters]
    edges = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    blocks = [T[a:b, a:b].copy() for a, b in zip(edges[:-1], edges[1:])]
    D = blkdiag(blocks)
    tri = block_triangular_similarity(blocks, T - D, "upper", tols)
    cert = certify_similarity(Q @ tri.t, D, B, tols, label="block-diagonalize")
    return blocks, cert


def partition_spectrum(B, tols: Tolerances = DEFAULT_TOLS):
    """Split B into 2 or 3 certified diagonal blocks with disjoint spectra.

    Requires every eigenvalue cluster to have multiplicity <= n/2. Case A is
    chosen when n is even and either a single cluster or a greedy prefix of
    clusters reaches exactly n/2; otherwise the greedy split yields case B
    with all three sizes strictly below n/2.
    """
    B = as_cmatrix(B)
    n = B.shape[0]
    schur = eigendecompose(B)
    eigs = schur[0]
    clusters = cluster_eigenvalues(eigs, tols.cluster_tol)
    for value, mult in clusters:
        if 2 * mult > n:
            raise MultiplicityTooLargeError(value, mult, n)

    order = None
    case_tag = None
    group_sizes = None
    if n % 2 == 0:
        half = n // 2
        halves = [i for i, c in enumerate(clusters) if c[1] == half]
        if halves:
            big = halves[0]
            if len(halves) == 2:
                # two equal halves: keep the order B already leads with
                leading = int(np.argmin([abs(eigs[0] - c[0]) for c in clusters]))
                big = leading
            order = [clusters[big]] + [c for i, c in enumerate(clusters) if i != big]
            case_tag, group_sizes = "A", (half, half)
        else:
            cum = np.cumsum([c[1] for c in clusters])
            j = int(np.searchsorted(cum, half))
            if j < len(cum) and cum[j] == half:
                order = clusters
                case_tag, group_sizes = "A", (half, half)
    if order is None:
        order = clusters
        cum = 0
        j = 0
        while j < len(order) and 2 * (cum + order[j][1]) <= n:
            cum += order[j][1]
            j += 1
        p = cum
        q = order[j][1]
        r = n - p - q
        if not (2 * p < n and 2 * q < n and 2 * r < n and p and q and r):
            raise MultiplicityTooLargeError(order[j][0], q, n)  # unreachable
        case_tag, group_sizes = "B", (p, q, r)
        group_counts = (j, 1, len(order) - j - 1)
    if case_tag == "A":
        # first group = clusters summing to n/2; locate the boundary
        cum = 0
        boundary = 0
        for i, c in enumerate(order):
            cum += c[1]
            if cum == n // 2:
                boundary = i + 1
                break
        group_counts = (boundary, len(order) - boundary)

    cluster_blocks, cert = block_diagonalize_by_cluster(B, order, tols,
                                                        schur=schur)

    edges = np.cumsum((0,) + group_counts)
    blocks = [blkdiag(cluster_blocks[a:b]) for a, b in zip(edges, edges[1:])]
    # the grouped block diagonal coincides with the per-cluster one, which
    # is already the certificate's source
    cert.label = "spectral-partition"
    return SpectralPartition(case_tag, group_sizes, blocks, cert)


# ---------------------------------------------------------------------------
# zero-diagonal similarity
# ---------------------------------------------------------------------------

def _deflation_vector(block):
    """Unit vector v whose image under `block` is usably non-parallel to v.

    Candidates are the standard basis vectors plus pairwise sums; the latter
    are needed when every e_k is an eigenvector (e.g. diagonal matrices).
    Score is the sine of the angle between v and block v (1.0 when v lies in
    the kernel, which also forces a zero leading entry). All candidates are
    scored at once; the first to beat the running best by 1e-15 is kept.
    """
    d = block.shape[0]
    i, j = np.triu_indices(d, 1)
    pairs = np.arange(d, d + len(i))
    V = np.zeros((d, d + len(i)), dtype=complex)
    V[:, :d] = np.eye(d)
    V[i, pairs] = V[j, pairs] = 1 / np.sqrt(2)
    W = block @ V
    nw = np.linalg.norm(W, axis=0)
    off = np.linalg.norm(W - np.sum(V.conj() * W, axis=0) * V, axis=0)
    kernel = nw <= 1e-14 * max(fro(block), 1e-300)
    scores = np.where(kernel, 1.0, off / np.where(kernel, 1.0, nw))
    best, best_score = None, -1.0
    for k, score in enumerate(scores.tolist()):
        if score > best_score + 1e-15:
            best, best_score = k, score
    return V[:, best].copy(), best_score


def _deflation_step(block):
    """Invertible T (columns: v, then an orthonormal basis of a hyperplane
    containing block v but not v) with (T^-1 block T)[0, 0] = 0."""
    d = block.shape[0]
    v, _ = _deflation_vector(block)
    w = block @ v
    nw = np.linalg.norm(w)
    if nw <= 1e-14 * max(fro(block), 1e-300):
        u = v  # block v = 0: any hyperplane missing v works
    else:
        w = w / nw
        u = v - (w.conj() @ v) * w
        u = u / np.linalg.norm(u)
    # orthonormal basis of the hyperplane u-perp
    Q, _ = np.linalg.qr(np.column_stack([u, np.eye(d, dtype=complex)]))
    T = np.column_stack([v, Q[:, 1:]])
    return T


def zero_diagonal_similarity(A, tols: Tolerances = DEFAULT_TOLS):
    """Similarity M = T A T^-1 with zero diagonal; requires trace zero.

    Recursive deflation: each step changes basis so the leading basis vector
    maps into the span of the others, zeroing one diagonal entry, then
    recurses on the trailing block (whose trace is again zero). Stops early
    whenever the remaining diagonal is already negligible.
    """
    A = as_cmatrix(A)
    n = A.shape[0]
    norm_a = fro(A)
    if abs(np.trace(A)) > tols.hollow_tol * max(norm_a, np.finfo(float).tiny):
        raise NonzeroTraceError(
            f"matrix has trace {np.trace(A):.3e}; project it first"
        )
    W = A.copy()
    P = np.eye(n, dtype=complex)  # accumulated right factor: M = P^-1 A P
    for k in range(n - 1):
        tail_diag = np.abs(np.diag(W)[k:]).max(initial=0.0)
        if tail_diag <= tols.hollow_tol * max(fro(W), np.finfo(float).tiny):
            break
        Tk = _deflation_step(W[k:, k:])
        G = np.eye(n, dtype=complex)
        G[k:, k:] = Tk
        W = np.linalg.solve(G, W @ G)
        P = P @ G
    T = np.linalg.inv(P)
    M = W
    cert = certify_similarity(T, A, M, tols, label="zero-diagonal")
    worst = float(np.abs(np.diag(M)).max(initial=0.0))
    if worst > tols.hollow_tol * max(fro(M), np.finfo(float).tiny):
        raise ResidualTooLargeError(
            "deflation left a nonzero diagonal on the result", worst
        )
    return HollowForm(M, cert)
