"""Canonical forms feeding the decompositions.

Eigenvalue clustering, certified block diagonalization along clusters, the
spectral partition into two or three blocks with pairwise disjoint spectra,
and the similarity taking a trace-zero matrix to zero diagonal. The
clusters are contiguous because the Schur form is built in cluster order
(linalg.eigendecompose with a key), not reordered afterwards.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import CLUSTER_TOL, DEFAULT_TOLS, Tolerances
from .errors import (
    ClusterGapTooSmallError,
    MultiplicityTooLargeError,
    NonzeroTraceError,
    ResidualTooLargeError,
)
from .freealg import _exponent, _times_pow2, fro
from .linalg import (
    SimilarityCertificate,
    TriangularPlan,
    as_cmatrix,
    blkdiag,
    block_triangular_similarity,
    certify_similarity,
    eigendecompose,
    read_only,
    spectral_gap,
)


def cluster_eigenvalues(eigs, tol):
    """Connected components of eigenvalues under |a - b| <= tol * scale.

    Returns a list of (representative, multiplicity) with the representative
    the cluster mean, sorted by (real, imag). Multiplicities sum to len(eigs).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    eigs = np.asarray(eigs, dtype=complex)
    scale = max(float(np.abs(eigs).max(initial=0.0)), 1e-300)
    close = np.abs(eigs[:, None] - eigs) <= tol * scale
    # labels drop to the smallest index in reach, the first member of each
    # connected component; that orders components for the stable sort below
    index = np.arange(len(eigs))
    labels, reached = None, index
    while not np.array_equal(labels, reached):
        labels = reached
        reached = np.where(close, labels, len(eigs)).min(1, initial=len(eigs))
    clusters = []
    # a component's first member is the one labelled by itself (np.unique
    # would give the same labels, but loads numpy.ma on its first call)
    for label in np.flatnonzero(labels == index):
        members = eigs[labels == label]
        clusters.append((complex(np.mean(members)), len(members)))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


@dataclass
class SpectralPartition:
    """Two- or three-block split of B with pairwise disjoint block spectra.

    case_tag 'A': n even, block_sizes = (n/2, n/2).
    case_tag 'B': block_sizes = (p, q, r) with p, q, r < n/2.
    to_block_diag certifies B = T blkdiag(blocks) T^-1.
    case_tag 'distinct': the n 1x1 eigenvalue blocks of a witness with
    distinct eigenvalues, block_sizes = (1,) * n; to_block_diag certifies
    the witness's eigendecomposition.
    plan is the blocks' TriangularPlan, made on first use.
    """

    case_tag: str
    block_sizes: tuple
    blocks: list
    to_block_diag: SimilarityCertificate

    @cached_property
    def plan(self):
        return TriangularPlan(self.blocks)


# ---------------------------------------------------------------------------
# block diagonalization along eigenvalue clusters
# ---------------------------------------------------------------------------

def _assign_to_clusters(eigs, clusters):
    reps = np.array([c[0] for c in clusters])
    keys = np.argmin(np.abs(reps - np.asarray(eigs)[:, None]), axis=1)
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


def _decoupled(B, T, Q, sizes, tols):
    """(blocks, cert) with B = cert.t blkdiag(blocks) cert.t_inv, from B's
    Schur form B = Q T Q*, whose diagonal blocks of the given sizes have
    pairwise disjoint spectra: the coupling above T's blocks is stripped by
    block-triangular similarity, and the transform's columns are scaled to
    unit norm, with T's blocks scaled to match."""
    edges = np.cumsum((0, *sizes))
    plan = TriangularPlan([T[a:b, a:b] for a, b in zip(edges, edges[1:])])
    [tri] = block_triangular_similarity(plan, [T - plan.D], ["upper"], tols)
    # X diag(s)^-1 with s its column norms is within sqrt(n) of X's
    # best-conditioned column scaling (van der Sluis 1969), and takes
    # D to diag(s) D diag(s)^-1, still upper triangular with D's diagonal
    X = Q @ tri.t
    s = np.linalg.norm(X, axis=0)
    X /= s
    D = read_only(plan.D * (s[:, None] / s))
    # inverted whole, once per witness (a warm route never gets here): the
    # term transforms carry this inverse, and on an ill-conditioned witness
    # their inverse residual sits at its rounding floor, which the factors'
    # inverse does not lower but moves either way
    [cert] = certify_similarity(X[None], np.linalg.inv(X)[None], D, B[None],
                                tols, ["block-diagonalize"])
    return [D[a:b, a:b] for a, b in zip(edges, edges[1:])], cert


def _grouped_clusters(eigs, tols):
    """partition_spectrum's clusters of eigs in block order, with the case
    tag, the group sizes and the number of clusters in each group."""
    n = len(eigs)
    clusters = cluster_eigenvalues(eigs, CLUSTER_TOL)
    for value, mult in clusters:
        if 2 * mult > n:
            raise MultiplicityTooLargeError(value, mult, n)

    halves = [c for c in clusters if 2 * c[1] == n]
    if halves:
        big = min(halves, key=lambda c: abs(eigs[0] - c[0]))
        clusters.remove(big)
        clusters.insert(0, big)
    taken = j = 0
    while 2 * (taken + clusters[j][1]) <= n:
        taken += clusters[j][1]
        j += 1
    _check_cluster_gaps(clusters, tols)
    if 2 * taken == n:
        return clusters, "A", (taken, taken), (j, len(clusters) - j)
    q = clusters[j][1]
    return (clusters, "B", (taken, q, n - taken - q),
            (j, 1, len(clusters) - j - 1))


def partition_spectrum(B, tols: Tolerances = DEFAULT_TOLS):
    """Split B into 2 or 3 certified diagonal blocks with disjoint spectra.

    Requires every eigenvalue cluster to have multiplicity <= n/2. One
    greedy pass groups the clusters: a cluster of multiplicity n/2 goes
    first (of two such, the one np.linalg.eig lists first), then clusters
    are taken while they fit in n/2. A pass that reaches exactly n/2 is
    case A; otherwise the first cluster that does not fit is the middle
    group of case B, with all three sizes strictly below n/2. The grouping
    is the key of B's Schur form, so the form comes out in cluster order.
    """
    B = as_cmatrix(B)
    grouping = None

    def cluster_keys(eigs):
        nonlocal grouping
        grouping = _grouped_clusters(eigs, tols)
        return _assign_to_clusters(eigs, grouping[0])

    _, T, Q = eigendecompose(B, key=cluster_keys)
    clusters, case_tag, group_sizes, group_counts = grouping
    cluster_blocks, cert = _decoupled(B, T, Q, [c[1] for c in clusters], tols)

    edges = np.cumsum((0,) + group_counts)
    blocks = [blkdiag(cluster_blocks[a:b]) for a, b in zip(edges, edges[1:])]
    # the grouped block diagonal coincides with the per-cluster one, which
    # is already the certificate's source
    cert.label = "spectral-partition"
    return SpectralPartition(case_tag, group_sizes, blocks, cert)


# ---------------------------------------------------------------------------
# zero-diagonal similarity
# ---------------------------------------------------------------------------

def _fov_vector(a, b, c, d, s):
    """Unit v = (v0, v1) with v* C v = (1 - s) a + s d for C = [[a, b],
    [c, d]], s in [0, 1].

    Closed-form 2x2 inverse field of values (Carden 2009; Meurant 2012):
    with v = (cos phi, e^{i psi} sin phi), the phase psi turns the cross
    term onto the line through the diagonal entries and phi moves the
    value along that line. Written with broadcasting operators and ufuncs
    only, so the entries and s may be scalars or arrays of one shape.
    """
    delta = d - a
    kappa = b * np.conj(delta) - np.conj(c) * delta
    mag = np.abs(kappa)
    # kappa = 0 leaves the phase free; take 1
    flat = mag == 0
    phase = (np.conj(kappa) + flat) / (mag + flat)
    r = ((b * np.conj(delta) + np.conj(c) * delta) * phase).real
    p = np.abs(delta) ** 2
    # r sin(theta) - p cos(theta) = (2s - 1) p with theta = 2 phi; a radius
    # of 0 means equal diagonal entries, already the value asked for
    radius = np.hypot(p, r)
    flat = radius == 0
    cos = ((1 - 2 * s) * p + flat) / (radius + flat)
    theta = np.arccos(np.clip(cos, -1.0, 1.0)) - np.arctan2(r, p)
    return np.cos(theta / 2), phase * np.sin(theta / 2)


def _isotropic_vectors(B):
    """Unit x_g with x_g* B_g x_g = 0 (to rounding) for each trace-zero B_g
    of the stack B (G, d, d), d >= 2, all in one pass.

    With b_i the diagonal entry of largest modulus, the other diagonal
    entries average to a point on the ray through -b_i. A 2x2 solve on the
    span of e_j, e_k, the entries angularly next to that ray, gives y with
    y* B y on it; 0 then lies between b_i and y* B y, and a second 2x2
    solve on the span of e_i, y gives x. O(d) work per block, each step one
    array operation over the stack.
    """
    g = np.arange(len(B))
    diag = np.diagonal(B, axis1=-2, axis2=-1)
    i = np.argmax(np.abs(diag), axis=1)
    bi = diag[g, i]
    # the other diagonal entries, turned so that -b_i points along +1
    z = diag * -np.conj(bi)[:, None]
    angle = np.angle(z) % (2 * np.pi)
    angle[g, i] = np.inf
    j = np.argmin(angle, axis=1)
    angle[g, i] = -np.inf
    k = np.argmax(angle, axis=1)
    zj, zk = z[g, j], z[g, k]
    # the segment from z_j to z_k crosses the ray; else an entry lies on
    # the ray (up to rounding of the trace)
    crosses = (zj.imag > 0) & (zk.imag < 0) & ((np.conj(zj) * zk).imag < 0)
    s = np.where(crosses,
                 zj.imag / np.where(crosses, zj.imag - zk.imag, 1.0),
                 np.abs(np.angle(zj)) > np.abs(np.angle(zk)))
    # j == k leaves v = (1, 0), so y = e_j
    v0, v1 = _fov_vector(diag[g, j], B[g, j, k], B[g, k, j], diag[g, k], s)
    y = np.zeros(diag.shape, dtype=complex)
    y[g, j] = v0
    y[g, k] += v1
    By = B[g, :, j] * v0[:, None] + B[g, :, k] * v1[:, None]
    w = np.conj(v0) * By[g, j] + np.conj(v1) * By[g, k]
    c = np.conj(v0) * B[g, j, i] + np.conj(v1) * B[g, k, i]
    total = np.abs(bi) + np.abs(w)
    u0, u1 = _fov_vector(bi, By[g, i], c, w,
                         np.abs(bi) / np.where(total > 0, total, 1.0))
    x = u1[:, None] * y
    x[g, i] += u0
    return x


def _midpoint_round(W, P, p, q):
    """One butterfly round: W <- G* W G and P <- P G, with G the identity
    but for U = [[a, -b*], [b, a*]] on each pair (p_i, q_i) of disjoint
    indices, (a, b) the midpoint vector of the pair's 2x2 block. Each
    pair's two diagonal entries both become their mean."""
    a, b = _fov_vector(W[p, p], W[p, q], W[q, p], W[q, q], 0.5)
    Wp, Wq = W[p], W[q]
    W[p] = a.conj()[:, None] * Wp + b.conj()[:, None] * Wq
    W[q] = a[:, None] * Wq - b[:, None] * Wp
    for X in (W, P):
        Xp, Xq = X[:, p], X[:, q]
        X[:, p] = Xp * a + Xq * b
        X[:, q] = Xq * a.conj() - Xp * b.conj()


def zero_diagonal_similarity(A, tols: Tolerances = DEFAULT_TOLS):
    """Certificate of a unitary similarity T A T* = M with M hollow (zero
    diagonal); requires trace zero.

    The steps run on groups of indices, each with diagonal sum zero, from
    the one group 0..n-1. A group of odd size sheds its first index by one
    Householder reflector that maps it to a unit isotropic vector x of the
    group's principal block (x* W x = 0), which zeroes its diagonal entry
    and leaves the rest of the group of sum zero (Fillmore 1969); the
    isotropic vectors of all odd groups are found in one pass over the
    stack of their principal blocks, and the reflectors have disjoint
    supports, so they are one update. Every group, now of even size, then
    takes one butterfly round: a 2x2 rotation per pair of its even and odd
    members moves both diagonal entries to their midpoint, which lies in
    the pair's field of values (Toeplitz-Hausdorff), and the round is one
    vectorized update.
    Each group splits into its even and odd members, two groups of sum
    zero; a group of one index is done. With m the largest power of two at
    most n, every call runs n - m reflectors in at most log2 m updates and
    log2 m rounds.

    The steps and the gates act on 2^-e A, e the exponent of A's largest
    part, where no square of an entry under- or overflows; T does not
    depend on the scale. What the steps leave on the diagonal is rounding:
    the gate holds it to hollow_tol ||M||_F, and then it is set to exactly
    zero, so M is hollow. The result certifies T on (A, M), with the
    accumulated unitary as T's inverse and M, scaled back, as its target.
    T is unitary, so its condition estimate is n.
    """
    A = as_cmatrix(A)
    n = A.shape[0]
    e = _exponent(A) or 0
    scaled = _times_pow2(A, -e)
    if abs(np.trace(scaled)) > tols.hollow_tol * fro(scaled):
        raise NonzeroTraceError(
            f"matrix has trace {np.trace(A):.3e}; project it first"
        )
    W = scaled.copy()
    P = np.eye(n, dtype=complex)  # accumulated unitary: W = P* scaled P
    groups = np.arange(n)[None]   # one group a row; all have one size
    while groups.shape[1] > 1:
        if groups.shape[1] % 2:
            # reflector H = I - 2 u u* with H x = -e^{i arg x_1} e_1 on the
            # group, so H e_1 is a unit multiple of x and (H W H)[k, k] =
            # x* W x for k the group's first index
            X = _isotropic_vectors(W[groups[:, :, None], groups[:, None]])
            X[:, 0] += np.exp(1j * np.angle(X[:, 0]))
            U = np.zeros((n, len(groups)), dtype=complex)
            U[groups.T, np.arange(len(groups))] = (
                X / np.linalg.norm(X, axis=1, keepdims=True)).T
            W -= 2 * U @ (U.conj().T @ W)
            W -= 2 * (W @ U) @ U.conj().T
            P -= 2 * (P @ U) @ U.conj().T
            groups = groups[:, 1:]
            continue
        _midpoint_round(W, P, groups[:, 0::2].ravel(), groups[:, 1::2].ravel())
        groups = np.concatenate([groups[:, 0::2], groups[:, 1::2]])
    worst = float(np.abs(np.diag(W)).max(initial=0.0))
    if worst > tols.hollow_tol * fro(W):
        raise ResidualTooLargeError(
            f"deflation left a nonzero diagonal on the result (n = {n})",
            float(np.ldexp(worst, e)),
        )
    np.fill_diagonal(W, 0)
    M = _times_pow2(W, e)
    [cert] = certify_similarity(P.conj().T[None], P[None], A, M[None], tols,
                                ["zero-diagonal"])
    return cert
