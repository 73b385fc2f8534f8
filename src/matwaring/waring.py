"""Waring-type decomposition pipelines.

Given a witness matrix B whose eigenvalue multiplicities are at most n/2,
any trace-zero A splits as B' - B'' + B''' - B'''' with all four terms
similar to B. Hooked up to a randomized image search, this expresses any
trace-zero matrix through four conjugated argument tuples of a polynomial
that is neither an identity nor central; prime size or multilinearity
brings the count down to two terms, and a nonzero-trace image point lifts
the result to arbitrary matrices with five scalar coefficients.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .canon import (
    SpectralPartition,
    cluster_eigenvalues,
    partition_spectrum,
    zero_diagonal_similarity,
)
from .config import DEFAULT_BUDGET, DEFAULT_TOLS, Tolerances
from .errors import (
    BudgetExhaustedError,
    NonzeroTraceError,
    NotGenericError,
    PreconditionUnmetError,
    ResidualTooLargeError,
)
from .freealg import (
    VERDICT_K_CENTRAL,
    classify,
    evaluate,
    random_tuple,
)
from .linalg import (
    as_cmatrix,
    block_labels,
    block_triangular_similarity,
    certify_similarity,
    fro,
    project_traceless,
    spectral_gap,
)
from .unitaries import split_hollow

MODE_FOUR_TERM = "four-term"
MODE_TWO_TERM = "two-term"
MODE_FIVE_TERM = "five-term"

GOAL_MULTIPLICITY_HALF = "multiplicity-half"
GOAL_DISTINCT_EIGS = "distinct-eigs"
GOAL_NONZERO_TRACE = "nonzero-trace"


@dataclass
class WaringCertificate:
    """Everything needed to re-verify a decomposition from stored data.

    target ~= sum_i coefficients[i] * term_i, where term_i is f evaluated on
    tuples[i] when tuples are present, else the stored terms[i] matrix. Each
    term carries a composed similarity certificate back to the witness;
    steps holds the intermediate certificates of the construction.
    """

    mode: str
    witness: np.ndarray
    target: np.ndarray
    coefficients: list
    terms: list
    residual: float
    residual_bound: float
    tuples: list | None = None
    polynomial: str | None = None
    term_certs: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    seed: int | None = None
    budget: int | None = None


def diff_of_similar(partition: SpectralPartition, C,
                    tols: Tolerances = DEFAULT_TOLS):
    """Write C (vanishing on the partition's diagonal blocks) as Bp - Bpp
    with both parts certified similar to blkdiag(partition.blocks).

    Bp keeps the blocks with C's upper coupling; Bpp keeps the blocks with
    C's lower coupling negated; they are the targets of the two triangular
    certificates. The difference reproduces C exactly because the entries
    are assembled, not solved for.
    """
    C = as_cmatrix(C)
    sizes = partition.block_sizes
    n = sum(sizes)
    if C.shape != (n, n):
        raise ValueError("C has the wrong size for this partition")
    # entries are copied, never recomputed, so upper + lower reproduces the
    # off-diagonal entries of C exactly
    labels = block_labels(sizes)
    upper = np.where(labels[None, :] > labels[:, None], C, 0)
    lower = np.where(labels[None, :] < labels[:, None], C, 0)
    leftover = fro(C - upper - lower)
    if leftover > 1e-13 * max(1.0, fro(C)):
        raise ValueError("C must vanish on the partition's diagonal blocks")

    cert_up = block_triangular_similarity(partition.blocks, upper, "upper", tols)
    cert_low = block_triangular_similarity(partition.blocks, -lower, "lower", tols)
    return cert_up.target, cert_low.target, (cert_up, cert_low)


def _require_traceless(A, tols, name="target"):
    if abs(np.trace(A)) > tols.hollow_tol * max(fro(A), np.finfo(float).tiny):
        raise NonzeroTraceError(f"{name} has trace {np.trace(A):.3e}")


def _residual_gate(target, coefficients, terms, tols, what):
    """(residual, bound) of the signed sum of terms against the target;
    raises when the residual exceeds end_tol * max(1, ||target||_F)."""
    recon = sum(c * W for c, W in zip(coefficients, terms))
    residual = fro(target - recon)
    bound = tols.end_tol * max(1.0, fro(target))
    if residual > bound:
        raise ResidualTooLargeError(f"{what} reconstruction failed", residual)
    return residual, bound


def _assemble(mode, witness, target, partition, hollow, halves, tols):
    """The route's certificate: terms certified similar to the witness, with
    signed sum the target.

    partition.to_block_diag certifies witness = X blkdiag(blocks) X^-1;
    hollow takes the target to M = sum of U C U* over the halves (C, U),
    where U None stands for the identity. Each half contributes
    U Bp U* - U Bpp U* from diff_of_similar, carried back through the hollow
    similarity. The residual is left to the caller's gate.
    """
    Xinv = partition.to_block_diag.t_inv
    Sh = hollow.to_hollow.t        # M = Sh A Sh^-1
    Shinv = hollow.to_hollow.t_inv
    diffs = [diff_of_similar(partition, C, tols) for C, _ in halves]
    terms = []
    term_certs = []
    tri_certs = []
    for (_, U), (Bp, Bpp, tris) in zip(halves, diffs):
        tri_certs.extend(tris)
        for P, tri in zip((Bp, Bpp), tris):
            if U is None:
                W = Shinv @ P @ Sh
                T = Shinv @ tri.t @ Xinv
            else:
                W = Shinv @ U @ P @ U.conj().T @ Sh
                T = Shinv @ U @ tri.t @ Xinv
            terms.append(W)
            term_certs.append(certify_similarity(
                T, witness, W, tols,
                label=f"term{len(terms)}-similar-to-witness",
            ))
    return WaringCertificate(
        mode=mode,
        witness=witness,
        target=target,
        coefficients=[1.0, -1.0] * len(halves),
        terms=terms,
        residual=np.nan,
        residual_bound=np.nan,
        term_certs=term_certs,
        steps=[partition.to_block_diag, hollow.to_hollow, *tri_certs],
    )


def four_term_decompose(B, A, tols: Tolerances = DEFAULT_TOLS):
    """A = B' - B'' + B''' - B'''' with each term certified similar to B.

    Pipeline: partition B's spectrum, take A to zero diagonal, split the
    hollow form over the pattern and its decoupling unitary, assemble each
    half as a difference of block-triangular matrices, then undo the hollow
    similarity. Requires eigenvalue multiplicities of B at most n/2 and
    trace-zero A.
    """
    B = as_cmatrix(B)
    A = as_cmatrix(A)
    n = B.shape[0]
    if A.shape != (n, n):
        raise ValueError("A and B must have the same size")
    _require_traceless(A, tols, name="A")
    return _four_term(B, A, partition_spectrum(B, tols), tols)


def _four_term(B, A, part, tols):
    """four_term_decompose of trace-zero A on part, B's spectral partition."""
    if fro(A) == 0.0:
        # nothing to express: four copies of B cancel in signed pairs (the
        # partition has enforced the multiplicity gate)
        eye = np.eye(B.shape[0], dtype=complex)
        trivial = certify_similarity(eye, B, B, tols, label="trivial-term")
        return WaringCertificate(
            mode=MODE_FOUR_TERM,
            witness=B,
            target=A,
            coefficients=[1.0, -1.0, 1.0, -1.0],
            terms=[B.copy() for _ in range(4)],
            residual=0.0,
            residual_bound=tols.end_tol,
            term_certs=[trivial] * 4,
            steps=[],
        )

    hollow = zero_diagonal_similarity(A, tols)
    split = split_hollow(hollow.m, part.block_sizes, tols)
    cert = _assemble(MODE_FOUR_TERM, B, A, part, hollow,
                     [(split.c1, None), (split.c2, split.u)], tols)
    cert.residual, cert.residual_bound = _residual_gate(
        A, cert.coefficients, cert.terms, tols, "four-term")
    return cert


# ---------------------------------------------------------------------------
# randomized witness search
# ---------------------------------------------------------------------------

def _goal_satisfied(goal, image, tols):
    n = image.shape[0]
    if goal == GOAL_MULTIPLICITY_HALF:
        eigs = np.linalg.eigvals(image)
        clusters = cluster_eigenvalues(eigs, tols.cluster_tol)
        return all(2 * mult <= n for _, mult in clusters)
    if goal == GOAL_DISTINCT_EIGS:
        eigs = np.linalg.eigvals(image)
        scale = max(float(np.abs(eigs).max(initial=0.0)), np.finfo(float).tiny)
        gap, _, _ = spectral_gap(eigs, np.arange(n))
        return gap > tols.gap_tol * scale
    if goal == GOAL_NONZERO_TRACE:
        return abs(np.trace(image)) > tols.trace_tol * max(1.0, fro(image))
    raise ValueError(f"unknown goal {goal!r}")


def image_search(f, n, goal, budget=DEFAULT_BUDGET, seed=0,
                 tols: Tolerances = DEFAULT_TOLS):
    """First seeded random tuple whose image satisfies the goal.

    Sample i draws from its own stream keyed by (seed, i), so the result is
    the lowest satisfying index regardless of how samples are scheduled.
    Exhaustion reports the polynomial's classification as a diagnostic:
    identities and central polynomials can never meet these goals.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    m = max(f.num_vars, 1)
    for i in range(budget):
        rng = np.random.default_rng([seed, i])
        args = random_tuple(rng, n, m)
        image = evaluate(f, args)
        if _goal_satisfied(goal, image, tols):
            return image, args
    verdict = classify(f, n, seed=seed)
    raise BudgetExhaustedError(
        f"no image satisfying {goal!r} within {budget} samples "
        f"(classifier verdict: {verdict.describe()})",
        diagnostic=verdict,
    )


def _scaled_up(f, image, args, A, goal, tols):
    """The searched image and tuple, scaled up toward the target.

    A Gaussian tuple's image has a fixed scale, while the coupling split
    from A grows with ||A||, and with it the condition of the transforms
    (about ||A|| / gap of the witness). When ||f(t)||_F < 10 ||A||_F this
    bisects on log2 sigma >= 0 until ||f(sigma t)||_F is within a factor of
    2 of 10 ||A||_F, at one evaluation per step, and keeps sigma t only if
    its image is finite and still meets the goal.
    """
    want = 10 * fro(A)
    if not fro(image) < want:
        return image, args

    def scaled(log2_sigma):
        t = tuple(np.exp2(log2_sigma) * a for a in args)
        return evaluate(f, t), t

    lo, hi = 0.0, None      # fro(f) at 2^lo falls short; at 2^hi it does not
    step = 1.0
    for _ in range(64):     # far more than a double's exponent range needs
        mid = lo + step if hi is None else (lo + hi) / 2
        candidate = scaled(mid)
        norm = fro(candidate[0])
        if want / 2 <= norm <= 2 * want:
            if _goal_satisfied(goal, candidate[0], tols):
                return candidate
            break
        if norm < want / 2:
            lo, step = mid, 2 * step
        else:                # too large, or not finite
            hi = mid
    return image, args


def _finish(cert, f, args, seed, budget, tols, what):
    """Turn a matrix-level certificate into tuples of f and re-check it.

    Conjugating the witness tuple by each term's transform makes f land on
    the conjugated image; the terms are replaced by f re-evaluated on those
    tuples, and their signed sum must reproduce the target.
    """
    tuples = [tuple(tc.t @ a @ tc.t_inv for a in args) for tc in cert.term_certs]
    images = list(evaluate(f, [np.stack(mats) for mats in zip(*tuples)]))
    cert.residual, cert.residual_bound = _residual_gate(
        cert.target, cert.coefficients, images, tols, what)
    cert.tuples = tuples
    cert.terms = images
    cert.polynomial = f.to_string()
    cert.seed = seed
    cert.budget = budget
    return cert


# ---------------------------------------------------------------------------
# target-independent work, kept on f
# ---------------------------------------------------------------------------

# A route's witness depends on f, n, its goal, budget, seed and tolerances,
# never on the target, so f keeps it for the next target: each polynomial
# holds the work of its most recently used _PREPARED_KEYS keys.
_PREPARED_KEYS = 8


def _read_only(a):
    a.setflags(write=False)
    return a


class _Prepared:
    """What a route derives from f at one (n, goal, budget, seed, tols)
    before it sees a target: the classifier's verdict, the searched image
    with its tuple, and the image's factorization. Each part is made on
    first use and kept once it succeeds; a failure is raised again on the
    next use. The arrays are read-only, because certificates share them.
    """

    def __init__(self, n, goal, budget, seed, tols):
        self.n, self.goal, self.budget, self.seed, self.tols = (
            n, goal, budget, seed, tols)
        self._verdict = self._found = self._factored = None

    def verdict(self, f):
        if self._verdict is None:
            self._verdict = classify(f, self.n, seed=self.seed)
        return self._verdict

    def found(self, f):
        """image_search's (image, args)."""
        if self._found is None:
            image, args = image_search(f, self.n, self.goal, self.budget,
                                       self.seed, self.tols)
            self._found = _read_only(image), tuple(map(_read_only, args))
        return self._found

    def factored(self, witness, factor):
        """factor(witness, tols), a SpectralPartition; kept when the witness
        is the searched image itself, made afresh for a scaled-up one."""
        if witness is not self._found[0]:
            return factor(witness, self.tols)
        if self._factored is None:
            part = factor(witness, self.tols)
            cert = part.to_block_diag
            for a in (*part.blocks, cert.t, cert.t_inv, cert.source,
                      cert.target):
                _read_only(a)
            self._factored = part
        return self._factored


def _prepared(f, n, goal, budget, seed, tols):
    """f's _Prepared entry for this key, made if missing and moved to the
    most recent end of f's memo."""
    key = (n, goal, budget, seed, tols)
    memo = f._prepared
    entry = memo.pop(key, None) or _Prepared(*key)
    memo[key] = entry
    if len(memo) > _PREPARED_KEYS:
        del memo[next(iter(memo))]
    return entry


# ---------------------------------------------------------------------------
# the tuple routes
# ---------------------------------------------------------------------------

def _require_not_central(f, prep, forbid_two_central=False):
    cls, n = prep.verdict(f), prep.n
    if cls.is_identity_or_central:
        raise NotGenericError(
            f"polynomial classifies as {cls.describe()} on M_{n}(C); "
            "decomposition needs an image that escapes the scalars",
            verdict=cls,
        )
    if forbid_two_central and cls.verdict == VERDICT_K_CENTRAL and cls.k == 2:
        raise NotGenericError(
            f"polynomial classifies as 2-central on M_{n}(C); two-term "
            "decomposition is refused for 2-central polynomials",
            verdict=cls,
        )
    return cls


def _four_term_tuples(f, A, prep):
    """The four-term certificate of trace-zero A with its tuples of f, on the
    image point of prep, which has all eigenvalue multiplicities <= n/2."""
    tols = prep.tols
    B, args = _scaled_up(f, *prep.found(f), A, GOAL_MULTIPLICITY_HALF, tols)
    cert = _four_term(B, A, prep.factored(B, partition_spectrum), tols)
    return _finish(cert, f, args, prep.seed, prep.budget, tols,
                   "re-evaluated four-term")


def waring_express(f, A, budget=DEFAULT_BUDGET, seed=0,
                   tols: Tolerances = DEFAULT_TOLS):
    """Express trace-zero A as f(t1) - f(t2) + f(t3) - f(t4).

    Finds an image point B with all eigenvalue multiplicities <= n/2, runs
    the four-term decomposition, and emits the conjugated argument tuples so
    a verifier can recompute f from scratch on each one.
    """
    A = as_cmatrix(A)
    _require_traceless(A, tols)
    prep = _prepared(f, A.shape[0], GOAL_MULTIPLICITY_HALF, budget, seed,
                     tols)
    _require_not_central(f, prep)
    return _four_term_tuples(f, A, prep)


def two_term_applies(f, n):
    """The two-term route needs n prime or f multilinear."""
    is_prime = n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    return is_prime or f.is_multilinear()


def _diagonalized(D0, tols):
    """The n 1x1 eigenvalue blocks of D0, with the certificate of its
    eigendecomposition."""
    w, V = np.linalg.eig(D0)
    return SpectralPartition(
        case_tag="distinct",
        block_sizes=(1,) * len(w),
        blocks=[np.array([[wi]]) for wi in w],
        to_block_diag=certify_similarity(V, np.diag(w), D0, tols,
                                         label="diagonalize-witness"),
    )


def two_term_decompose(f, A, budget=DEFAULT_BUDGET, seed=0,
                       tols: Tolerances = DEFAULT_TOLS):
    """Express trace-zero A as f(t1) - f(t2).

    Valid when n is prime or f is multilinear: the image then contains a
    matrix with n distinct eigenvalues, and every triangular matrix sharing
    that diagonal is similar to it. This is the four-term assembly on the
    witness's n eigenvalue blocks with no hollow split: the two terms are
    the upper and (negated) lower triangular halves of the hollow form of
    A, riding on the witness diagonal.
    """
    A = as_cmatrix(A)
    n = A.shape[0]
    if not two_term_applies(f, n):
        raise PreconditionUnmetError(
            f"n={n} is composite and the polynomial is not multilinear; "
            "use the four-term decomposition instead"
        )
    _require_traceless(A, tols)
    prep = _prepared(f, n, GOAL_DISTINCT_EIGS, budget, seed, tols)
    _require_not_central(f, prep, forbid_two_central=True)

    D0, args = _scaled_up(f, *prep.found(f), A, GOAL_DISTINCT_EIGS, tols)
    eig_blocks = prep.factored(D0, _diagonalized)

    hollow = zero_diagonal_similarity(A, tols)
    # the hollow form keeps a diagonal below hollow_tol, which the
    # triangular halves drop instead of handing it to diff_of_similar
    M = hollow.m
    cert = _assemble(MODE_TWO_TERM, D0, A, eig_blocks, hollow,
                     [(M - np.diag(np.diag(M)), None)], tols)
    return _finish(cert, f, args, seed, budget, tols, "two-term")


def five_term_express(f, T, budget=DEFAULT_BUDGET, seed=0,
                      tols: Tolerances = DEFAULT_TOLS):
    """Express an arbitrary T as c0 f(t0) + f(t1) - f(t2) + f(t3) - f(t4).

    Needs an image point with nonzero trace (a polynomial that is a sum of
    commutator-shaped terms has none; the search exhausts its budget). The
    trace coefficient c0 = tr(T)/tr(f(t0)) peels T down to a trace-zero
    remainder which the four-term path expresses.
    """
    T = as_cmatrix(T)
    n = T.shape[0]
    prep = _prepared(f, n, GOAL_NONZERO_TRACE, budget, seed, tols)
    _require_not_central(f, prep)

    A0, args0 = prep.found(f)
    if abs(np.trace(T)) <= tols.hollow_tol * max(1.0, fro(T)):
        c0 = 0j
        remainder = T
    else:
        c0 = np.trace(T) / np.trace(A0)
        remainder = T - c0 * A0
    remainder = project_traceless(remainder)

    # the four-term path on the remainder, with f already classified
    _require_traceless(remainder, tols)
    four = _four_term_tuples(f, remainder, _prepared(
        f, n, GOAL_MULTIPLICITY_HALF, budget, seed + 1, tols))

    coefficients = [complex(c0), 1.0, -1.0, 1.0, -1.0]
    images = [A0] + four.terms
    residual, bound = _residual_gate(T, coefficients, images, tols, "five-term")
    return replace(four, mode=MODE_FIVE_TERM, target=T,
                   coefficients=coefficients, terms=images, residual=residual,
                   residual_bound=bound, tuples=[args0] + four.tuples,
                   seed=seed, budget=budget)
