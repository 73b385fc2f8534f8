"""Waring-type decomposition pipelines.

Given a witness matrix B whose eigenvalue multiplicities are at most n/2,
any trace-zero A splits as B' - B'' + B''' - B'''' with all four terms
similar to B. Hooked up to a randomized image search, this expresses any
trace-zero matrix through four conjugated argument tuples of a polynomial
that is neither an identity nor central; prime size or multilinearity
brings the count down to two terms, and a nonzero-trace image point lifts
the result to arbitrary matrices with five scalar coefficients.
"""

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .canon import (
    SpectralPartition,
    cluster_eigenvalues,
    partition_spectrum,
    zero_diagonal_similarity,
)
from .config import (
    CLUSTER_TOL,
    DEFAULT_BUDGET,
    DEFAULT_TOLS,
    TRACE_TOL,
    Tolerances,
)
from .errors import (
    BudgetExhaustedError,
    NonzeroTraceError,
    NotGenericError,
    PreconditionUnmetError,
    ResidualTooLargeError,
)
from .freealg import (
    VERDICT_K_CENTRAL,
    _exponent,
    _times_pow2,
    classify,
    evaluate,
    fro,
    random_tuple,
)
from .linalg import (
    as_cmatrix,
    block_triangular_similarity,
    certify_similarity,
    project_traceless,
    read_only,
    spectral_gap,
)
from .serialize import round_to_15_digits
from .unitaries import split_hollow

MODE_FOUR_TERM = "four-term"
MODE_TWO_TERM = "two-term"
MODE_FIVE_TERM = "five-term"

GOAL_MULTIPLICITY_HALF = "multiplicity-half"
GOAL_DISTINCT_EIGS = "distinct-eigs"
GOAL_NONZERO_TRACE = "nonzero-trace"


@dataclass
class WaringCertificate:
    """A decomposition and the certificates of its construction.

    target ~= sum_i coefficients[i] * term_i, where term_i is f evaluated on
    tuples[i] when tuples are present, else the stored terms[i] matrix.
    These stay in memory. The certificate document (serialize) holds the
    tuples instead, which re-verify the decomposition on their own, so a
    certificate without tuples has no document.

    Every tuple route builds it on one path, `_spine`. A graded f
    (`NcPolynomial.grading`, weights w and degree D) is decomposed at
    scale: the construction runs on 2^(-k D) times the target, and part j
    of each conjugated tuple is multiplied by 2^(k w[j]) before it is
    rounded. So steps, the construction's intermediate certificates, and
    term_certs, which carry the witness to each term by a composed
    similarity, certify that scaled problem. k, weights and degree are kept
    here; the document does not hold them. k is 0 for an ungraded f, whose
    witness is scaled instead (`_scaled_toward`), and for a matrix-level
    `four_term_decompose` result.
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
    k: int = 0
    weights: tuple | None = None
    degree: int | None = None


def diff_of_similar(partition: SpectralPartition, Cs,
                    tols: Tolerances = DEFAULT_TOLS):
    """Write each C of Cs (vanishing on the partition's diagonal blocks) as
    Bp - Bpp with both parts certified similar to blkdiag(partition.blocks):
    a list of (Bp, Bpp, (upper certificate, lower certificate)).

    Bp keeps the blocks with C's upper coupling; Bpp keeps the blocks with
    C's lower coupling negated; they are the targets of the two triangular
    certificates. The difference reproduces C exactly because the entries
    are assembled, not solved for. All of Cs are solved and certified
    together on the partition's triangular plan.
    """
    plan = partition.plan
    offs = []
    for C in map(as_cmatrix, Cs):
        if C.shape != plan.D.shape:
            raise ValueError("C has the wrong size for this partition")
        # entries are copied, never recomputed, so upper + lower reproduces
        # the off-diagonal entries of C exactly
        upper, lower = (np.where(plan.vanish[o], 0, C)
                        for o in ("upper", "lower"))
        leftover = fro(C - upper - lower)
        if leftover > 1e-13 * fro(C):
            raise ValueError("C must vanish on the partition's diagonal blocks")
        offs += [upper, -lower]
    certs = block_triangular_similarity(plan, offs,
                                        ["upper", "lower"] * len(Cs), tols)
    return [(up.target, low.target, (up, low))
            for up, low in zip(certs[::2], certs[1::2])]


def _require_traceless(A, tols, name="target"):
    if abs(np.trace(A)) > tols.hollow_tol * fro(A):
        raise NonzeroTraceError(f"{name} has trace {np.trace(A):.3e}")


def _require_finite_bound(A, tols, name="target"):
    """Refuses A before any work when the end gate's bound
    end_tol * ||A||_F is infinite, which no residual can pass."""
    bound = tols.end_tol * fro(A)
    if not bound < np.inf:
        raise ResidualTooLargeError(
            f"{name} check: the end gate's bound end_tol * ||{name}||_F"
            f" is {bound} (||{name}||_F is past the double range), so no "
            "certificate of it can pass")


def _residual_gate(target, coefficients, terms, tols, what):
    """(residual, bound) of the signed sum of terms against the target;
    raises unless residual <= bound < inf (the verifier's rule), with bound
    end_tol * ||target||_F, so a NaN residual, which overflowing terms make
    with no warning, raises too."""
    with np.errstate(over="ignore", invalid="ignore"):
        recon = sum(c * W for c, W in zip(coefficients, terms))
        residual = fro(target - recon)
    bound = tols.end_tol * fro(target)
    if not residual <= bound < np.inf:
        raise ResidualTooLargeError(f"{what} reconstruction failed", residual)
    return residual, bound


def _assemble(mode, target, partition, hollow, halves, tols):
    """The route's certificate: terms certified similar to the witness, with
    signed sum the target.

    partition.to_block_diag certifies witness = X blkdiag(blocks) X^-1,
    with the witness its target;
    hollow certifies M = Sh target Sh^-1 for the zero-diagonal form M, the
    sum of U C U* over the halves (C, U), where U None stands for the
    identity. Each half contributes U Bp U* - U Bpp U* from diff_of_similar
    (all halves in one stack), carried back through the hollow similarity;
    the term transforms are certified in one pass. The residual is left to
    the caller's gate.
    """
    witness = partition.to_block_diag.target
    Xinv = partition.to_block_diag.t_inv
    Sh, Shinv = hollow.t, hollow.t_inv
    tri_certs = [tri for _, _, tris in diff_of_similar(
        partition, [C for C, _ in halves], tols) for tri in tris]
    # each half's two parts P are carried back as L P R, T as L tri.t Xinv
    L, R = [], []
    for _, U in halves:
        L += [Shinv if U is None else Shinv @ U] * 2
        R += [Sh if U is None else U.conj().T @ Sh] * 2
    L, R = np.stack(L), np.stack(R)
    terms = L @ np.stack([tri.target for tri in tri_certs]) @ R
    # the factors' inverse X tri.t_inv R fails the inverse gate on an
    # ill-conditioned witness, where inverting the product does not
    Ts = L @ np.stack([tri.t for tri in tri_certs]) @ Xinv
    term_certs = certify_similarity(
        Ts, np.linalg.inv(Ts), witness, terms, tols,
        [f"term{k}-similar-to-witness" for k in range(1, len(L) + 1)])
    return WaringCertificate(
        mode=mode,
        witness=witness,
        target=target,
        coefficients=[1.0, -1.0] * len(halves),
        terms=list(terms),
        residual=np.nan,
        residual_bound=np.nan,
        term_certs=term_certs,
        steps=[partition.to_block_diag, hollow, *tri_certs],
    )


def four_term_decompose(partition: SpectralPartition, A,
                        tols: Tolerances = DEFAULT_TOLS):
    """A = B1 - B2 + B3 - B4 with each term certified similar to the witness
    B = partition.to_block_diag.target, for partition = partition_spectrum(B).

    Pipeline: take A to zero diagonal, split the hollow form over the
    partition's pattern and its decoupling unitary, assemble each half as a
    difference of block-triangular matrices, then undo the hollow
    similarity. Requires eigenvalue multiplicities of B at most n/2, which
    partition_spectrum checks, and trace-zero A.

    The result has no tuples: it is the paper's matrix lemma, not a claim
    about a polynomial, so it stays in memory, and `save_certificate`
    refuses it. `waring_express` turns it into tuples of f.
    """
    A = as_cmatrix(A)
    if A.shape != partition.to_block_diag.target.shape:
        raise ValueError("A and the witness must have the same size")
    _require_finite_bound(A, tols, name="A")
    _require_traceless(A, tols, name="A")
    hollow = zero_diagonal_similarity(A, tols)
    split = split_hollow(hollow.target, partition.block_sizes, tols)
    cert = _assemble(MODE_FOUR_TERM, A, partition, hollow,
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
        clusters = cluster_eigenvalues(eigs, CLUSTER_TOL)
        return all(2 * mult <= n for _, mult in clusters)
    if goal == GOAL_DISTINCT_EIGS:
        eigs = np.linalg.eigvals(image)
        scale = max(float(np.abs(eigs).max(initial=0.0)), np.finfo(float).tiny)
        gap, _, _ = spectral_gap(eigs, np.arange(n))
        return gap > tols.gap_tol * scale
    if goal == GOAL_NONZERO_TRACE:
        return abs(np.trace(image)) > TRACE_TOL * fro(image)
    raise ValueError(f"unknown goal {goal!r}")


def image_search(f, n, goal, budget=DEFAULT_BUDGET, seed=0,
                 tols: Tolerances = DEFAULT_TOLS):
    """First seeded random tuple whose image satisfies the goal.

    Sample i draws from its own stream keyed by (seed, i), so the result is
    the lowest satisfying index regardless of how samples are scheduled.
    Each drawn entry is rounded to 15 significant digits before f sees it,
    so the image is f of exactly the tuple a certificate stores.
    Exhaustion reports the polynomial's classification as a diagnostic:
    identities and central polynomials can never meet these goals.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    m = max(f.num_vars, 1)
    for i in range(budget):
        rng = np.random.default_rng([seed, i])
        args = tuple(round_to_15_digits(random_tuple(rng, n, m)))
        image = evaluate(f, args)
        if _goal_satisfied(goal, image, tols):
            return image, args
    verdict = classify(f, n, seed=seed)
    raise BudgetExhaustedError(
        f"no image satisfying {goal!r} within {budget} samples "
        f"(classifier verdict: {verdict.describe()})",
        diagnostic=verdict,
    )


# The band of ||B||_F / ||A||_F that a witness B is aimed at for a target
# A. The transforms' condition grows like ||A||_F / (gap of B), so a larger
# target loses conditioning; a smaller one keeps only accuracy absolute at
# the scale of B. _spine rescales a graded f's target into the band
# (_scale_exponent) and scales an ungraded f's witness toward its lower
# edge (_scaled_toward).
_RATIO_BAND = (10.0, 1e4)
# A rescaled target's largest part, and each rescaled tuple part's, is kept
# this many binary orders inside the normal double range: room for the term
# transforms and for f's products.
_HEADROOM = 64


def _scaled_toward(f, image, args, A, goal, tols):
    """The searched image and tuple, scaled toward the target; for an
    ungraded f only (a graded one rescales the target, see _spine).

    A Gaussian tuple's image has a fixed scale, while the coupling split
    from A grows with ||A||, and with it the condition of the transforms
    (about ||A|| / gap of the witness); a witness far larger than A keeps
    only accuracy absolute at its own scale. When ||f(t)||_F / ||A||_F is
    outside _RATIO_BAND, this bisects on log2 sigma, of either sign, until
    ||f(sigma t)||_F is within a factor of 2 of the band's lower edge,
    10 ||A||_F, at one evaluation per step, and keeps sigma t only if its
    image is finite and still meets the goal. A target in the band, a zero
    one, or one whose 10 ||A||_F overflows keeps the image as it is.
    """
    norm_a = fro(A)
    want = _RATIO_BAND[0] * norm_a
    if (not norm_a or not want < np.inf
            or want <= fro(image) <= _RATIO_BAND[1] * norm_a):
        return image, args

    def scaled(log2_sigma):
        t = tuple(np.exp2(log2_sigma) * a for a in args)
        return evaluate(f, t), t

    # fro(f) at 2^lo falls short of want / 2; at 2^hi it does not
    lo, hi = (0.0, None) if fro(image) < want else (None, 0.0)
    # scaled down, f(sigma t) tends to f(0), so a constant term of that
    # size stays
    if lo is None and not fro(scaled(-np.inf)[0]) < want / 2:
        return image, args
    step = 1.0
    for _ in range(64):     # far more than a double's exponent range needs
        if lo is None or hi is None:
            mid = hi - step if lo is None else lo + step
        else:
            mid = (lo + hi) / 2
        candidate = scaled(mid)
        norm = fro(candidate[0])
        if want / 2 <= norm <= 2 * want:
            if _goal_satisfied(goal, candidate[0], tols):
                return candidate
            break
        if norm < want / 2:
            lo = mid
        else:                # too large, or not finite
            hi = mid
        step *= 2
    return image, args


def _scale_exponent(B, args, A, grading):
    """The k of _spine: the k nearest 0 that puts ||B||_F /
    ||2^(-k D) A||_F in _RATIO_BAND, so 0 when the ratio is already in it.
    Where one step of 2^D would cross the whole band, the lower edge wins.
    k is then clamped so that the largest part of 2^(-k D) A and of each
    tuple part 2^(k w_j) t_j stays _HEADROOM binary orders inside the
    normal range.
    """
    eA = _exponent(A)
    if eA is None:
        return 0
    w, D = grading
    # -inf only when fro(A) overflows; the clamp below then sets k alone
    ratio = np.log2(fro(B)) - np.log2(fro(A))
    lo, hi = np.log2(_RATIO_BAND)
    # the band is k_lo <= k <= k_hi
    k_lo = np.ceil((lo - ratio) / D)
    k_hi = np.floor((hi - ratio) / D)
    k = min(max(0, k_lo), max(k_lo, k_hi))
    emin = np.finfo(float).minexp + _HEADROOM
    emax = np.finfo(float).maxexp - _HEADROOM
    for e, weight in [(eA, -D), *zip(map(_exponent, args), w)]:
        # e + k weight must lie in [emin, emax]
        if weight and e is not None:
            ends = sorted(((emin - e) / weight, (emax - e) / weight))
            k = min(max(k, math.ceil(ends[0])), math.floor(ends[1]))
    return int(k)


# ---------------------------------------------------------------------------
# target-independent work, kept per f
# ---------------------------------------------------------------------------

# A route's witness depends on f, n, its goal, budget, seed and tolerances,
# never on the target, so _MEMO keeps it for the next target: the work of
# each polynomial's most recently used _PREPARED_KEYS keys. Its keys are
# weak and no entry refers to f, so an entry lives and dies with f.
_PREPARED_KEYS = 8
_MEMO = weakref.WeakKeyDictionary()


class _Prepared:
    """What a route derives from f at one (n, goal, budget, seed, tols)
    before it sees a target: f's grading, the classifier's verdict, the
    searched image with its tuple, and the image's factorization. Each part
    is made on first use and kept once it succeeds; a failure is raised
    again on the next use. The arrays are read-only, because certificates
    share them.
    """

    def __init__(self, n, goal, budget, seed, tols, grading):
        self.n, self.goal, self.budget, self.seed, self.tols = (
            n, goal, budget, seed, tols)
        self.grading = grading
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
            self._found = read_only(image), tuple(map(read_only, args))
        return self._found

    def factored(self, witness, factor):
        """factor(witness, tols), a SpectralPartition. It is kept when the
        witness is the searched image itself, which every target of a
        graded f uses; an ungraded f's witness scaled for one target
        (_scaled_toward) is factored afresh for it."""
        if witness is not self._found[0]:
            return factor(witness, self.tols)
        if self._factored is None:
            part = factor(witness, self.tols)
            cert = part.to_block_diag
            for a in (*part.blocks, cert.t, cert.t_inv, cert.source,
                      cert.target):
                read_only(a)
            self._factored = part
        return self._factored


def _prepared(f, n, goal, budget, seed, tols):
    """f's _Prepared entry for this key, made if missing and moved to the
    most recent end of f's memo."""
    key = (n, goal, budget, seed, tols)
    memo = _MEMO.setdefault(f, {})
    entry = memo.pop(key, None) or _Prepared(*key, f.grading())
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


def _spine(f, A, prep, factor, decompose, what, lead=None):
    """The certificate of A in tuples of f: every tuple route's path after
    its precondition checks.

    The witness is aimed at A: a graded f (weights w, degree D) keeps
    prep's image point, with its factorization, for every target and
    decomposes 2^(-k D) A, k from _scale_exponent; an ungraded f's image
    point is _scaled_toward A, with k = 0. decompose(factor(witness), A,
    tols) is the matrix-level certificate. The witness tuple conjugated by
    each term's transform, part j times 2^(k w_j), rounded to 15
    significant digits, is what f is evaluated on, once; the signed sum of
    those images must reproduce the target (gate name what).

    Five-term passes lead = (T, c0, prep0): A is then T's trace-zero
    remainder, and the certificate is of T, led by c0 f(t0) on prep0's
    image point, with prep0's seed and budget, which are the caller's.
    """
    tols = prep.tols
    image, args = prep.found(f)
    k, (w, D) = 0, prep.grading or (None, None)
    if prep.grading is None:
        witness, args = _scaled_toward(f, image, args, A, prep.goal, tols)
    else:
        witness, k = image, _scale_exponent(image, args, A, prep.grading)
    cert = decompose(prep.factored(witness, factor),
                     _times_pow2(A, -k * D) if k else A, tols)
    S, S_inv = (np.stack([getattr(tc, name) for tc in cert.term_certs])
                [:, None] for name in ("t", "t_inv"))
    tuples = S @ np.stack(args) @ S_inv
    if k:
        tuples = _times_pow2(tuples, k * np.array(w)[:, None, None])
    tuples = round_to_15_digits(tuples)
    terms = list(evaluate(f, list(tuples.swapaxes(0, 1))))
    tuples = [tuple(mats) for mats in tuples]
    target, owner = A, prep
    if lead is not None:
        target, c0, owner = lead
        image0, args0 = owner.found(f)
        cert.mode = MODE_FIVE_TERM
        cert.coefficients = [complex(c0), *cert.coefficients]
        terms, tuples = [image0, *terms], [args0, *tuples]
    cert.residual, cert.residual_bound = _residual_gate(
        target, cert.coefficients, terms, tols, what)
    cert.witness, cert.target, cert.terms, cert.tuples = (
        witness, target, terms, tuples)
    cert.polynomial = f.text
    cert.seed, cert.budget = owner.seed, owner.budget
    cert.k, cert.weights, cert.degree = k, w, D
    return cert


def waring_express(f, A, budget=DEFAULT_BUDGET, seed=0,
                   tols: Tolerances = DEFAULT_TOLS):
    """Express trace-zero A as f(t1) - f(t2) + f(t3) - f(t4).

    Finds an image point B with all eigenvalue multiplicities <= n/2, runs
    the four-term decomposition, and emits the conjugated argument tuples so
    a verifier can recompute f from scratch on each one.
    """
    A = as_cmatrix(A)
    _require_finite_bound(A, tols)
    _require_traceless(A, tols)
    prep = _prepared(f, A.shape[0], GOAL_MULTIPLICITY_HALF, budget, seed,
                     tols)
    _require_not_central(f, prep)
    return _spine(f, A, prep, partition_spectrum, four_term_decompose,
                  "re-evaluated four-term")


def two_term_applies(f, n):
    """The two-term route needs n prime or f multilinear."""
    is_prime = n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    return is_prime or f.is_multilinear()


def _diagonalized(D0, tols):
    """The n 1x1 eigenvalue blocks of D0, with the certificate of its
    eigendecomposition. eig runs on 2^-e D0, e the exponent of D0's
    largest part, so V does not depend on a power-of-two scale of D0, and
    the eigenvalues are scaled back by 2^e."""
    e = _exponent(D0) or 0
    w, V = np.linalg.eig(_times_pow2(D0, -e))
    w = _times_pow2(w, e)
    return SpectralPartition(
        case_tag="distinct",
        block_sizes=(1,) * len(w),
        blocks=[np.array([[wi]]) for wi in w],
        to_block_diag=certify_similarity(V[None], np.linalg.inv(V)[None],
                                         np.diag(w), D0[None], tols,
                                         ["diagonalize-witness"])[0],
    )


def _two_term_assemble(eig_blocks, A, tols):
    """two_term_decompose's matrix-level step, A = B1 - B2 on the witness's
    eigenvalue blocks; the residual is left to the caller's gate."""
    hollow = zero_diagonal_similarity(A, tols)
    return _assemble(MODE_TWO_TERM, A, eig_blocks, hollow,
                     [(hollow.target, None)], tols)


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
    _require_finite_bound(A, tols)
    if not two_term_applies(f, n):
        raise PreconditionUnmetError(
            f"n={n} is composite and the polynomial is not multilinear; "
            "use the four-term decomposition instead"
        )
    _require_traceless(A, tols)
    prep = _prepared(f, n, GOAL_DISTINCT_EIGS, budget, seed, tols)
    _require_not_central(f, prep, forbid_two_central=True)
    return _spine(f, A, prep, _diagonalized, _two_term_assemble, "two-term")


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
    _require_finite_bound(T, tols)
    prep = _prepared(f, n, GOAL_NONZERO_TRACE, budget, seed, tols)
    _require_not_central(f, prep)

    A0, _ = prep.found(f)
    if abs(np.trace(T)) <= tols.hollow_tol * fro(T):
        c0 = 0j
        remainder = T
    else:
        c0 = np.trace(T) / np.trace(A0)
        remainder = T - c0 * A0
    remainder = project_traceless(remainder)

    # the four-term path on the remainder, with f already classified
    four = _prepared(f, n, GOAL_MULTIPLICITY_HALF, budget, seed + 1, tols)
    return _spine(f, remainder, four, partition_spectrum, four_term_decompose,
                  "five-term", lead=(T, c0, prep))
