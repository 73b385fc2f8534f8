"""Explicit unitary machinery for splitting hollow matrices.

Builds the decoupling unitary U of a block pattern from 2x2 rotations and
the 3x3 corner unitary, and the splitting M = C1 + U C2 U* of any hollow
matrix into two members of the hollow-block subspace V(pattern): the
matrices vanishing on the pattern's diagonal blocks.

A pattern is either (h, h) with h = n/2 (two equal blocks, n even) or
(p, q, r) with p + q + r = n and p, q, r < n/2.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import ResidualTooLargeError
from .freealg import fro
from .linalg import as_cmatrix, block_labels, read_only


@dataclass(frozen=True)
class ParameterAssignment:
    """Rotation parameters: qs and ts jointly distinct, the reflections 1-t
    jointly distinct from ss; with the odd corner all values (and 1-t) avoid
    1/2 and 1/3."""

    qs: tuple
    ts: tuple
    ss: tuple


@dataclass
class HollowSplit:
    """M = c1 + U c2 U* with c1, c2 vanishing on the pattern's diagonal
    blocks. u is shared by every split at (n, pattern), so it is read-only."""

    u: np.ndarray
    pattern: tuple
    c1: np.ndarray
    c2: np.ndarray
    residual: float


def conjugating_rotation(q):
    """Real orthogonal G with G P2 G* = R_q, where P2 = diag(1, 0) and R_q is
    the rank-one projector [[q, r], [r, 1-q]], r = sqrt(q(1-q)).

    The complement transforms as G (I - P2) G* = I - R_q, which equals the
    minus-signed projector at parameter 1 - q."""
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    a, b = np.sqrt(q), np.sqrt(1 - q)
    return np.array([[a, -b], [b, a]], dtype=complex)


def corner_unitary():
    """The 3x3 unitary taking diag(1,0,0) and diag(0,1,0) to the explicit
    rank-one projections K0 and L0 used in the odd-size construction."""
    u1 = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
    u2 = np.array([1, -1, 1], dtype=complex) / np.sqrt(3)
    u3 = np.array([1, -1, -2], dtype=complex) / np.sqrt(6)
    return np.column_stack([u1, u2, u3])


_EXCLUDED = (0.5, 1 / 3, 2 / 3)


def assign_parameters(r1, r2, r3, odd_corner=False):
    """Deterministic rotation parameters satisfying all distinctness rules.

    Takes the grid i/d, drops 1/2, 1/3 and 2/3 (which also keeps every
    reflection 1-t away from 1/2 and 1/3), assigns qs then ts, then fills ss
    skipping any value colliding with a reflection. The grid grows until all
    three lists are filled; the invariants are re-verified before returning.
    """
    if min(r1, r2, r3) < 0:
        raise ValueError("counts must be nonnegative")
    need = r1 + r2 + r3
    d = need + 2
    while True:
        pool = [i / d for i in range(1, d)]
        pool = [x for x in pool if all(abs(x - e) > 1e-12 for e in _EXCLUDED)]
        qs = pool[:r1]
        ts = pool[r1 : r1 + r2]
        ss = []
        reflections = {round(1 - t, 15) for t in ts}
        for x in pool[r1 + r2 :]:
            if len(ss) == r3:
                break
            if round(x, 15) not in reflections:
                ss.append(x)
        if len(qs) == r1 and len(ts) == r2 and len(ss) == r3:
            break
        d += 1
    assignment = ParameterAssignment(tuple(qs), tuple(ts), tuple(ss))
    _verify_assignment(assignment, odd_corner)
    return assignment


def _verify_assignment(a, odd_corner):
    joint = list(a.qs) + list(a.ts)
    if len(set(joint)) != len(joint):
        raise AssertionError(f"qs and ts collide: {a}")
    refl = [1 - t for t in a.ts] + list(a.ss)
    if len({round(x, 15) for x in refl}) != len(refl):
        raise AssertionError(f"reflections of ts collide with ss: {a}")
    if odd_corner:
        for x in joint + list(a.ss) + [1 - t for t in a.ts]:
            if any(abs(x - e) <= 1e-12 for e in (0.5, 1 / 3)):
                raise AssertionError(f"odd-corner exclusion violated: {a}")
    for x in joint + list(a.ss):
        if not 0 < x < 1:
            raise AssertionError(f"parameter out of (0,1): {a}")


def _validate_pattern(n, pattern):
    pattern = tuple(int(s) for s in pattern)
    if any(s < 1 for s in pattern) or sum(pattern) != n:
        raise ValueError(f"pattern {pattern} must have positive sizes summing to {n}")
    if len(pattern) == 2:
        if n % 2 or pattern != (n // 2, n // 2):
            raise ValueError(f"two-block pattern must be (n/2, n/2), got {pattern}")
    elif len(pattern) == 3:
        if any(2 * s >= n for s in pattern):
            raise ValueError(f"three-block pattern {pattern} needs p, q, r < n/2")
    else:
        raise ValueError(f"pattern must have 2 or 3 blocks, got {pattern}")
    return pattern


def _cells_for_pattern(n, pattern):
    """Cell plan in the permuted frame.

    Each cell is (kind, types) where types gives, per position, which index
    class of the original frame it consumes: 'a' (first block), 'b' (second),
    'c' (last). Kinds 'q'/'t'/'s' take a 2x2 rotation; 'corner' takes the
    3x3 corner unitary.
    """
    if len(pattern) == 2:
        h = pattern[0]
        cells = [("q", ("a", "c"))] * h
        return cells, (h, 0, 0), False
    p, q, _ = pattern
    if n % 2 == 0:
        r1 = n // 2 - q
        r2 = p + q - n // 2
        r3 = n // 2 - p
        corner = False
        cells = []
    else:
        r1 = (n - 1) // 2 - q
        r2 = p + q - (n + 1) // 2
        r3 = (n - 1) // 2 - p
        corner = True
        cells = [("corner", ("a", "b", "c"))]
    cells += [("q", ("a", "c"))] * r1
    cells += [("t", ("a", "b"))] * r2
    cells += [("s", ("b", "c"))] * r3
    return cells, (r1, r2, r3), corner


def build_decoupling_unitary(n, pattern):
    """Unitary U such that anything commuting with the pattern projectors and
    their U-conjugates is diagonal (the tests check it with matwaring.theory),
    and the original indices of each 2x2 (or corner 3x3) cell of U, which is
    zero between cells. Deterministic in (n, pattern)."""
    pattern = _validate_pattern(n, pattern)
    cell_plan, (r1, r2, r3), corner = _cells_for_pattern(n, pattern)
    params = assign_parameters(r1, r2, r3, odd_corner=corner)

    # the original indices of each block, by index class
    edges = np.cumsum((0,) + pattern)
    type_pools = {t: list(range(a, b)) for t, a, b in
                  zip("abc" if len(pattern) == 3 else "ac", edges, edges[1:])}

    U = np.zeros((n, n), dtype=complex)
    cells = []
    counters = dict.fromkeys("qts", 0)
    for kind, types in cell_plan:
        idx = tuple(type_pools[t].pop(0) for t in types)
        cells.append(idx)
        if kind == "corner":
            U[np.ix_(idx, idx)] = corner_unitary()
        else:
            values = {"q": params.qs, "t": params.ts, "s": params.ss}[kind]
            U[np.ix_(idx, idx)] = conjugating_rotation(values[counters[kind]])
            counters[kind] += 1
    if any(type_pools.values()):
        raise AssertionError("cell plan did not consume every index")

    unitarity = fro(U.conj().T @ U - np.eye(n))
    if unitarity > 1e-12:
        raise AssertionError(f"constructed U is not unitary ({unitarity:.3e})")
    return U, tuple(cells)


# Split plans kept, the least recently used dropped first. A witness fixes
# its pattern, so this is as many as the witness memo keeps per polynomial
# (waring._PREPARED_KEYS).
_SPLIT_PLAN_KEYS = 8


@dataclass(frozen=True)
class _CellPairs:
    """One batch of cell pairs (rows of I, rows of J) of a split plan.

    rows and cols index the pairs' positions of M, free marks those outside
    the pattern's diagonal blocks, and pinv is the minimum-norm solver of
    M[I, J] = C1[I, J] + R_I C2[I, J] R_J* for each pair: the pseudo-inverse
    of [diag(free) | kron(R_I, conj(R_J)) diag(free)] (row-major; positions
    inside a diagonal block are not unknowns, so their columns are zero).
    """

    rows: np.ndarray
    cols: np.ndarray
    free: np.ndarray
    pinv: np.ndarray

    @classmethod
    def build(cls, U, labels, I, J):
        rows, cols = I[:, None, :, None], J[None, :, None, :]
        free = labels[rows] != labels[cols]
        kI, kJ, dI, dJ = free.shape
        RI = U[I[:, :, None], I[:, None, :]]
        RJ = U[J[:, :, None], J[:, None, :]]
        kron = np.einsum("pac,qbd->pqabcd", RI,
                         RJ.conj()).reshape(kI, kJ, dI * dJ, -1)
        mask = free.reshape(kI, kJ, 1, dI * dJ)
        system = np.concatenate([np.eye(dI * dJ) * mask, kron * mask], axis=-1)
        return cls(*map(read_only, (rows, cols, free, np.linalg.pinv(system))))


@functools.lru_cache(maxsize=_SPLIT_PLAN_KEYS)
def _split_plan(n, pattern):
    """(U, batches) for split_hollow at a validated (n, pattern): the
    decoupling unitary and, for each pair of cell groups (2x2 cells, 3x3
    corner), its _CellPairs. None of it depends on the matrix being split,
    so it is built once per key and read-only, because every split shares
    it."""
    U, cells = build_decoupling_unitary(n, pattern)
    labels = block_labels(pattern)
    groups = [np.array([c for c in cells if len(c) == d])
              for d in (2, 3)]
    groups = [g for g in groups if len(g)]
    return read_only(U), tuple(_CellPairs.build(U, labels, I, J)
                                for I in groups for J in groups)


def split_hollow(M, pattern, tols: Tolerances = DEFAULT_TOLS):
    """Write a hollow M as C1 + U C2 U* with C1, C2 in V(pattern).

    U is zero between its cells, so the system splits into one
    minimum-norm solve of at most 9 equations and 18 unknowns per pair of
    cells; the minimum-norm solution of the direct sum is the direct sum of
    these. U and the pseudo-inverses of the cell systems are fixed by
    (n, pattern) and come from _split_plan, so each call only applies them
    to M's entries, batched by cell sizes. A solution exists for every valid
    pattern when M's diagonal is zero, as in the form zero_diagonal_similarity
    returns. The split cannot absorb a diagonal, so any nonzero diagonal
    entry raises ValueError. A failure reports n, ||M||_F and the spread of
    M's entries. The returned u is the plan's read-only U.
    """
    M = as_cmatrix(M)
    n = M.shape[0]
    pattern = _validate_pattern(n, pattern)
    if np.diag(M).any():
        raise ValueError("input is not hollow (max diagonal "
                         f"{np.abs(np.diag(M)).max():.3e})")

    U, batches = _split_plan(n, pattern)
    C1 = np.zeros((n, n), dtype=complex)
    C2 = np.zeros((n, n), dtype=complex)
    # an overflowing solve makes a NaN residual, which the gate reports
    with np.errstate(over="ignore", invalid="ignore"):
        for b in batches:
            kI, kJ, dI, dJ = b.free.shape
            x = b.pinv @ M[b.rows, b.cols].reshape(kI, kJ, -1, 1)
            c1, c2 = np.moveaxis(x.reshape(kI, kJ, 2, dI, dJ), 2, 0)
            C1[b.rows, b.cols] = np.where(b.free, c1, 0)
            C2[b.rows, b.cols] = np.where(b.free, c2, 0)
        residual = fro(M - C1 - U @ C2 @ U.conj().T)
    if not residual <= tols.split_tol * fro(M) < np.inf:
        mags = np.abs(M[M != 0])
        raise ResidualTooLargeError(
            f"hollow split of the zero-diagonal form M (n = {n}) over "
            f"{pattern} failed (||M||_F {fro(M):.3e}, max/min nonzero |M_ij| "
            f"{mags.max() / mags.min():.3e})",
            residual,
        )
    return HollowSplit(U, pattern, C1, C2, residual)
