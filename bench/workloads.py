"""Benchmark workloads: which route, which polynomial, which targets.

Targets depend only on the benchmark seed and the target index; the library
sees nothing but the generated matrices (its own `seed` argument stays at
the CLI default 0, as in `matwaring decompose`). Each workload also carries
its own closed-form evaluation of f, written with plain matrix products, so
the correctness gate does not go through the library's parser or evaluator.
"""

from dataclasses import dataclass, replace

import numpy as np

LIBRARY_SEED = 0


def _commutator(x1, x2):
    return x1 @ x2 - x2 @ x1


def _quartic_of_sum(x1, x2, x3):
    p = x1 + x2 @ x3 + x3 @ x1
    p2 = p @ p
    return p2 @ p2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    route: str              # function of matwaring.waring that is called
    mode: str               # certificate mode the route must produce
    poly: str               # polynomial text handed to matwaring.freealg.parse
    own_f: object           # independent evaluation of poly on a tuple
    num_vars: int
    sizes: tuple            # matrix sizes, cycled over the target index
    count: int              # distinct targets attempted per run
    traceless: bool
    log10_scale: tuple | None = None   # (lo, hi): even grid of log10(scale)
    tiny_sizes: tuple = ()
    tiny_count: int = 2

    def tiny(self):
        """The same workload at sizes small enough for a unit test."""
        return replace(self, sizes=self.tiny_sizes, count=self.tiny_count)


# Why each workload exists, and which layers it does and does not reach,
# is spelled out in bench/README.md; `why` is the one-line form that also
# appears in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="four_term_n32_33",
            why="four-term waring_express for [X1,X2] on dense trace-zero "
                "targets, n alternating 32/33: the dense hollow split "
                "dominates; odd n takes the (p,q,r) pattern and 3x3 corner",
            route="waring_express",
            mode="four-term",
            poly="[X1,X2]",
            own_f=_commutator,
            num_vars=2,
            sizes=(32, 33),
            count=6,
            traceless=True,
            tiny_sizes=(4, 5),
            tiny_count=2,
        ),
        Workload(
            name="two_term_n64",
            why="two-term route for multilinear [X1,X2] at n=64: no split or "
                "partition; zero-diagonal deflation, 63-level Sylvester "
                "recursion and 4.7 MB certificates",
            route="two_term_decompose",
            mode="two-term",
            poly="[X1,X2]",
            own_f=_commutator,
            num_vars=2,
            sizes=(64,),
            count=4,
            traceless=True,
            tiny_sizes=(6,),
            tiny_count=2,
        ),
        Workload(
            name="five_term_deg8_n12",
            why="five-term route for (X1+X2*X3+X3*X1)^4 (81 words) at n=12 "
                "on general targets scaled 1e-8..1e8: classify and evaluate "
                "dominate; large scales fail today",
            route="five_term_express",
            mode="five-term",
            poly="(X1+X2*X3+X3*X1)^4",
            own_f=_quartic_of_sum,
            num_vars=3,
            sizes=(12,),
            count=32,
            traceless=False,
            log10_scale=(-8.0, 8.0),
            tiny_sizes=(3,),
            tiny_count=4,
        ),
    )
}


def _gaussian(rng, n, traceless):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if traceless:
        A -= (np.trace(A) / n) * np.eye(n)
    return A


def targets(w: Workload, seed: int):
    """The run's fixed target list: w.count matrices from (seed, index).

    Scaled workloads put log10(scale) on an even grid over the range, one
    point per target, shuffled by the seed: every seed covers the whole
    range with the same scales, so the share of large-scale targets, which
    decides how many fail today, does not move between seeds.
    """
    exponents = None
    if w.log10_scale is not None:
        lo, hi = w.log10_scale
        grid = lo + (hi - lo) * (np.arange(w.count) + 0.5) / w.count
        exponents = np.random.default_rng([seed, 1]).permutation(grid)
    out = []
    for i in range(w.count):
        n = w.sizes[i % len(w.sizes)]
        A = _gaussian(np.random.default_rng([seed, 0, i]), n, w.traceless)
        if exponents is not None:
            A *= 10.0 ** exponents[i]
        out.append(A)
    return out


def warmup_targets(w: Workload, seed: int):
    """One unit-scale target per size, outside the timed list. They run
    first in every process, so lazy set-up is not timed, and the cold
    start-up measurement uses the first of them."""
    return [
        _gaussian(np.random.default_rng([seed, 2, k]), n, w.traceless)
        for k, n in enumerate(w.sizes)
    ]


def lookup(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return w.tiny() if tiny else w
