"""A fixed reference kernel that the timed run's windows are measured against.

On a shared VM the host slows every instruction of the benchmark process by
up to 1.75x, in spells from a fraction of a second to minutes, and whole
runs of 40 s can be 35% slower than the run before. No statistic of the
windows alone removes a slowdown that lasts the whole run. The timed run
therefore also times this kernel between attempts, for about SHARE of the
run's time, and reports each window's mean time divided by the kernel's mean
time: both means grow with the share of the run the host was slow, so the
ratio keeps the library's cost and drops most of the host's.

The kernel does the kinds of work the library does, on fixed inputs and none
of it through matwaring, so no change to the library can move it: small
LAPACK calls, JSON encoding and parsing of floats and Python object churn,
which dominate the five-term route, serialization and verification, and, for
about 30% of its time, a dense complex least-squares solve, the kind of
LAPACK work that dominates the four-term route. The host slows dense LAPACK
by less than the rest, so a kernel without it would over-correct the
four-term `cert` window, and one made mostly of it would under-correct the
`verify` windows, which are mostly JSON parsing.
"""

import json
import statistics
import time

import numpy as np

SHARE = 0.05

_rng = np.random.default_rng(20210319)
_MATRIX = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_ROWS = [[float(x) for x in row] for row in _rng.standard_normal((40, 40))]
_COLS = _rng.standard_normal((160, 112)) + 1j * _rng.standard_normal((160, 112))
_RHS = _rng.standard_normal(160) + 0j


def kernel():
    """One unit of reference work, about 9 ms on a 2.1 GHz Xeon vCPU."""
    np.linalg.lstsq(_COLS, _RHS, rcond=None)
    for _ in range(2):
        np.linalg.eig(_MATRIX)
        np.linalg.qr(_MATRIX)
        np.linalg.solve(_MATRIX, _MATRIX)
        json.loads(json.dumps(_ROWS))
        {i: str(i) for i in range(3000)}


class Sampler:
    """Times the kernel between attempts, spread over the whole run."""

    def __init__(self):
        self.times = []
        self.start = time.perf_counter()

    def keep_up(self):
        """Time the kernel until it has used SHARE of the time since start."""
        while sum(self.times) < SHARE * (time.perf_counter() - self.start):
            t0 = time.perf_counter()
            kernel()
            self.times.append(time.perf_counter() - t0)

    def mean(self):
        return statistics.fmean(self.times)
