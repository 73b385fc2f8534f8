"""Tolerance settings shared across the package.

All tolerances are relative unless stated otherwise; the quantity they are
measured against is documented on the operation that uses them.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # minimum admissible eigenvalue gap, relative to the spectral scale
    gap_tol: float = 1e-8
    # Sylvester solve relative residual
    solve_tol: float = 1e-10
    # similarity certificates: inverse residual, and map residual relative
    # to condition estimate * ||source||_F
    cert_tol: float = 1e-9
    # zero-diagonal forms: |M_ii| <= hollow_tol * ||M||_F, and the trace-zero gate
    hollow_tol: float = 1e-8
    # hollow-split reconstruction residual, relative to max(1, ||M||_F)
    split_tol: float = 1e-9
    # end-to-end decomposition residual, relative to max(1, ||target||_F)
    end_tol: float = 1e-6


DEFAULT_TOLS = Tolerances()

# eigenvalue clustering, relative to max |eigenvalue|
CLUSTER_TOL = 1e-7
# nonzero-trace witness gate, relative to max(1, ||image||_F)
TRACE_TOL = 1e-8

# polynomial classification defaults
CLASSIFY_TOL = 1e-8
CLASSIFY_SAMPLES = 32
CLASSIFY_KMAX = 4

DEFAULT_BUDGET = 1000
