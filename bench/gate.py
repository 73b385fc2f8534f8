"""The benchmark's own correctness gate.

A certificate passes only if all of these hold:

- the canonical text parses back as JSON;
- `matwaring.verify.verify_certificate` returns no failures;
- the benchmark re-evaluates f itself, with the workload's closed-form
  evaluation, on the stored tuples, and the signed sum lies within
  GATE_END_TOL * max(1, ||A||_F) of the target A that the benchmark
  generated;
- the mode and the coefficients are the ones the route must produce.

Nothing stored in the document is trusted. The gate ignores its target,
`n`, polynomial text, residual, `residual_bound` and tolerances. The
verifier accepts tampered documents whose stored bound was raised, so a
faster but wrong certificate would pass it alone; it cannot pass this gate.
"""

import math

import numpy as np

# The library's default end_tol when the benchmark was written. It is fixed
# here so that loosening the library default cannot loosen the gate.
GATE_END_TOL = 1e-6

_SIGNS = {
    "four-term": [1.0, -1.0, 1.0, -1.0],
    "two-term": [1.0, -1.0],
}


class GateError(Exception):
    """A certificate failed the benchmark's own check."""


def _matrix(doc, n):
    entries = doc["entries"]
    if len(entries) != n * n:
        raise GateError(f"stored matrix has {len(entries)} entries, "
                        f"target needs {n * n}")
    arr = np.asarray(entries, dtype=float)
    if arr.shape != (n * n, 2) or not np.all(np.isfinite(arr)):
        raise GateError("stored matrix entries are not finite [re, im] pairs")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(n, n)


def _check_coefficients(mode, coeffs):
    if mode in _SIGNS:
        if coeffs != _SIGNS[mode]:
            raise GateError(f"{mode} coefficients must be {_SIGNS[mode]}, "
                            f"got {coeffs}")
    elif mode == "five-term":
        if len(coeffs) != 5 or coeffs[1:] != [1.0, -1.0, 1.0, -1.0]:
            raise GateError(f"five-term coefficients must be "
                            f"(c0, 1, -1, 1, -1), got {coeffs}")
        if not (math.isfinite(coeffs[0].real) and math.isfinite(coeffs[0].imag)):
            raise GateError(f"five-term c0 is not finite: {coeffs[0]}")
    else:
        raise GateError(f"no sign rule for mode {mode!r}")


def check(workload, target, doc, verifier_failures):
    """Return the relative residual ||A - sum c_i f(t_i)||_F / max(1, ||A||_F)
    recomputed from the stored tuples; raise GateError on any failure.

    `doc` is the certificate parsed back from its canonical text and
    `verifier_failures` what verify_certificate returned for it.
    """
    if verifier_failures:
        raise GateError(f"verifier: {verifier_failures[0]}")
    if doc.get("mode") != workload.mode:
        raise GateError(f"mode {doc.get('mode')!r}, route must give "
                        f"{workload.mode!r}")
    try:
        coeffs = [complex(float(re), float(im)) for re, im in doc["coefficients"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GateError(f"unreadable coefficients: {exc}") from exc
    _check_coefficients(workload.mode, coeffs)

    tuples = doc.get("tuples")
    if not isinstance(tuples, list) or len(tuples) != len(coeffs):
        raise GateError(f"need {len(coeffs)} stored tuples, got "
                        f"{None if tuples is None else len(tuples)}")
    n = target.shape[0]
    recon = np.zeros((n, n), dtype=complex)
    for c, tp in zip(coeffs, tuples):
        if len(tp) < workload.num_vars:
            raise GateError(f"tuple has {len(tp)} matrices, f needs "
                            f"{workload.num_vars}")
        args = [_matrix(m, n) for m in tp[: workload.num_vars]]
        recon += c * workload.own_f(*args)
    scale = max(1.0, float(np.linalg.norm(target)))
    rel = float(np.linalg.norm(target - recon)) / scale
    if not rel <= GATE_END_TOL:
        raise GateError(f"recomputed residual {rel:.3e} x max(1, ||A||) "
                        f"exceeds {GATE_END_TOL:.0e}")
    return rel
