"""Independent certificate verification.

Works purely from the serialized document: compiles the embedded polynomial
text into its program, without multiplying it out, runs it on every stored
argument tuple and recomputes the signed sum against the target. That
reconstruction gate is what a pass proves. The similarity steps, which only
matrix-level certificates carry, are checked too: every residual is
recomputed from the stored transform and its stored inverse. None of the
construction pipeline is imported, so a passing verdict does not trust it.

The verifier sets its own bounds: the reconstruction residual must be at
most `DEFAULT_TOLS.end_tol * max(1, ||target||_F)` and the step gates use
`DEFAULT_TOLS.cert_tol`. A bound stored in the document may only tighten
them, and a gate whose bound is NaN or infinite fails, so no document can
loosen the check it is put to.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS
from .errors import ParseError
from .freealg import evaluate, parse
from .serialize import (
    FORMAT_NAME,
    complex_from_json,
    matrix_from_json,
)

_SIGNS = {
    "four-term": [1.0, -1.0, 1.0, -1.0],
    "two-term": [1.0, -1.0],
}


def _fro(M):
    # a norm past the double range is inf, which every gate refuses
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(M))


@dataclass
class Verdict:
    """What `check_certificate` found: the failures (none means the
    certificate verifies) and, as far as the check got, the matrix size,
    the reconstruction residual, the bound it was held to and the number of
    similarity steps checked."""
    failures: list = field(default_factory=list)
    n: int | None = None
    residual: float | None = None
    bound: float | None = None
    steps: int = 0


def _tightened(stored, own):
    """The verifier's own bound `own`, or the stored bound where that is
    tighter. A NaN stored bound is kept, so that its gate fails."""
    return own if stored > own else stored


def _list_of(value, kind):
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _number(doc, name):
    """doc[name] as a float, or None when it is missing or not a number."""
    value = doc.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _matrices(docs, n):
    """The n x n matrices of a list of matrix documents, or None when docs
    is not a list or one of them is not such a matrix."""
    if not isinstance(docs, list):
        return None
    mats = []
    for d in docs:
        try:
            mats.append(matrix_from_json(d))
        except (KeyError, TypeError, ValueError):
            return None
        if mats[-1].shape != (n, n):
            return None
    return mats


def verify_certificate(doc):
    """Check a certificate document against the verifier's own bounds.

    Returns a list of failure descriptions; an empty list means the
    certificate verifies. Every gate is written `not value <= bound < inf`,
    so a NaN residual, a NaN bound or an infinite bound (a target whose norm
    overflows) fails instead of passing.
    """
    return check_certificate(doc).failures


def check_certificate(doc):
    """`verify_certificate` with what it checked, as a Verdict."""
    verdict = Verdict()
    verdict.failures = _check(doc, verdict)
    return verdict


def _check(doc, verdict):
    failures = []
    if not isinstance(doc, dict):
        return [f"not a certificate document (a JSON {type(doc).__name__})"]
    if doc.get("format") != FORMAT_NAME:
        return [f"not a certificate document (format={doc.get('format')!r})"]
    mode = doc.get("mode")
    try:
        coeffs = [complex_from_json(c) for c in doc.get("coefficients")]
    except (TypeError, ValueError, IndexError, KeyError):
        return ["malformed field 'coefficients': not a list of [re, im] pairs"]

    # sign discipline: only +-1 coefficients are admissible, plus one free
    # trace coefficient in five-term mode
    if mode in _SIGNS:
        if coeffs != _SIGNS[mode]:
            failures.append(
                f"coefficient discipline: {mode} requires {_SIGNS[mode]}, "
                f"certificate carries {coeffs}"
            )
    elif mode == "five-term":
        if len(coeffs) != 5 or coeffs[1:] != [1.0, -1.0, 1.0, -1.0]:
            failures.append(
                "coefficient discipline: five-term requires (c0, 1, -1, 1, -1), "
                f"certificate carries {coeffs}"
            )
    else:
        return [f"unknown mode {mode!r}"]

    cert_tol = _number(doc, "cert_tol")
    if cert_tol is None:
        return failures + ["malformed field 'cert_tol': not a number"]
    if np.isnan(cert_tol):
        # a failure even when no step gate would use it
        failures.append("malformed field 'cert_tol': NaN")
    cert_tol = _tightened(cert_tol, DEFAULT_TOLS.cert_tol)
    try:
        target = matrix_from_json(doc["target"])
    except (KeyError, TypeError, ValueError):
        return failures + ["malformed field 'target': not a matrix document"]
    n = verdict.n = target.shape[0]
    if "n" in doc:
        stored = doc["n"]
        if isinstance(stored, bool) or not isinstance(stored, int):
            return failures + ["malformed field 'n': not an integer"]
        if stored != n:
            return failures + [f"malformed field 'n': {stored}, but the "
                               f"target is {n}x{n}"]
    steps = doc.get("similarity_steps", [])
    if not _list_of(steps, dict):
        return failures + ["malformed field 'similarity_steps': not a list "
                           "of objects"]
    for idx, step in enumerate(steps):
        label = step.get("label") or f"step {idx}"
        mats = _matrices([step.get(k) for k in ("t", "t_inv", "source",
                                                "target")], n)
        if mats is None:
            return failures + [
                f"malformed field 'similarity_steps': step {label!r} needs "
                f"{n}x{n} matrices t, t_inv, source and target"]
        T, T_inv, source, step_target = mats
        r_inv = _fro(T @ T_inv - np.eye(n))
        if not r_inv <= cert_tol:
            failures.append(
                f"similarity step {label!r}: inverse residual {r_inv:.3e} "
                f"exceeds {cert_tol:.1e}"
            )
        cond = _fro(T) * _fro(T_inv)
        r_map = _fro(T @ source @ T_inv - step_target)
        bound = cert_tol * cond * _fro(source)
        if not r_map <= bound < np.inf:
            failures.append(
                f"similarity step {label!r}: map residual {r_map:.3e} "
                f"exceeds {bound:.3e}"
            )
    verdict.steps = len(steps)

    if doc.get("tuples") is not None:
        if doc.get("polynomial") is None:
            return failures + ["certificate has tuples but no polynomial text"]
        if not isinstance(doc["polynomial"], str):
            return failures + ["malformed field 'polynomial': not a string"]
        if not _list_of(doc["tuples"], list):
            return failures + ["malformed field 'tuples': not a list of "
                               "lists of matrices"]
        try:
            f = parse(doc["polynomial"])
        except ParseError as exc:
            return failures + [f"malformed field 'polynomial': {exc}"]
        need = max(f.num_vars, 1)  # a constant still needs one matrix
        tuples = []
        for k, tp in enumerate(doc["tuples"]):
            # checked before stacking, which would cut every tuple to the
            # shortest; extra matrices are ignored, as evaluate ignores them
            if len(tp) < need:
                return failures + [f"tuple {k} has {len(tp)} matrices; "
                                   f"polynomial needs {need}"]
            mats = _matrices(tp, n)
            if mats is None:
                return failures + [f"malformed field 'tuples': tuple {k} "
                                   f"needs {n}x{n} matrices"]
            tuples.append(mats[:need])
        images = []
        if tuples:
            images = list(evaluate(f, [np.stack(m) for m in zip(*tuples)]))
    else:
        images = _matrices(doc.get("terms"), n)
        if images is None:
            return failures + [f"malformed field 'terms': not a list of "
                               f"{n}x{n} matrices"]

    if len(images) != len(coeffs):
        failures.append(
            f"{len(coeffs)} coefficients but {len(images)} terms/tuples"
        )
        return failures
    recon = sum(c * im for c, im in zip(coeffs, images))
    residual = verdict.residual = _fro(target - recon)
    bound = _number(doc, "residual_bound")
    if bound is None:
        return failures + ["malformed field 'residual_bound': not a number"]
    bound = verdict.bound = _tightened(
        bound, DEFAULT_TOLS.end_tol * max(1.0, _fro(target)))
    if not residual <= bound < np.inf:
        failures.append(
            f"reconstruction residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return failures
