"""Independent certificate verification.

Works purely from the serialized document: re-parses the embedded polynomial,
re-evaluates it on every stored argument tuple, recomputes the signed sum and
every similarity residual from the stored transforms. None of the
construction pipeline is imported, so a passing verdict does not trust it.
"""

import numpy as np

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
    return float(np.linalg.norm(M))


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
    """Check every bound stored in a certificate document.

    Returns a list of failure descriptions; an empty list means the
    certificate verifies. Every gate is written `not value <= bound`, so a
    NaN residual or a NaN bound fails instead of passing.
    """
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
    try:
        target = matrix_from_json(doc["target"])
    except (KeyError, TypeError, ValueError):
        return failures + ["malformed field 'target': not a matrix document"]
    n = target.shape[0]
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
        if not r_map <= bound:
            failures.append(
                f"similarity step {label!r}: map residual {r_map:.3e} "
                f"exceeds {bound:.3e}"
            )

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
    residual = _fro(target - recon)
    bound = _number(doc, "residual_bound")
    if bound is None:
        return failures + ["malformed field 'residual_bound': not a number"]
    if not residual <= bound:
        failures.append(
            f"reconstruction residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return failures
