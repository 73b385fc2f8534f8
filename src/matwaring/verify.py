"""Independent certificate verification.

Works purely from the serialized document: compiles the embedded polynomial
text into its program, without multiplying it out, runs it on every stored
argument tuple and recomputes the signed sum against the target. That
reconstruction gate is what a pass proves: the target is the signed sum of
the images of f on the stored tuples, the paper's claim about f. A document
without tuples fails, and other keys, such as the witness, similarity
steps, terms and cert_tol that older documents carried, are ignored. None
of the construction pipeline is imported (tests/test_imports.py walks the
imports), so a passing verdict does not trust it.

The verifier sets its own bound: the reconstruction residual must be at
most `DEFAULT_TOLS.end_tol * ||target||_F`. A stored bound may only tighten
it, and a gate whose bound is NaN or infinite fails, so no document can
loosen the check it is put to.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS
from .errors import ParseError
from .freealg import evaluate, fro, parse
from .serialize import (
    FORMAT_NAME,
    complex_from_json,
    matrix_from_json,
)

_SIGNS = {
    "four-term": [1.0, -1.0, 1.0, -1.0],
    "two-term": [1.0, -1.0],
}


@dataclass
class Verdict:
    """What `check_certificate` found: the failures (none means the
    certificate verifies) and, as far as the check got, the matrix size,
    the reconstruction residual and the bound it was held to."""
    failures: list = field(default_factory=list)
    n: int | None = None
    residual: float | None = None
    bound: float | None = None


def _tightened(stored, own):
    """The verifier's own bound `own`, or the stored bound where that is
    tighter. A NaN stored bound is kept, so that its gate fails."""
    return own if stored > own else stored


def _list_of(value, kind):
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _number(doc, name):
    """doc[name] as a float, or None when it is missing, not a number or an
    integer past the double range."""
    value = doc.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _matrices(docs, n):
    """The n x n matrices of a list of matrix documents, or None when one
    of them is not such a matrix."""
    mats = []
    for d in docs:
        try:
            mats.append(matrix_from_json(d))
        except (KeyError, TypeError, ValueError, OverflowError):
            return None
        if mats[-1].shape != (n, n):
            return None
    return mats


def verify_certificate(doc):
    """Check a certificate document against the verifier's own bound.

    Returns a list of failure descriptions; an empty list means the
    certificate verifies. Every gate is written `not value <= bound < inf`,
    so a NaN residual, a NaN bound or an infinite bound (only a target of
    Frobenius norm past the double range has one) fails instead of passing.
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
    except (TypeError, ValueError, OverflowError):
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

    try:
        target = matrix_from_json(doc["target"])
    except (KeyError, TypeError, ValueError, OverflowError):
        return failures + ["malformed field 'target': not a matrix document"]
    n = verdict.n = target.shape[0]
    if "n" in doc:
        stored = doc["n"]
        if isinstance(stored, bool) or not isinstance(stored, int):
            return failures + ["malformed field 'n': not an integer"]
        if stored != n:
            return failures + [f"malformed field 'n': {stored}, but the "
                               f"target is {n}x{n}"]

    if doc.get("tuples") is None:
        return failures + ["certificate has no argument tuples"]
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

    if len(images) != len(coeffs):
        failures.append(
            f"{len(coeffs)} coefficients but {len(images)} tuples"
        )
        return failures
    # tuples that overflow f make an inf or NaN residual, which the gate
    # below reports
    with np.errstate(over="ignore", invalid="ignore"):
        recon = sum(c * im for c, im in zip(coeffs, images))
        residual = verdict.residual = fro(target - recon)
    bound = _number(doc, "residual_bound")
    if bound is None:
        return failures + ["malformed field 'residual_bound': not a number"]
    bound = verdict.bound = _tightened(
        bound, DEFAULT_TOLS.end_tol * fro(target))
    if not residual <= bound < np.inf:
        failures.append(
            f"reconstruction residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return failures
