"""Certificate and matrix (de)serialization.

Matrices travel as {"n": n, "entries": [[re, im], ...]} row-major. A
certificate file is a single self-describing JSON document embedding the
polynomial text, the target, the argument tuples, the coefficients and the
tolerances in force, so a third party can re-verify without this library.
The tuples, f and the target prove A = sum c_i f(t_i) on their own, so
that is all a document holds of the construction: the similarity steps and
the witness stay in memory on the WaringCertificate. A certificate without
tuples (a `four_term_decompose` result) is a claim about matrices, not
about f, and is refused. `"terms": null` and `cert_tol` stay in the format
so that older verifiers still accept the documents.

Output is byte-deterministic: the standard-library encoder writes the keys
sorted, no whitespace, and every float as Python's shortest round-trip
`repr` (lossless for doubles, -0.0 included). NaN and infinities are
refused, so every certificate is strict JSON.

The routes make every tuple entry with `round_to_15_digits`, so its parts
print with at most 15 significant digits and a decimal exponent the reader
multiplies or divides by exactly: CPython's float reader turns such text
into a double with one exact operation, where 16 or 17 digits take its
big-integer correction loop. The target is written as given.
"""

import dataclasses
import json
from itertools import chain

import numpy as np

FORMAT_NAME = "waring-certificate"
FORMAT_VERSION = 1

# parts in [SHORT_MIN, SHORT_MAX) have decimal exponents -8..36, so the
# 15-digit integer m of m / 10^k has |k| <= 22 and 10^|k| is an exact double
SHORT_MIN, SHORT_MAX = 1e-8, 1e37
# 10^k for k = -22..22 at index k + 22, as a multiplier and a divisor: both
# exact doubles, one of them 1
_TENS = 10.0 ** np.arange(23)
_MUL = np.concatenate([np.ones(22), _TENS])
_DIV = np.concatenate([_TENS[:0:-1], np.ones(23)])


def round_to_15_digits(a):
    """a as a complex array whose real and imaginary parts v with |v| in
    [SHORT_MIN, SHORT_MAX) are rounded to 15 significant digits (DBL_DIG);
    zeros, -0.0 and other parts are kept.

    v becomes m / 10^k, with k = 14 - floor(log10 |v|) and m = rint(v 10^k)
    an integer of 15 digits, by one exact power of ten and one rounding. So
    v moves by at most 5e-15 |v| and two ulp, and rounding it again leaves
    it unchanged.
    """
    # x is the one work buffer: for tuples of a few 64x64 matrices a fresh
    # temporary per step cost more than the arithmetic
    out = np.array(a, dtype=complex)
    v = out.view(float)
    x = np.abs(v)
    short = (x >= SHORT_MIN) & (x < SHORT_MAX)
    # other parts are worked on as 1e14, which k = 0 keeps, and put back
    w = np.where(short, v, 1e14)
    np.log10(np.abs(w, out=x), out=x)
    j = (36 - np.floor(x, out=x)).astype(np.intp).clip(0, 44)
    # log10 may land a decade off next to a power of ten; the integer part
    # of v 10^k then has 14 or 16 digits, which moves k to the right decade
    x = _scaled(w, j, x)
    j += np.abs(x) < 1e14
    j -= np.abs(np.rint(x, out=x), out=x) >= 1e15
    m = np.rint(_scaled(w, j.clip(0, 44, out=j), x), out=x)
    m *= _DIV[j]
    m /= _MUL[j]
    np.copyto(v, m, where=short)
    return out


def _scaled(w, j, out):
    """w 10^k into out, k = j - 22."""
    np.multiply(w, _MUL[j], out=out)
    out /= _DIV[j]
    return out


def matrix_to_json(M):
    M = np.ascontiguousarray(M, dtype=complex)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"expected a square matrix, got {M.shape}")
    # the (n*n, 2) real view holds each entry as its [re, im] pair
    return {"n": n, "entries": M.view(float).reshape(n * n, 2).tolist()}


def matrix_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be a JSON object with n and "
                         f"entries, got a {type(doc).__name__}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError("matrix document's n must be a nonnegative "
                         f"integer, got {n!r}")
    entries = doc["entries"]
    if len(entries) != n * n:
        raise ValueError(f"matrix document claims n={n} but has "
                         f"{len(entries)} entries")
    # one conversion of the whole list when every entry is a pair and numpy
    # makes floats of them all (bools and ints included, as complex() does);
    # anything else goes entry by entry, which names the bad one
    flat = None
    try:
        if set(map(len, entries)) <= {2}:
            flat = np.array(list(chain.from_iterable(entries)))
    except (TypeError, ValueError, OverflowError):
        pass
    if flat is not None and flat.dtype == float and flat.shape == (2 * n * n,):
        return flat.view(complex).reshape(n, n)
    values = []
    for k, entry in enumerate(entries):
        try:
            re, im = entry
            values.append(complex(re, im))
        except (TypeError, ValueError):
            raise ValueError(f"matrix entry {k} is not a [re, im] pair of "
                             f"numbers: {entry!r}") from None
    return np.array(values).reshape(n, n)


def complex_to_json(z):
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(pair):
    """The complex number of a [re, im] list of exactly two numbers; raises
    TypeError or ValueError for anything else."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"not a [re, im] pair: {pair!r}")
    return complex(*pair)


def certificate_to_json(cert, tols):
    if cert.tuples is None:
        raise ValueError(f"a {cert.mode} certificate without argument tuples "
                         "has no certificate document")
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "mode": cert.mode,
        "n": int(cert.target.shape[0]),
        "polynomial": cert.polynomial,
        "target": matrix_to_json(cert.target),
        "coefficients": [complex_to_json(c) for c in cert.coefficients],
        # the verifier re-evaluates f on the tuples
        "terms": None,
        "tuples": [[matrix_to_json(a) for a in tp] for tp in cert.tuples],
        "residual": cert.residual,
        "residual_bound": cert.residual_bound,
        "cert_tol": tols.cert_tol,
        "tolerances": dataclasses.asdict(tols),
        "seed": cert.seed,
        "budget": cert.budget,
    }


def dumps_canonical(doc):
    """Deterministic JSON text: sorted keys, no spaces, floats as their
    shortest round-trip repr; NaN and infinities raise ValueError.

    The encoder's cycle check is off: the documents are trees, built fresh
    by certificate_to_json and matrix_to_json, and the check's bookkeeping
    for every list and dict is a tenth of the writing time. A document that
    contains itself still raises, as RecursionError instead of ValueError,
    and returns no text.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, check_circular=False) + "\n"


def save_certificate(path, cert, tols):
    # the text is made before the file is opened, so a failed write leaves
    # no file behind
    text = dumps_canonical(certificate_to_json(cert, tols))
    with open(path, "w") as fh:
        fh.write(text)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
