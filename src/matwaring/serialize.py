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

Output is byte-deterministic: `dumps_canonical` writes the text of the
standard-library encoder, keys sorted, no whitespace, and every float as
Python's shortest round-trip `repr` (lossless for doubles, -0.0 included).
NaN and infinities are refused, so every certificate is strict JSON.

The routes make every tuple entry with `round_to_15_digits`, so its parts
print with at most 15 significant digits and a decimal exponent the reader
multiplies or divides by exactly: CPython's float reader turns such text
into a double with one exact operation, where 16 or 17 digits take its
big-integer correction loop. The target is written as given.

The same rounding makes the writer fast. For a double equal to its own
15-digit rounding m 10^(e-14), repr's digits are m's with trailing zeros
dropped, since no shorter decimal, nor another of 15 digits, rounds to it
(DBL_DIG = 15). So `dumps_canonical` lays out every matrix whose parts are
all such doubles or zeros with numpy, in one pass over a digit table and a
table of repr's layouts, and leaves the target, the scalars and any other
matrix to json.dumps.
"""

import dataclasses
import json
from itertools import chain

import numpy as np

FORMAT_NAME = "waring-certificate"
FORMAT_VERSION = 1

# parts in [SHORT_MIN, SHORT_MAX) have decimal exponents e = -8..36, so the
# 15-digit integer m of m 10^(e-14) is scaled by 10^|e-14| <= 10^22, an
# exact double
SHORT_MIN, SHORT_MAX = 1e-8, 1e37
# 10^(e-14) for e = -8..37 at index e + 8, as a multiplier and a divisor,
# one of them 1. 10^23 (e = 37) is not a double, but only the rounding of
# parts next to SHORT_MAX reaches it, with m = 10^14, and 10^14 fl(10^23)
# rounds to fl(10^37)
_TENS = 10.0 ** np.arange(24)
_MUL = np.concatenate([np.ones(22), _TENS])
_DIV = np.concatenate([_TENS[22::-1], np.ones(23)])


def _decimal(v):
    """(m, e, short) of the parts v, a float array: short marks the parts
    with |v| in [SHORT_MIN, SHORT_MAX), and for those m 10^(e-14) is v
    rounded to 15 significant digits (DBL_DIG): m is a double with v's sign
    whose magnitude is an integer of 15 digits. Other parts get m = 10^14
    and e = 14.

    m = rint(v 10^(14-e)) with e = floor(log10 |v|) takes one exact power of
    ten and one rounding, so it moves v by at most half a unit in its 15th
    digit; a v just below a power of ten rounds up to it, and then
    10^15 10^(e-14) becomes 10^14 10^(e-13).
    """
    # x is the one work buffer: for tuples of a few 64x64 matrices a fresh
    # temporary per step cost more than the arithmetic
    x = np.abs(v)
    short = (x >= SHORT_MIN) & (x < SHORT_MAX)
    # other parts are worked on as 1e14, which e = 14 keeps
    w = np.where(short, v, 1e14)
    np.log10(np.abs(w, out=x), out=x)
    e = np.floor(x, out=x).astype(np.intp).clip(-8, 36)
    # log10 may land a decade off next to a power of ten; the integer part
    # of v 10^(14-e) then has 14 or 16 digits, which moves e to the right
    # decade
    x = _scaled(w, e, x)
    e -= np.abs(x) < 1e14
    e += np.abs(np.rint(x, out=x), out=x) >= 1e15
    m = np.rint(_scaled(w, e.clip(-8, 36, out=e), x), out=x)
    top = np.abs(m) >= 1e15
    np.divide(m, 10.0, out=m, where=top)
    e += top
    return m, e, short


def _scaled(w, e, out):
    """w 10^(14-e) into out."""
    np.multiply(w, _DIV[e + 8], out=out)
    out /= _MUL[e + 8]
    return out


def _rebuilt(m, e):
    """m 10^(e-14), in place of m."""
    m *= _MUL[e + 8]
    m /= _DIV[e + 8]
    return m


def round_to_15_digits(a):
    """a as a complex array whose real and imaginary parts v with |v| in
    [SHORT_MIN, SHORT_MAX) are rounded to 15 significant digits (DBL_DIG);
    zeros, -0.0 and other parts are kept.

    v becomes m 10^(e-14) (`_decimal`) by one more exact power of ten and
    one rounding. So v moves by at most 5e-15 |v| and two ulp, and rounding
    it again leaves it unchanged.
    """
    out = np.array(a, dtype=complex)
    v = out.view(float)
    m, e, short = _decimal(v)
    np.copyto(v, _rebuilt(m, e), where=short)
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
    shortest round-trip repr; NaN and infinities raise ValueError. The text
    is `json.dumps(doc, sort_keys=True, separators=(",", ":"),
    allow_nan=False)` and a newline, for every document.

    A matrix document whose parts are all Python floats equal to their own
    15-digit rounding (`round_to_15_digits`), or zeros, has its entries laid
    out by numpy in one pass (`_entries_texts`): no two decimals of at most
    15 significant digits round to the same double (DBL_DIG), so repr's
    shortest round-trip digits of such a part are its 15-digit integer m
    with trailing zeros dropped, and repr's layout of them is a table. Every
    other value, the target and the scalars included, goes through
    json.dumps. The lists are read as the text is made, so an edit to the
    document is always what gets written.

    The encoder's cycle check is off: the documents are trees, built fresh
    by certificate_to_json and matrix_to_json, and the check's bookkeeping
    for every list and dict is a tenth of the writing time. A document that
    contains itself still raises, as RecursionError instead of ValueError,
    and returns no text.
    """
    try:
        text = _with_laid_out_entries(doc)
    except RecursionError:
        text = None  # json.dumps raises, or writes a very deep document
    return (_dumps(doc) if text is None else text) + "\n"


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, check_circular=False)


def _with_laid_out_entries(doc):
    """dumps_canonical's text, without the newline, or None when a string
    in the document holds NUL, so that json.dumps may write it like a
    stand-in for entries."""
    matrices = []
    _replaced(doc, lambda matrix: matrices.append(matrix) or matrix)
    found = [(matrix["entries"], parts) for matrix in matrices
             if (parts := _float_parts(matrix["entries"])) is not None]
    texts = _entries_texts([parts for _, parts in found])
    laid_out = {id(entries): text for (entries, _), text in zip(found, texts)
                if text is not None}
    if not laid_out:
        return _dumps(doc)
    used = []

    def stand_in(matrix):
        text = laid_out.get(id(matrix["entries"]))
        if text is None:
            return matrix
        used.append(text)
        return {"entries": f"\0{len(used) - 1}", "n": matrix["n"]}

    head, *pieces = _dumps(_replaced(doc, stand_in)).split(_STUB)
    if len(pieces) != len(used):
        return None
    out = [head]
    for piece in pieces:
        # each stand-in is written '"\u0000<index>"'
        index, _, rest = piece.partition('"')
        out += (used[int(index)], rest)
    return "".join(out)


# a laid-out entries list stands in the document as the string "\0<index>",
# which json.dumps writes as '"\u0000<index>"'
_STUB = '"\\u0000'


def _replaced(value, replace):
    """value with each matrix document d in it replaced by replace(d); the
    dicts and lists on the way to one are copies."""
    if type(value) is dict and value.keys() == {"entries", "n"}:
        return replace(value)
    if type(value) is dict:
        return {k: _replaced(v, replace) for k, v in value.items()}
    if type(value) is list:
        return [_replaced(v, replace) for v in value]
    return value


def _float_parts(entries):
    """The parts of entries in a row when it is a nonempty list of [re, im]
    lists of Python floats, else None. A look at the first pair, which must
    be 15-digit, passes over the target cheaply."""
    if (type(entries) is list and entries and type(entries[0]) is list
            and all(map(_is_15_digit, entries[0]))
            and set(map(type, entries)) == {list}
            and set(map(len, entries)) == {2}):
        parts = list(chain.from_iterable(entries))
        if set(map(type, parts)) == {float}:
            return parts
    return None


def _is_15_digit(x):
    """Whether x is a float 0.0 or one equal to its own 15-digit rounding
    in [SHORT_MIN, SHORT_MAX); the same test as _entries_texts makes."""
    return type(x) is float and (x == 0 or SHORT_MIN <= abs(x) < SHORT_MAX
                                 and float(f"{x:.14e}") == x)


def _entries_texts(matrices):
    """For each list of parts, the JSON text of its [re, im] pairs when
    every part is ±0.0 or a double equal to its own 15-digit rounding in
    [SHORT_MIN, SHORT_MAX), else None."""
    if not matrices:
        return []
    sizes = np.array([len(parts) for parts in matrices])
    lengths, fits, text = _laid_out(np.fromiter(
        chain.from_iterable(matrices), float, sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    ok = np.logical_and.reduceat(fits, starts).tolist()
    # each matrix's parts end in a comma, which its closing bracket replaces
    ends = np.cumsum(np.add.reduceat(lengths, starts)).tolist()
    return [f"[{text[a:b - 1]}]" if good else None
            for good, a, b in zip(ok, [0] + ends, ends)]


# a part's text is gathered from a source row of 40 bytes: its 15 digits
# in five 3-digit groups of 4 bytes, then these characters. NUL pads each
# layout to _WIDTH and is taken out of the joined text
_CHARS = "0123456789.-e+[],\0"
# "[-1.23456789012345e+36," and "-0.000123456789012345],"
_WIDTH = 23
# layouts are keyed by the part's place (0 the real part, which opens its
# [re, im] pair, 1 the imaginary part, which closes it), its sign, its
# exponent slot (e + 8 for e = -8..36, _ZERO for ±0.0) and its number of
# digits, k = 1..15 once trailing zeros are dropped; each is read off the
# text repr writes for a number of that slot and k
_SLOTS, _ZERO = 46, 45
# parts per pass: passes of 1024 or 8192 parts were slower
_CHUNK = 4096


def _layouts():
    """(columns, lengths): for each layout key, the source-row byte of each
    of the _WIDTH bytes of its text, NUL past the text, and the text's
    length. The number is repr's text of k ones at the slot's exponent e,
    whose i-th one before any "e" is digit i, at byte i + i // 3 of the
    source row; every other character is its byte of _CHARS. Each (place,
    sign) puts "[" and "-" before the number, and "," or "]," after it."""
    numbers = ["0.0" if slot == _ZERO
               else repr(float(f"{'1' * k}e{slot - 7 - k}"))
               for slot in range(_SLOTS) for k in range(1, 16)]
    text = np.frombuffer("".join(t.ljust(_WIDTH, "\0") for t in numbers)
                         .encode(), np.uint8).reshape(-1, _WIDTH)
    code = np.zeros(128, np.uint8)
    code[list(_CHARS.encode())] = np.arange(20, 20 + len(_CHARS))
    digit = (text == ord("1")) & ~np.logical_or.accumulate(text == ord("e"), 1)
    i = np.cumsum(digit, axis=1, dtype=np.uint8) - 1
    number = np.where(digit, i + i // 3, code[text])
    size = np.array([len(t) for t in numbers])
    rows = np.arange(len(numbers))
    columns = np.empty((4, len(numbers), _WIDTH), np.uint8)
    lengths = np.empty((4, len(numbers)), np.intp)
    affixes = [("[", ","), ("[-", ","), ("", "],"), ("-", "],")]
    for out, length, (head, tail) in zip(columns, lengths, affixes):
        out[:, :len(head)] = code[list(head.encode())]
        out[:, len(head):] = number[:, :_WIDTH - len(head)]
        for j, c in enumerate(tail.encode()):
            out[rows, len(head) + size + j] = code[c]
        length[:] = len(head) + size + len(tail)
    return columns.reshape(-1, _WIDTH), lengths.ravel()


_COLUMNS, _LENGTHS = _layouts()
_GROUP = np.arange(1000)
# the 3 digits of 0..999 and a pad byte, as one 4-byte word
_DIGITS = (np.stack([_GROUP // 100, _GROUP // 10 % 10, _GROUP % 10,
                     np.full(1000, ord("_") - ord("0"))], axis=1)
           + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# after the digits: _CHARS and a pad to 20 bytes
_CHAR_WORDS = np.frombuffer((_CHARS + "__").encode(), dtype=np.uint32)
# k from the groups: the largest over groups i of 3 i plus the digits of
# group i without its trailing zeros, 0 for a zero group
_KEPT = np.where(_GROUP > 0, 3 * np.arange(1, 6)[:, None] - (_GROUP % 10 == 0)
                 - (_GROUP % 100 == 0), 0)
_ROWS = 40 * np.arange(_CHUNK)[:, None]


def _groups(m):
    """The five 3-digit groups of the integers |m| < 10^15 held as doubles,
    most significant first; floor(r / 1000) of an integer r < 2^53 is exact."""
    r = np.abs(m)
    groups = np.empty((len(m), 5), dtype=np.intp)
    for i in range(4, 0, -1):
        q = np.floor(r / 1000)
        groups[:, i] = r - 1000 * q
        r = q
    groups[:, 0] = r
    return groups


def _kept(groups):
    """The digits k of each row of groups once trailing zeros are dropped."""
    k = _KEPT[0][groups[:, 0]]
    for i in range(1, 5):
        np.maximum(k, _KEPT[i][groups[:, i]], out=k)
    return k


def _laid_out(v):
    """(lengths, fits, text) of the parts v, which come in [re, im] pairs:
    fits marks each part that is ±0.0 or a double equal to its own 15-digit
    rounding in [SHORT_MIN, SHORT_MAX), and for each such part text has its
    repr, an opening bracket before a real part, a closing one after an
    imaginary part and a comma after every part; lengths are the characters
    of each part. Other parts get text that is not theirs."""
    lengths, fits, texts = [], [], []
    source = np.empty((_CHUNK, 10), dtype=np.uint32)
    source[:, 5:] = _CHAR_WORDS
    for lo in range(0, len(v), _CHUNK):
        part = v[lo:lo + _CHUNK]
        n = len(part)
        m, e, short = _decimal(part)
        fits.append((short & (_rebuilt(m.copy(), e) == part)) | (part == 0))
        groups = _groups(m)
        source[:n, :5] = _DIGITS[groups]
        key = (np.arange(lo, lo + n) & 1) * 2 + np.signbit(part)
        key = key * _SLOTS + np.where(short, e + 8, _ZERO)
        key = key * 15 + _kept(groups) - 1
        columns = _COLUMNS[key] + _ROWS[:n]
        texts.append(source.view(np.uint8).ravel()[columns].tobytes()
                     .translate(None, b"\0"))
        lengths.append(_LENGTHS[key])
    text = b"".join(texts).decode("ascii")
    return np.concatenate(lengths), np.concatenate(fits), text


def save_certificate(path, cert, tols):
    # the text is made before the file is opened, so a failed write leaves
    # no file behind
    text = dumps_canonical(certificate_to_json(cert, tols))
    with open(path, "w") as fh:
        fh.write(text)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
