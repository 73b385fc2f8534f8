import base64
import functools

import numpy as np
import pytest
import scipy.linalg

from matwaring.freealg import _Parser


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_traceless(rng, n):
    A = random_complex(rng, n)
    return A - (np.trace(A) / n) * np.eye(n)


def random_unitary(rng, n):
    Q, _ = np.linalg.qr(random_complex(rng, n))
    return Q


def packed(M):
    """The packed matrix document {"c16le", "n"} of M, made with base64 and
    numpy alone."""
    M = np.ascontiguousarray(M, dtype="<c16")
    return {"c16le": base64.b64encode(M.tobytes()).decode("ascii"),
            "n": len(M)}


def decimal(M):
    """The decimal matrix document {"entries", "n"} of M, as version 1
    certificates store their target."""
    M = np.ascontiguousarray(M, dtype=complex)
    return {"entries": M.view(float).reshape(-1, 2).tolist(), "n": len(M)}


def target_of(doc):
    """A certificate's stored target, packed or decimal, as a writable
    complex array, read with base64 and numpy alone."""
    target, n = doc["target"], doc["target"]["n"]
    if "c16le" in target:
        raw = base64.b64decode(target["c16le"], validate=True)
        return np.frombuffer(raw, "<c16").astype(complex).reshape(n, n)
    return np.array([complex(*pair) for pair in target["entries"]],
                    dtype=complex).reshape(n, n)


def in_form(doc, form):
    """doc, changed in place so that its target is in form: "packed" is the
    document as written (a version 2 document with a packed target), "v1"
    the version 1 document with the same target as decimal [re, im] pairs,
    and the "terms": null and cert_tol keys that version 1 wrote."""
    if form == "packed":
        assert doc["version"] == 2 and doc["target"].keys() == {"c16le", "n"}
    else:
        doc["target"] = decimal(target_of(doc))
        doc.update(version=1, terms=None, cert_tol=1e-9)
    return doc


TARGET_FORMS = ("packed", "v1")


def edit_target(doc, edit):
    """Replace the certificate's target M by edit(M), stored in the form
    the target had."""
    form = packed if "c16le" in doc["target"] else decimal
    doc["target"] = form(edit(target_of(doc)))
    return doc


def planted_matrix(rng, spectrum):
    """Well-conditioned matrix with the given eigenvalues (diagonalizable)."""
    n = len(spectrum)
    Q = random_unitary(rng, n)
    return Q @ np.diag(np.asarray(spectrum, dtype=complex)) @ Q.conj().T


def planted_triangular(rng, spectrum):
    """Complex Schur factor of planted_matrix(rng, spectrum): upper
    triangular, with the same eigenvalues from the same draws of rng."""
    T, _ = scipy.linalg.schur(planted_matrix(rng, spectrum), output="complex")
    return T


def sorted_eigs(M):
    e = np.linalg.eigvals(M)
    return np.array(sorted(e, key=lambda z: (round(z.real, 8), round(z.imag, 8))))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


# ---------------------------------------------------------------------------
# an evaluation oracle independent of the compiled program
# ---------------------------------------------------------------------------

# WordParser refuses a product of more word pairs than this
WORD_PAIR_LIMIT = 1 << 12


def _word_sum(term_dicts):
    """The sum of some {word: coeff} dicts, in the order words first
    appear, cancelled words dropped."""
    out = {}
    for terms in term_dicts:
        for w, c in terms.items():
            out[w] = out.get(w, 0j) + c
    return {w: c for w, c in out.items() if c != 0}


def _word_product(p, q):
    if len(p) * len(q) > WORD_PAIR_LIMIT:
        raise ValueError("the oracle multiplies out beyond "
                         f"{WORD_PAIR_LIMIT} word pairs")
    return _word_sum([{w1 + w2: c1 * c2} for w1, c1 in p.items()
                      for w2, c2 in q.items()])


class WordParser(_Parser):
    """The parser with every value multiplied out into words: a dict from
    each word (a tuple of 1-based variable indices, () the identity) to its
    nonzero coefficient. Sums, products, powers and commutators multiply
    out two polynomials at a time, left to right, as text was read before
    it was compiled into a program."""

    def variable(self, index):
        return {(index,): 1 + 0j}

    def scalar(self, c):
        return _word_sum([{(): complex(c)}])

    def sum(self, signed):
        return _word_sum({w: -c if sign == "-" else c for w, c in p.items()}
                         for sign, p in signed)

    def product(self, factors):
        return functools.reduce(_word_product, factors)

    def power(self, p, e):
        return functools.reduce(_word_product, [p] * e, {(): 1 + 0j})

    def commutator(self, a, b):
        return self.sum([("+", _word_product(a, b)),
                         ("-", _word_product(b, a))])


def words_of(text):
    """The words of polynomial text, multiplied out by WordParser."""
    return WordParser(text).parse()


def words(f):
    """The words of a polynomial's compiled program, multiplied out node by
    node with WordParser's arithmetic: a sum node's summand c times node j
    is read as the text c*(j) would be."""
    oracle = WordParser("")
    values = []
    for op, operands, parameter in f.program.nodes:
        args = [values[j] for j in operands]
        if op == "x":
            value = oracle.variable(parameter)
        elif op == "1":
            value = oracle.scalar(1)
        elif op == "+":
            value = oracle.sum([("+", oracle.product([oracle.scalar(c), p]))
                                for c, p in zip(parameter, args)])
        elif op == "*":
            value = oracle.product(args)
        elif op == "^":
            value = oracle.power(args[0], parameter)
        else:
            value = oracle.commutator(*args)
        values.append(value)
    return values[-1]


def word_text(terms):
    """Text whose program sums the words of terms in their order, each word
    a left-to-right product of its letters."""
    return " + ".join(
        "*".join([f"({c.real!r}{'-' if c.imag < 0 else '+'}{abs(c.imag)!r}i)",
                  *(f"X{v}" for v in w)])
        for w, c in terms.items()) or "0"


def evaluate_words(terms, args):
    """The sum of the words of terms, each multiplied out from the identity
    in the order of terms, one tuple at a time: arguments of shape
    (S, n, n) are evaluated slice by slice."""
    mats = [np.asarray(a, dtype=complex) for a in args]
    if mats[0].ndim == 3:
        return np.stack([evaluate_words(terms, [a[s] for a in mats])
                         for s in range(mats[0].shape[0])])
    n = mats[0].shape[0]
    out = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for word, coeff in terms.items():
        prod = eye
        for v in word:
            prod = prod @ mats[v - 1]
        out += coeff * prod
    return out


def word_by_word_oracle(f, args):
    """freealg.evaluate without the program: f's words summed one by one."""
    return evaluate_words(words(f), args)
