"""Noncommutative polynomials over complex matrices.

A polynomial is a complex-weighted sum of words in the variables X1, X2, ...
Words multiply by concatenation; nothing commutes except scalars. Evaluation
substitutes square matrices for the variables; the empty word contributes a
multiple of the identity.

The text grammar (parsed by `parse`, printed by `NcPolynomial.to_string`):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := var | scalar | '(' expr ')' | '[' expr ',' expr ']'
    var    := 'X' uint              (uint >= 1)
    scalar := '(' decimal ('+'|'-') decimal 'i' ')' | decimal

Commutator brackets desugar to a*b - b*a.
"""

from dataclasses import dataclass

import numpy as np

from .config import CLASSIFY_KMAX, CLASSIFY_SAMPLES, CLASSIFY_TOL
from .errors import ParseError

Word = tuple  # tuple of 1-based variable indices; () is the constant word

# The parse of one polynomial text may write at most PARSE_BUDGET units of
# words, one unit per word and one per letter, over all the products and sums
# it forms; beyond that `parse` raises ParseError. Without a bound, text could
# stall its parser: multiplying out X1^k writes k^2/2 letters, and (X1+X2)^k
# has 2^k words. The largest polynomial in use, (X1+X2*X3+X3*X1)^4, takes
# about 1500 units to parse, and its 81-word expansion, which a certificate
# stores, about 3100.
PARSE_BUDGET = 1 << 14


class NcPolynomial:
    """Canonical form: a dict mapping each word to its nonzero coefficient.

    The words are kept in prefix order: depth first over the trie of their
    prefixes, siblings in order of first appearance, every word before its
    extensions. Words sharing a prefix are therefore adjacent, which is what
    lets `evaluate` form each prefix product once.
    """

    def __init__(self, terms=None):
        merged = {}
        for word, coeff in (terms or {}).items():
            word = tuple(int(i) for i in word)
            if any(i < 1 for i in word):
                raise ValueError(f"variable indices must be >= 1, got {word}")
            c = merged.get(word, 0j) + complex(coeff)
            merged[word] = c
        nonzero = [w for w, c in merged.items() if c != 0]
        self.terms = {w: merged[w] for w in _prefix_order(nonzero)}
        self.num_vars = max((max(w) for w in self.terms if w), default=0)

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def variable(cls, index):
        return cls({(index,): 1.0})

    def __add__(self, other):
        return _sum((self, _coerce(other)))

    __radd__ = __add__

    def __neg__(self):
        return NcPolynomial({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        return _product((self, _coerce(other)))

    def __rmul__(self, scalar):
        return NcPolynomial({w: scalar * c for w, c in self.terms.items()})

    def __pow__(self, k):
        return _power(self, k)

    def __eq__(self, other):
        return isinstance(other, NcPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def is_multilinear(self):
        """True when every word uses each of X1..Xm exactly once.

        The constant polynomial and polynomials with a constant term are not
        multilinear (the empty word misses every variable).
        """
        m = self.num_vars
        if m == 0 or not self.terms:
            return False
        target = tuple(range(1, m + 1))
        return all(tuple(sorted(w)) == target for w in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))

    def to_string(self):
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in self.sorted_terms():
            sign, body = _format_term(word, coeff)
            if not parts:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"NcPolynomial({self.to_string()!r})"


def _sum(polys):
    """The sum of polys, canonicalized once rather than once per addition."""
    out = {}
    for p in polys:
        for w, c in p.terms.items():
            out[w] = out.get(w, 0j) + c
    return NcPolynomial(out)


def _units(words):
    """The size of some words: one unit per word and one per letter."""
    return len(words) + sum(map(len, words))


def _prefix_order(words):
    """words depth first over the trie of their prefixes, siblings in order
    of first appearance, every word before its extensions."""
    if len(words) < 2:
        return list(words)
    rank = {}
    for w in words:
        for i in range(1, len(w) + 1):
            rank.setdefault(w[:i], len(rank))
    return sorted(words, key=lambda w: [rank[w[:i]] for i in range(1, len(w) + 1)])


def _product(polys, charge=None):
    """The left-to-right product of polys, canonicalized once rather than
    once per factor. Each partial product drops its cancelled words and is
    walked in prefix order, as its canonical form would be, so the words
    and coefficients come out as multiplying two at a time gives them.
    charge, when given, is called before each step with the units of the
    words it will write (see PARSE_BUDGET)."""
    first, *rest = polys
    out = first.terms
    for i, p in enumerate(rest):
        if i:
            out = {w: out[w] for w in
                   _prefix_order([w for w, c in out.items() if c != 0])}
        if charge is not None:
            letters = (len(p.terms) * sum(map(len, out))
                       + len(out) * sum(map(len, p.terms)))
            charge(len(out) * len(p.terms) + letters)
        prod = {}
        for w1, c1 in out.items():
            for w2, c2 in p.terms.items():
                w = w1 + w2
                prod[w] = prod.get(w, 0j) + c1 * c2
        out = prod
    return NcPolynomial(out) if rest else first


def _power(poly, k, charge=None):
    if k < 0:
        raise ValueError("negative polynomial powers are not defined")
    if k > PARSE_BUDGET:
        # refused before the k factors are listed; every factor costs a
        # parse at least one unit, so no parse could afford more
        raise ValueError(f"power exceeds the limit of {PARSE_BUDGET} factors")
    return _product((NcPolynomial.constant(1.0),) + (poly,) * int(k), charge)


def _coerce(value):
    if isinstance(value, NcPolynomial):
        return value
    if isinstance(value, (int, float, complex)):
        return NcPolynomial.constant(value)
    raise TypeError(f"cannot combine NcPolynomial with {type(value).__name__}")


def _format_decimal(x):
    # repr round-trips doubles exactly
    return repr(float(x))


def _format_term(word, coeff):
    """Return (sign, body) with the sign factored out of the real part."""
    wstr = "*".join(_format_run(v, k) for v, k in _runs(word))
    if coeff.imag == 0:
        sign = "-" if coeff.real < 0 else "+"
        mag = abs(coeff.real)
        if wstr and mag == 1.0:
            return sign, wstr
        cstr = _format_decimal(mag)
        return sign, f"{cstr}*{wstr}" if wstr else cstr
    # complex coefficient: parenthesized literal, sign factored from Re (or Im)
    sign = "+"
    if coeff.real < 0 or (coeff.real == 0 and coeff.imag < 0):
        sign, coeff = "-", -coeff
    mid = "+" if coeff.imag >= 0 else "-"
    cstr = f"({_format_decimal(coeff.real)}{mid}{_format_decimal(abs(coeff.imag))}i)"
    return sign, f"{cstr}*{wstr}" if wstr else cstr


def _runs(word):
    runs = []
    for v in word:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return [(v, k) for v, k in runs]


def _format_run(v, k):
    return f"X{v}" if k == 1 else f"X{v}^{k}"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*^()[],")


def _tokenize(text):
    """Tokens: ('num', value, is_imag, pos), ('var', index, pos), (op, pos)."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append((ch, None, None, i))
            i += 1
            continue
        if ch == "X":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable needs a numeric index after 'X'", i)
            index = int(text[i + 1 : j])
            if index == 0:
                raise ParseError("variable index 0 is not allowed", i)
            tokens.append(("var", index, None, i))
            i = j
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ParseError(f"malformed number {lit!r}", i) from None
            is_imag = j < n and text[j] == "i"
            if is_imag:
                j += 1
            tokens.append(("num", value, is_imag, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.units = 0

    def charge(self, units):
        """Count units of words written toward the parse's PARSE_BUDGET."""
        self.units += units
        if self.units > PARSE_BUDGET:
            raise ValueError("polynomial multiplies out beyond the limit of "
                             f"{PARSE_BUDGET} units (words and letters)")

    def peek(self, offset=0):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[3])
        return tok

    def parse(self):
        poly = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[0]!r}", tok[3])
        return poly

    def expr(self):
        sign = 1.0
        if self.peek()[0] in "+-":
            sign = -1.0 if self.next()[0] == "-" else 1.0
        summands = [sign * self.summand()]
        while self.peek()[0] in "+-":
            op = self.next()[0]
            rhs = self.summand()
            summands.append(rhs if op == "+" else -rhs)
        return _sum(summands)

    def summand(self):
        """A term, charged as it is read for the copy the sum makes, so a
        long sum fails where it runs out of budget."""
        start = self.peek()[3]
        poly = self.term()
        _limited(start, self.charge, _units(poly.terms))
        return poly

    def term(self):
        start = self.peek()[3]
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.next()
            factors.append(self.factor())
        return _limited(start, _product, factors, self.charge)

    def factor(self):
        poly = self.atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("num")
            if tok[2] or not tok[1].is_integer() or tok[1] < 0:
                raise ParseError("exponent must be a nonnegative integer", tok[3])
            poly = _limited(tok[3], _power, poly, int(tok[1]), self.charge)
        return poly

    def atom(self):
        tok = self.peek()
        kind = tok[0]
        if kind == "var":
            self.next()
            return NcPolynomial.variable(tok[1])
        if kind == "num":
            self.next()
            return NcPolynomial.constant(tok[1] * 1j if tok[2] else tok[1])
        if kind == "(":
            self.next()
            lit = self._complex_literal()
            if lit is not None:
                return lit
            poly = self.expr()
            self.expect(")")
            return poly
        if kind == "[":
            self.next()
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            return _limited(tok[3], self.commutator, a, b)
        raise ParseError("expected a variable, number, '(' or '['", tok[3])

    def commutator(self, a, b):
        ab, ba = (_product(pair, self.charge) for pair in ((a, b), (b, a)))
        self.charge(_units(ab.terms) + _units(ba.terms))
        return _sum((ab, -ba))

    def _complex_literal(self):
        """Consume 'a±bi)' right after '(' when it matches; else leave alone."""
        t0, t1, t2, t3 = self.peek(0), self.peek(1), self.peek(2), self.peek(3)
        if (
            t0[0] == "num" and not t0[2]
            and t1[0] in "+-"
            and t2[0] == "num" and t2[2]
            and t3[0] == ")"
        ):
            self.pos += 4
            imag = t2[1] if t1[0] == "+" else -t2[1]
            return NcPolynomial.constant(complex(t0[1], imag))
        return None


def _limited(position, build, *args):
    """build(*args), with a product or sum beyond the parse's budget
    reported as a ParseError at the given text position."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(str(exc), position) from None


def parse(text):
    """Parse polynomial text into canonical form. Raises ParseError."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ParseError("polynomial text is nested too deeply", 0) from None


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# A stack is walked in blocks of tuples whose arguments take at most this
# many bytes each (a whole stack at n = 12 and 32 tuples). Larger
# temporaries cost more in page faults and cache misses than batching
# saves: on a 2-core VM with BLAS at one thread, [X1,X2] on 32 tuples at
# n = 64 took 7-12 ms in one block and 4.3-4.8 ms in blocks of 4, about as
# long as one tuple at a time.
_BLOCK_BYTES = 1 << 18


def evaluate(f, args):
    """Substitute the matrices `args` into f and return the image.

    args[k] stands for X(k+1); extra arguments beyond f.num_vars are ignored.
    The arguments share one shape: (n, n) for one tuple, or (S, n, n) for a
    stack of S tuples, where slice s of every argument is tuple s. The image
    has that same shape, and slice s of it equals the image of tuple s bit
    for bit.

    The words are summed in the order of f.terms, each as coeff times its
    left-to-right product. f.terms is in prefix order (see NcPolynomial), so
    the walk keeps the products of the current word's prefixes and extends
    the prefix it shares with the previous word: one batched `@` per node of
    the prefix trie, with only the current path's products alive.
    """
    stacks = [np.asarray(a, dtype=complex) for a in args]
    if not stacks:
        raise ValueError("need at least one matrix to fix the evaluation size")
    shape = stacks[0].shape
    if len(shape) not in (2, 3) or shape[-2] != shape[-1]:
        raise ValueError(f"arguments must be (n, n) or (S, n, n), got {shape}")
    for a in stacks:
        if a.shape != shape:
            raise ValueError(f"arguments must all have shape {shape}, "
                             f"got {a.shape}")
    if len(stacks) < f.num_vars:
        raise ValueError(f"polynomial uses X{f.num_vars} but only "
                         f"{len(stacks)} arguments were given")
    if len(shape) == 2:
        return _walk(f, stacks)
    out = np.empty(shape, dtype=complex)
    block = max(1, _BLOCK_BYTES // (16 * shape[-1] ** 2))
    for lo in range(0, shape[0], block):
        out[lo:lo + block] = _walk(f, [a[lo:lo + block] for a in stacks])
    return out


def _walk(f, stacks):
    """f on arguments of one shape, words in the order of f.terms."""
    shape = stacks[0].shape
    out = np.zeros(shape, dtype=complex)
    path = []           # path[i]: product of the first i+1 letters of prev
    prev = ()
    for word, coeff in f.terms.items():
        shared = 0
        while (shared < min(len(prev), len(word))
               and prev[shared] == word[shared]):
            shared += 1
        del path[shared:]
        for v in word[shared:]:
            path.append(path[-1] @ stacks[v - 1] if path else stacks[v - 1])
        out += coeff * (path[-1] if word else np.eye(shape[-1], dtype=complex))
        prev = word
    return out


def random_tuple(rng, n, m):
    """m matrices with i.i.d. standard complex Gaussian entries."""
    return tuple(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for _ in range(m)
    )


# ---------------------------------------------------------------------------
# probabilistic classification
# ---------------------------------------------------------------------------

VERDICT_IDENTITY = "identity"
VERDICT_CENTRAL = "central"
VERDICT_K_CENTRAL = "k-central"
VERDICT_GENERIC = "generic"


@dataclass(frozen=True)
class PolyClass:
    """Sampled verdict; valid only relative to (n, samples, tolerance)."""

    verdict: str
    k: int | None
    n: int
    samples: int
    tolerance: float

    @property
    def is_identity_or_central(self):
        return self.verdict in (VERDICT_IDENTITY, VERDICT_CENTRAL)

    def describe(self):
        if self.verdict == VERDICT_K_CENTRAL:
            return f"{self.k}-central"
        return self.verdict


def scalar_distance(M):
    """Frobenius distance to the scalar matrices (orthogonal projection
    under the trace inner product)."""
    n = M.shape[0]
    return float(np.linalg.norm(M - (np.trace(M) / n) * np.eye(n)))


def classify(f, n, samples=CLASSIFY_SAMPLES, tol=CLASSIFY_TOL, seed=0,
             k_max=CLASSIFY_KMAX):
    """Classify f on M_n(C) by evaluating seeded random tuples.

    The verdict is probabilistic: identity / central are certified only up to
    the sampled tuples and the tolerance. k-central means the k-th power of
    every sampled image is scalar while lower powers are not.
    """
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
    rng = np.random.default_rng(seed)
    m = max(f.num_vars, 1)
    stacks = [np.empty((samples, n, n), dtype=complex) for _ in range(m)]
    for s in range(samples):
        for stack, a in zip(stacks, random_tuple(rng, n, m)):
            stack[s] = a
    images = evaluate(f, stacks)
    del stacks  # free the samples before the powers are formed
    scale = float(np.linalg.norm(images, axis=(1, 2)).max())
    if scale <= tol:
        return PolyClass(VERDICT_IDENTITY, None, n, samples, tol)
    powers = images
    for k in range(1, k_max + 1):
        if k > 1:
            powers = powers @ images
        power_scale = float(np.linalg.norm(powers, axis=(1, 2)).max())
        if power_scale <= tol * scale ** k:
            break  # f^k vanished on all samples; no higher power turns central
        # one slice at a time: the first nonscalar power decides
        if all(scalar_distance(P) <= tol * power_scale for P in powers):
            verdict = VERDICT_CENTRAL if k == 1 else VERDICT_K_CENTRAL
            return PolyClass(verdict, k, n, samples, tol)
    return PolyClass(VERDICT_GENERIC, None, n, samples, tol)
