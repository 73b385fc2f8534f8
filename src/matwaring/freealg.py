"""Noncommutative polynomials over complex matrices.

A polynomial is a complex-weighted sum of words in the variables X1, X2, ...
Words multiply by concatenation; nothing commutes except scalars. Evaluation
substitutes square matrices for the variables; the empty word contributes a
multiple of the identity.

A polynomial is the text it was parsed from and the straight-line program
that `parse` compiled from it (see `_Program`); `evaluate` runs the program.
(X1+X2*X3+X3*X1)^4 costs two products for its base and two squarings, where
its 81 words would cost 197 products. The words are never multiplied out:
the one structure query the routes need, `is_multilinear`, reads
multidegrees off the program's nodes. Nothing prints a program back: a
certificate carries the text as given, and `parse` is deterministic.

The text grammar (parsed by `parse`):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := var | scalar | '(' expr ')' | '[' expr ',' expr ']'
    var    := 'X' uint              (uint >= 1)
    scalar := '(' decimal ('+'|'-') decimal 'i' ')' | decimal

The commutator [a,b] is a*b - b*a. Text is ASCII.
"""

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .config import CLASSIFY_KMAX, CLASSIFY_SAMPLES, CLASSIFY_TOL
from .errors import ParseError

# The program of one text may cost at most PROGRAM_BUDGET units: one per
# node, one per summand and two per exponent bit, an upper bound on the
# matrix products and sums of one evaluation. No word of the text may be
# longer than DEGREE_LIMIT letters: powers by squaring make X1^1000000 cheap,
# but no double survives that degree. Beyond either bound `parse` raises
# ParseError, so text can neither stall its evaluator nor swamp its memory.
# (X1+X2*X3+X3*X1)^4 costs 16 units, and the 81-word expansion that older
# certificates store 301.
PROGRAM_BUDGET = 1 << 12
DEGREE_LIMIT = 1 << 10

# Variables are X1 .. X{VARIABLE_LIMIT}. Classification and the witness
# search draw one random matrix per variable up to the largest index used,
# so an unbounded index (X100000000) would let short text exhaust memory.
VARIABLE_LIMIT = 64


class NcPolynomial:
    """A polynomial: the `text` that `parse` read and the `program` it
    compiled.

    Every polynomial comes from `parse`. The operators `+`, `-`, `*`, `**`
    and a scalar factor join their operands' text (a scalar written by
    `_scalar_text`) and parse the result, so every bound of `parse` holds
    for every polynomial. Equality is identity: two polynomials compare
    equal only when they are one object; compare their text or their
    images instead.
    """

    def __init__(self, text, program):
        self.text = text
        self.program = program

    @property
    def num_vars(self):
        """The largest variable index: how many arguments evaluation reads."""
        return self.program.num_vars

    # The grammar is left-associative, so a left operand needs parentheses
    # only as a factor that may be a sum, and repeated operators keep text
    # flat. Text never holds a brace.
    def __add__(self, other):
        return _composed(self.text + " + ({})", other)

    __radd__ = __add__

    def __neg__(self):
        return _composed("-({})", self)

    def __sub__(self, other):
        return _composed(self.text + " - ({})", other)

    def __mul__(self, other):
        left = self.text if _is_product(self.text) else f"({self.text})"
        return _composed(left + "*({})", other)

    __rmul__ = __mul__   # the reflected operand is a scalar, which commutes

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            # refused here: the grammar's exponent is unsigned, so parsing
            # would name a position in text the caller never wrote
            raise ValueError("negative polynomial powers are not defined")
        return _composed(f"({{}})^{k:d}", self)

    def is_multilinear(self):
        """True when every word uses each of X1..Xm exactly once, read off
        the program's multidegrees (`_Program.multidegree`).

        The constant polynomial and polynomials with a constant term are not
        multilinear (the empty word misses every variable). Words that
        cancel are still counted, so cancellation can only turn the answer
        to False: X1*X2 - X1*X2 is multilinear, [X1,X2] + X1^2 - X1^2 is
        not.
        """
        m = self.num_vars
        return m > 0 and self.program.multidegree() == (1,) * m

    def grading(self):
        """(w, D) with f(2^(k w) X) = 2^(k D) f(X) for every integer k, or
        None; see `_Program.grading`. [X1,X2] gets ((1, 1), 2), and
        (X1+X2*X3+X3*X1)^4 gets ((1, 1, 0), 4)."""
        return self.program.grading()

    def __repr__(self):
        return f"NcPolynomial({self.text!r})"


def _composed(template, *operands):
    """parse(template) with each operand's text or scalar literal in place
    of a {}; NotImplemented for an operand that is neither."""
    texts = []
    for value in operands:
        if isinstance(value, NcPolynomial):
            texts.append(value.text)
        elif isinstance(value, (int, float, complex)):
            texts.append(_scalar_text(value))
        else:
            return NotImplemented
    return parse(template.format(*texts))


def _is_product(text):
    """True when text has no '+' or '-' outside parentheses and brackets."""
    depth = 0
    for ch in text:
        depth += (ch in "([") - (ch in ")]")
        if depth == 0 and ch in "+-":
            return False
    return True


def _scalar_text(c):
    """Text that parses to the scalar c: a signed decimal or complex
    literal. A scalar that is not finite has no text and is refused."""
    c = complex(_finite(c))
    sign, c = ("-", -c) if c.real < 0 else ("", c)
    if c.imag == 0:
        return f"{sign}{c.real!r}"
    return f"{sign}({c.real!r}{c.imag:+}i)"   # '+' format: shortest repr


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------

class _Program:
    """A straight-line program over matrix stacks.

    nodes[k] is (op, operands, parameter), one of

        ("x", (), i)              the variable Xi
        ("1", (), None)           the identity
        ("+", (j, ...), (c, ...)) the sum of c times node j, left to right
        ("*", (j, k), None)       the product node j @ node k
        ("^", (j,), e)            node j to the power e >= 2, by squaring
        ("[]", (j, k), None)      the commutator j @ k - k @ j

    and reads only nodes before it. Equal nodes are made once, so a shared
    subexpression is evaluated once. `add` makes nodes, charging each to
    PROGRAM_BUDGET and checking its degree against DEGREE_LIMIT; `finish`
    fixes the value, keeping only the nodes it reads: the value is the last
    node.
    """

    def __init__(self):
        self.nodes = []
        self._index = {}
        self._degrees = []
        self.cost = 0

    def add(self, node):
        k = self._index.get(node)
        if k is not None:
            return k
        op, operands, parameter = node
        degrees = [self._degrees[j] for j in operands]
        cost = 2 if op == "[]" else 1
        if op == "x":
            degree = 1
        elif op == "+":
            degree = max(degrees, default=0)
            cost += len(operands)
        elif op == "^":
            degree = degrees[0] * parameter
            cost += 2 * parameter.bit_length()
        else:
            degree = sum(degrees)
        if degree > DEGREE_LIMIT:
            raise ValueError(f"polynomial degree {degree} exceeds the "
                             f"limit of {DEGREE_LIMIT}")
        if self.cost + cost > PROGRAM_BUDGET:
            raise ValueError("polynomial program exceeds the limit of "
                             f"{PROGRAM_BUDGET} units (nodes, summands "
                             "and exponent bits)")
        self.cost += cost
        self._index[node] = len(self.nodes)
        self.nodes.append(node)
        self._degrees.append(degree)
        return len(self.nodes) - 1

    def finish(self, coeff, j):
        """Make coeff times node j (the identity when j is None) the value."""
        if j is None or coeff != 1 or self.nodes[j][0] in ("x", "1"):
            # a sum node, so that evaluation always returns a new array
            if j is None:
                j = self.add(("1", (), None))
            j = self.add(("+", (j,), (coeff,)))
        live = [False] * (j + 1)
        live[j] = True
        for k in range(j, -1, -1):
            if live[k]:
                for o in self.nodes[k][1]:
                    live[o] = True
        renumber = {}
        nodes = []
        for k in range(j + 1):
            if live[k]:
                op, operands, parameter = self.nodes[k]
                renumber[k] = len(nodes)
                nodes.append((op, tuple(renumber[o] for o in operands),
                              parameter))
        self.nodes = tuple(nodes)
        del self._index, self._degrees
        self.num_vars = max((n[2] for n in nodes if n[0] == "x"), default=0)
        # release[k]: the values last read by node k, freed after it runs
        last = {}
        for k, node in enumerate(nodes):
            for o in node[1]:
                last[o] = k
        self.release = [[] for _ in nodes]
        for o, k in last.items():
            self.release[k].append(o)
        return self

    def run(self, stacks):
        """The value on arguments of one shape, (n, n) or (S, n, n)."""
        shape = stacks[0].shape
        values = [None] * len(self.nodes)
        for k, (op, operands, parameter) in enumerate(self.nodes):
            args = [values[j] for j in operands]
            if op == "x":
                value = stacks[parameter - 1]
            elif op == "1":
                value = np.eye(shape[-1], dtype=complex)
            elif op == "+":
                value = np.zeros(shape, dtype=complex)
                for c, a in zip(parameter, args):
                    if c == 1:
                        value += a
                    elif c == -1:
                        value -= a
                    else:
                        value += c * a
            elif op == "*":
                value = args[0] @ args[1]
            elif op == "^":
                value = _power_by_squaring(args[0], parameter)
            else:
                value = args[0] @ args[1] - args[1] @ args[0]
            values[k] = value
            for o in self.release[k]:
                values[o] = None
        return values[-1]

    def _degree_walk(self):
        """The value's multidegree, each sum read at its first summand's,
        and the differences of every sum's other summands from its first:
        one walk over the nodes. Words that cancel still count."""
        m = self.num_vars
        degrees, rows = [], []
        for op, operands, parameter in self.nodes:
            args = [degrees[j] for j in operands]
            if op == "x":
                degree = tuple(int(i == parameter) for i in range(1, m + 1))
            elif op == "1":
                degree = (0,) * m
            elif op == "+":
                degree = args[0]
                rows += [tuple(a - b for a, b in zip(arg, degree))
                         for arg in args[1:] if arg != degree]
            elif op == "^":
                degree = tuple(parameter * d for d in args[0])
            else:
                degree = tuple(map(sum, zip(*args)))
            degrees.append(degree)
        return degrees[-1], rows

    def multidegree(self):
        """The value's degree in each of X1..X{num_vars}, or None when a sum
        adds summands of different multidegrees. Words that cancel still
        count, so None does not prove the value inhomogeneous."""
        degree, rows = self._degree_walk()
        return None if rows else degree

    def grading(self):
        """Integer weights w of X1..X{num_vars} and a degree D > 0 under
        which every sum's summands have equal weighted degree, or None.

        Then f(2^(k w_1) X1, 2^(k w_2) X2, ...) = 2^(k D) f(X1, X2, ...)
        for every integer k, bit for bit while no value leaves the normal
        double range, because each product and sum is scaled by one power
        of two. All-ones (total degree) is tried first; else w is the part
        of the value's multidegree orthogonal to the walk's difference
        rows, which has D > 0 whenever any grading does. Words that cancel
        still count, so None does not prove that no grading exists.
        """
        degree, rows = self._degree_walk()
        w = (1,) * len(degree)
        if any(sum(row) for row in rows):
            w = _orthogonal_part(degree, rows)
        D = sum(a * b for a, b in zip(w, degree))
        return (w, D) if D > 0 else None


def _orthogonal_part(v, rows):
    """The part of the integer vector v orthogonal to every row, times the
    positive factor that makes its entries coprime integers (zeros when v
    lies in the rows' span): Gram-Schmidt in integers."""
    basis = []
    for u in [*dict.fromkeys(rows), v]:
        for b in basis:
            ub = sum(x * y for x, y in zip(u, b))
            if ub:
                bb = sum(y * y for y in b)
                u = [bb * x - ub * y for x, y in zip(u, b)]
                g = math.gcd(*u)
                u = [x // g for x in u] if g else u
        if any(u):
            basis.append(u)
    return tuple(u)


def _power_by_squaring(x, e, multiply=operator.matmul):
    """x to the power e >= 1 by squaring; a scalar power (multiply
    operator.mul) overflows to infinity instead of raising."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else multiply(result, x)
        e >>= 1
        if not e:
            return result
        x = multiply(x, x)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*^()[],")


def _tokenize(text):
    """Tokens (kind, value, is_imag, pos) of a number, variable or operator."""
    for i, ch in enumerate(text):
        if not ch.isascii():   # str.isdigit and float accept other digits
            raise ParseError(f"unexpected character {ch!r}", i)
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
            digits = text[i + 1 : j].lstrip("0")
            if not digits:
                raise ParseError("variable index 0 is not allowed", i)
            if (len(digits) > len(str(VARIABLE_LIMIT))
                    or int(digits) > VARIABLE_LIMIT):
                raise ParseError(
                    f"variable index exceeds the limit of {VARIABLE_LIMIT}", i)
            tokens.append(("var", int(digits), None, i))
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
    """Compiles text into a program as it reads it.

    Each subexpression's value is a pair (c, j): the scalar c times node j
    of the program, or times the identity when j is None. Scalar factors
    fold into c as they are read, so they cost no matrix products. The
    methods `variable` to `commutator` form the values.
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.program = _Program()

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
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[0]!r}", tok[3])
        return value

    def expr(self):
        start = self.peek()[3]
        sign = self.next()[0] if self.peek()[0] in "+-" else "+"
        signed = [(sign, self.term())]
        while self.peek()[0] in "+-":
            sign = self.next()[0]
            signed.append((sign, self.term()))
        return _limited(start, self.sum, signed)

    def term(self):
        start = self.peek()[3]
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.next()
            factors.append(self.factor())
        return _limited(start, self.product, factors)

    def factor(self):
        value = self.atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("num")
            if tok[2] or not tok[1].is_integer() or tok[1] < 0:
                raise ParseError("exponent must be a nonnegative integer", tok[3])
            value = _limited(tok[3], self.power, value, int(tok[1]))
        return value

    def atom(self):
        tok = self.peek()
        kind = tok[0]
        if kind == "var":
            self.next()
            return _limited(tok[3], self.variable, tok[1])
        if kind == "num":
            self.next()
            return _limited(tok[3], self.scalar,
                            tok[1] * 1j if tok[2] else tok[1])
        if kind == "(":
            self.next()
            lit = self._complex_literal()
            if lit is not None:
                return lit
            value = self.expr()
            self.expect(")")
            return value
        if kind == "[":
            self.next()
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            return _limited(tok[3], self.commutator, a, b)
        raise ParseError("expected a variable, number, '(' or '['", tok[3])

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
            return _limited(t0[3], self.scalar, complex(t0[1], imag))
        return None

    def variable(self, index):
        return 1.0, self.program.add(("x", (), index))

    def scalar(self, c):
        return _finite(c), None

    def sum(self, signed):
        summands = [(-c if sign == "-" else c, j) for sign, (c, j) in signed]
        if len(summands) == 1:
            return summands[0]
        if all(j is None for _, j in summands):
            total = 0j
            for c, _ in summands:
                total += c
            return _finite(total), None
        one = None
        if any(j is None for _, j in summands):
            one = self.program.add(("1", (), None))
        operands = tuple(one if j is None else j for _, j in summands)
        node = ("+", operands, tuple(c for c, _ in summands))
        return 1.0, self.program.add(node)

    def product(self, factors):
        c, j = factors[0]
        for c2, j2 in factors[1:]:
            c = c * c2
            if j is None:
                j = j2
            elif j2 is not None:
                j = self.program.add(("*", (j, j2), None))
        return _finite(c), j

    def power(self, value, e):
        c, j = value
        if e == 0:
            return 1.0, None
        c = _finite(_power_by_squaring(c, e, operator.mul))
        if j is None or e == 1:
            return c, j
        return c, self.program.add(("^", (j,), e))

    def commutator(self, a, b):
        (ca, ja), (cb, jb) = a, b
        if ja is None or jb is None:
            return 0.0, None     # a scalar commutes with everything
        return _finite(ca * cb), self.program.add(("[]", (ja, jb), None))


def _finite(c):
    """The scalar c, refused when it is not finite: text cannot spell an
    infinite or NaN coefficient."""
    if not cmath.isfinite(c):
        raise ValueError("scalar overflows the double range")
    return c


def _limited(position, build, *args):
    """build(*args), with a program beyond its bounds reported as a
    ParseError at the given text position."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(str(exc), position) from None


def parse(text):
    """The polynomial of `text`: the text as given, compiled into its
    program. Raises ParseError."""
    try:
        parser = _Parser(text)
        value = parser.parse()
    except RecursionError:
        raise ParseError("polynomial text is nested too deeply", 0) from None
    return NcPolynomial(text, _limited(0, parser.program.finish, *value))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# A stack is evaluated in blocks of tuples whose arguments take at most this
# many bytes each (a whole stack at n = 12 and 32 tuples). Larger
# temporaries cost more in page faults and cache misses than batching
# saves: on a 2-core VM with BLAS at one thread, [X1,X2] on 32 tuples at
# n = 64 took 4.5 ms in one block and 2.6 ms in blocks of 4.
_BLOCK_BYTES = 1 << 18


def evaluate(f, args):
    """Substitute the matrices `args` into f and return the image.

    args[k] stands for X(k+1); extra arguments beyond f.num_vars are ignored.
    The arguments share one shape: (n, n) for one tuple, or (S, n, n) for a
    stack of S tuples, where slice s of every argument is tuple s. The image
    has that same shape, and slice s of it equals the image of tuple s bit
    for bit.

    f's program runs over the stack with one batched `@` per product, each
    value freed after the last node that reads it.
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
    program = f.program
    if len(stacks) < program.num_vars:
        raise ValueError(f"polynomial uses X{program.num_vars} but only "
                         f"{len(stacks)} arguments were given")
    # products that overflow give inf or NaN parts, which the callers' gates
    # report, without NumPy's warnings beside them
    with np.errstate(over="ignore", invalid="ignore"):
        if len(shape) == 2:
            return program.run(stacks)
        out = np.empty(shape, dtype=complex)
        block = max(1, _BLOCK_BYTES // (16 * shape[-1] ** 2))
        for lo in range(0, shape[0], block):
            out[lo:lo + block] = program.run([a[lo:lo + block]
                                              for a in stacks])
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


def _times_pow2(M, e):
    """M times 2^e, exact while the parts stay normal. e broadcasts against
    M viewed as floats, an entry's two parts side by side on the last axis."""
    return np.ldexp(np.ascontiguousarray(M).view(float), e).view(complex)


def _exponent(M):
    """The least e with every part of M below 2^e; None for a zero M."""
    top = max(np.abs(M.real).max(initial=0.0), np.abs(M.imag).max(initial=0.0))
    return int(np.frexp(top)[1]) if top else None


def fro(M):
    """||M||_F at every scale: np.linalg.norm inside [2^-500, 2^500], where
    no square overflows and no square that underflows counts; outside, 2^e
    times the norm of M 2^-e, e the exponent of M's largest part (Blue 1978;
    LAPACK's zlassq). A norm past the double range is inf, with no warning."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(M))
        if 2.0 ** -500 <= norm <= 2.0 ** 500:
            return norm
        M = np.asarray(M, dtype=complex)
        e = _exponent(M)
        return norm if e is None else float(
            np.ldexp(np.linalg.norm(_times_pow2(M, -e)), e))


def scalar_distance(M):
    """Frobenius distance to the scalar matrices (orthogonal projection
    under the trace inner product)."""
    n = M.shape[0]
    return float(np.linalg.norm(M - (np.trace(M) / n) * np.eye(n)))


def classify(f, n, samples=CLASSIFY_SAMPLES, tol=CLASSIFY_TOL, seed=0):
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
    powers, formed = images, 1     # powers: images to the power `formed`
    first = images[0]              # sample 0's power, formed on its own
    for k in range(1, CLASSIFY_KMAX + 1):
        if k > 1:
            first = first @ images[0]
            # ||P||_F <= scale**k for every sample's power P (Frobenius
            # submultiplicativity), so a sample 0 this far from the scalars
            # fails the test below and leaves power_scale above the break
            if scalar_distance(first) > 2 * tol * scale ** k:
                continue
        for formed in range(formed + 1, k + 1):
            powers = powers @ images
        power_scale = float(np.linalg.norm(powers, axis=(1, 2)).max())
        if power_scale <= tol * scale ** k:
            break  # f^k vanished on all samples; no higher power turns central
        # one slice at a time: the first nonscalar power decides
        if all(scalar_distance(P) <= tol * power_scale for P in powers):
            verdict = VERDICT_CENTRAL if k == 1 else VERDICT_K_CENTRAL
            return PolyClass(verdict, k, n, samples, tol)
    return PolyClass(VERDICT_GENERIC, None, n, samples, tol)
