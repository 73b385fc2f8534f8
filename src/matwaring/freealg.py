"""Noncommutative polynomials over complex matrices.

A polynomial is a complex-weighted sum of words in the variables X1, X2, ...
Words multiply by concatenation; nothing commutes except scalars. Evaluation
substitutes square matrices for the variables; the empty word contributes a
multiple of the identity.

`parse` keeps a polynomial as its text is written: it compiles the text into
a straight-line program (see `_Program`), and `evaluate` runs that program.
(X1+X2*X3+X3*X1)^4 costs two products for its base and two squarings, where
its 81 words would cost 197 products. The words are multiplied out only for
the structure queries that need them (`terms`, `is_multilinear`, equality,
`to_word_string`).

The text grammar (parsed by `parse`, printed by `NcPolynomial.to_string`):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := var | scalar | '(' expr ')' | '[' expr ',' expr ']'
    var    := 'X' uint              (uint >= 1)
    scalar := '(' decimal ('+'|'-') decimal 'i' ')' | decimal

The commutator [a,b] is a*b - b*a.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .config import CLASSIFY_KMAX, CLASSIFY_SAMPLES, CLASSIFY_TOL
from .errors import ParseError

Word = tuple  # tuple of 1-based variable indices; () is the constant word

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

# Multiplying out the words of parsed text may write at most PARSE_BUDGET
# units, one per word and one per letter, over all the products and sums it
# forms; beyond that the structure query raises ParseError. A cheap program
# can have many words ((X1+X2)^k has 2^k), so the expansion keeps a bound of
# its own. (X1+X2*X3+X3*X1)^4 takes 843 units to multiply out, and its
# 81-word text 1966.
PARSE_BUDGET = 1 << 14

# Variables are X1 .. X{VARIABLE_LIMIT}. Classification and the witness
# search draw one random matrix per variable up to the largest index used,
# so an unbounded index (X100000000) would let short text exhaust memory.
VARIABLE_LIMIT = 64


class NcPolynomial:
    """A polynomial, held as its words, as a program or as both.

    `terms` maps each word to its nonzero coefficient. A polynomial built
    from terms (the constructor and the arithmetic operators) evaluates as
    the sum of its words in the order of `terms`, each word a left-to-right
    product, with the product of a shared prefix formed once. A parsed
    polynomial evaluates as its text is written, and multiplies its words
    out only when `terms` is first read, within PARSE_BUDGET.

    `_prepared` holds what the decomposition routes derive from the
    polynomial before they see a target (waring._prepared), so it lives and
    dies with the polynomial.
    """

    def __init__(self, terms=None):
        merged = {}
        for word, coeff in (terms or {}).items():
            word = tuple(int(i) for i in word)
            if any(i < 1 for i in word):
                raise ValueError(f"variable indices must be >= 1, got {word}")
            merged[word] = merged.get(word, 0j) + complex(coeff)
        self._terms = {w: c for w, c in merged.items() if c != 0}
        self._program = None
        self._prepared = {}

    @classmethod
    def _compiled(cls, program):
        poly = cls.__new__(cls)
        poly._terms, poly._program, poly._prepared = None, program, {}
        return poly

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def variable(cls, index):
        return cls({(index,): 1.0})

    @property
    def terms(self):
        if self._terms is None:
            self._terms = self._program.expand()
        return self._terms

    @property
    def program(self):
        if self._program is None:
            self._program = _word_sum(self._terms)
        return self._program

    @property
    def num_vars(self):
        """How many arguments evaluation reads: the largest variable index
        of the program."""
        return self.program.num_vars

    def __add__(self, other):
        return NcPolynomial(_sum((self.terms, _coerce(other).terms)))

    __radd__ = __add__

    def __neg__(self):
        return NcPolynomial({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        return NcPolynomial(_times(self.terms, _coerce(other).terms))

    def __rmul__(self, scalar):
        return NcPolynomial({w: scalar * c for w, c in self.terms.items()})

    def __pow__(self, k):
        return NcPolynomial(_power(self.terms, k))

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
        m = max((max(w) for w in self.terms if w), default=0)
        if m == 0:
            return False
        target = tuple(range(1, m + 1))
        return all(tuple(sorted(w)) == target for w in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))

    def to_string(self):
        """The program as text: parsing it gives back this program."""
        return self.program.text()

    def to_word_string(self):
        """The words and coefficients as text, shortest words first."""
        return _join_terms(_format_term(c, "*".join(_format_run(v, k)
                                                   for v, k in _runs(w)))
                           for w, c in self.sorted_terms())

    def __repr__(self):
        return f"NcPolynomial({self.to_string()!r})"


def _coerce(value):
    if isinstance(value, NcPolynomial):
        return value
    if isinstance(value, (int, float, complex)):
        return NcPolynomial.constant(value)
    raise TypeError(f"cannot combine NcPolynomial with {type(value).__name__}")


# ---------------------------------------------------------------------------
# words: the expansion behind `terms`
# ---------------------------------------------------------------------------

def _units(words):
    """The size of some words: one unit per word and one per letter."""
    return len(words) + sum(map(len, words))


def _sum(term_dicts, charge=None):
    """The sum of some term dicts, cancelled words dropped. charge, when
    given, is called with the units of each summand (see PARSE_BUDGET)."""
    out = {}
    for terms in term_dicts:
        if charge is not None:
            charge(_units(terms))
        for w, c in terms.items():
            out[w] = out.get(w, 0j) + c
    return {w: c for w, c in out.items() if c != 0}


def _times(p, q, charge=None):
    """The product of two term dicts, cancelled words dropped. charge, when
    given, is called first with the units of the words it will write."""
    if charge is not None:
        charge(len(p) * len(q) + len(q) * sum(map(len, p))
               + len(p) * sum(map(len, q)))
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            w = w1 + w2
            out[w] = out.get(w, 0j) + c1 * c2
    return {w: c for w, c in out.items() if c != 0}


def _power(terms, k, charge=None):
    """terms to the k-th power, one factor at a time from the left."""
    if k < 0:
        raise ValueError("negative polynomial powers are not defined")
    if k > PARSE_BUDGET:
        # refused before any factor is formed; every factor costs an
        # expansion at least one unit, so none could afford more
        raise ValueError(f"power exceeds the limit of {PARSE_BUDGET} factors")
    out = {(): 1.0 + 0j}
    for _ in range(int(k)):
        out = _times(out, terms, charge)
    return out


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _format_decimal(x):
    # repr round-trips doubles exactly
    return repr(float(x))


def _format_term(coeff, body):
    """(sign, text) of coeff times body (body "" for the identity), with
    the sign factored out of the real part."""
    coeff = complex(coeff)
    if coeff.imag == 0:
        sign = "-" if coeff.real < 0 else "+"
        mag = abs(coeff.real)
        if body and mag == 1.0:
            return sign, body
        cstr = _format_decimal(mag)
        return sign, f"{cstr}*{body}" if body else cstr
    # complex coefficient: parenthesized literal, sign factored from Re (or Im)
    sign = "+"
    if coeff.real < 0 or (coeff.real == 0 and coeff.imag < 0):
        sign, coeff = "-", -coeff
    mid = "+" if coeff.imag >= 0 else "-"
    cstr = f"({_format_decimal(coeff.real)}{mid}{_format_decimal(abs(coeff.imag))}i)"
    return sign, f"{cstr}*{body}" if body else cstr


def _join_terms(signed):
    """A sum of (sign, text) terms as text; "0" when there are none."""
    parts = []
    for sign, body in signed:
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) or "0"


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
# programs
# ---------------------------------------------------------------------------

# binding strength of a node's place in text: a node binding more loosely
# than its place is parenthesized
_IN_SUM, _IN_PRODUCT, _RIGHT_FACTOR, _BASE = range(4)
_BINDS = {"+": _IN_SUM, "*": _IN_PRODUCT, "^": _RIGHT_FACTOR}


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
    `budget` when one is given; `finish` fixes the value, keeping only the
    nodes it reads: the value is the last node.
    """

    def __init__(self, budget=None):
        self.nodes = []
        self.positions = []   # where in the text each node was made
        self._index = {}
        self._degrees = []
        self._budget = budget
        self.cost = 0

    def add(self, node, position=0):
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
        if self._budget is not None:
            if degree > DEGREE_LIMIT:
                raise ValueError(f"polynomial degree {degree} exceeds the "
                                 f"limit of {DEGREE_LIMIT}")
            if self.cost + cost > self._budget:
                raise ValueError("polynomial program exceeds the limit of "
                                 f"{self._budget} units (nodes, summands "
                                 "and exponent bits)")
        self.cost += cost
        self._index[node] = len(self.nodes)
        self.nodes.append(node)
        self.positions.append(position)
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
        nodes, positions = [], []
        for k in range(j + 1):
            if live[k]:
                op, operands, parameter = self.nodes[k]
                renumber[k] = len(nodes)
                nodes.append((op, tuple(renumber[o] for o in operands),
                              parameter))
                positions.append(self.positions[k])
        self.nodes, self.positions = tuple(nodes), positions
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

    def expand(self):
        """The words of the value, formed within PARSE_BUDGET units."""
        units = 0

        def charge(n):
            nonlocal units
            units += n
            if units > PARSE_BUDGET:
                raise ValueError(
                    "polynomial multiplies out beyond the limit of "
                    f"{PARSE_BUDGET} units (words and letters)")

        words = []
        for (op, operands, parameter), position in zip(self.nodes,
                                                       self.positions):
            args = [words[j] for j in operands]
            try:
                if op == "x":
                    terms = {(parameter,): 1.0 + 0j}
                elif op == "1":
                    terms = {(): 1.0 + 0j}
                elif op == "+":
                    terms = _sum(({w: c * x for w, x in a.items()}
                                  for c, a in zip(parameter, args)), charge)
                elif op == "*":
                    terms = _times(*args, charge)
                elif op == "^":
                    terms = _power(args[0], parameter, charge)
                else:
                    a, b = args
                    ba = _times(b, a, charge)
                    terms = _sum((_times(a, b, charge),
                                  {w: -c for w, c in ba.items()}), charge)
                if not all(map(cmath.isfinite, terms.values())):
                    raise ValueError("coefficient overflows the double range")
            except ValueError as exc:
                raise ParseError(str(exc), position) from None
            words.append(terms)
        return words[-1]

    def text(self):
        return self._text(len(self.nodes) - 1, _IN_SUM)

    def _text(self, k, place):
        op, operands, parameter = self.nodes[k]
        if op == "x":
            return f"X{parameter}"
        if op == "[]":
            a, b = (self._text(j, _IN_SUM) for j in operands)
            return f"[{a},{b}]"
        if op == "+":
            text = _join_terms(
                _format_term(c, "" if self.nodes[j][0] == "1"
                             else self._text(j, _IN_PRODUCT))
                for c, j in zip(parameter, operands))
        elif op == "^":
            text = f"{self._text(operands[0], _BASE)}^{parameter}"
        else:
            factors = []
            while self.nodes[k][0] == "*":   # the left spine, not recursion
                k, right = self.nodes[k][1]
                factors.append(self._text(right, _RIGHT_FACTOR))
            factors.append(self._text(k, _IN_PRODUCT))
            text = "*".join(reversed(factors))
        if _BINDS[op] < place:
            return f"({text})"
        return text


def _power_by_squaring(x, e):
    result = None
    while True:
        if e & 1:
            result = x if result is None else result @ x
        e >>= 1
        if not e:
            return result
        x = x @ x


def _word_sum(terms):
    """The program of a sum of words: each word a left-to-right chain of
    products, summed in the order of terms."""
    program = _Program()
    words = []
    for word in terms:
        j = program.add(("x", (), word[0]) if word else ("1", (), None))
        for v in word[1:]:
            j = program.add(("*", (j, program.add(("x", (), v))), None))
        words.append(j)
    return program.finish(1.0, program.add(
        ("+", tuple(words), tuple(terms.values()))))


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
            digits = text[i + 1 : j].lstrip("0")
            if not digits:
                raise ParseError("variable index 0 is not allowed", i)
            if (len(digits) > len(str(VARIABLE_LIMIT))
                    or int(digits) > VARIABLE_LIMIT):
                raise ParseError(
                    f"variable index exceeds the limit of {VARIABLE_LIMIT}", i)
            index = int(digits)
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
    """Compiles text into a program as it reads it.

    Each subexpression's value is a pair (c, j): the scalar c times node j
    of the program, or times the identity when j is None. Scalar factors
    fold into c as they are read, so they cost no matrix products. The
    methods `variable` to `commutator` form the values.
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.program = _Program(PROGRAM_BUDGET)

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
        return _limited(start, self.sum, signed, start)

    def term(self):
        start = self.peek()[3]
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.next()
            factors.append(self.factor())
        return _limited(start, self.product, factors, start)

    def factor(self):
        value = self.atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("num")
            if tok[2] or not tok[1].is_integer() or tok[1] < 0:
                raise ParseError("exponent must be a nonnegative integer", tok[3])
            value = _limited(tok[3], self.power, value, int(tok[1]), tok[3])
        return value

    def atom(self):
        tok = self.peek()
        kind = tok[0]
        if kind == "var":
            self.next()
            return _limited(tok[3], self.variable, tok[1], tok[3])
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
            return _limited(tok[3], self.commutator, a, b, tok[3])
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

    def variable(self, index, position):
        return 1.0, self.program.add(("x", (), index), position)

    def scalar(self, c):
        return _finite(c), None

    def sum(self, signed, position):
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
            one = self.program.add(("1", (), None), position)
        operands = tuple(one if j is None else j for _, j in summands)
        node = ("+", operands, tuple(c for c, _ in summands))
        return 1.0, self.program.add(node, position)

    def product(self, factors, position):
        c, j = factors[0]
        for c2, j2 in factors[1:]:
            c = c * c2
            if j is None:
                j = j2
            elif j2 is not None:
                j = self.program.add(("*", (j, j2), None), position)
        return _finite(c), j

    def power(self, value, e, position):
        c, j = value
        if e == 0:
            return 1.0, None
        c = _finite(_scalar_power(c, e))
        if j is None or e == 1:
            return c, j
        return c, self.program.add(("^", (j,), e), position)

    def commutator(self, a, b, position):
        (ca, ja), (cb, jb) = a, b
        if ja is None or jb is None:
            return 0.0, None     # a scalar commutes with everything
        return _finite(ca * cb), self.program.add(("[]", (ja, jb), None),
                                                  position)


def _finite(c):
    """The scalar c, refused when it is not finite: text cannot spell an
    infinite or NaN coefficient, so printing one would not parse back."""
    if not cmath.isfinite(c):
        raise ValueError("scalar overflows the double range")
    return c


def _scalar_power(c, e):
    """c**e by squaring; overflows to infinity instead of raising."""
    result = 1.0
    while e:
        if e & 1:
            result = result * c
        e >>= 1
        if e:
            c = c * c
    return result


def _limited(position, build, *args):
    """build(*args), with a program beyond its bounds reported as a
    ParseError at the given text position."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(str(exc), position) from None


def parse(text):
    """Compile polynomial text into its program. Raises ParseError."""
    try:
        parser = _Parser(text)
        value = parser.parse()
    except RecursionError:
        raise ParseError("polynomial text is nested too deeply", 0) from None
    return NcPolynomial._compiled(_limited(0, parser.program.finish, *value))


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
    if len(shape) == 2:
        return program.run(stacks)
    out = np.empty(shape, dtype=complex)
    block = max(1, _BLOCK_BYTES // (16 * shape[-1] ** 2))
    for lo in range(0, shape[0], block):
        out[lo:lo + block] = program.run([a[lo:lo + block] for a in stacks])
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
    powers, formed = images, 1     # powers: images to the power `formed`
    first = images[0]              # sample 0's power, formed on its own
    for k in range(1, k_max + 1):
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
