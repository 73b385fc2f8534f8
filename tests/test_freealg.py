import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matwaring import freealg
from matwaring.errors import ParseError
from matwaring.freealg import (
    PARSE_BUDGET,
    PROGRAM_BUDGET,
    NcPolynomial,
    _Parser,
    classify,
    evaluate,
    parse,
    random_tuple,
    scalar_distance,
)

from conftest import random_complex


def word_by_word_oracle(f, args):
    """The evaluator without prefix sharing: every word multiplied out from
    the identity in the order of f.terms, one tuple at a time. A stack of
    tuples (arguments of shape (S, n, n)) is evaluated slice by slice."""
    mats = [np.asarray(a, dtype=complex) for a in args]
    if mats[0].ndim == 3:
        return np.stack([word_by_word_oracle(f, [a[s] for a in mats])
                         for s in range(mats[0].shape[0])])
    n = mats[0].shape[0]
    out = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for word, coeff in f.terms.items():
        prod = eye
        for v in word:
            prod = prod @ mats[v - 1]
        out += coeff * prod
    return out


def stacked_tuples(rng, n, m, S):
    """S random m-tuples, returned with their (S, n, n) argument stacks."""
    tuples = [random_tuple(rng, n, m) for _ in range(S)]
    return tuples, [np.stack(mats) for mats in zip(*tuples)]


def pairwise_product_oracle(p, q):
    """NcPolynomial.__mul__ before products were formed in one pass: the
    product of two polynomials, canonicalized."""
    out = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            out[w1 + w2] = out.get(w1 + w2, 0j) + c1 * c2
    return NcPolynomial(out)


class PairwiseParser(_Parser):
    """The parser with every value a canonical polynomial: every sum, '*'
    and power multiplies out two polynomials at a time, left to right, as
    before text was compiled into a program."""

    def variable(self, index, position):
        return NcPolynomial.variable(index)

    def scalar(self, c):
        return NcPolynomial.constant(c)

    def sum(self, signed, position):
        out = NcPolynomial.zero()
        for sign, p in signed:
            out = out + (-1.0 if sign == "-" else 1.0) * p
        return out

    def product(self, factors, position):
        poly = factors[0]
        for p in factors[1:]:
            poly = pairwise_product_oracle(poly, p)
        return poly

    def power(self, poly, k, position):
        result = NcPolynomial.constant(1.0)
        for _ in range(k):
            result = pairwise_product_oracle(result, poly)
        return result

    def commutator(self, a, b, position):
        return pairwise_product_oracle(a, b) - pairwise_product_oracle(b, a)


# every polynomial text of the test suite and the benchmark, products of
# sums, and a power whose partial products list their words out of prefix
# order
_PARSE_TEXTS = [
    "[X1,X2]", "[X1,X2]^2", "X1", "X1*X2", "X1*X2 + X1", "X1^2 + X2",
    "X1^2+X1", "X1^2*X2 - X2*X1^2", "X1^2*X2 - X2*X1^2 + [X1,X2]",
    "X1*X2*X3 - X3*X2*X1", "[[X1,X2],X3]", "(X1 + X2)*X3", "-X1 + X2",
    "X1 - X1", "[X1,X1]", "X1*X2 - 2*X2^2", "[X1,X2] + (0.25)",
    "[X1,X2] + (0.5)", "(0.5+0.3i)*X1 - (1.5-2i)", "2.5*X1^3 - 0.125*X2*X1",
    "(X1+X2*X3+X3*X1)^4", "(X1+X2*X3+X3*X1)^4 + [X1,X2] + (0.5-1i)",
    "(X1+X2)*(X1-X2)*(X2+X1)", "(X1+X2)^3*(X1-X2)^2",
    "(0.1*X1+0.3*X2)*(0.7*X1-0.2*X2+X3)*(X3+0.1)",
    "(X1+X2*X1)*(X2-X1*X2)*(X1+X2)^2", "(X3 + X3*X2 + X2*X3*X1)^3",
]


@pytest.mark.parametrize("text", _PARSE_TEXTS)
def test_parse_keeps_pairwise_word_order(text):
    # the expansion behind `terms` forms the words and coefficients that
    # multiplying out two at a time gives, in that order, from the text, its
    # program text and its word text alike
    f = parse(text)
    for t in (text, f.to_string(), f.to_word_string()):
        expected = PairwiseParser(t).parse()
        assert list(parse(t).terms.items()) == list(expected.terms.items())


class TestParse:
    def test_commutator_expansion(self):
        f = parse("[X1,X2]")
        assert f.terms == {(1, 2): 1 + 0j, (2, 1): -1 + 0j}

    def test_constant_term(self):
        f = parse("[X1,X2] + (0.5)")
        assert f.terms[()] == 0.5
        assert f.terms[(1, 2)] == 1

    def test_power_desugaring(self):
        f = parse("X1^2*X2 - X2*X1^2")
        assert f.terms == {(1, 1, 2): 1 + 0j, (2, 1, 1): -1 + 0j}

    def test_complex_literal(self):
        f = parse("(0.5+0.3i)*X1")
        assert f.terms == {(1,): 0.5 + 0.3j}
        g = parse("(1-2i)")
        assert g.terms == {(): 1 - 2j}

    def test_parenthesized_expression(self):
        f = parse("(X1 + X2)*X3")
        assert f.terms == {(1, 3): 1 + 0j, (2, 3): 1 + 0j}

    def test_leading_sign(self):
        f = parse("-X1 + X2")
        assert f.terms == {(1,): -1 + 0j, (2,): 1 + 0j}

    def test_nested_commutator(self):
        f = parse("[[X1,X2],X3]")
        assert len(f.terms) == 4
        assert f.terms[(1, 2, 3)] == 1

    def test_cancellation(self):
        assert parse("X1 - X1").is_zero()

    def test_variable_index_zero(self):
        with pytest.raises(ParseError) as err:
            parse("X0")
        assert err.value.position == 0

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("X1 + ")
        assert err.value.position == 5

    def test_unbalanced_bracket(self):
        with pytest.raises(ParseError):
            parse("[X1,X2")

    def test_malformed_complex(self):
        with pytest.raises(ParseError):
            parse("(1.5+i)")

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse("X1^1.5")

    def test_infinite_exponent(self):
        # 1e400 reads as inf, which has no integer value to check against
        with pytest.raises(ParseError, match="exponent"):
            parse("X1^1e400")

    @pytest.mark.parametrize("text, position", [
        ("(2)^16000*X1 + X2", 4),      # the power overflows at its exponent
        ("1e999*X1", 0),
        ("1e200*1e200*X1", 0),         # the product of a term, at its start
        ("X2 + [1e200*X1, 1e200*X2]", 5),
        ("(1+1e999i)*X1", 1),
    ])
    def test_non_finite_scalar_is_refused(self, text, position):
        # printed, it would read inf, which the grammar cannot read back
        with pytest.raises(ParseError, match="overflows") as err:
            parse(text)
        assert err.value.position == position

    def test_large_finite_scalar_round_trips(self):
        f = parse("1e300*X1")
        assert f.to_string() == "1e+300*X1"
        assert parse(f.to_string()).to_string() == f.to_string()
        assert f.terms == {(1,): 1e300}


class TestParseBudget:
    @pytest.mark.parametrize("text, position", [
        ("X1^1000000", 3),                 # degree beyond DEGREE_LIMIT
        ("X1^1e300", 3),
        ("(X1+X2)^40", 8),                 # a cheap program of 2^40 words
        ("X1^200*X2^200", 3),              # words of 200 letters
        ("X3 + (X1*X2+X2*X1+X1)^12", 22),
        # the power is made once; the sum of its 1000 copies runs out
        ("+".join(["(X1+X2)^8"] * 1000), 0),
        # two nodes a product: the 2048th product runs out
        ("+".join(f"X{i}*X{i + 1}" for i in range(1, 3000)), 22353),
        ("((X1^1000)^1000)^1000", 11),     # each power cheap, degree 10^9
        ("(" * 5000 + "X1" + ")" * 5000, 0),
    ], ids=["long-power", "huge-power", "many-words", "long-words",
            "many-words-late", "many-products", "many-nodes",
            "nested-powers", "deep-nesting"])
    def test_oversized_text_is_a_parse_error(self, text, position):
        # refused by the program's bounds when parsed, or by PARSE_BUDGET
        # when its words are multiplied out
        start = time.perf_counter()
        with pytest.raises(ParseError, match="limit|nested too deeply") as err:
            parse(text).terms
        assert err.value.position == position
        # refused before the work, not after (a stall took hours)
        assert time.perf_counter() - start < 5.0

    def test_program_cost_counts_products_not_words(self):
        # 2^40 words, but 18 units: two variables, a sum of two and a power
        # whose exponent has 6 bits (5 squarings and 1 product)
        assert parse("(X1+X2)^40").program.cost == 18
        assert parse("X1^1024").program.cost <= PROGRAM_BUDGET

    def test_polynomials_in_use_are_well_inside(self, monkeypatch):
        monkeypatch.setattr(freealg, "PARSE_BUDGET", PARSE_BUDGET // 4)
        texts = ["(X1+X2*X3+X3*X1)^4 + [X1,X2] + (0.5-1i)",
                 "(X3 + X3*X2 + X2*X3*X1)^3",
                 "(X1+X2*X1)*(X2-X1*X2)*(X1+X2)^2", "[X1,X2]^2"]
        # older certificates store the expanded text, 81 words at degree 8
        texts.append(parse("(X1+X2*X3+X3*X1)^4").to_word_string())
        for text in texts:
            f = parse(text)
            assert 4 * f.program.cost <= PROGRAM_BUDGET
            f.terms     # multiplied out within a quarter of PARSE_BUDGET

    def test_text_inside_the_budget_parses(self):
        assert len(parse("(X1+X2)^9").terms) == 512
        assert len(parse("X1^100*X2^100").terms) == 1

    def test_library_power_is_refused_before_its_factors_are_listed(self):
        x = NcPolynomial.variable(1)
        with pytest.raises(ValueError, match="limit"):
            x ** (10 ** 300)
        # library products are not charged to any budget
        assert (x ** 200 * x).terms == {(1,) * 201: 1.0}


class TestPrintRoundTrip:
    CASES = [
        "[X1,X2]",
        "[X1,X2] + (0.5)",
        "X1^2*X2 - X2*X1^2",
        "(0.5+0.3i)*X1 - (1.5-2i)",
        "X1*X2*X3 - X3*X2*X1",
        "X1^2 + X2",
        "2.5*X1^3 - 0.125*X2*X1",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        f = parse(text)
        assert parse(f.to_string()) == f

    def test_random_polynomials(self, rng):
        for _ in range(50):
            terms = {}
            for _ in range(rng.integers(1, 6)):
                word = tuple(rng.integers(1, 4, size=rng.integers(0, 5)))
                terms[word] = complex(rng.standard_normal(),
                                      rng.standard_normal())
            f = NcPolynomial(terms)
            assert parse(f.to_string()) == f


class TestEvaluate:
    def test_identity_commutes(self, rng):
        f = parse("[X1,X2]")
        M = random_complex(rng, 3)
        image = evaluate(f, (np.eye(3), M))
        assert np.abs(image).max() < 1e-14

    def test_square_zero(self):
        f = parse("X1^2")
        N = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.abs(evaluate(f, (N,))).max() == 0

    def test_matrix_unit_commutator(self):
        # E11 E12 = E12 and E12 E11 = 0, so [E11, E12] = E12
        f = parse("[X1,X2]")
        E11 = np.array([[1, 0], [0, 0]], dtype=complex)
        E12 = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(evaluate(f, (E11, E12)), E12)

    def test_constant_contributes_identity(self):
        f = parse("(0.5)")
        out = evaluate(f, (np.zeros((3, 3)),))
        assert np.allclose(out, 0.5 * np.eye(3))

    def test_too_few_arguments(self):
        with pytest.raises(ValueError):
            evaluate(parse("X2"), (np.eye(2),))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(parse("X1*X2"), (np.eye(2), np.eye(3)))

    def test_batch_size_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(parse("X1*X2"), (np.zeros((2, 3, 3)), np.zeros((4, 3, 3))))
        with pytest.raises(ValueError):
            evaluate(parse("X1*X2"), (np.zeros((2, 3, 3)), np.eye(3)))

    @pytest.mark.parametrize("text", [
        "[X1,X2]",
        "X1^2*X2 - X2*X1^2 + [X1,X2]",
        "(X1+X2*X3+X3*X1)^4",
    ])
    @pytest.mark.parametrize("S", [None, 1, 4, 32])
    def test_bit_identical_to_word_by_word(self, rng, text, S):
        # a polynomial built from its words is their sum, word by word; the
        # program of [X1,X2] makes the same two products and one difference
        f = parse(text)
        words = NcPolynomial(f.terms)
        tuples, stacks = stacked_tuples(rng, 12, 3, S or 1)
        args = tuples[0] if S is None else stacks
        assert np.array_equal(evaluate(words, args),
                              word_by_word_oracle(f, args))
        if text == "[X1,X2]":
            assert np.array_equal(evaluate(f, args), evaluate(words, args))

    @pytest.mark.parametrize("n", [12, 64])   # one block, and two blocks
    def test_batch_invariance(self, rng, n):
        f = parse("(X1+X2*X3+X3*X1)^4 + [X1,X2] + (0.5-1i)")
        tuples, stacks = stacked_tuples(rng, n, 3, 5)
        batched = evaluate(f, stacks)
        assert batched.shape == (5, n, n)
        for s, tp in enumerate(tuples):
            assert np.array_equal(batched[s], evaluate(f, tp))

    def test_linearity(self, rng):
        for _ in range(20):
            f = parse("X1*X2 - 2*X2^2")
            g = parse("[X1,X2] + (0.25)")
            args = random_tuple(rng, 3, 2)
            lhs = evaluate(f + g, args)
            rhs = evaluate(f, args) + evaluate(g, args)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_conjugation_equivariance(self, rng):
        # f(T a T^-1, ...) = T f(a, ...) T^-1 for invertible T
        f = parse("X1^2*X2 - X2*X1^2 + [X1,X2]")
        for _ in range(20):
            args = random_tuple(rng, 3, 2)
            T = random_complex(rng, 3)
            Tinv = np.linalg.inv(T)
            kappa = np.linalg.norm(T) * np.linalg.norm(Tinv)
            base = evaluate(f, args)
            lhs = T @ base @ Tinv
            rhs = evaluate(f, tuple(T @ a @ Tinv for a in args))
            bound = 1e-10 * kappa * max(np.linalg.norm(base), 1.0)
            assert np.linalg.norm(lhs - rhs) <= bound


class TestClassify:
    def test_commutator_on_scalars_is_identity(self):
        assert classify(parse("[X1,X2]"), 1).verdict == "identity"

    def test_squared_commutator_central_n2(self, rng):
        # Cayley-Hamilton oracle: a trace-zero 2x2 C satisfies C^2 = -det(C) I
        for _ in range(100):
            X, Y = random_complex(rng, 2), random_complex(rng, 2)
            C = X @ Y - Y @ X
            lhs = C @ C + np.linalg.det(C) * np.eye(2)
            assert np.abs(lhs).max() <= 1e-10 * max(1, np.abs(C @ C).max())
        assert classify(parse("[X1,X2]^2"), 2).verdict == "central"

    def test_squared_commutator_generic_n3(self):
        assert classify(parse("[X1,X2]^2"), 3).verdict == "generic"

    def test_commutator_two_central_n2(self):
        # C^2 scalar by Cayley-Hamilton while C itself is not, so the least
        # central power is 2
        verdict = classify(parse("[X1,X2]"), 2)
        assert verdict.verdict == "k-central"
        assert verdict.k == 2

    def test_commutator_generic_n3(self):
        # one nonscalar image suffices: [E11, E12] = E12
        E11 = np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        E12 = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        image = evaluate(parse("[X1,X2]"), (E11, E12))
        assert scalar_distance(image) > 0.5
        assert classify(parse("[X1,X2]"), 3).verdict == "generic"

    def test_zero_polynomial(self):
        assert classify(NcPolynomial.zero(), 2).verdict == "identity"

    def test_constant_polynomial_central(self):
        assert classify(parse("(2.0)"), 3).verdict == "central"

    def test_scalar_distance_is_projection(self, rng):
        # the residual M - (tr M / n) I is trace-orthogonal to the identity
        M = random_complex(rng, 4)
        R = M - (np.trace(M) / 4) * np.eye(4)
        assert abs(np.trace(R)) < 1e-12
        assert np.isclose(scalar_distance(M), np.linalg.norm(R))

    def test_determinism(self):
        a = classify(parse("X1*X2"), 3, seed=42)
        b = classify(parse("X1*X2"), 3, seed=42)
        assert a == b

    @pytest.mark.parametrize("text, n, verdict, k", [
        ("[X1,X2]", 1, "identity", None),
        ("[X1,X2]", 2, "k-central", 2),
        ("[X1,X2]", 3, "generic", None),
        ("[X1,X2]^2", 2, "central", 1),
        ("[X1,X2]^2", 3, "generic", None),
        ("X1*X2", 3, "generic", None),
        ("(2.0)", 3, "central", 1),
        ("0", 2, "identity", None),
    ])
    def test_verdict_table(self, text, n, verdict, k):
        cls = classify(parse(text), n)
        assert (cls.verdict, cls.k) == (verdict, k)


_words = st.lists(st.integers(1, 3), max_size=5).map(tuple)
_coeffs = st.complex_numbers(max_magnitude=4, allow_nan=False,
                             allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_words, _coeffs), min_size=1, max_size=10),
       _coeffs, st.integers(1, 4), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_evaluate_matches_oracle_property(draws, constant, S, n, seed):
    # each drawn word and its first half are added as monomials, so repeated
    # words merge and prefixes of other words are words themselves
    f = NcPolynomial.constant(constant)
    for word, c in draws:
        f = f + NcPolynomial({word: c}) + NcPolynomial({word[:len(word) // 2]: c})
    _, stacks = stacked_tuples(np.random.default_rng(seed), n, 3, S)
    got = evaluate(f, stacks)
    # the oracle sums the words in reverse, so the comparison does not rest
    # on the two summing in the same order
    reverse = SimpleNamespace(terms=dict(reversed(f.terms.items())))
    ref = word_by_word_oracle(reverse, stacks)
    scale = sum(
        abs(c) * np.linalg.norm(word_by_word_oracle(NcPolynomial({w: 1}), stacks),
                                axis=(1, 2))
        for w, c in f.terms.items()
    )
    assert np.all(np.linalg.norm(got - ref, axis=(1, 2)) <= 1e-12 * scale)


def absolute_run(program, stacks):
    """The program with every coefficient, argument and product made
    nonnegative (a commutator becomes a*b + b*a): an entrywise bound on
    every value the program forms, the scale of its rounding."""
    values = []
    for op, operands, parameter in program.nodes:
        args = [values[j] for j in operands]
        if op == "x":
            value = np.abs(stacks[parameter - 1])
        elif op == "1":
            value = np.eye(stacks[0].shape[-1])
        elif op == "+":
            value = sum(abs(c) * a for c, a in zip(parameter, args))
        elif op == "*":
            value = args[0] @ args[1]
        elif op == "^":
            value = np.linalg.matrix_power(args[0], parameter)
        else:
            value = args[0] @ args[1] + args[1] @ args[0]
        values.append(value + 0 * stacks[0].real)  # broadcast to the stack
    return values[-1]


_VARIABLES = st.integers(1, 3).map(lambda i: f"X{i}")
_ATOMS = st.one_of(_VARIABLES, _VARIABLES, _VARIABLES,
                   st.sampled_from(["2", "0.5", "(0.5-1.5i)", "3.25"]))


@st.composite
def grammar_texts(draw, depth=5):
    """Random text of the grammar: sums, differences, products with and
    without parentheses (precedence rebinds those without), powers,
    commutators and negations, nested up to `depth`."""
    if depth == 0 or draw(st.integers(0, 4)) == 4:
        return draw(_ATOMS)
    a = draw(grammar_texts(depth - 1))
    kind = draw(st.integers(0, 6))
    if kind == 4:
        return f"({a})^{draw(st.integers(0, 4))}"
    if kind == 5:
        return f"(-{a})"
    b = draw(grammar_texts(depth - 1))
    return [f"{a} + {b}", f"{a} - {b}", f"({a})*({b})", f"{a}*{b}",
            None, None, f"[{a},{b}]"][kind]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grammar_texts(), st.integers(1, 3), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_program_matches_word_sum_property(text, S, n, seed):
    f = parse(text)
    tuples, stacks = stacked_tuples(np.random.default_rng(seed), n, 3, S)
    got = evaluate(f, stacks)
    # slices of a stack are the single-tuple images, bit for bit
    for s, tp in enumerate(tuples):
        assert np.array_equal(got[s], evaluate(f, tp))
    # print then parse: the same text, and (below) the same words
    g = parse(f.to_string())
    assert g.to_string() == f.to_string()
    try:
        words = f.terms
    except ParseError:
        return      # a few powers of long sums multiply out past PARSE_BUDGET
    assert list(g.terms.items()) == list(words.items())
    # the program and the sum of its words agree to rounding: both err by
    # at most a few hundred ulps (the degree and n are small) of the
    # absolute program, which bounds every value either one forms
    ref = evaluate(NcPolynomial(words), stacks)
    scale = np.linalg.norm(absolute_run(f.program, stacks), axis=(1, 2))
    assert np.all(np.linalg.norm(got - ref, axis=(1, 2)) <= 1e-13 * scale)
