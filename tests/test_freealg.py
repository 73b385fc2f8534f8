import time
import warnings
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matwaring.errors import ParseError
from matwaring.freealg import (
    PROGRAM_BUDGET,
    VARIABLE_LIMIT,
    classify,
    evaluate,
    fro,
    parse,
    random_tuple,
    scalar_distance,
)

from conftest import (
    evaluate_words,
    random_complex,
    word_by_word_oracle,
    word_text,
    words,
    words_of,
)


def stacked_tuples(rng, n, m, S):
    """S random m-tuples, returned with their (S, n, n) argument stacks."""
    tuples = [random_tuple(rng, n, m) for _ in range(S)]
    return tuples, [np.stack(mats) for mats in zip(*tuples)]


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
def test_parse_keeps_pairwise_word_order(rng, text):
    # the program multiplies out, two polynomials at a time, to the words
    # and coefficients of the text as written, in that order; and it
    # evaluates to the sum of those words
    f = parse(text)
    expected = words_of(text)
    assert list(words(f).items()) == list(expected.items())
    args = random_tuple(rng, 4, 3)
    assert np.allclose(evaluate(f, args), evaluate_words(expected, args))


class TestParse:
    def test_commutator_expansion(self):
        f = parse("[X1,X2]")
        assert words(f) == {(1, 2): 1 + 0j, (2, 1): -1 + 0j}

    def test_constant_term(self):
        f = parse("[X1,X2] + (0.5)")
        assert words(f)[()] == 0.5
        assert words(f)[(1, 2)] == 1

    def test_power_desugaring(self):
        f = parse("X1^2*X2 - X2*X1^2")
        assert words(f) == {(1, 1, 2): 1 + 0j, (2, 1, 1): -1 + 0j}

    def test_complex_literal(self):
        f = parse("(0.5+0.3i)*X1")
        assert words(f) == {(1,): 0.5 + 0.3j}
        g = parse("(1-2i)")
        assert words(g) == {(): 1 - 2j}

    def test_parenthesized_expression(self):
        f = parse("(X1 + X2)*X3")
        assert words(f) == {(1, 3): 1 + 0j, (2, 3): 1 + 0j}

    def test_leading_sign(self):
        f = parse("-X1 + X2")
        assert words(f) == {(1,): -1 + 0j, (2,): 1 + 0j}

    def test_nested_commutator(self):
        f = parse("[[X1,X2],X3]")
        assert len(words(f)) == 4
        assert words(f)[(1, 2, 3)] == 1

    def test_cancellation(self, rng):
        f = parse("X1 - X1")
        assert words(f) == {}
        assert not evaluate(f, random_tuple(rng, 3, 1)).any()

    def test_variable_index_zero(self):
        with pytest.raises(ParseError) as err:
            parse("X0")
        assert err.value.position == 0

    def test_variable_index_up_to_the_limit(self):
        f = parse(f"X1 + X{VARIABLE_LIMIT} + X007")
        assert f.num_vars == VARIABLE_LIMIT
        assert set(words(f)) == {(1,), (7,), (VARIABLE_LIMIT,)}

    @pytest.mark.parametrize("var", [
        f"X{VARIABLE_LIMIT + 1}", "X100000000", "X" + "9" * 5000,
        "X00000000065",
    ])
    def test_variable_index_over_the_limit_fails_fast(self, var):
        # one random matrix per variable index would be drawn for each
        # sample; the text is refused before any of that happens
        start = time.perf_counter()
        with pytest.raises(ParseError, match="variable index exceeds") as err:
            parse(f"X1 + 2*{var}")
        assert err.value.position == 7
        assert time.perf_counter() - start < 0.5

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("X1 + ")
        assert err.value.position == 5

    @pytest.mark.parametrize("text, position", [
        ("[X\u0661,X\u0662]", 2),    # Arabic-Indic digits
        ("X1 +\u00a0X2", 4),         # no-break space
        ("X1*\uff12", 3),            # fullwidth digit
    ])
    def test_non_ascii_text_is_refused(self, text, position):
        # str.isdigit, str.isspace and float accept these, the grammar
        # does not, and a certificate stores the text as given
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse(text)
        assert err.value.position == position

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
        # written out, it would read inf, which the grammar cannot read
        with pytest.raises(ParseError, match="overflows") as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text, expected", [
        ("1e308*X1 + 1e308*X1", True),   # the sum of two finite coefficients
        ("(1e200*X1 + X2)^2", False),    # the square of a finite coefficient
    ])
    def test_multilinearity_reads_no_coefficient(self, text, expected):
        # every scalar as written is finite, so the text parses; multiplied
        # out, a coefficient would overflow, but is_multilinear reads only
        # the program's degrees and never sees one
        assert parse(text).is_multilinear() is expected

    def test_large_finite_scalar_round_trips(self):
        # the text is kept as written, and parsing it again gives the same
        # program, the coefficient 1e300 bit for bit
        f = parse("1e300*X1")
        assert f.text == "1e300*X1"
        assert parse(f.text).program.nodes == f.program.nodes
        assert f.program.nodes[-1][2] == (1e300,)
        assert words(f) == {(1,): 1e300}

    def test_polynomial_is_its_text_and_program(self):
        text = " [ X1 ,X2 ]  "
        f = parse(text)
        assert vars(f) == {"text": text, "program": f.program}
        assert f.text == text
        assert repr(f) == f"NcPolynomial({text!r})"


class TestParseBudget:
    @pytest.mark.parametrize("text, position", [
        ("X1^1000000", 3),                 # degree beyond DEGREE_LIMIT
        ("X1^1e300", 3),
        ("(X1)^1" + "0" * 300, 5),         # a 301-digit exponent
        # the power is made once; the sum of its 5000 copies runs out, one
        # unit a summand
        ("+".join(["(X1+X2)^8"] * 5000), 0),
        # the 64 variable nodes, then one node a product: the 4033rd
        # product runs out
        ("+".join(f"X{a}*X{b}" for a in range(1, 65) for b in range(1, 65)),
         31113),
        ("((X1^1000)^1000)^1000", 11),     # each power cheap, degree 10^9
        ("(" * 5000 + "X1" + ")" * 5000, 0),
    ], ids=["long-power", "huge-power", "long-exponent", "many-products",
            "many-nodes", "nested-powers", "deep-nesting"])
    def test_oversized_text_is_a_parse_error(self, text, position):
        # refused by the program's bounds when parsed
        start = time.perf_counter()
        with pytest.raises(ParseError, match="limit|nested too deeply") as err:
            parse(text)
        assert err.value.position == position
        # refused before the work, not after (a stall took hours)
        assert time.perf_counter() - start < 5.0

    def test_program_cost_counts_products_not_words(self):
        # 2^40 words, but 18 units: two variables, a sum of two and a power
        # whose exponent has 6 bits (5 squarings and 1 product)
        assert parse("(X1+X2)^40").program.cost == 18
        assert parse("X1^1024").program.cost <= PROGRAM_BUDGET

    def test_polynomials_in_use_are_well_inside(self):
        texts = ["(X1+X2*X3+X3*X1)^4 + [X1,X2] + (0.5-1i)",
                 "(X3 + X3*X2 + X2*X3*X1)^3",
                 "(X1+X2*X1)*(X2-X1*X2)*(X1+X2)^2", "[X1,X2]^2"]
        # older certificates store the expanded text, 81 words at degree 8
        # with their runs of one letter written as powers
        texts.append(" + ".join(
            "*".join(f"X{v}^{len(list(run))}" for v, run in groupby(w))
            for w in words_of("(X1+X2*X3+X3*X1)^4")))
        assert parse(texts[-1]).program.cost == 301
        for text in texts:
            assert 4 * parse(text).program.cost <= PROGRAM_BUDGET

    def test_text_inside_the_budget_parses(self):
        assert len(words(parse("(X1+X2)^9"))) == 512
        assert len(words(parse("X1^100*X2^100"))) == 1


class TestOperators:
    """A polynomial has no arithmetic: combined text is written and parsed."""

    @pytest.mark.parametrize("combine", [
        lambda f: f + "X1", lambda f: "X1" + f, lambda f: f - "X1",
        lambda f: f * "X1", lambda f: "X1" * f, lambda f: f ** "2",
    ], ids=["add", "radd", "sub", "mul", "rmul", "pow"])
    def test_combining_with_a_string_is_a_type_error(self, combine):
        with pytest.raises(TypeError):
            combine(parse("X1"))

    @pytest.mark.parametrize("other", [parse("X2"), 2, 0.5 - 1j],
                             ids=["polynomial", "int", "complex"])
    @pytest.mark.parametrize("combine", [
        lambda f, g: f + g, lambda f, g: g + f, lambda f, g: f - g,
        lambda f, g: g - f, lambda f, g: f * g, lambda f, g: g * f,
        lambda f, g: f ** g, lambda f, g: g ** f,
    ], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "pow", "rpow"])
    def test_operators_are_type_errors(self, combine, other):
        with pytest.raises(TypeError):
            combine(parse("X1"), other)

    def test_negation_is_a_type_error(self):
        with pytest.raises(TypeError):
            -parse("X1")

    def test_equality_is_identity(self):
        f = parse("[X1,X2]")
        assert f == f
        assert f != parse("[X1,X2]")


class TestPrintRoundTrip:
    """Parsing a polynomial's text again gives its program: `parse` is
    deterministic, which is what a verifier that parses a certificate's
    text rests on."""

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
        assert parse(f.text).program.nodes == f.program.nodes

    def test_random_polynomials(self, rng):
        for _ in range(50):
            terms = {}
            for _ in range(rng.integers(1, 6)):
                word = tuple(int(v) for v in
                             rng.integers(1, 4, size=rng.integers(0, 5)))
                terms[word] = complex(rng.standard_normal(),
                                      rng.standard_normal())
            f = parse(word_text(terms))
            assert parse(f.text).program.nodes == f.program.nodes


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

    @pytest.mark.parametrize("args, message", [
        ((), "need at least one matrix"),
        ((np.ones(3),), r"must be \(n, n\) or \(S, n, n\), got \(3,\)"),
        ((np.eye(2), np.eye(3)),
         r"must all have shape \(2, 2\), got \(3, 3\)"),
        ((np.eye(2),), "uses X2 but only 1 arguments"),
    ], ids=["no-arguments", "rank-1", "two-shapes", "too-few"])
    def test_argument_errors_are_named(self, args, message):
        with pytest.raises(ValueError, match=message):
            evaluate(parse("X1*X2"), args)

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
        # the program of a sum of words, each a product of its letters, is
        # their sum, word by word; the program of [X1,X2] makes the same two
        # products and one difference
        f = parse(text)
        summed = parse(word_text(words(f)))
        tuples, stacks = stacked_tuples(rng, 12, 3, S or 1)
        args = tuples[0] if S is None else stacks
        assert np.array_equal(evaluate(summed, args),
                              word_by_word_oracle(f, args))
        if text == "[X1,X2]":
            assert np.array_equal(evaluate(f, args), evaluate(summed, args))

    @pytest.mark.parametrize("n", [12, 64])   # one block, and two blocks
    def test_batch_invariance(self, rng, n):
        f = parse("(X1+X2*X3+X3*X1)^4 + [X1,X2] + (0.5-1i)")
        tuples, stacks = stacked_tuples(rng, n, 3, 5)
        batched = evaluate(f, stacks)
        assert batched.shape == (5, n, n)
        for s, tp in enumerate(tuples):
            assert np.array_equal(batched[s], evaluate(f, tp))

    def test_linearity(self, rng):
        a, b = "X1*X2 - 2*X2^2", "[X1,X2] + (0.25)"
        f, g, h = parse(a), parse(b), parse(f"({a}) + ({b})")
        for _ in range(20):
            args = random_tuple(rng, 3, 2)
            lhs = evaluate(h, args)
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


class TestGrading:
    @pytest.mark.parametrize("text, weights, degree", [
        ("[X1,X2]", (1, 1), 2),
        ("X1^2 + X1*X2", (1, 1), 2),
        ("(X1+X2*X3+X3*X1)^4", (1, 1, 0), 4),
        # all-ones fails; the part of (1, 1, 0) orthogonal to (1, 1, -1)
        ("X1*X2 + X3", (1, 1, 2), 2),
        ("X1*X2*X3*X1*X2*X3 - X3^2*X1^4 + [X1^3,X2^2*X3]", (1, 1, 1), 6),
    ])
    def test_scaling_is_exact(self, rng, text, weights, degree):
        f = parse(text)
        assert f.grading() == (weights, degree)
        args = random_tuple(rng, 4, len(weights))
        image = evaluate(f, args)
        for k in (-30, -7, 5, 20):
            scaled = [2.0 ** (k * w) * a for a, w in zip(args, weights)]
            assert np.array_equal(evaluate(f, scaled),
                                  2.0 ** (k * degree) * image)

    @pytest.mark.parametrize("text", ["X1 + X1^2", "X1 + 1", "[X1,X2] + 1",
                                      "X1^2 + X2 + 1", "(3.0)"])
    def test_ungraded(self, text):
        assert parse(text).grading() is None


class TestFro:
    def test_inside_the_range_it_is_numpys_norm(self, rng):
        # bit for bit, so certificates keep their bytes
        M = random_complex(rng, 12)
        for scale in (2.0 ** -499, 1e-100, 1.0, 1e100, 2.0 ** 499):
            assert fro(scale * M) == float(np.linalg.norm(scale * M))

    @pytest.mark.parametrize("e", [-1000, -600, -520, 520, 600, 1000])
    def test_outside_it_scales_exactly(self, rng, e):
        # 2^e M is exact while M's parts stay normal, and so is its norm
        M = random_complex(rng, 5)
        assert fro(np.ldexp(1.0, e) * M) == np.ldexp(fro(M), e)

    def test_edges(self):
        assert fro(np.zeros((3, 3), dtype=complex)) == 0.0
        assert fro(np.zeros((0, 0), dtype=complex)) == 0.0
        assert np.isnan(fro(np.full((2, 2), np.nan, dtype=complex)))
        assert fro(np.array([[5e-324]])) == 5e-324

    def test_past_the_double_range_is_inf_without_a_warning(self):
        M = np.zeros((2, 2), dtype=complex)
        M[0, 0] = M[1, 0] = 1.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fro(M) == np.inf


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
        assert classify(parse("0"), 2).verdict == "identity"

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
    terms = {(): complex(constant)}
    for word, c in draws:
        for w in (word, word[:len(word) // 2]):
            terms[w] = terms.get(w, 0j) + c
    terms = {w: c for w, c in terms.items() if c != 0}
    f = parse(word_text(terms))
    _, stacks = stacked_tuples(np.random.default_rng(seed), n, 3, S)
    got = evaluate(f, stacks)
    # the oracle sums the words in reverse, so the comparison does not rest
    # on the two summing in the same order
    ref = evaluate_words(dict(reversed(terms.items())), stacks)
    scale = sum(
        abs(c) * np.linalg.norm(evaluate_words({w: 1}, stacks), axis=(1, 2))
        for w, c in terms.items()
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
    # parsed again, the text gives the same program
    assert parse(f.text).program.nodes == f.program.nodes
    try:
        expected = words_of(text)
    except ParseError:
        return      # a few powers of long sums multiply out past the oracle
    assert list(words(f).items()) == list(expected.items())
    # a grading read off the program holds for every word it multiplies out
    grading = f.grading()
    if grading is not None:
        weights, degree = grading
        assert all(sum(weights[v - 1] for v in word) == degree
                   for word in expected)
    # the program and the sum of its words agree to rounding: both err by
    # at most a few hundred ulps (the degree and n are small) of the
    # absolute program, which bounds every value either one forms
    ref = evaluate_words(expected, stacks)
    scale = np.linalg.norm(absolute_run(f.program, stacks), axis=(1, 2))
    assert np.all(np.linalg.norm(got - ref, axis=(1, 2)) <= 1e-13 * scale)
