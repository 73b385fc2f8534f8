import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matwaring import serialize
from matwaring.canon import partition_spectrum
from matwaring.config import DEFAULT_TOLS
from matwaring.freealg import parse
from matwaring.serialize import (
    SHORT_MAX,
    SHORT_MIN,
    certificate_to_json,
    dumps_canonical,
    matrix_from_json,
    matrix_to_json,
    packed_matrix_to_json,
    round_to_15_digits,
    save_certificate,
)
from matwaring.verify import check_certificate, verify_certificate
from matwaring.waring import (
    GOAL_MULTIPLICITY_HALF,
    five_term_express,
    four_term_decompose,
    image_search,
    two_term_decompose,
    waring_express,
)

from conftest import (
    TARGET_FORMS,
    in_form,
    packed,
    planted_matrix,
    random_complex,
    random_traceless,
    target_of,
)


def _write_value(value, out):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format(value, ".17g"))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write_value(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _write_value(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_writer_oracle(doc):
    """The hand-written writer `dumps_canonical` replaced: sorted keys,
    floats at 17 significant digits."""
    out = []
    _write_value(doc, out)
    out.append("\n")
    return "".join(out)


def as_json(value):
    """value with every NumPy array in it replaced by its tolist(): the
    plain JSON value whose json.dumps text dumps_canonical writes."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if type(value) is dict:
        return {k: as_json(v) for k, v in value.items()}
    if type(value) is list:
        return [as_json(v) for v in value]
    return value


def array_matrix(M):
    """M's matrix document with its entries as a fresh float array of [re,
    im] pairs, as certificate_to_json makes the tuples."""
    M = np.ascontiguousarray(M, dtype=complex)
    return {"n": M.shape[0], "entries": M.view(float).reshape(-1, 2).copy()}


def bit_identical(a, b):
    """Same structure and types, every float equal by `float.hex` (so -0.0
    and 0.0 differ)."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(bit_identical(a[k], b[k])
                                            for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(bit_identical, a, b))
    return a == b


def _oracle_waring_certificate(kind, n):
    rng = np.random.default_rng([20260810, n])
    if kind == "four-term":
        cert = waring_express(parse("[X1,X2]"), random_traceless(rng, n),
                              seed=3)
    elif kind == "two-term":
        cert = two_term_decompose(parse("[X1,X2]"), random_traceless(rng, n),
                                  seed=3)
    else:
        cert = five_term_express(parse("(X1+X2*X3+X3*X1)^4"),
                                 random_complex(rng, n), seed=3)
    assert cert.mode == kind
    return cert


@pytest.fixture(scope="module", params=[
    ("four-term", 8), ("four-term", 9), ("two-term", 7), ("five-term", 12),
], ids=lambda p: f"{p[0]}-n{p[1]}")
def waring_certificate(request):
    return _oracle_waring_certificate(*request.param)


@pytest.fixture(scope="module")
def certificate_doc(waring_certificate):
    return certificate_to_json(waring_certificate, DEFAULT_TOLS)


def test_writer_matches_oracle(certificate_doc):
    assert_writer_matches_oracle(certificate_doc)


def assert_writer_matches_oracle(certificate_doc):
    text = dumps_canonical(certificate_doc)
    oracle = canonical_writer_oracle(as_json(certificate_doc))
    # `.17g` writes integral floats without a point ("1", "-0"), which a
    # plain parse reads back as ints; reading every number as a float
    # compares the doubles both writers put down, signed zeros included
    as_floats = {"parse_int": float}
    assert bit_identical(json.loads(text, **as_floats),
                         json.loads(oracle, **as_floats))
    # the new text keeps every int an int and every float a float
    assert bit_identical(json.loads(text), as_json(certificate_doc))
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":")) + "\n"


def test_writer_matches_cycle_checking_json(certificate_doc):
    # the cycle check only adds bookkeeping; the text is the same
    assert dumps_canonical(certificate_doc) == json.dumps(
        as_json(certificate_doc), sort_keys=True, separators=(",", ":"),
        allow_nan=False, check_circular=True) + "\n"


def test_self_referencing_document_raises_and_writes_nothing(
        waring_certificate, monkeypatch, tmp_path):
    doc = {"n": 1, "entries": [[0.0, 1.0]]}
    doc["entries"].append(doc)
    with pytest.raises(RecursionError):
        dumps_canonical(doc)
    monkeypatch.setattr(serialize, "certificate_to_json",
                        lambda *args, **kwargs: doc)
    path = tmp_path / "cert.json"
    with pytest.raises(RecursionError):
        save_certificate(path, waring_certificate, DEFAULT_TOLS)
    assert not path.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_writer_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        dumps_canonical({"x": value})
    with pytest.raises(ValueError):
        dumps_canonical(matrix_to_json(np.array([[0.0, 1.0], [value, 0.0]])))


def test_matrix_round_trip_is_bit_exact():
    M = np.empty((2, 2), dtype=complex)
    M.real = [[-0.0, 0.1], [1e-310, -1.0]]
    M.imag = [[0.0, 0.2], [-0.0, 2.0]]
    for A in (M, M.T):  # the transposed view is not contiguous
        back = matrix_from_json(json.loads(dumps_canonical(matrix_to_json(A))))
        assert np.array_equal(back, A)
        assert np.array_equal(np.signbit(back.real), np.signbit(A.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(A.imag))


def test_packed_matrix_round_trip_is_bit_exact():
    M = np.empty((2, 2), dtype=complex)
    M.real = [[-0.0, 0.1], [1e-310, -1.0]]
    M.imag = [[0.0, 0.2], [-0.0, 1.7976931348623157e308]]
    for A in (M, M.T, np.zeros((0, 0))):
        doc = json.loads(dumps_canonical(packed_matrix_to_json(A)))
        assert doc == packed(A)
        back = matrix_from_json(doc)
        assert back.flags.writeable and back.dtype == complex
        assert np.array_equal(back.view(np.uint64),
                              np.ascontiguousarray(A).view(np.uint64))


def test_readme_decodes_a_packed_matrix_with_the_standard_library(rng):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    [code] = [block for block in blocks if "c16le" in block]
    M = random_complex(rng, 3)
    M[1, 2] = complex(-0.0, -0.0)
    scope = {"doc": packed_matrix_to_json(M)}
    exec(code, scope)
    assert np.array_equal(np.array(scope["A"]).view(np.uint64),
                          M.view(np.uint64))


@pytest.mark.parametrize("entry", [["1", 0], [0, None], [1.0], 2.0,
                                   [1.0, 2.0, 3.0], "ab", {"re": 0, "im": 1}])
def test_matrix_from_json_names_a_malformed_entry(entry):
    doc = {"n": 2, "entries": [[0, 0], entry, [0, 0], [0, 0]]}
    with pytest.raises(ValueError, match="entry 1"):
        matrix_from_json(doc)


def entrywise_matrix_from_json(doc):
    """The reader before it converted the whole list at once: one
    complex(re, im) per entry."""
    n = int(doc["n"])
    entries = doc["entries"]
    if len(entries) != n * n:
        raise ValueError(f"matrix document claims n={n} but has "
                         f"{len(entries)} entries")
    values = []
    for k, entry in enumerate(entries):
        try:
            re, im = entry
            values.append(complex(re, im))
        except (TypeError, ValueError):
            raise ValueError(f"matrix entry {k} is not a [re, im] pair of "
                             f"numbers: {entry!r}") from None
    return np.array(values).reshape(n, n)


def assert_reads_like_entrywise(doc):
    """matrix_from_json(doc) raises what the entrywise reader raises, with
    the same message, or returns its matrix bit for bit (NaN payloads and
    signed zeros included)."""
    try:
        want = entrywise_matrix_from_json(doc)
    except Exception as exc:
        with pytest.raises(type(exc)) as err:
            matrix_from_json(doc)
        assert str(err.value) == str(exc)
        return
    got = matrix_from_json(doc)
    assert got.shape == want.shape
    assert got.dtype == complex
    assert np.array_equal(got.view(np.int64),
                          want.astype(complex).view(np.int64))


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-2 ** 1100, max_value=2 ** 1100),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.booleans(),
)
_ENTRIES = st.one_of(
    st.lists(_NUMBERS, min_size=2, max_size=2),
    st.lists(_NUMBERS, min_size=0, max_size=3),
    st.lists(st.one_of(_NUMBERS, st.none(), st.text(max_size=2),
                       st.lists(_NUMBERS, max_size=2)),
             min_size=2, max_size=2),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), _NUMBERS, max_size=3),
    _NUMBERS,
    st.none(),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_matrix_from_json_reads_like_entrywise(data):
    n = data.draw(st.integers(0, 3), label="n")
    # mostly well-formed pairs, so the whole-list path is taken often
    pair = st.lists(_NUMBERS, min_size=2, max_size=2)
    entry = data.draw(st.sampled_from([pair, _ENTRIES]), label="kind")
    entries = data.draw(st.lists(entry, min_size=n * n, max_size=n * n),
                        label="entries")
    assert_reads_like_entrywise({"n": n, "entries": entries})


@pytest.mark.parametrize("entries", [
    [[0.5, 1.0], "ab", [0.0, 0.0], [1.0, 2.0]],
    [[0.5, 1.0], {"re": 0.5, "im": 1.0}, [0.0, 0.0], [1.0, 2.0]],
    [[0.5, 1.0, 2.0], [3.0], [0.0, 0.0], [1.0, 2.0]],
    [[1, 2], [3, -4], [0, 0], [5, 6]],
    [[True, 0.5], [False, -0.0], [math.nan, 1], [1e308, 2 ** 60 + 1]],
    [[2 ** 64 + 1, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
    [[10 ** 400, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
    [[[0.5, 1.0], [2.0, 3.0]]] * 4,
], ids=["string", "two-key-dict", "rows-3-and-1", "all-int", "bool-nan-int",
        "int-past-int64", "int-past-double", "pairs-of-pairs"])
def test_matrix_from_json_reads_like_entrywise_on(entries):
    assert_reads_like_entrywise({"n": 2, "entries": entries})


@pytest.mark.parametrize("n", [2.9, 2.0, True, "2", -2, None],
                         ids=["fraction", "integral-float", "bool", "string",
                              "negative", "null"])
def test_matrix_from_json_refuses_a_size_that_is_not_an_integer(n):
    # int() read 2.9, true and "2" as sizes 2, 1 and 2
    entries = [[0.5, 0.0]] * (1 if n is True else 4)
    with pytest.raises(ValueError, match="nonnegative integer"):
        matrix_from_json({"n": n, "entries": entries})


def test_matrix_from_json_reads_empty_matrix():
    assert_reads_like_entrywise({"n": 0, "entries": []})
    assert matrix_from_json({"n": 0, "entries": []}).shape == (0, 0)


def test_tuple_certificate_stores_no_terms(certificate_doc):
    # the verifier re-evaluates f on the tuples instead; no gate reads
    # cert_tol
    assert certificate_doc["tuples"] is not None
    assert "terms" not in certificate_doc
    assert "cert_tol" not in certificate_doc
    assert verify_certificate(json.loads(dumps_canonical(certificate_doc))) == []


def test_certificate_without_tuples_is_refused(rng, tmp_path):
    # a four_term_decompose result proves a claim about matrices similar to
    # its witness, not about f: it stays in memory
    B = planted_matrix(rng, [1, 1, 2, 3, 4])
    cert = four_term_decompose(partition_spectrum(B), random_traceless(rng, 5))
    assert cert.tuples is None
    with pytest.raises(ValueError, match="four-term certificate without "
                                         "argument tuples"):
        certificate_to_json(cert, DEFAULT_TOLS)
    path = tmp_path / "cert.json"
    with pytest.raises(ValueError):
        save_certificate(path, cert, DEFAULT_TOLS)
    assert not path.exists()


def test_matrix_level_certificate_keeps_terms(rng):
    # the terms stay in memory and reconstruct the target there; no document
    # carries them
    B = planted_matrix(rng, [1, 1, 2, 3, 4])
    A = random_traceless(rng, 5)
    cert = four_term_decompose(partition_spectrum(B), A)
    assert cert.tuples is None
    assert len(cert.terms) == 4
    combo = sum(c * t for c, t in zip(cert.coefficients, cert.terms))
    assert np.linalg.norm(combo - A) <= cert.residual_bound
    with pytest.raises(ValueError):
        certificate_to_json(cert, DEFAULT_TOLS)


def test_matrix_level_certificate_keeps_steps_and_witness(rng):
    # its steps are the only link from its terms to the witness, so they
    # stay in memory with it
    B = planted_matrix(rng, [1, 1, 2, 3, 4])
    A = random_traceless(rng, 5)
    cert = four_term_decompose(partition_spectrum(B), A)
    assert np.array_equal(cert.witness, B)
    assert len(cert.steps) > 0
    assert len(cert.term_certs) == len(cert.terms)
    for tc, term in zip(cert.term_certs, cert.terms):
        assert np.array_equal(tc.source, B)
        assert np.allclose(tc.target, term)
        bound = 1e-9 * tc.condition_estimate * np.linalg.norm(B)
        assert np.linalg.norm(tc.t @ B @ tc.t_inv - term) <= bound
    with pytest.raises(ValueError):
        certificate_to_json(cert, DEFAULT_TOLS)


def test_tuple_certificate_leaves_out_steps_and_witness(certificate_doc):
    # the tuples, f and the target prove the claim on their own
    assert not {"witness", "similarity_steps"} & certificate_doc.keys()
    assert verify_certificate(json.loads(dumps_canonical(certificate_doc))) == []


# ---------------------------------------------------------------------------
# tuple entries at 15 significant digits
# ---------------------------------------------------------------------------

def significant_digits(x):
    """The number of significant digits in repr(x), x a finite float."""
    mantissa = repr(abs(x)).partition("e")[0]
    return len(mantissa.replace(".", "").strip("0"))


def assert_rounds_to_15_digits(parts):
    v = np.array(parts, dtype=float)
    out = round_to_15_digits(v.view(complex)).view(float)
    mag = np.abs(v)
    short = (mag >= SHORT_MIN) & (mag < SHORT_MAX)
    assert np.isfinite(out).all()
    assert max(map(significant_digits, out[short].tolist()), default=0) <= 15
    # half a unit in the 15th digit, and the roundings of two operations
    mag = mag[short]
    assert (np.abs(out - v)[short] <= 5e-15 * mag + 2 * np.spacing(mag)).all()
    # every other part, zeros of either sign included, is kept bit for bit
    assert out[~short].tobytes() == v[~short].tobytes()
    again = round_to_15_digits(out.view(complex)).view(float)
    assert again.tobytes() == out.tobytes()


_PART = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(SHORT_MIN, SHORT_MAX, exclude_max=True),
    st.floats(-SHORT_MAX, -SHORT_MIN, exclude_min=True),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_PART, _PART), min_size=1, max_size=6))
def test_round_to_15_digits(pairs):
    assert_rounds_to_15_digits([x for pair in pairs for x in pair])


def _next_to(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


# floor(log10 |v|) is a decade off for some parts next to a power of ten
_EDGES = [
    0.0, 5e-324, 1.7976931348623157e308,
    *_next_to(SHORT_MIN), *_next_to(SHORT_MAX),
    *[y for e in range(-8, 38) for y in _next_to(10.0 ** e)],
    *[(10 - 5e-15) * 10.0 ** e for e in range(-9, 37)],
    *[(1 + 5e-15) * 10.0 ** e for e in range(-8, 37)],
]


def test_round_to_15_digits_next_to_powers_of_ten_and_range_ends():
    assert_rounds_to_15_digits(_EDGES + [-x for x in _EDGES])


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_round_to_15_digits_corrects_a_decade_off(monkeypatch, shift):
    # log10 may err by an ulp or more, so floor(log10 |v|) may name the
    # decade next to |v|'s; here it does for about half of the parts
    rng = np.random.default_rng(20261019)
    parts = np.exp(rng.uniform(np.log(SHORT_MIN), np.log(SHORT_MAX), 4000))
    parts = np.concatenate([parts, _EDGES])
    parts *= rng.choice([-1, 1], len(parts))
    want = round_to_15_digits(parts.view(complex))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x, out=None: np.add(
        log10(x, out=out), shift, out=out))
    assert round_to_15_digits(parts.view(complex)).tobytes() == want.tobytes()


def test_round_to_15_digits_keeps_other_parts():
    parts = [math.inf, -math.inf, math.nan, 1e300, -0.0, 0.0]
    out = round_to_15_digits(np.array(parts).view(complex)).view(float)
    assert out.tobytes() == np.array(parts).tobytes()


@pytest.mark.parametrize("route, text, n, scale", [
    (waring_express, "[X1,X2]", 8, 1.0),
    (two_term_decompose, "[X1,X2]", 7, 1.0),
    (five_term_express, "(X1+X2*X3+X3*X1)^4", 6, 1.0),
    (five_term_express, "X1^2 + X1*X2", 6, 1e6),
], ids=["four-term", "two-term", "five-term", "five-term-scaled-up"])
def test_routes_store_15_digit_tuples(route, text, n, scale):
    rng = np.random.default_rng([20261019, n])
    T = scale * random_complex(rng, n)
    if route is not five_term_express:
        T = T - np.trace(T) / n * np.eye(n)
    f = parse(text)
    cert = route(f, T)
    if scale > 1:
        # the four-term part rescales its target by 2^(-k D) on the memo's
        # witness, so part j of each of its tuples is 2^(k w_j) times the
        # conjugated witness tuple, rounded
        assert cert.k > 0 and cert.weights == (1, 1)
        _, args = image_search(f, n, GOAL_MULTIPLICITY_HALF, seed=1)
        for tc, tp in zip(cert.term_certs, cert.tuples[1:]):
            for a, t, w in zip(args, tp, cert.weights):
                want = 2.0 ** (cert.k * w) * (tc.t @ a @ tc.t_inv)
                assert np.linalg.norm(t - want) <= 1e-14 * np.linalg.norm(want)
    doc = json.loads(dumps_canonical(certificate_to_json(cert, DEFAULT_TOLS)))
    parts = [x for tp in doc["tuples"] for m in tp for pair in m["entries"]
             for x in pair]
    assert max(significant_digits(x) for x in parts
               if SHORT_MIN <= abs(x) < SHORT_MAX) <= 15
    # the target is stored as given: packed bit for bit, and at version 1
    # as decimal parts at their shortest repr
    assert max(map(significant_digits, T.view(float).ravel().tolist())) > 15
    for form in TARGET_FORMS:
        stored = in_form(copy.deepcopy(doc), form)
        assert np.array_equal(target_of(stored).view(np.uint64),
                              T.view(np.uint64))
        # the route's gate ran on the tuples as written
        assert check_certificate(stored).residual == cert.residual


@pytest.mark.parametrize("route, text, n", [
    (waring_express, "[X1,X2]", 8),
    (two_term_decompose, "[X1,X2]", 7),
    (five_term_express, "(X1+X2*X3+X3*X1)^4", 6),
], ids=["four-term", "two-term", "five-term"])
def test_document_layout(route, text, n):
    # the tuples are decimal documents of 15-digit parts, which the
    # benchmark's gate and the layout writer read; the target is packed,
    # the caller's doubles bit for bit, -0.0 included
    rng = np.random.default_rng([20261020, n])
    A = random_complex(rng, n)
    if route is not five_term_express:
        A = A - np.trace(A) / n * np.eye(n)
    A[0, 1], A[1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
    cert = route(parse(text), A)
    doc = json.loads(dumps_canonical(certificate_to_json(cert, DEFAULT_TOLS)))
    assert doc["version"] == 2
    assert doc["target"].keys() == {"c16le", "n"} and doc["target"]["n"] == n
    assert np.array_equal(target_of(doc).view(np.uint64), A.view(np.uint64))
    for matrix in (m for tp in doc["tuples"] for m in tp):
        assert matrix.keys() == {"entries", "n"} and matrix["n"] == n
        assert len(matrix["entries"]) == n * n
        assert all(type(x) is float and significant_digits(x) <= 15
                   for pair in matrix["entries"] for x in pair)
    assert verify_certificate(doc) == []


def test_decimal_has_a_15_digit_mantissa_next_to_powers_of_ten():
    # a part just below a power of ten, or one such as 1e23 that is not
    # one, rounds up to it: m is then 10^14 at the next decade, not 10^15
    v = np.array(_EDGES + [-x for x in _EDGES])
    m, e, short = serialize._decimal(v)
    rounded = round_to_15_digits(v.view(complex)).view(float)
    assert short.sum() > 200
    for x, mi, ei, want in zip(v[short], m[short], e[short], rounded[short]):
        assert 1e14 <= abs(mi) < 1e15 and mi == int(mi), x
        assert float(f"{int(mi)}e{ei - 14}") == want, x
    m, e, _ = serialize._decimal(np.array([1e23, 1e29, -1e23]))
    assert m.tolist() == [1e14, 1e14, -1e14] and e.tolist() == [23, 29, 23]


def _laid_out_only(entries):
    """The writer's text for entries, asserting that it laid them out."""
    pairs = np.array(entries, dtype=float)
    _, fits, _ = serialize._laid_out(pairs.ravel())
    assert fits.all()
    text, = serialize._entries_texts([pairs])
    return text


def test_every_layout_is_reprs():
    # every exponent e = -8..36 and number of digits k = 1..15, of both
    # signs, as a real and as an imaginary part, and zeros of both signs
    rng = np.random.default_rng(20261020)
    parts = [0.0, -0.0]
    for e in range(-8, 37):
        for k in range(1, 16):
            digits = str(rng.integers(10 ** 14, 10 ** 15))[:k - 1]
            mantissa = int(digits + str(rng.integers(1, 10))) if k > 1 else \
                int(rng.integers(1, 10))
            x = float(f"{mantissa}e{e - k + 1}")
            parts += [x, -x]
    pairs = [parts[i:i + 2] for i in range(0, len(parts), 2)]
    swapped = [[im, re] for re, im in pairs]
    for entries in (pairs, swapped):
        assert _laid_out_only(entries) == json.dumps(entries,
                                                     separators=(",", ":"))


def test_writer_crosses_chunks_and_skips_other_matrices():
    # 8192 and 5000 parts span passes of _CHUNK parts; the target-like
    # matrix between them is written by json
    rng = np.random.default_rng(7)
    doc = {"tuples": [array_matrix(round_to_15_digits(random_complex(
        rng, n))) for n in (64, 3, 50)]}
    doc["target"] = array_matrix(random_complex(rng, 5))
    doc["tuples"].insert(1, doc["target"])
    assert dumps_canonical(doc) == json.dumps(
        as_json(doc), sort_keys=True, separators=(",", ":")) + "\n"


def test_writer_writes_in_place_edits(waring_certificate, monkeypatch):
    # bench's tamper edits certificate_to_json's output in place, as here
    doc = certificate_to_json(waring_certificate, DEFAULT_TOLS)
    dumped = []

    def spy(value):
        dumped.append(value)
        return dumps(value)

    dumps = serialize._dumps
    monkeypatch.setattr(serialize, "_dumps", spy)
    before = dumps_canonical(doc)
    # every tuple matrix was laid out: json.dumps wrote the document alone
    # (the packed target is a string in it)
    assert len(dumped) == 1 and type(dumped[0]) is dict
    first, last = doc["tuples"][0][0], doc["tuples"][-1][-1]
    first["entries"][0][0] += 1e-3
    # a part with 17 digits sends its matrix to json.dumps
    last["entries"][-1][-1] = 0.1 + 0.2
    text = dumps_canonical(doc)
    assert text != before
    assert text == json.dumps(as_json(doc), sort_keys=True,
                              separators=(",", ":")) + "\n"
    edited = float(first["entries"][0][0])
    assert f'"entries":[[{edited!r},' in text
    assert "0.30000000000000004]]" in text
    # then the 17-digit one went to json.dumps, and the edited one too,
    # unless its part is still a 15-digit double
    assert type(dumped[1]) is dict
    fits = edited == 0 or (SHORT_MIN <= abs(edited) < SHORT_MAX
                           and float(f"{edited:.14e}") == edited)
    assert dumped[2:] == [m["entries"].tolist()
                          for m in [first][fits:] + [last]]


_ZEROS = st.sampled_from([0.0, -0.0])
_DECADES = st.builds(
    lambda m, k, e, sign: sign * float(f"{str(m)[:k]}e{e - k + 1}"),
    st.integers(10 ** 14, 10 ** 15 - 1), st.integers(1, 15),
    st.integers(-8, 36), st.sampled_from([1, -1]))
_ROUNDED = st.one_of(_PART.filter(lambda x: SHORT_MIN <= abs(x) < SHORT_MAX),
                     st.sampled_from(_EDGES)).map(
    lambda x: float(round_to_15_digits(np.array([x, 0.0]).view(complex))[0]
                    .real))
_SHORT = st.one_of(_DECADES, _ROUNDED, _ZEROS)
# what json.dumps writes otherwise, or refuses
_OTHER = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.floats(), st.none(),
    _DECADES.map(np.float64),
    st.text(max_size=2), st.just("\0"), st.just("\x000"))
_PAIR = st.lists(_SHORT, min_size=2, max_size=2)
_BAD_ENTRY = st.one_of(
    st.lists(st.one_of(_SHORT, _OTHER), min_size=2, max_size=2),
    st.lists(_SHORT, max_size=3), st.tuples(_SHORT, _SHORT), _OTHER,
    st.dictionaries(st.text(max_size=1), _SHORT, max_size=2))


@st.composite
def _matrix_docs(draw):
    """Matrix documents, half of them all 15-digit pairs, the others with
    one flaw that json.dumps writes, or refuses, differently."""
    entries = draw(st.lists(_PAIR, min_size=1, max_size=9))
    doc = {"n": draw(st.integers(0, 3)), "entries": entries}
    flaw = draw(st.sampled_from(
        [None, None, None, "entry", "entry", "tuple", "key", "entries"]))
    if flaw == "entry":
        entries[draw(st.integers(0, len(entries) - 1))] = draw(_BAD_ENTRY)
    elif flaw == "tuple":
        doc["entries"] = tuple(entries)
    elif flaw == "key":
        doc[draw(st.text(max_size=2))] = draw(_OTHER)
    elif flaw == "entries":
        doc["entries"] = draw(st.one_of(_OTHER, st.just([])))
    return doc


_DOCS = st.recursive(
    st.one_of(_matrix_docs(), _matrix_docs(), _SHORT, _OTHER),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=2), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_DOCS)
def test_writer_is_json_dumps(doc):
    try:
        want = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(ValueError):
            dumps_canonical(doc)
        return
    assert dumps_canonical(doc) == want


# parts whose shortest repr has more than 15 digits: their matrix is not
# laid out
_LONG = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda x: significant_digits(x) > 15),
    st.sampled_from([0.1 + 0.2, -1 / 3, 2 / 3 * 1e-5, 1e-300, 5e-324]))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _array_docs(draw):
    """Matrix documents whose entries is an array, as certificate_to_json
    makes them: [re, im] pairs of 15-digit parts and zeros, empty ones
    included, half of them with one part of 17 digits or one that is not
    finite; now and then an array of ints or of another shape."""
    size = 2 * draw(st.integers(0, 9))
    parts = draw(st.lists(_SHORT, min_size=size, max_size=size))
    flaw = draw(st.sampled_from([None] * 5 + ["long"] * 3
                                + ["non-finite", "ints", "shape"]))
    if flaw in ("long", "non-finite") and parts:
        parts[draw(st.integers(0, len(parts) - 1))] = draw(
            _LONG if flaw == "long" else _NON_FINITE)
    entries = np.array(parts, dtype=float).reshape(-1, 2)
    if flaw == "ints":
        entries = np.arange(len(parts)).reshape(-1, 2)
    elif flaw == "shape":
        entries = entries.ravel()
    return {"n": draw(st.integers(0, 3)), "entries": entries}


# certificate-like documents: lists of tuples of array documents beside
# anything else, strings holding NUL included
_MIXED_DOCS = st.fixed_dictionaries({
    "tuples": st.lists(st.lists(_array_docs(), min_size=1, max_size=3),
                       min_size=1, max_size=3),
    "rest": st.recursive(
        st.one_of(_array_docs(), _matrix_docs(), _SHORT, _OTHER),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=2), inner, max_size=4)),
        max_leaves=8)})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_MIXED_DOCS)
def test_writer_is_json_dumps_of_the_arrays_lists(doc):
    try:
        want = json.dumps(as_json(doc), sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(ValueError):
            dumps_canonical(doc)
        return
    assert dumps_canonical(doc) == want


def test_edits_to_the_document_leave_the_certificate(waring_certificate):
    # each tuple matrix of the document is a fresh array: five-term's first
    # tuple is the memo's read-only arrays, which a view could not edit
    cert = waring_certificate
    if cert.mode == "five-term":
        assert not any(a.flags.writeable for a in cert.tuples[0])
    kept = [[a.copy() for a in tp] for tp in cert.tuples]
    doc = certificate_to_json(cert, DEFAULT_TOLS)
    for matrix in (m for tp in doc["tuples"] for m in tp):
        matrix["entries"][0][0] += 1e-3
        matrix["entries"][-1] = [0.5, -0.0]
    text = dumps_canonical(doc)
    assert text == json.dumps(as_json(doc), sort_keys=True,
                              separators=(",", ":")) + "\n"
    written = json.loads(text)["tuples"]
    for tp, tp_written in zip(doc["tuples"], written):
        for matrix, matrix_written in zip(tp, tp_written):
            entries = matrix_written["entries"]
            assert entries[0][0] == matrix["entries"][0][0]
            assert bit_identical(entries[-1], [0.5, -0.0])
    for tp, tp_kept in zip(cert.tuples, kept):
        for a, a_kept in zip(tp, tp_kept):
            assert a.tobytes() == a_kept.tobytes()
