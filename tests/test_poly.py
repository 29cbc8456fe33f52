"""Polynomial data model: arithmetic, gradings, component bases, text format."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from weitzlab import poly
from weitzlab.poly import (
    Monomial,
    Polynomial,
    PolyParseError,
    component_basis,
    format_poly,
    parse_poly,
)

from oracles import parse_poly_oracle, random_polynomial
from test_invariants import golden_runs


def poly_strategy(d=2, max_exp=3):
    coef = st.fractions(
        min_value=-9, max_value=9, max_denominator=4
    )
    mono = st.tuples(
        st.tuples(*([st.integers(0, max_exp)] * d)),
        st.tuples(*([st.integers(0, max_exp)] * d)),
    ).map(lambda ab: Monomial(*ab))
    return st.dictionaries(mono, coef, max_size=5).map(lambda t: Polynomial(d, t))


def test_difference_of_squares():
    x1, y1 = Polynomial.x(1, 1), Polynomial.y(1, 1)
    assert (x1 + y1) * (x1 - y1) == x1 * x1 - y1 * y1


def test_additive_identity():
    rng = random.Random(11)
    for _ in range(20):
        f = random_polynomial(rng, 2)
        assert f + Polynomial.zero(2) == f


def test_determinant_product_has_four_terms():
    # hand expansion: x1y2x3y4 - x1y2x4y3 - x2y1x3y4 + x2y1x4y3
    d = 4
    u12 = Polynomial.x(1, d) * Polynomial.y(2, d) - Polynomial.x(2, d) * Polynomial.y(1, d)
    u34 = Polynomial.x(3, d) * Polynomial.y(4, d) - Polynomial.x(4, d) * Polynomial.y(3, d)
    prod_poly = u12 * u34
    assert len(prod_poly) == 4
    expected = {
        (Monomial((1, 0, 1, 0), (0, 1, 0, 1)), Fraction(1)),
        (Monomial((1, 0, 0, 1), (0, 1, 1, 0)), Fraction(-1)),
        (Monomial((0, 1, 1, 0), (1, 0, 0, 1)), Fraction(-1)),
        (Monomial((0, 1, 0, 1), (1, 0, 1, 0)), Fraction(1)),
    }
    assert set(prod_poly.terms()) == expected


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Polynomial.x(1, 1) * Polynomial.x(1, 2)
    with pytest.raises(ValueError):
        Polynomial.x(1, 1) + Polynomial.x(1, 2)


def test_monomial_is_its_flat_exponent_tuple():
    m = Monomial((1, 0), (0, 3))
    assert m == (1, 0, 0, 3) and hash(m) == hash((1, 0, 0, 3))
    assert {m: 5}[(1, 0, 0, 3)] == 5
    assert (m.a, m.b, m.d) == ((1, 0), (0, 3), 2)
    assert repr(m) == "Monomial((1, 0), (0, 3))" and str(m) == "x1*y2^3"
    assert type(m.sort_key()[1]) is tuple


@pytest.mark.parametrize(
    "value",
    [
        Monomial((1, 0, 2), (0, 3, 1)),
        Monomial.one(2),
        parse_poly("3/2*x1^2*y2 - y1 + 4", 2),
        Polynomial.zero(3),
    ],
)
def test_pickle_and_copy_round_trip(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert type(twin) is type(value)
        assert twin == value
        if isinstance(value, Polynomial):
            assert twin.d == value.d
            assert all(type(m) is Monomial for m, _ in twin.terms())


def test_monomial_rejects_tuple_arithmetic():
    m = Monomial((1, 0), (0, 2))
    for op in (lambda: 2 * m, lambda: m * 2, lambda: m + m):
        with pytest.raises(TypeError):
            op()
    assert m * m == Monomial((2, 0), (0, 4))
    assert type(m * m) is Monomial
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        m * Monomial.one(1)


def test_monomial_comparisons_follow_sort_key():
    rng = random.Random(3)
    monomials = [
        Monomial([rng.randint(0, 2) for _ in range(3)], [rng.randint(0, 2) for _ in range(3)])
        for _ in range(60)
    ]
    for m1 in monomials:
        for m2 in monomials:
            k1, k2 = m1.sort_key(), m2.sort_key()
            assert (m1 < m2, m1 <= m2, m1 > m2, m1 >= m2) == (
                k1 < k2,
                k1 <= k2,
                k1 > k2,
                k1 >= k2,
            )
    assert sorted(monomials) == sorted(monomials, key=Monomial.sort_key)


def test_constructors_reject_bad_input_with_their_messages():
    with pytest.raises(ValueError, match="^x and y exponent tuples must have equal length$"):
        Monomial((1,), (1, 2))
    with pytest.raises(ValueError, match="^exponents must be nonnegative$"):
        Monomial((1, 0), (-1, 0))
    with pytest.raises(ValueError, match="^monomial dimension mismatch$"):
        Polynomial(2, {Monomial((1,), (0,)): 1})
    with pytest.raises(TypeError, match="^coefficient must be an int or Fraction, got float$"):
        Polynomial(1, {Monomial((1,), (0,)): 1.5})


def test_multidegree_examples():
    m = Monomial((1, 0), (1, 1))  # x1 y1 y2
    assert m.multidegree() == (2, 1)
    assert Monomial.one(3).multidegree() == (0, 0, 0)
    assert Monomial((2, 1), (0, 2)).multidegree() == (2, 3)


def test_biweight_examples():
    assert Monomial((1, 0), (1, 1)).biweight() == (1, 2)
    assert Monomial((2, 1), (0, 0)).biweight() == (3, 0)
    u12 = Polynomial.x(1, 2) * Polynomial.y(2, 2) - Polynomial.x(2, 2) * Polynomial.y(1, 2)
    assert u12.biweight() == (1, 1)


def test_component_basis_examples():
    basis = component_basis(2, (1, 1))
    assert [str(m) for m in basis] == ["x1*x2", "x1*y2", "x2*y1", "y1*y2"]
    assert component_basis(1, (0,)) == (Monomial.one(1),)
    assert len(component_basis(3, (1, 1, 1))) == 8


@pytest.mark.parametrize("d,bound", [(1, 8), (2, 5), (3, 3)])
def test_component_basis_count_and_order(d, bound):
    for n in product(range(bound + 1), repeat=d):
        if sum(n) > 8:
            continue
        basis = component_basis(d, n)
        expected = 1
        for k in n:
            expected *= k + 1
        assert len(basis) == expected
        assert len(set(basis)) == len(basis)
        assert all(m.multidegree() == n for m in basis)
        assert list(basis) == sorted(basis, key=Monomial.sort_key, reverse=True)


@pytest.mark.parametrize("d,bound", [(2, 4), (3, 2)])
def test_component_basis_matches_exhaustive_enumeration(d, bound):
    # independent oracle: filter every bounded exponent pair
    for n in product(range(bound + 1), repeat=d):
        exhaustive = {
            Monomial(a, b)
            for a in product(*(range(k + 1) for k in n))
            for b in product(*(range(k + 1) for k in n))
            if all(ai + bi == k for ai, bi, k in zip(a, b, n))
        }
        assert set(component_basis(d, n)) == exhaustive


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(poly_strategy())
def test_canonical_form_idempotent(f):
    assert Polynomial(f.d, dict(f.terms())) == f


@given(poly_strategy(d=2, max_exp=2), poly_strategy(d=2, max_exp=2))
def test_grading_multiplicative(f, g):
    fg = f * g
    reachable = {
        tuple(x + y for x, y in zip(m1.multidegree(), m2.multidegree()))
        for m1, _ in f.terms()
        for m2, _ in g.terms()
    }
    for m, _ in fg.terms():
        assert m.multidegree() in reachable


def test_format_golden():
    d = 2
    u12 = Polynomial.x(1, d) * Polynomial.y(2, d) - Polynomial.x(2, d) * Polynomial.y(1, d)
    assert format_poly(u12) == "x1*y2 - x2*y1"
    assert format_poly(Polynomial.zero(d)) == "0"
    assert format_poly(Polynomial.constant(Fraction(-5, 2), d)) == "-5/2"
    f = Polynomial.x(1, d) ** 2 * Fraction(3, 2) - Polynomial.y(1, d)
    assert format_poly(f) == "3/2*x1^2 - y1"


def parse_like_oracle(text, d):
    """parse_poly(text, d), required to equal the oracle's with Fraction coefficients."""
    parsed = parse_poly(text, d)
    assert parsed == parse_poly_oracle(text, d), text
    assert all(type(c) is Fraction for _, c in parsed.terms()), text
    return parsed


def test_parse_golden():
    d = 2
    u12 = Polynomial.x(1, d) * Polynomial.y(2, d) - Polynomial.x(2, d) * Polynomial.y(1, d)
    assert parse_like_oracle("x1*y2 - x2*y1", d) == u12
    assert parse_like_oracle("0", d) == Polynomial.zero(d)
    assert parse_like_oracle("-5/2", d) == Polynomial.constant(Fraction(-5, 2), d)
    assert parse_like_oracle("3/2*x1^2 - y1", d) == (
        Polynomial.x(1, d) ** 2 * Fraction(3, 2) - Polynomial.y(1, d)
    )
    # repeated factors multiply out
    assert parse_like_oracle("x1*x1", d) == Polynomial.x(1, d) ** 2
    # terms that cancel, zero and reduced fractions, signs
    assert parse_like_oracle("x1 - x1 + 0*y2 + 0/3", d) == Polynomial.zero(d)
    assert parse_like_oracle("- -2/4*y2^3 + 3 - 1", d) == (
        Polynomial.y(2, d) ** 3 * Fraction(1, 2) + 2
    )


def test_parse_golden_decompose_inputs():
    for args, stdin, _ in golden_runs("decompose.txt"):
        parse_like_oracle(stdin, int(args[args.index("--d") + 1]))


def test_parse_decompose_stream(decompose_stream):
    d, lines = decompose_stream
    for text in lines:
        parse_like_oracle(text, d)


def test_parse_rejects_garbage():
    bad_inputs = (
        "", "  ", "x0", "x3", "x1^0", "x1 + ", "* x1", "z1", "x1**2", "1/0",
        "x1 x2", "+ x1", "x1 + - ", "3/", "x1^", "2*3", "2*x1*", "x1*y3^2",
        "-1/0*x9", "x1^2^3",
    )
    for bad in bad_inputs:
        with pytest.raises(PolyParseError) as expected:
            parse_poly_oracle(bad, 2)
        with pytest.raises(PolyParseError) as raised:
            parse_poly(bad, 2)
        assert str(raised.value) == str(expected.value), bad


def test_parse_checks_indices_for_every_d():
    # a factor already parsed for a larger d is still range-checked
    assert parse_poly("x3^2*y4", 4) == parse_poly_oracle("x3^2*y4", 4)
    for text in ("x3^2*y4", "y1*x3^2"):
        with pytest.raises(PolyParseError, match=r"^index out of range 1\.\.2 in 'x3\^2'$"):
            parse_poly(text, 2)


@pytest.fixture
def fresh_monomials(monkeypatch):
    """parse_poly on an empty monomial memo, so the first parse of a text misses."""
    memo = {}
    monkeypatch.setattr(poly, "_MONOMIALS", memo)
    return memo


def test_parse_memo_keeps_a_bare_coefficient_apart_from_a_dangling_star(fresh_monomials):
    assert parse_poly("7", 2) == Polynomial.constant(7, 2)
    for text in ("7*", "7*", "-3/4*"):
        with pytest.raises(PolyParseError, match=r"^bad factor ''$"):
            parse_poly(text, 2)
    for text in ("*x1", "7**x1"):
        with pytest.raises(PolyParseError, match=r"^bad factor ''$"):
            parse_poly(text, 2)
    assert parse_poly("7", 2) == Polynomial.constant(7, 2)
    assert list(fresh_monomials[2]) == [None]  # no text that failed is stored


def test_parse_memo_is_per_d(fresh_monomials):
    assert parse_poly("x3*y1", 3) == parse_poly_oracle("x3*y1", 3)
    for _ in range(2):
        with pytest.raises(PolyParseError, match=r"^index out of range 1\.\.2 in 'x3'$"):
            parse_poly("x3*y1", 2)
    assert "x3*y1" in fresh_monomials[3] and "x3*y1" not in fresh_monomials[2]


def test_parse_memo_repeated_factor_on_miss_and_hit(fresh_monomials):
    square = Polynomial.x(1, 2) ** 2
    assert parse_poly("x1*x1", 2) == square  # miss
    assert fresh_monomials[2]["x1*x1"] == Monomial((2, 0), (0, 0))
    assert parse_poly("x1*x1", 2) == square  # hit
    assert parse_poly("5*x1*x1 - 4*x1^2", 2) == square  # hit, and x1^2 a miss


def test_parse_twice_is_equal_with_fraction_coefficients(decompose_stream):
    d, lines = decompose_stream
    texts = lines[:200] + ["3/2*x1^2 - y1 + 3/2*x2", "-2/4*y2^3 + 3 - 1 + x1*x1"]
    for text in texts:
        first, second = parse_poly(text, d), parse_poly(text, d)
        assert first == second == parse_poly_oracle(text, d), text
        for f in (first, second):
            assert all(type(c) is Fraction for _, c in f.terms()), text


@given(poly_strategy())
def test_parse_format_round_trip(f):
    assert parse_like_oracle(format_poly(f), f.d) == f


def test_round_trip_random_larger():
    rng = random.Random(5)
    for _ in range(50):
        f = random_polynomial(rng, 3, max_terms=8, max_exp=4)
        assert parse_like_oracle(format_poly(f), 3) == f
