"""The derivation pair, the unipotent flow, the GL2 action, and ladders.

delta_star and the ladders are the Fraction reference in tests/oracles.py.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from weitzlab.derivation import GL2Element, delta, exp_action, gl2_action, is_constant
from weitzlab.poly import Polynomial

from oracles import (
    build_chain,
    delta_star,
    proportionality,
    random_polynomial,
    random_rational,
)

from test_poly import poly_strategy


def u(i, j, d):
    return Polynomial.x(i, d) * Polynomial.y(j, d) - Polynomial.x(j, d) * Polynomial.y(i, d)


def test_defining_actions():
    d = 1
    assert delta(Polynomial.y(1, d)) == Polynomial.x(1, d)
    assert delta(Polynomial.x(1, d) ** 3).is_zero
    assert delta_star(Polynomial.x(1, d)) == Polynomial.y(1, d)
    assert delta_star(Polynomial.y(1, d)).is_zero
    assert delta_star(Polynomial.x(1, d) ** 2) == 2 * Polynomial.x(1, d) * Polynomial.y(1, d)


def test_determinants_are_constants():
    assert delta(u(1, 2, 2)).is_zero
    assert delta_star(u(1, 2, 2)).is_zero
    d = 3
    f = Polynomial.x(1, d) * u(2, 3, d) + 5 * u(1, 2, d) * Polynomial.x(3, d)
    assert is_constant(f)
    assert not is_constant(Polynomial.y(1, d))


@given(poly_strategy(d=2, max_exp=2), poly_strategy(d=2, max_exp=2))
def test_leibniz(f, g):
    assert delta(f * g) == delta(f) * g + f * delta(g)
    assert delta_star(f * g) == delta_star(f) * g + f * delta_star(g)


def test_nilpotence_per_element():
    rng = random.Random(2)
    for _ in range(20):
        f = random_polynomial(rng, 2, max_terms=4, max_exp=2)
        y_degree = max((sum(m.b) for m, _ in f.terms()), default=0)
        g = f
        for _ in range(y_degree + 1):
            g = delta(g)
        assert g.is_zero


def test_biweight_shifts():
    d = 2
    f = Polynomial.x(1, d) * Polynomial.y(2, d) ** 2  # bi-weight (1, 2)
    assert delta(f).biweight() == (2, 1)
    assert delta_star(f).biweight() == (0, 3)


def test_exp_action_examples():
    d = 1
    t = Fraction(1, 3)
    assert exp_action(Polynomial.y(1, d), t) == Polynomial.y(1, d) + t * Polynomial.x(1, d)
    assert exp_action(u(1, 2, 2), Fraction(7, 3)) == u(1, 2, 2)
    rng = random.Random(4)
    for _ in range(10):
        f = random_polynomial(rng, 2)
        assert exp_action(f, Fraction(0)) == f


def test_exp_action_is_exponential_series():
    rng = random.Random(6)
    for _ in range(15):
        f = random_polynomial(rng, 2, max_terms=4, max_exp=2)
        t = random_rational(rng, 5)
        total = Polynomial.zero(2)
        term = f
        k = 0
        factorial = 1
        while not term.is_zero:
            total = total + term * Fraction(t**k, factorial)
            k += 1
            factorial *= k
            term = delta(term)
        assert exp_action(f, t) == total


def test_exp_action_group_law():
    rng = random.Random(8)
    for _ in range(15):
        f = random_polynomial(rng, 2, max_terms=4, max_exp=2)
        s, t = random_rational(rng), random_rational(rng)
        assert exp_action(exp_action(f, s), t) == exp_action(f, s + t)


def test_exp_action_is_ring_map():
    rng = random.Random(10)
    for _ in range(10):
        f = random_polynomial(rng, 2, max_terms=3, max_exp=2)
        g = random_polynomial(rng, 2, max_terms=3, max_exp=2)
        t = random_rational(rng)
        assert exp_action(f * g, t) == exp_action(f, t) * exp_action(g, t)


def random_gl2(rng):
    while True:
        entries = [random_rational(rng, 4) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2] != 0:
            return GL2Element(*entries)


def test_gl2_identity_and_unitriangular():
    rng = random.Random(12)
    for _ in range(10):
        f = random_polynomial(rng, 2, max_terms=4, max_exp=2)
        assert gl2_action(GL2Element.identity(), f) == f
        t = random_rational(rng)
        assert gl2_action(GL2Element.unitriangular(t), f) == exp_action(f, t)


def test_gl2_determinant_character_on_u():
    rng = random.Random(14)
    for _ in range(10):
        g = random_gl2(rng)
        assert gl2_action(g, u(1, 2, 2)) == g.det * u(1, 2, 2)


def test_gl2_composition_law():
    rng = random.Random(16)
    for _ in range(10):
        g, h = random_gl2(rng), random_gl2(rng)
        f = random_polynomial(rng, 2, max_terms=3, max_exp=2)
        assert gl2_action(g @ h, f) == gl2_action(g, gl2_action(h, f))


def test_gl2_preserves_multidegree():
    rng = random.Random(18)
    g = random_gl2(rng)
    f = Polynomial.x(1, 2) * Polynomial.y(2, 2) ** 2
    assert gl2_action(g, f).multidegree() == f.multidegree()


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        GL2Element(1, 2, 2, 4)


def test_constants_fixed_by_flow():
    rng = random.Random(20)
    d = 3
    f = u(1, 2, d) * Polynomial.x(3, d) - 2 * u(1, 3, d) * Polynomial.x(2, d)
    for _ in range(10):
        assert exp_action(f, random_rational(rng)) == f


# ----------------------------------------------------------------- ladders


def test_chain_single_variable():
    chain = build_chain(Polynomial.x(1, 1))
    assert [str(p) for p in chain.ladder] == ["x1", "y1"]
    assert chain.raising_scalars == (Fraction(1),)


def test_chain_determinant_is_singleton():
    chain = build_chain(u(1, 2, 2))
    assert len(chain) == 1
    assert chain.weight == (1, 1)


def test_chain_x_squared():
    # hand computation: ladder x1^2, 2*x1*y1, 2*y1^2 with delta steps 2, 2
    x1, y1 = Polynomial.x(1, 1), Polynomial.y(1, 1)
    chain = build_chain(x1 ** 2)
    assert list(chain.ladder) == [x1 ** 2, 2 * x1 * y1, 2 * y1 ** 2]
    assert delta(chain.ladder[1]) == 2 * x1 ** 2
    assert delta(chain.ladder[2]) == 4 * x1 * y1
    assert chain.raising_scalars == (Fraction(2), Fraction(2))


def test_chain_scalar_closed_form():
    # c_i = i * (m - i + 1) with m = p - q, checked against direct delta
    cases = [
        Polynomial.x(1, 1) ** 4,
        Polynomial.x(1, 2) ** 2 * u(1, 2, 2),
        Polynomial.x(2, 2) ** 3 * u(1, 2, 2) ** 2,
    ]
    for w0 in cases:
        p, q = w0.biweight()
        m = p - q
        chain = build_chain(w0)
        assert len(chain.ladder) == m + 1
        for i, c in enumerate(chain.raising_scalars, start=1):
            assert c == i * (m - i + 1)
            assert delta(chain.ladder[i]) == c * chain.ladder[i - 1]


def test_chain_rejections():
    with pytest.raises(ValueError):
        build_chain(Polynomial.y(1, 1))  # not a constant
    with pytest.raises(ValueError):
        build_chain(Polynomial.zero(1))
    mixed = Polynomial.x(1, 1) + Polynomial.x(1, 1) ** 2
    with pytest.raises(ValueError):
        build_chain(mixed)  # not bi-homogeneous


def test_proportionality_helper():
    f = Polynomial.x(1, 1) * 3
    assert proportionality(f, Polynomial.x(1, 1)) == 3
    assert proportionality(Polynomial.zero(1), f) == 0
    assert proportionality(Polynomial.y(1, 1), f) is None
