"""Tensor words, the raising derivation, place permutations, and the
highest-weight constructions with their dimension bookkeeping."""

import random
from fractions import Fraction

import pytest

from weitzlab.derivation import delta
from weitzlab.poly import Polynomial
from weitzlab.tableaux import standard_tableau_count, standard_tableaux, two_row_partitions
from weitzlab.tensor import (
    PairingPlan,
    TensorElement,
    delta_tensor,
    element_y_coordinates,
    hwv_space_dimension,
    place_permutation,
    project_to_polynomial,
    sorted_layout,
    special_hwv,
    standard_hwv_basis,
    weight_block_words,
)

from oracles import rank_oracle


def word_elem(*letters, d, coeff=1):
    return TensorElement(d, {tuple(letters): Fraction(coeff)})


def test_delta_tensor_examples():
    w = word_elem(("y", 1), ("x", 2), d=2)
    assert delta_tensor(w) == word_elem(("x", 1), ("x", 2), d=2)

    skew = word_elem(("x", 1), ("y", 2), d=2) - word_elem(("y", 1), ("x", 2), d=2)
    assert delta_tensor(skew).is_zero

    yy = word_elem(("y", 1), ("y", 1), d=1)
    expected = word_elem(("x", 1), ("y", 1), d=1) + word_elem(("y", 1), ("x", 1), d=1)
    assert delta_tensor(yy) == expected


def test_mixed_content_rejected():
    with pytest.raises(ValueError):
        TensorElement(
            2,
            {
                (("x", 1), ("x", 2)): Fraction(1),
                (("x", 1), ("x", 1)): Fraction(1),
            },
        )


def test_place_permutation_examples():
    w = word_elem(("x", 1), ("y", 2), d=2)
    assert place_permutation(w, (0, 1)) == w
    assert place_permutation(w, (1, 0)) == word_elem(("y", 2), ("x", 1), d=2)
    with pytest.raises(ValueError):
        place_permutation(w, (0, 0))
    with pytest.raises(ValueError):
        place_permutation(w, (0, 1, 2))


def random_element(rng, d, n, terms=3):
    layouts = []
    letters = []
    for idx, count in enumerate(n, start=1):
        letters.extend([idx] * count)
    out = {}
    for _ in range(terms):
        arrangement = letters[:]
        rng.shuffle(arrangement)
        word = tuple(
            (rng.choice("xy"), idx) for idx in arrangement
        )
        out[word] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return TensorElement(d, out, tuple(n))


def test_right_action_law_and_delta_commutes():
    rng = random.Random(31)
    for _ in range(15):
        n = (2, 1)
        w = random_element(rng, 2, n)
        total = sum(n)
        sigma = tuple(rng.sample(range(total), total))
        tau = tuple(rng.sample(range(total), total))
        composed = tuple(sigma[tau[p]] for p in range(total))
        assert place_permutation(place_permutation(w, sigma), tau) == place_permutation(
            w, composed
        )
        assert delta_tensor(place_permutation(w, sigma)) == place_permutation(
            delta_tensor(w), sigma
        )


def test_content_conserved():
    rng = random.Random(33)
    w = random_element(rng, 3, (1, 2, 1))
    assert delta_tensor(w).content == w.content
    sigma = tuple(rng.sample(range(4), 4))
    assert place_permutation(w, sigma).content == w.content


def test_special_hwv_examples():
    e = special_hwv(2, PairingPlan(pairs=((1, 2),), singles=()))
    expected = word_elem(("x", 1), ("y", 2), d=2) - word_elem(("y", 1), ("x", 2), d=2)
    assert e == expected

    single = special_hwv(1, PairingPlan(pairs=(), singles=(1, 1)))
    assert single == word_elem(("x", 1), ("x", 1), d=1)

    e22 = special_hwv(2, PairingPlan(pairs=((1, 2), (1, 2)), singles=()))
    assert len(e22.terms) == 4
    assert delta_tensor(e22).is_zero
    assert e22.weight() == (2, 2)


def test_special_hwv_is_constant_and_bihomogeneous():
    rng = random.Random(35)
    for _ in range(10):
        pair_count = rng.randint(0, 3)
        single_count = rng.randint(0, 2)
        d = 3
        plan = PairingPlan(
            pairs=tuple(
                (rng.randint(1, d), rng.randint(1, d)) for _ in range(pair_count)
            ),
            singles=tuple(rng.randint(1, d) for _ in range(single_count)),
        )
        e = special_hwv(d, plan)
        assert delta_tensor(e).is_zero
        assert e.weight() == (pair_count + single_count, pair_count)


def test_standard_basis_sizes():
    assert len(standard_hwv_basis(1, (2,), (1, 1))) == 1
    skew = standard_hwv_basis(1, (2,), (1, 1))[0]
    assert skew == word_elem(("x", 1), ("y", 1), d=1) - word_elem(("y", 1), ("x", 1), d=1)

    basis21 = standard_hwv_basis(3, (1, 1, 1), (2, 1))
    assert len(basis21) == 2
    coords = [element_y_coordinates(w)[1] for w in basis21]
    assert rank_oracle(coords) == 2

    assert len(standard_hwv_basis(1, (3,), (3, 0))) == 1


def test_standard_basis_rejections():
    with pytest.raises(ValueError):
        standard_hwv_basis(2, (1, 1), (1, 1, 1))  # three rows
    with pytest.raises(ValueError):
        standard_hwv_basis(2, (1, 1), (3, 1))  # size mismatch


def test_invalid_plan_rejected():
    with pytest.raises(ValueError):
        special_hwv(2, PairingPlan(pairs=((1, 3),), singles=()))
    with pytest.raises(ValueError):
        special_hwv(2, PairingPlan(pairs=(), singles=(0,)))


def test_standard_basis_matches_place_permuted_special():
    # the tableau placement equals acting on the adjacent-pairs element by
    # the inverse column-reading permutation (d = 1 so indices are mute)
    for shape in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        n = (sum(shape),)
        basis = standard_hwv_basis(1, n, shape)
        base_plan = PairingPlan(
            pairs=((1, 1),) * shape[1], singles=(1,) * (shape[0] - shape[1])
        )
        base = special_hwv(1, base_plan)
        for tableau, elem in zip(standard_tableaux(shape), basis):
            sigma = tableau.column_reading_permutation()
            inverse = [0] * len(sigma)
            for pos, value in enumerate(sigma):
                inverse[value - 1] = pos
            assert place_permutation(base, tuple(inverse)) == elem


def test_projection_examples():
    u12 = Polynomial.x(1, 2) * Polynomial.y(2, 2) - Polynomial.x(2, 2) * Polynomial.y(1, 2)
    skew = special_hwv(2, PairingPlan(pairs=((1, 2),), singles=()))
    assert project_to_polynomial(skew) == u12

    with_single = special_hwv(3, PairingPlan(pairs=((1, 2),), singles=(3,)))
    u12_3 = Polynomial.x(1, 3) * Polynomial.y(2, 3) - Polynomial.x(2, 3) * Polynomial.y(1, 3)
    assert project_to_polynomial(with_single) == u12_3 * Polynomial.x(3, 3)

    collapse = special_hwv(1, PairingPlan(pairs=((1, 1),), singles=()))
    assert project_to_polynomial(collapse).is_zero


def test_projection_equivariance_random():
    rng = random.Random(37)
    for _ in range(20):
        w = random_element(rng, 2, (2, 1))
        assert project_to_polynomial(delta_tensor(w)) == delta(project_to_polynomial(w))


def test_hwv_dimension_equals_tableau_count():
    for total in range(0, 8):
        for shape in two_row_partitions(total):
            assert hwv_space_dimension(total, shape) == standard_tableau_count(shape)


def test_isotypic_dimensions_fill_the_component():
    # summing (number of highest weight vectors) x (ladder length) over
    # two-row shapes recovers the full 2^N of one content class, with the
    # counts taken from the rank route rather than the tableau formula
    for total in range(0, 9):
        filled = sum(
            hwv_space_dimension(total, shape) * (shape[0] - shape[1] + 1)
            for shape in two_row_partitions(total)
        )
        assert filled == 2**total


def test_standard_basis_spans_weight_kernel():
    # membership both ways at desk scale: the kernel of the weight block
    # has the tableau-count dimension and the basis elements, which are
    # independent constants, exhaust it
    for n in [(2, 1), (1, 1, 1), (2, 2), (3, 1)]:
        total = sum(n)
        for shape in two_row_partitions(total):
            basis = standard_hwv_basis(len(n), n, shape)
            assert all(delta_tensor(w).is_zero for w in basis)
            coords = [element_y_coordinates(w)[1] for w in basis]
            if coords:
                assert rank_oracle(coords) == len(basis)
            assert len(basis) == hwv_space_dimension(total, shape)


def test_weight_block_words_shape():
    assert weight_block_words(3, 0) == [()]
    assert weight_block_words(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert sorted_layout((2, 0, 1)) == (1, 1, 3)
