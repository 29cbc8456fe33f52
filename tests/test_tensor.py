"""Tensor words and their mask columns: the raising derivation, place
permutations, the highest-weight constructions and their dimension
bookkeeping.  The word model is the reference in oracles.py; the package
runs on masks of y positions (weitzlab.tensor), and reads independence off
distinct smallest masks, checked against linalg.integer_rank."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from weitzlab import tensor
from weitzlab.derivation import delta
from weitzlab.kernel import DeltaImages, integer_delta, positions_by_weight
from weitzlab.linalg import integer_rank
from weitzlab.poly import Polynomial, component_basis
from weitzlab.products import make_u
from weitzlab.tableaux import standard_tableau_count, standard_tableaux, two_row_partitions
from weitzlab.tensor import position_strides, project, standard_hwv_columns

from oracles import (
    delta_words,
    place_permutation,
    rank_oracle,
    special_hwv_words,
    standard_hwv_words,
    word_mask,
)


def word_elem(*letters, coeff=1):
    return {tuple(letters): coeff}


def combine(*terms):
    """Sum of (coefficient, element) pairs, zeros dropped."""
    out = {}
    for c, w in terms:
        for word, v in w.items():
            out[word] = out.get(word, 0) + c * v
    return {word: v for word, v in out.items() if v}


def to_masks(w):
    return {word_mask(word): c for word, c in w.items()}


def block_masks(total, q):
    """Masks of the q-element y-position sets of total letters, sets in lex order."""
    return [sum(1 << (total - 1 - p) for p in w) for w in combinations(range(total), q)]


def multilinear(total):
    """Delta's images on V^(x)total: those of the component (1, ..., 1)."""
    return DeltaImages(total, (1,) * total)


def as_polynomial(d, n, vector):
    basis = component_basis(d, n)
    return Polynomial(d, {basis[pos]: c for pos, c in vector.items()})


def test_delta_tensor_examples():
    w = word_elem(("y", 1), ("x", 2))
    assert delta_words(w) == word_elem(("x", 1), ("x", 2))
    assert integer_delta(multilinear(2), {0b10: 1}) == {0b00: 1}

    skew = combine((1, word_elem(("x", 1), ("y", 2))), (-1, word_elem(("y", 1), ("x", 2))))
    assert delta_words(skew) == {}
    assert integer_delta(multilinear(2), to_masks(skew)) == {}

    yy = word_elem(("y", 1), ("y", 1))
    expected = combine((1, word_elem(("x", 1), ("y", 1))), (1, word_elem(("y", 1), ("x", 1))))
    assert delta_words(yy) == expected
    assert integer_delta(multilinear(2), {0b11: 1}) == {0b01: 1, 0b10: 1}


def test_place_permutation_examples():
    w = word_elem(("x", 1), ("y", 2))
    assert place_permutation(w, (0, 1)) == w
    assert place_permutation(w, (1, 0)) == word_elem(("y", 2), ("x", 1))
    with pytest.raises(ValueError):
        place_permutation(w, (0, 0))
    with pytest.raises(ValueError):
        place_permutation(w, (0, 1, 2))


def random_element(rng, n, terms=3, sorted_layout=False):
    letters = []
    for idx, count in enumerate(n, start=1):
        letters.extend([idx] * count)
    out = {}
    for _ in range(terms):
        arrangement = letters[:]
        if not sorted_layout:
            rng.shuffle(arrangement)
        word = tuple((rng.choice("xy"), idx) for idx in arrangement)
        out[word] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return out


def test_right_action_law_and_delta_commutes():
    rng = random.Random(31)
    for _ in range(15):
        n = (2, 1)
        w = random_element(rng, n)
        total = sum(n)
        sigma = tuple(rng.sample(range(total), total))
        tau = tuple(rng.sample(range(total), total))
        composed = tuple(sigma[tau[p]] for p in range(total))
        assert place_permutation(place_permutation(w, sigma), tau) == place_permutation(
            w, composed
        )
        assert delta_words(place_permutation(w, sigma)) == place_permutation(
            delta_words(w), sigma
        )


def test_content_conserved():
    def contents(w):
        return {tuple(sorted(idx for _, idx in word)) for word in w}

    rng = random.Random(33)
    w = random_element(rng, (1, 2, 1))
    assert contents(w) == {(1, 2, 2, 3)}
    assert contents(delta_words(w)) <= contents(w)
    sigma = tuple(rng.sample(range(4), 4))
    assert contents(place_permutation(w, sigma)) == contents(w)


def test_multilinear_delta_is_delta_on_words():
    # in the sorted layout a word is its mask, and both derivations agree
    rng = random.Random(32)
    for n in [(2, 1), (1, 2, 1), (3, 2)]:
        images = multilinear(sum(n))
        for _ in range(10):
            w = random_element(rng, n, terms=4, sorted_layout=True)
            assert integer_delta(images, to_masks(w)) == to_masks(delta_words(w))


def test_special_hwv_examples():
    e = special_hwv_words(((1, 2),), ())
    expected = combine((1, word_elem(("x", 1), ("y", 2))), (-1, word_elem(("y", 1), ("x", 2))))
    assert e == expected

    single = special_hwv_words((), (1, 1))
    assert single == word_elem(("x", 1), ("x", 1))

    e22 = special_hwv_words(((1, 2), (1, 2)), ())
    assert len(e22) == 4
    assert delta_words(e22) == {}
    assert {(sum(k == "x" for k, _ in w), sum(k == "y" for k, _ in w)) for w in e22} == {
        (2, 2)
    }


def test_special_hwv_is_constant_and_bihomogeneous():
    rng = random.Random(35)
    for _ in range(10):
        pair_count = rng.randint(0, 3)
        single_count = rng.randint(0, 2)
        d = 3
        e = special_hwv_words(
            tuple((rng.randint(1, d), rng.randint(1, d)) for _ in range(pair_count)),
            tuple(rng.randint(1, d) for _ in range(single_count)),
        )
        assert delta_words(e) == {}
        weights = {(sum(k == "x" for k, _ in w), sum(k == "y" for k, _ in w)) for w in e}
        assert weights == {(pair_count + single_count, pair_count)}


def test_standard_basis_sizes():
    assert len(standard_hwv_columns(2, (1, 1)).columns) == 1
    assert standard_hwv_columns(2, (1, 1)).columns[0] == {0b01: 1, 0b10: -1}

    basis21 = standard_hwv_columns(3, (2, 1))
    assert len(basis21.columns) == 2
    coords = [[column.get(m, 0) for m in block_masks(3, 1)] for column in basis21.columns]
    assert rank_oracle(coords) == 2
    assert basis21.independent

    assert standard_hwv_columns(3, (3, 0)).columns == ({0: 1},)


def test_standard_basis_rejections():
    with pytest.raises(ValueError):
        standard_hwv_columns(3, (1, 1, 1))  # three rows
    with pytest.raises(ValueError):
        standard_hwv_columns(2, (3, 1))  # size mismatch


def test_size_mismatch_is_refused_before_enumeration(monkeypatch):
    def never_called(shape):
        raise AssertionError(f"standard_tableaux{shape} enumerated")

    monkeypatch.setattr(tensor, "standard_tableaux", never_called)
    with pytest.raises(ValueError, match="shape size"):
        standard_hwv_columns(5, (13, 7))


def test_smallest_masks_are_the_row_2_sets():
    # independent is read off distinct smallest masks; integer_rank on the
    # weight block, the elimination it replaced, is the reference
    checked = 0
    for total in range(12):
        for shape in two_row_partitions(total):
            hwv = standard_hwv_columns(total, shape)
            for tableau, column in zip(standard_tableaux(shape), hwv.columns, strict=True):
                low = min(column)
                assert low == sum(1 << (total - r) for r in tableau.row2)
                assert column[low] == 1
                checked += 1
            masks = block_masks(total, shape[1])
            rows = [[column.get(m, 0) for column in hwv.columns] for m in masks]
            full = integer_rank(rows, len(hwv.columns)) == len(hwv.columns)
            assert hwv.independent == full, shape
    assert checked == 988


def test_standard_basis_matches_place_permuted_special():
    # the tableau placement equals acting on the adjacent-pairs element by
    # the inverse column-reading permutation (d = 1 so indices are mute):
    # sigma reads the height-two columns top to bottom, left to right, then
    # the rest of the first row
    for shape in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        n = (sum(shape),)
        basis = standard_hwv_words(n, shape)
        base = special_hwv_words(((1, 1),) * shape[1], (1,) * (shape[0] - shape[1]))
        for tableau, elem in zip(standard_tableaux(shape), basis, strict=True):
            columns = zip(tableau.row1, tableau.row2)
            sigma = [k for column in columns for k in column] + [*tableau.row1[shape[1]:]]
            inverse = [0] * len(sigma)
            for pos, value in enumerate(sigma):
                inverse[value - 1] = pos
            assert place_permutation(base, tuple(inverse)) == elem


def test_mask_columns_are_the_word_basis():
    # word <-> mask: same elements, same order, same signs
    for total in range(9):
        for shape in two_row_partitions(total):
            words = standard_hwv_words((total,), shape)
            assert list(standard_hwv_columns(total, shape).columns) == [
                to_masks(w) for w in words
            ]


def test_projection_examples():
    (skew,) = standard_hwv_columns(2, (1, 1)).columns
    strides = position_strides(2, (1, 1))
    assert as_polynomial(2, (1, 1), project(skew, strides)) == make_u(2, 1, 2)

    # rows (1, 2 | 3) and (1, 3 | 2): u_13 x_2 and u_12 x_3
    n = (1, 1, 1)
    strides = position_strides(3, n)
    projected = [
        as_polynomial(3, n, project(column, strides))
        for column in standard_hwv_columns(3, (2, 1)).columns
    ]
    assert projected == [make_u(3, 1, 3) * Polynomial.x(2, 3), make_u(3, 1, 2) * Polynomial.x(3, 3)]

    assert project(skew, position_strides(1, (2,))) == {}  # u_11 collapses


def test_projection_equivariance_random():
    rng = random.Random(37)
    n = (2, 1)
    strides = position_strides(2, n)
    for _ in range(20):
        w = to_masks(random_element(rng, n, sorted_layout=True))
        image = integer_delta(multilinear(3), w)
        assert as_polynomial(2, n, project(image, strides)) == delta(
            as_polynomial(2, n, project(w, strides))
        )


def test_hwv_dimension_equals_tableau_count():
    for total in range(0, 11):
        for shape in two_row_partitions(total):
            assert standard_hwv_columns(total, shape).hwv_rank == standard_tableau_count(shape)


def test_isotypic_dimensions_fill_the_component():
    # summing (number of highest weight vectors) x (ladder length) over
    # two-row shapes recovers the full 2^N of one content class, with the
    # counts taken from the rank route rather than the tableau formula
    for total in range(0, 9):
        filled = sum(
            standard_hwv_columns(total, shape).hwv_rank * (shape[0] - shape[1] + 1)
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
            hwv = standard_hwv_columns(total, shape)
            basis = hwv.columns
            assert all(integer_delta(multilinear(total), column) == {} for column in basis)
            masks = block_masks(total, shape[1])
            coords = [[column.get(m, 0) for m in masks] for column in basis]
            assert rank_oracle(coords) == len(basis)
            assert len(basis) == hwv.hwv_rank


def test_weight_block_masks_and_position_strides():
    # standard_hwv_columns ranks kernel's weight blocks of (1, ..., 1): its
    # positions are the masks
    assert positions_by_weight((1, 1, 1))[2] == sorted(block_masks(3, 2)) == [3, 5, 6]
    # the sorted layout of (2, 0, 1) is 1, 1, 3, and index 1 has stride 2
    assert position_strides(3, (2, 0, 1)) == (2, 2, 1)
