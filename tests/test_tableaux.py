"""Tableau combinatorics against brute-force oracles and known values."""

from itertools import permutations, product

import pytest

from weitzlab.tableaux import (
    StandardTableau,
    dimension_identity_check,
    kostka,
    kostka_numbers,
    standard_tableau_count,
    standard_tableaux,
    two_row_partitions,
)

from oracles import (
    kostka_enumeration_oracle,
    kostka_oracle,
    sl2_kostka,
    standard_count_oracle,
)

# every content with d <= 4 letters, each used at most 4 times
SMALL_CONTENTS = [n for d in range(1, 5) for n in product(range(5), repeat=d)]


def test_two_row_partitions():
    assert two_row_partitions(2) == [(2, 0), (1, 1)]
    assert two_row_partitions(3) == [(3, 0), (2, 1)]
    assert two_row_partitions(0) == [(0, 0)]


def test_standard_tableaux_small_shapes():
    assert len(standard_tableaux((1, 1))) == 1
    t21 = standard_tableaux((2, 1))
    assert len(t21) == 2
    assert {(t.row1, t.row2) for t in t21} == {((1, 2), (3,)), ((1, 3), (2,))}
    assert len(standard_tableaux((3, 0))) == 1


def test_standard_tableau_validation():
    with pytest.raises(ValueError):
        StandardTableau((2, 1), (1, 3), (2, 4))  # wrong entries
    with pytest.raises(ValueError):
        StandardTableau((2, 1), (2, 3), (1,))  # column decreases
    with pytest.raises(ValueError):
        StandardTableau((1, 2), (1,), (2, 3))  # not a partition


def test_closed_form_matches_enumeration_up_to_10():
    for total in range(0, 11):
        for shape in two_row_partitions(total):
            assert standard_tableau_count(shape) == len(standard_tableaux(shape))


def test_enumeration_matches_independent_oracle_small():
    for total in range(0, 8):
        for shape in two_row_partitions(total):
            assert len(standard_tableaux(shape)) == standard_count_oracle(shape)


def test_kostka_examples():
    assert kostka((1, 1), (1, 1)) == 1
    assert kostka((2, 0), (2,)) == 1
    assert kostka((2, 0), (1, 1)) == 1
    assert kostka((1, 1), (2, 0)) == 0  # a column cannot repeat an entry


def test_kostka_matches_brute_force():
    contents = [
        (1, 1, 1),
        (2, 1),
        (2, 2),
        (1, 1, 2),
        (3, 1),
        (2, 1, 1),
        (1, 2, 1),
    ]
    for content in contents:
        for shape in two_row_partitions(sum(content)):
            assert kostka(shape, content) == kostka_oracle(shape, content)


def test_kostka_matches_enumeration():
    for content in SMALL_CONTENTS:
        for shape in two_row_partitions(sum(content)):
            assert kostka(shape, content) == kostka_enumeration_oracle(shape, content)


def test_kostka_matches_sl2_identity():
    for content in SMALL_CONTENTS + [(10, 10), (15, 15)]:
        for shape in two_row_partitions(sum(content)):
            assert kostka(shape, content) == sl2_kostka(shape, content)


def test_kostka_numbers_are_every_two_row_shape():
    for content in SMALL_CONTENTS:
        total = sum(content)
        numbers = kostka_numbers(content)
        assert len(numbers) == total // 2 + 1
        for b, number in enumerate(numbers):
            shape = (total - b, b)
            assert number == kostka_enumeration_oracle(shape, content)
            assert number == sl2_kostka(shape, content)
        assert sum(numbers) == sum(kostka(s, content) for s in two_row_partitions(total))


def test_kostka_numbers_reject_negative_content():
    with pytest.raises(ValueError, match="nonnegative"):
        kostka_numbers((2, -1))


def test_kostka_rejects_size_mismatch():
    with pytest.raises(ValueError):
        kostka((2, 1), (1, 1))


def test_kostka_rejects_negative_content():
    with pytest.raises(ValueError, match="nonnegative"):
        kostka((1, 0), (2, -1))


def test_kostka_rejects_non_partition():
    with pytest.raises(ValueError, match="not a partition"):
        kostka((1, 2), (1, 1, 1))


def test_kostka_rejects_three_rows():
    with pytest.raises(ValueError, match="two-row"):
        kostka((1, 1, 1), (1, 1, 1))


def test_kostka_symmetry_under_content_permutation():
    for content in [(2, 1, 0), (1, 2, 1), (3, 0, 1), (2, 2, 1)]:
        for shape in two_row_partitions(sum(content)):
            reference = kostka(shape, content)
            for perm in permutations(content):
                assert kostka(shape, tuple(perm)) == reference


def test_dimension_identity_examples():
    # d=2, n=(1,1): 4 = K_(2,0)*3 + K_(1,1)*1 = 3 + 1
    assert kostka((2, 0), (1, 1)) == 1
    assert kostka((1, 1), (1, 1)) == 1
    assert dimension_identity_check((1, 1))
    for k in range(0, 9):
        assert dimension_identity_check((k,))
    assert dimension_identity_check((1, 1, 1))
