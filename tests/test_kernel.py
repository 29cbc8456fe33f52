"""Component kernels: delta matrices, nullspaces, and the block split."""

import random
from fractions import Fraction

from weitzlab.derivation import exp_action, is_constant
from weitzlab.kernel import kernel_basis, positions_by_weight, weight_block_sizes
from weitzlab.linalg import integer_rank
from weitzlab.poly import Polynomial, component_basis, format_poly
from weitzlab.report import enumerate_multidegrees
from weitzlab.tableaux import kostka, two_row_partitions

from oracles import delta_matrix, nullspace_oracle, random_rational, same_span


def rank(rows):
    return integer_rank([row[:] for row in rows], len(rows[0]))


def poly_vector(p, basis):
    index = {m: i for i, m in enumerate(basis)}
    v = [Fraction(0)] * len(basis)
    for m, c in p.terms():
        v[index[m]] = c
    return v


def test_delta_matrix_d1():
    m = delta_matrix(1, (1,))
    # basis [x1, y1]; y1 -> x1, x1 -> 0
    assert m == [[0, 1], [0, 0]]
    assert rank(m) == 1


def test_delta_matrix_d2_component_11():
    # hand images: x1y2 -> x1x2, x2y1 -> x1x2, y1y2 -> x1y2 + x2y1
    m = delta_matrix(2, (1, 1))
    assert rank(m) == 2
    basis = component_basis(2, (1, 1))
    assert [str(b) for b in basis] == ["x1*x2", "x1*y2", "x2*y1", "y1*y2"]
    assert m == [
        [0, 1, 1, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]


def test_delta_matrix_zero_component():
    m = delta_matrix(2, (0, 0))
    assert m == [[0]]
    assert rank(m) == 0


def test_kernel_d1_degree2():
    kb = kernel_basis(1, (2,))
    assert kb.dimension == 1
    assert kb.vectors[0] == Polynomial.x(1, 1) ** 2


def test_kernel_d2_component_11():
    kb = kernel_basis(2, (1, 1))
    assert kb.dimension == 2
    u12 = Polynomial.x(1, 2) * Polynomial.y(2, 2) - Polynomial.x(2, 2) * Polynomial.y(1, 2)
    assert list(kb.vectors) == [Polynomial.x(1, 2) * Polynomial.x(2, 2), u12]
    assert dict(kb.dims_by_biweight) == {(2, 0): 1, (1, 1): 1}


def test_kernel_d2_component_02():
    kb = kernel_basis(2, (0, 2))
    assert kb.dimension == 1
    assert kb.vectors[0] == Polynomial.x(2, 2) ** 2


def test_kernel_d3_111_both_oracles():
    # two oracles agree on dimension 3: whole-component rational
    # elimination and the Kostka sum 1 + 2
    kb = kernel_basis(3, (1, 1, 1))
    m = delta_matrix(3, (1, 1, 1))
    oracle_basis = nullspace_oracle(m, len(m))
    assert len(oracle_basis) == 3
    assert sum(
        kostka(shape, (1, 1, 1)) for shape in two_row_partitions(3)
    ) == 3
    assert kb.dimension == 3


def test_block_route_matches_whole_component():
    for d, bound in ((1, 6), (2, 4), (3, 3)):
        for n in enumerate_multidegrees(d, bound):
            kb = kernel_basis(d, n)
            basis = component_basis(d, n)
            m = delta_matrix(d, n)
            whole = nullspace_oracle(m, len(m))
            block_vectors = [poly_vector(p, basis) for p in kb.vectors]
            assert len(whole) == kb.dimension
            assert same_span(whole, block_vectors)


def test_rank_nullity_exact():
    for d, bound in ((2, 5), (3, 3)):
        for n in enumerate_multidegrees(d, bound):
            m = delta_matrix(d, n)
            size = 1
            for k in n:
                size *= k + 1
            assert len(m) == size
            assert rank(m) + kernel_basis(d, n).dimension == size


def test_weight_block_sizes_count_the_positions_by_weight():
    # the coefficients of prod (1 + t + ... + t^n_i), against the positions
    for d in range(5):
        for n in enumerate_multidegrees(d, 8, 4):
            assert weight_block_sizes(n) == [len(b) for b in positions_by_weight(n)], n
    assert weight_block_sizes((1,) * 14)[7] == 3432
    assert max(weight_block_sizes((1,) * 16)) == 12870


def test_biweight_block_structure():
    m = delta_matrix(2, (2, 1))
    basis = component_basis(2, (2, 1))
    entries = [(r, c) for r, row in enumerate(m) for c, v in enumerate(row) if v]
    assert entries
    for r, c in entries:
        p, q = basis[c].biweight()
        assert basis[r].biweight() == (p + 1, q - 1)


def test_kernel_vectors_are_fixed_constants():
    rng = random.Random(23)
    for n in [(1, 1), (2, 1), (2, 2)]:
        for v in kernel_basis(2, n).vectors:
            assert is_constant(v)
            assert exp_action(v, random_rational(rng)) == v
            assert v.biweight() is not None  # bi-homogeneous
            assert v.leading_coefficient() > 0


def test_determinism_bit_identical():
    kernel_basis.cache_clear()
    first = [format_poly(v) for v in kernel_basis(3, (1, 1, 2)).vectors]
    kernel_basis.cache_clear()
    second = [format_poly(v) for v in kernel_basis(3, (1, 1, 2)).vectors]
    assert first == second
