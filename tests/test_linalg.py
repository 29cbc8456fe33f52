"""The row reducer and the ExactMatrix/LinearSolver wrappers.

Ranks and nullspaces are checked against the naive rational elimination
oracle.
"""

import random
from fractions import Fraction

import weitzlab._rowred_py as rowred_py
from weitzlab.linalg import BACKEND, ExactMatrix, LinearSolver, primitive_integer_vector

from oracles import nullspace_oracle, rank_oracle, same_span


def random_int_matrix(rng, m, k, density=0.7, span=9):
    return [
        [rng.randint(-span, span) if rng.random() < density else 0 for _ in range(k)]
        for _ in range(m)
    ]


def test_echelonize_rank_matches_oracle():
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randint(1, 8)
        k = rng.randint(1, 8)
        mat = random_int_matrix(rng, m, k)
        rows = [row[:] for row in mat]
        pivots = rowred_py.echelonize(rows, k)
        assert len(pivots) == rank_oracle([[Fraction(v) for v in r] for r in mat])
        # echelon shape: pivot entries nonzero, zeros below and to the left
        for r, c in enumerate(pivots):
            assert rows[r][c] != 0
            assert all(rows[i][c] == 0 for i in range(r + 1, m))
            assert all(rows[r][cc] == 0 for cc in range(c))


def test_nullspace_zero_matrix():
    m = ExactMatrix(3, 3)
    basis = m.nullspace()
    assert len(basis) == 3
    for i, v in enumerate(basis):
        assert v[i] == 1
        assert sum(1 for e in v if e) == 1


def test_nullspace_invertible_matrix_empty():
    m = ExactMatrix.from_dense(
        [[1, 2, 3], [0, 1, 4], [5, 6, Fraction(1, 2)]]
    )
    assert m.rank() == 3
    assert m.nullspace() == []


def test_nullspace_matches_oracle_and_annihilates():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(1, 7)
        k = rng.randint(1, 7)
        dense = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)]
            for _ in range(m)
        ]
        mat = ExactMatrix.from_dense(dense)
        basis = mat.nullspace()
        for v in basis:
            assert all(e == 0 for e in mat.mul_vector(v))
        expected = nullspace_oracle(dense, k)
        assert len(basis) == len(expected)
        assert same_span(basis, expected)


def test_nullspace_deterministic():
    dense = [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]]
    m = ExactMatrix.from_dense(dense)
    first = m.nullspace()
    second = ExactMatrix.from_dense(dense).nullspace()
    assert first == second
    # free-column parametrization: vector k has 1 at its own free column
    assert first[0][0] == 1 and first[1][2] == 1


def test_solver_consistent_and_inconsistent():
    a = ExactMatrix.from_dense([[1, 0], [0, 1], [1, 1]])
    solver = LinearSolver(a)
    assert solver.rank == 2
    x = solver.solve([Fraction(2), Fraction(3), Fraction(5)])
    assert x == [Fraction(2), Fraction(3)]
    assert solver.solve([Fraction(2), Fraction(3), Fraction(4)]) is None


def test_solver_prefers_early_columns():
    # columns 0 and 1 identical: the certificate must sit on column 0
    a = ExactMatrix.from_dense([[1, 1, 0], [0, 0, 1]])
    solver = LinearSolver(a)
    x = solver.solve([Fraction(3), Fraction(7)])
    assert x == [Fraction(3), Fraction(0), Fraction(7)]


def test_solver_random_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        m = rng.randint(1, 6)
        k = rng.randint(1, 6)
        dense = random_int_matrix(rng, m, k)
        mat = ExactMatrix.from_dense(dense)
        solver = LinearSolver(mat)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
        b = mat.mul_vector(coeffs)
        x = solver.solve(b)
        assert x is not None
        assert mat.mul_vector(x) == b


def test_primitive_integer_vector():
    v = [Fraction(-2, 3), Fraction(4, 3), Fraction(0)]
    assert primitive_integer_vector(v) == [1, -2, 0]
    assert primitive_integer_vector([Fraction(0)] * 3) == [0, 0, 0]


def test_backend_reported():
    assert BACKEND == "python"
