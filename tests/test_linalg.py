"""The row reducer and the integer rank, nullspace and LinearSolver on top.

Ranks and nullspaces are checked against the naive rational elimination
oracle, and the reducer against the Bareiss reduction it replaced: the
same pivots, kernel vectors and solver certificates.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

import weitzlab._rowred_py as rowred_py
from weitzlab.linalg import (
    BACKEND,
    LinearSolver,
    integer_nullspace,
    integer_rank,
)

from oracles import bareiss_oracle, nullspace_oracle, rank_oracle, rref, same_span


def random_int_matrix(rng, m, k, density=0.7, span=9):
    return [
        [rng.randint(-span, span) if rng.random() < density else 0 for _ in range(k)]
        for _ in range(m)
    ]


def mul_vector(rows, v):
    return [sum(a * e for a, e in zip(row, v)) for row in rows]


def copy(rows):
    return [row[:] for row in rows]


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


def primitive(row):
    g = gcd(*row)
    if not g:
        return row
    if next(e for e in row if e) < 0:
        g = -g
    return [e // g for e in row]


def bareiss_cases(seed, count):
    """Random sparse (at least 70% zeros) and dense integer matrices, as (rows, cols)."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        density = rng.uniform(0.05, 0.3) if k % 2 else rng.uniform(0.8, 1.0)
        m = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        cases.append((random_int_matrix(rng, m, cols, density, rng.choice([1, 3, 30])), cols))
    return cases


def under_bareiss(monkeypatch, fn, *args):
    with monkeypatch.context() as patch:
        patch.setattr(rowred_py, "echelonize", bareiss_oracle)
        return fn(*args)


def test_echelonize_matches_bareiss():
    for rows, cols in bareiss_cases(5, 300):
        ours, theirs = copy(rows), copy(rows)
        pivots = rowred_py.echelonize(ours, cols)
        assert pivots == bareiss_oracle(theirs, cols)
        # every row is a nonzero multiple of its Bareiss counterpart
        assert [primitive(r) for r in ours] == [primitive(r) for r in theirs]


def test_nullspace_matches_bareiss(monkeypatch):
    for rows, cols in bareiss_cases(6, 300):
        expected = under_bareiss(monkeypatch, integer_nullspace, copy(rows), cols)
        assert integer_nullspace(copy(rows), cols) == expected


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
def test_solver_matches_bareiss(monkeypatch, sparse):
    rng = random.Random(7 + sparse)
    outcomes = {"solved": 0, "inconsistent": 0}
    for _ in range(150):
        m = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        density = rng.uniform(0.05, 0.3) if sparse else rng.uniform(0.8, 1.0)
        rows = random_int_matrix(rng, m, cols, density, rng.choice([1, 3, 30]))
        ours = LinearSolver(copy(rows), cols)
        theirs = under_bareiss(monkeypatch, LinearSolver, copy(rows), cols)
        assert ours.rank == theirs.rank
        for _ in range(4):
            if rng.random() < 0.5:
                coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
                b = mul_vector(rows, coeffs)
            else:
                b = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)]
            x = ours.solve(b)
            assert x == under_bareiss(monkeypatch, theirs.solve, b)
            outcomes["solved" if x is not None else "inconsistent"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_nullspace_zero_matrix():
    basis = integer_nullspace([[0] * 3 for _ in range(3)], 3)
    assert len(basis) == 3
    for i, v in enumerate(basis):
        assert v[i] == 1
        assert sum(1 for e in v if e) == 1


def test_nullspace_invertible_matrix_empty():
    rows = [[1, 2, 3], [0, 1, 4], [10, 12, 1]]
    assert integer_rank(copy(rows), 3) == 3
    assert integer_nullspace(copy(rows), 3) == []


def test_nullspace_matches_oracle_and_annihilates():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(1, 7)
        k = rng.randint(1, 7)
        rows = random_int_matrix(rng, m, k)
        basis = integer_nullspace(copy(rows), k)
        for v in basis:
            assert all(e == 0 for e in mul_vector(rows, v))
            assert primitive(v) == v
        expected = nullspace_oracle(rows, k)
        assert len(basis) == len(expected)
        assert same_span(basis, expected)


def test_nullspace_deterministic():
    dense = [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]]
    first = integer_nullspace(copy(dense), 4)
    second = integer_nullspace(copy(dense), 4)
    assert first == second
    # free-column parametrization: vector k is nonzero at its own free
    # column and zero at every other free column (columns 0 and 2 here)
    free = [0, 2]
    assert len(first) == len(free)
    for k, v in enumerate(first):
        for i, fc in enumerate(free):
            assert (v[fc] != 0) == (i == k)


def test_solver_consistent_and_inconsistent():
    solver = LinearSolver([[1, 0], [0, 1], [1, 1]], 2)
    assert solver.rank == 2
    x = solver.solve([Fraction(2), Fraction(3), Fraction(5)])
    assert x == [Fraction(2), Fraction(3)]
    assert solver.solve([2, 3, 5]) == x
    assert solver.solve([Fraction(2), Fraction(3), Fraction(4)]) is None


def test_solver_prefers_early_columns():
    # columns 0 and 1 identical: the certificate must sit on column 0
    solver = LinearSolver([[1, 1, 0], [0, 0, 1]], 3)
    x = solver.solve([Fraction(3), Fraction(7)])
    assert x == [Fraction(3), Fraction(0), Fraction(7)]


def test_solver_leaves_callers_rows_alone():
    rows = [[2, 4, 0], [1, 2, 3], [0, 0, 6]]
    before = copy(rows)
    solver = LinearSolver(rows, 3)
    assert solver.rank == 2
    assert solver.solve([2, Fraction(3, 2), 1]) == [Fraction(1), Fraction(0), Fraction(1, 6)]
    assert solver.solve([1, 0, 0]) is None
    with pytest.raises(ValueError):
        solver.solve([1, 0])
    assert rows == before


def test_solver_random_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        m = rng.randint(1, 6)
        k = rng.randint(1, 6)
        rows = random_int_matrix(rng, m, k)
        solver = LinearSolver(copy(rows), k)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
        b = mul_vector(rows, coeffs)
        x = solver.solve(b)
        assert x is not None
        assert mul_vector(rows, x) == b


def test_solver_matches_rank_oracle():
    rng = random.Random(19)
    outcomes = {"solved": 0, "inconsistent": 0}
    for _ in range(200):
        m = rng.randint(1, 7)
        k = rng.randint(1, 7)
        rows = random_int_matrix(rng, m, k, density=rng.choice([0.3, 0.7]), span=4)
        if rng.random() < 0.5:
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(k)]
            b = mul_vector(rows, coeffs)
        else:
            b = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)]
        b = [int(e) if e.denominator == 1 and rng.random() < 0.5 else e for e in b]
        x = LinearSolver(copy(rows), k).solve(b)
        augmented = [row + [e] for row, e in zip(rows, b)]
        if rank_oracle(augmented) > rank_oracle(rows):
            assert x is None
            outcomes["inconsistent"] += 1
            continue
        # the oracle's solution with every free variable zero
        reduced, pivots = rref(augmented)
        expected = [Fraction(0)] * k
        for r, pc in enumerate(pivots):
            expected[pc] = reduced[r][k]
        assert x == expected
        assert all(type(e) is Fraction for e in x)
        outcomes["solved"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_backend_reported():
    assert BACKEND == "python"
