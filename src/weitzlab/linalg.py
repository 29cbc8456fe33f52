"""Exact linear algebra on dense integer rows.

A matrix is a list of rows of Python ints.  Rank, nullspace and linear
solves all reduce to one fraction-free integer row reduction and share
one integer back substitution; a rational right-hand side (to
LinearSolver.solve) is scaled to integers first, and Fractions are built
only for a returned solution.  Pivoting always takes the first nonzero
row in canonical column order, so results are bit-for-bit deterministic.

The row reduction itself is weitzlab._rowred_py.echelonize, always called
through the module attribute _core so that a profiler can rebind it.
BACKEND names the reducer and goes with every benchmark result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from . import _rowred_py as _core

BACKEND = "python"

__all__ = [
    "BACKEND",
    "LinearSolver",
    "integer_nullspace",
    "integer_rank",
]


def integer_rank(rows: list[list[int]], cols: int) -> int:
    """Rank of dense integer rows of width cols; rows are reduced in place."""
    return len(_core.echelonize(rows, cols))


def _back_substitute(
    rows: list[list[int]], pivots: list[int], width: int, col: int
) -> list[int]:
    """The integer vector that echelon rows annihilate, set at non-pivot column col.

    rows[r] has its pivot at pivots[r].  The vector has length width, is
    nonzero at col and zero at every other non-pivot column; its pivot
    coordinates are solved for from the last row up and stay integers:
    when a pivot p does not divide the pending sum s, the vector is
    scaled by p / gcd(s, p) first.
    """
    v = [0] * width
    v[col] = 1
    support = [col]
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        row = rows[r]
        s = 0
        for j in support:
            if j > pc:
                s += row[j] * v[j]
        if s:
            p = row[pc]
            g = gcd(s, p)
            if p != g:
                scale = p // g
                for j in support:
                    v[j] *= scale
            v[pc] = -s // g
            support.append(pc)
    return v


def integer_nullspace(rows: list[list[int]], cols: int) -> list[list[int]]:
    """Basis of the right kernel of dense integer rows, one vector per free column.

    Vector k is the solution with its free column set and every other
    free column zero (the echelon parametrization, deterministic given
    the column order), scaled to coprime integers with the first nonzero
    entry positive.  rows are reduced in place.
    """
    pivots = _core.echelonize(rows, cols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = _back_substitute(rows, pivots, cols, fc)
        g = gcd(*v)
        if next(e for e in v if e) < 0:
            g = -g
        basis.append([e // g for e in v])
    return basis


class LinearSolver:
    """Exact solver for A x = b with a fixed integer A, kept as a copy of the rows.

    solve(b) scales b to integers by the lcm den of its denominators,
    reduces [A | -b*den] once and back-substitutes at the right-hand-side
    column as integer_nullspace does.  The solution sets every free
    variable to zero, so its support sits on the earliest independent
    columns of A (echelon pivot preference).  It is None when the system
    is inconsistent, i.e. when the right-hand-side column is a pivot.
    """

    __slots__ = ("_rows", "_ncols", "rank")

    def __init__(self, rows: list[list[int]], cols: int):
        self._rows = [row[:] for row in rows]
        self._ncols = cols
        self.rank = integer_rank([row[:] for row in rows], cols)

    def solve(self, b: Sequence[Fraction | int]) -> list[Fraction] | None:
        if len(b) != len(self._rows):
            raise ValueError("right-hand side length mismatch")
        den = lcm(*[e.denominator for e in b])
        n = self._ncols
        rows = [row + [int(-e * den)] for row, e in zip(self._rows, b)]
        pivots = _core.echelonize(rows, n + 1)
        if pivots and pivots[-1] == n:
            return None
        v = _back_substitute(rows, pivots, n + 1, n)
        scale = v[n] * den
        return [Fraction(e, scale) for e in v[:n]]
