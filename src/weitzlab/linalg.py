"""Exact linear algebra on dense integer rows.

A matrix is a list of rows of Python ints.  Rank, nullspace and repeated
linear solves all reduce to one fraction-free integer row reduction and
share one integer back substitution; rational input (a right-hand side
to LinearSolver.solve) is scaled to integers first, and Fractions are
built only for a returned solution.  LinearSolver keeps its transform
as columns, so a solve touches only the columns of the nonzero entries
of its right-hand side.  Pivoting always takes the first nonzero row in
canonical column order, so results are bit-for-bit deterministic.

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

_ZERO = Fraction(0)

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
    """Reusable exact solver for A x = b with a fixed integer A and many b.

    One fraction-free reduction of [A | I] is done up front, which leaves
    U = T A in echelon form together with the transform T; T is kept
    only as its columns, one per coordinate of b.  A solve scales b to
    integers, forms w = T b as the sum of b_j times column j over the
    nonzero b_j, and takes x from the nullspace of [U | -w] at the
    right-hand-side column, through the same back substitution as
    integer_nullspace.  Among all solutions the returned one sets every
    free variable to zero, so its support sits on the earliest
    independent columns of A (echelon pivot preference).  solve()
    returns None when the system is inconsistent.  rows are reduced in
    place.
    """

    __slots__ = ("_rows", "_columns", "_pivots", "_ncols")

    def __init__(self, rows: list[list[int]], cols: int):
        m = len(rows)
        for r, row in enumerate(rows):
            row.extend([0] * m)
            row[cols + r] = 1
        self._pivots = _core.echelonize(rows, cols)
        self._rows = [row[:cols] for row in rows[: len(self._pivots)]]
        self._columns = list(map(list, zip(*rows)))[cols:]
        self._ncols = cols

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def solve(self, b: Sequence[Fraction | int]) -> list[Fraction] | None:
        columns = self._columns
        if len(b) != len(columns):
            raise ValueError("right-hand side length mismatch")
        nonzero = [(j, e) for j, e in enumerate(b) if e]
        den = lcm(*[e.denominator for _, e in nonzero])
        w = [0] * len(columns)
        for j, e in nonzero:
            c = e.numerator * (den // e.denominator)
            w = [wr + c * t for wr, t in zip(w, columns[j])]
        rank = len(self._pivots)
        if any(w[rank:]):
            return None
        n = self._ncols
        rows = [row + [-wr] for row, wr in zip(self._rows, w)]
        v = _back_substitute(rows, self._pivots, n + 1, n)
        scale = v[n] * den
        return [Fraction(e, scale) if e else _ZERO for e in v[:n]]

