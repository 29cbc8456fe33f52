"""Exact linear algebra over the rationals.

ExactMatrix is a sparse map (row, col) -> Fraction.  Rank, nullspace, and
repeated linear solves all reduce to one fraction-free integer row
reduction (rows are scaled to integers first; scaling an equation changes
nothing).  Pivoting always takes the first nonzero row in canonical column
order, so results are bit-for-bit deterministic.

The row reduction itself is weitzlab._rowred_py.echelonize, always called
through the module attribute _core so that a profiler can rebind it.
BACKEND names the reducer and goes with every benchmark result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from . import _rowred_py as _core

BACKEND = "python"

__all__ = ["BACKEND", "ExactMatrix", "LinearSolver", "primitive_integer_vector"]


class ExactMatrix:
    """Sparse rational matrix with immutable-by-convention entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r}, {c}) out of range")
                v = Fraction(v)
                if v != 0:
                    clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence]) -> "ExactMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {}
        for r, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                if v != 0:
                    entries[(r, c)] = Fraction(v)
        return cls(rows, cols, entries)

    def get(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), Fraction(0))

    def to_int_rows(self) -> list[list[int]]:
        """Dense integer rows; each row scaled by the lcm of its denominators."""
        dense = [[0] * self.cols for _ in range(self.rows)]
        scale = [1] * self.rows
        for (r, _c), v in self.entries.items():
            scale[r] = lcm(scale[r], v.denominator)
        for (r, c), v in self.entries.items():
            dense[r][c] = int(v * scale[r])
        return dense

    def rank(self) -> int:
        rows = self.to_int_rows()
        return len(_core.echelonize(rows, self.cols))

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the right kernel, one vector per free column.

        Vector k has 1 at its free column and 0 at every other free
        column; pivot coordinates come from back substitution.  The basis
        is the reduced echelon parametrization of the solution set and is
        deterministic given the column order.
        """
        rows = self.to_int_rows()
        pivots = _core.echelonize(rows, self.cols)
        pivot_set = set(pivots)
        free_cols = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free_cols:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r in range(len(pivots) - 1, -1, -1):
                pc = pivots[r]
                row = rows[r]
                s = Fraction(0)
                for j in range(pc + 1, self.cols):
                    if v[j]:
                        s += row[j] * v[j]
                if s:
                    v[pc] = -s / row[pc]
            basis.append(v)
        return basis

    def mul_vector(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = [Fraction(0)] * self.rows
        for (r, c), a in self.entries.items():
            if v[c]:
                out[r] += a * v[c]
        return out

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


class LinearSolver:
    """Reusable exact solver for A x = b with a fixed A and many b.

    One fraction-free reduction of [A | I] is done up front; each solve is
    a transform-and-back-substitute.  Among all solutions the returned one
    sets every free variable to zero, so its support sits on the earliest
    independent columns of A (echelon pivot preference).  solve() returns
    None when the system is inconsistent.
    """

    __slots__ = ("matrix", "_rows", "_pivots", "_ncols", "_nrows")

    def __init__(self, matrix: ExactMatrix):
        self.matrix = matrix
        self._ncols = matrix.cols
        self._nrows = matrix.rows
        aug = matrix.to_int_rows()
        for r, row in enumerate(aug):
            row.extend(1 if i == r else 0 for i in range(matrix.rows))
        self._pivots = _core.echelonize(aug, matrix.cols)
        self._rows = aug

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_columns(self) -> list[int]:
        return list(self._pivots)

    def solve(self, b: Sequence[Fraction]) -> list[Fraction] | None:
        if len(b) != self._nrows:
            raise ValueError("right-hand side length mismatch")
        n, m = self._ncols, self._nrows
        w = []
        for row in self._rows:
            acc = Fraction(0)
            for j in range(m):
                t = row[n + j]
                if t and b[j]:
                    acc += t * b[j]
            w.append(acc)
        for r in range(len(self._pivots), m):
            if w[r]:
                return None
        x = [Fraction(0)] * n
        for r in range(len(self._pivots) - 1, -1, -1):
            pc = self._pivots[r]
            row = self._rows[r]
            s = w[r]
            for j in range(pc + 1, n):
                if x[j]:
                    s -= row[j] * x[j]
            x[pc] = s / row[pc]
        return x


def primitive_integer_vector(v: Iterable[Fraction]) -> list[int]:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    v = list(v)
    den = 1
    for e in v:
        den = lcm(den, Fraction(e).denominator)
    ints = [int(e * den) for e in v]
    g = 0
    for e in ints:
        g = gcd(g, abs(e))
    if g > 1:
        ints = [e // g for e in ints]
    for e in ints:
        if e != 0:
            if e < 0:
                ints = [-x for x in ints]
            break
    return ints
