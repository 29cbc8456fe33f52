"""Fraction-free row reduction that touches only the rows a pivot changes.

The one row reducer of the package; weitzlab.linalg calls it for every
rank, nullspace and linear solve.  Rows are dense lists of Python ints
and are modified in place.
"""

from math import gcd


def echelonize(rows, pivot_limit):
    """Reduce to row echelon form; returns the list of pivot columns.

    Pivots are searched only in columns 0..pivot_limit-1 (first nonzero
    row at or below the current one).  A row with a 0 in the pivot
    column is left alone; every other row r_i becomes
    (piv/g)*r_i - (v_i/g)*r_pivot with g = gcd(piv, v_i), divided by the
    gcd of its entries.  Each row is thus a nonzero multiple of the row
    rational elimination gives, so pivots, kernels and solutions are
    those of rational elimination, and the gcd keeps entries small.
    """
    m = len(rows)
    pivots = []
    r = 0
    for c in range(pivot_limit):
        if r == m:
            break
        pr = -1
        for i in range(r, m):
            if rows[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        rr = rows[r]
        piv = rr[c]
        width = len(rr)
        for i in range(pr + 1, m):  # rows r+1..pr are 0 in column c
            ri = rows[i]
            vi = ri[c]
            if vi:
                g = gcd(piv, vi)
                a, b = piv // g, vi // g
                for j in range(c + 1, width):
                    ri[j] = a * ri[j] - b * rr[j]
                ri[c] = 0
                g = gcd(*ri)
                if g > 1:
                    for j in range(c + 1, width):
                        ri[j] //= g
        pivots.append(c)
        r += 1
    return pivots
