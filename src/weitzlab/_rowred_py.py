"""Fraction-free row reduction (Bareiss single-step).

The one row reducer of the package; weitzlab.linalg calls it for every
rank, nullspace and solver build.  Rows are dense lists of Python ints and
are modified in place.
"""


def echelonize(rows, pivot_limit):
    """Reduce to row echelon form; returns the list of pivot columns.

    Pivots are searched only in columns 0..pivot_limit-1 (first nonzero
    row at or below the current one), but eliminations update full rows,
    so callers may carry extra bookkeeping columns on the right.  Every
    remaining row is updated at every step, which is what keeps the
    divisions by the previous pivot exact.
    """
    m = len(rows)
    pivots = []
    prev = 1
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
        for i in range(r + 1, m):
            ri = rows[i]
            vi = ri[c]
            for j in range(c + 1, width):
                ri[j] = (piv * ri[j] - vi * rr[j]) // prev
            ri[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return pivots
