"""Two-row tableau combinatorics: the oracle side that owns no linear algebra.

Standard tableaux are enumerated exhaustively.  The Kostka numbers of all
two-row shapes are counted at once by a recurrence that places one letter
at a time, in time polynomial in the content, and use no linear algebra
either, which is what an independent oracle needs.  The test suite checks
the recurrence against brute-force enumeration and the sl2 identity, and
the two-row standard tableau count's closed form against the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, prod

__all__ = [
    "two_row_partitions",
    "StandardTableau",
    "standard_tableaux",
    "standard_tableau_count",
    "kostka",
    "kostka_numbers",
    "dimension_identity_check",
]

Partition = tuple[int, int]


def _check_partition(shape) -> Partition:
    if len(shape) != 2:
        raise ValueError("only two-row shapes are supported")
    l1, l2 = shape
    if l1 < l2 or l2 < 0:
        raise ValueError(f"not a partition: {shape}")
    return (l1, l2)


def two_row_partitions(total: int) -> list[Partition]:
    """All (l1, l2) with l1 + l2 = total and l1 >= l2 >= 0, l1 descending."""
    if total < 0:
        raise ValueError("total must be nonnegative")
    return [(total - k, k) for k in range(total // 2 + 1)]


@dataclass(frozen=True)
class StandardTableau:
    """Rows of a standard filling: entries 1..n, rows and columns increasing."""

    shape: Partition
    row1: tuple[int, ...]
    row2: tuple[int, ...]

    def __post_init__(self):
        l1, l2 = _check_partition(self.shape)
        n = l1 + l2
        if len(self.row1) != l1 or len(self.row2) != l2:
            raise ValueError("row lengths do not match the shape")
        if sorted(self.row1 + self.row2) != list(range(1, n + 1)):
            raise ValueError("entries must be exactly 1..n")
        if any(a >= b for a, b in zip(self.row1, self.row1[1:])):
            raise ValueError("first row must increase")
        if any(a >= b for a, b in zip(self.row2, self.row2[1:])):
            raise ValueError("second row must increase")
        if any(self.row1[c] >= self.row2[c] for c in range(l2)):
            raise ValueError("columns must increase")


def standard_tableaux(shape: Partition) -> tuple[StandardTableau, ...]:
    """Exhaustive enumeration, ordered by row-reading word; its caller caches it."""
    l1, l2 = _check_partition(shape)
    n = l1 + l2
    found = []
    for row2 in combinations(range(1, n + 1), l2):
        row1 = tuple(sorted(set(range(1, n + 1)) - set(row2)))
        if all(row1[c] < row2[c] for c in range(l2)):
            found.append(StandardTableau((l1, l2), row1, row2))
    found.sort(key=lambda t: t.row1 + t.row2)
    return tuple(found)


def standard_tableau_count(shape: Partition) -> int:
    """Closed form C(n, l2) * (l1 - l2 + 1) / (l1 + 1) for two-row shapes."""
    l1, l2 = _check_partition(shape)
    return comb(l1 + l2, l2) * (l1 - l2 + 1) // (l1 + 1)


def kostka_numbers(content: tuple[int, ...]) -> tuple[int, ...]:
    """K_{(|n|-b, b), n} for b = 0..|n|//2: every two-row shape of content n.

    Entries come from 1..len(content) with entry i used content[i-1]
    times; rows weakly increase and columns strictly increase.  After
    letters 1..i, ways[b] counts the fillings with b cells in row 2 and
    placed - b in row 1.  Letter i+1 puts t of its k copies in row 2, each
    under a smaller letter, so t <= k and b + t <= placed - b.  The new
    ways[c] sums the old ways[b] over c - k <= b <= min(c, placed - c),
    one prefix-sum difference: O(len(content) * |n|) additions in all.
    Not cached: products._content_dimensions, which calls it, is cached.
    """
    if any(k < 0 for k in content):
        raise ValueError("content entries must be nonnegative")
    ways = [1]
    placed = 0
    for k in content:
        prefix = [0, *accumulate(ways)]
        step = []
        for c in range((placed + k) // 2 + 1):
            lo, hi = max(0, c - k), min(c, placed - c)
            step.append(prefix[hi + 1] - prefix[lo] if lo <= hi else 0)
        ways = step
        placed += k
    return tuple(ways)


@lru_cache(maxsize=None)
def kostka(shape: Partition, content: tuple[int, ...]) -> int:
    """Number of semistandard fillings of shape with the given content.

    A lookup into kostka_numbers(content).
    """
    l1, l2 = _check_partition(shape)
    if l1 + l2 != sum(content):
        raise ValueError("shape size must equal the content total")
    return kostka_numbers(content)[l2]


def dimension_identity_check(content: tuple[int, ...]) -> bool:
    """prod(n_i + 1) == sum over two-row shapes of kostka * (l1 - l2 + 1).

    Both sides count a component dimension through independent routes; a
    mismatch can only mean an implementation bug.
    """
    total = sum(content)
    lhs = prod(k + 1 for k in content)
    rhs = sum(
        kostka(shape, tuple(content)) * (shape[0] - shape[1] + 1)
        for shape in two_row_partitions(total)
    )
    return lhs == rhs
