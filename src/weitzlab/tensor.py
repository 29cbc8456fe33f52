"""Crosscheck: V^(x)N's highest weight vectors as integer columns, and ladders.

V = K x (+) K y is the GL_2 module spanned by one x and one y letter, and a
word of V^(x)N is fixed by the set of its y positions.  Indexing the
letters of a content n in its sorted layout (all 1s, then all 2s, ...)
makes V^(x)N the multilinear component (1, ..., 1) of K[X_N, Y_N]: the
word with y positions S sits at position sum(2^(N-1-p) for p in S) of
component_strides(N, (1,) * N), its mask.  A tensor element is an integer
column {mask: coefficient}, and the raising derivation Delta (y -> x at
one position) is that component's delta: kernel.integer_delta on
DeltaImages(N, (1,) * N), which clears one set bit of a mask.

For a standard two-row tableau T the product of skew pairs
x (x) y - y (x) x on the position pairs (row1[c], row2[c]) of its
columns, with x letters on the leftover first-row cells, is the
place-permuted version of the special highest weight vector: it is
prod_c u_(row1[c], row2[c]) in the multilinear component, built by
kernel.times_u.  standard_hwv_columns builds one column per standard
tableau of a shape, checks it against Delta and for independence (by
distinct smallest masks, with no elimination), and measures the Delta
kernel of the shape's weight block, once per (N, shape), since none of
that looks at the indices.  The weight-l2 block's positions are the
masks with l2 bits set (kernel.positions_by_weight), and Delta from
them to the block below is kernel's weight-l2 block matrix
(kernel.block_rows), ranked with linalg.integer_rank.

project multiplies the letters out into the component of n: bit p goes
to the stride of the index at position p of the sorted layout, so
projection is linear on positions and crosscheck compares it with the
component's own delta (kernel.integer_delta).

report.run_crosscheck sweeps crosscheck_component: one row per multidegree,
read from the audit of its sorted nonzero content (_content_audit), the
tensor checks of every two-row shape and the sl2 ladder check (_chains_ok).
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import NamedTuple

from .kernel import (
    DeltaImages,
    LoweringImages,
    block_rows,
    integer_delta,
    kernel_blocks,
    positions_by_weight,
    times_u,
)
from .linalg import integer_rank
from .poly import component_content, component_strides
from .tableaux import standard_tableau_count, standard_tableaux, two_row_partitions

__all__ = [
    "HwvColumns",
    "standard_hwv_columns",
    "position_strides",
    "project",
    "crosscheck_component",
]


class HwvColumns(NamedTuple):
    """The standard highest weight vectors of one shape, and their checks."""

    columns: tuple[dict[int, int], ...]  # one per standard tableau, in its order
    deltas: tuple[dict[int, int], ...]  # Delta of each column
    independent: bool  # smallest masks pairwise distinct, so full rank on W_l2
    hwv_rank: int  # dimension of the Delta kernel on the shape's weight block


@lru_cache(maxsize=None)
def standard_hwv_columns(total: int, shape: tuple[int, int]) -> HwvColumns:
    """One skew-pair column per standard tableau of shape, in V^(x)total.

    The pair on the column (r1, r2) of the tableau is x at r1 and y at r2
    with sign +, y at r1 and x at r2 with sign -.  deltas holds each
    column's Delta, which must be zero, and hwv_rank is |W_l2| less the
    rank of Delta from W_l2 to W_(l2 - 1).  independent says the columns'
    smallest masks are pairwise distinct: a column's is its tableau's
    row-2 set, coefficient +1, since a y at r1 < r2 is a larger bit.  The
    cached columns are shared by every caller, who must not change them.
    """
    if sum(shape) != total:
        raise ValueError("shape size must equal the word length")
    columns = []
    for tableau in standard_tableaux(shape):  # refuses all but two-row partitions
        column = {0: 1}
        for r1, r2 in zip(tableau.row1, tableau.row2):
            column = times_u(column, 1 << (total - r1), 1 << (total - r2))
        columns.append(column)
    ones = (1,) * total
    images = DeltaImages(total, ones)
    blocks = positions_by_weight(ones)
    l2 = shape[1]
    source = blocks[l2]
    below = block_rows(images, source, blocks[l2 - 1] if l2 else [])
    return HwvColumns(
        tuple(columns),
        tuple(integer_delta(images, column) for column in columns),
        all(columns) and len({min(column) for column in columns}) == len(columns),
        len(source) - integer_rank(below, len(source)),
    )


def position_strides(d: int, n: tuple[int, ...]) -> tuple[int, ...]:
    """The component stride of each letter of the sorted layout of n, in position order."""
    return tuple(
        stride for stride, k in zip(component_strides(d, n), n) for _ in range(k)
    )


def project(column: dict[int, int], strides: tuple[int, ...]) -> dict[int, int]:
    """Multiply the letters out: a mask goes to the sum of its y positions' strides.

    strides is position_strides(d, n); the result is a column of the
    component of n, zeros dropped.  Skew pairs with equal indices
    collapse to zero.
    """
    top = len(strides) - 1
    out: dict[int, int] = {}
    for mask, c in column.items():
        pos = sum([s for p, s in enumerate(strides) if mask >> (top - p) & 1])
        out[pos] = out.get(pos, 0) + c
    return {pos: c for pos, c in out.items() if c}


def _chains_ok(c: tuple[int, ...]) -> bool:
    """Whether every kernel vector of content c heads its sl2 string, d = len(c).

    A constant w of y-weight q, with h = |c| - 2q, has the rungs w_0 = w
    and w_k, the lowering (x_i -> y_i) of w_k-1.  delta must step rung k
    back onto exactly k * (h - k + 1) * rung k-1 for k = 1..h, which
    makes those rungs nonzero; h must be at least 0 and the lowering of
    rung h zero.  All on integer vectors, with raising and lowering
    images built here.
    """
    d, total = len(c), sum(c)
    raising, lowering = DeltaImages(d, c), LoweringImages(d, c)
    for q, source, vectors in kernel_blocks(d, c):
        h = total - 2 * q
        for v in vectors:
            rung = {pos: x for pos, x in zip(source, v) if x}
            for k in range(1, h + 1):
                below, rung = rung, integer_delta(lowering, rung)
                scaled = {pos: k * (h - k + 1) * x for pos, x in below.items()}
                if integer_delta(raising, rung) != scaled:
                    return False
            if h < 0 or integer_delta(lowering, rung):
                return False
    return True


@lru_cache(maxsize=None)
def _content_audit(c: tuple[int, ...]) -> tuple[tuple[dict, ...], bool]:
    """(checks, chains_ok) of the sorted nonzero content c, d = len(c).

    One check per two-row shape of |c|: the Delta kernel rank of its
    weight block and its standard columns (standard_hwv_columns)
    against the tableau count, and the columns' projection onto the
    component c against its delta, on a DeltaImages of c that serves
    only this check; the ladder check (_chains_ok) builds its own.  A
    check's shape is a tuple, so that the cached entry holds nothing a
    row can change.
    """
    d, total = len(c), sum(c)
    raising = DeltaImages(d, c)
    strides = position_strides(d, c)
    checks = []
    for shape in two_row_partitions(total):
        expected = standard_tableau_count(shape)
        basis = standard_hwv_columns(total, shape)
        constants = not any(basis.deltas)
        equivariant = all(
            project(image, strides) == integer_delta(raising, project(column, strides))
            for column, image in zip(basis.columns, basis.deltas)
        )
        agree = basis.hwv_rank == expected and len(basis.columns) == expected
        checks.append(
            {
                "shape": shape,
                "hwv_rank": basis.hwv_rank,
                "tableau_count": expected,
                "basis_size": len(basis.columns),
                "independent": basis.independent,
                "delta_constant": constants,
                "projection_equivariant": equivariant,
                "ok": agree and constants and basis.independent and equivariant,
            }
        )
    return tuple(checks), _chains_ok(c)


def crosscheck_component(d: int, n: tuple[int, ...]) -> dict:
    """Audit one component: tableau counts vs ranks, equivariance, ladders.

    Relabelling the indices commutes with delta, with the lowering map
    and with the projection of the tensor columns, and zero exponents
    add no letter, so every check is a property of the sorted nonzero
    content, as the kernel numbers are (products._content_dimensions).
    _content_audit is computed once per sorted content; the row stays
    per multidegree, with fresh check dicts.
    """
    start = time.perf_counter()
    checks, chains_ok = _content_audit(tuple(sorted(component_content(d, n))))
    checks = [{**check, "shape": list(check["shape"])} for check in checks]
    return {
        "n": list(n),
        "checks": checks,
        "chains_ok": chains_ok,
        "ok": chains_ok and all(check["ok"] for check in checks),
        "seconds": time.perf_counter() - start,
    }
