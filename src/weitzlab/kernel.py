"""Exact kernels of delta, one multidegree component at a time.

delta preserves every multidegree component, so its kernel is computed
component by component.  Within a component delta only connects adjacent
bi-weight blocks, (p, q) -> (p + 1, q - 1); the kernel therefore splits as
the direct sum of per-block kernels and each block gives a much smaller
elimination than the whole component.  delta_matrix is the whole
component's matrix as dense integer rows; the test suite eliminates it in
full to cross-check the block route.

Everything here runs on integers indexed by component position (see
poly.component_strides): delta sends x^a y^b to sum_i b_i x^(a+e_i)
y^(b-e_i), which in component order is the entry b_i at position
pos - stride_i.  kernel_basis only turns the integer vectors into
Polynomials at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .linalg import integer_nullspace
from .poly import Polynomial, component_basis, component_strides

__all__ = [
    "delta_table",
    "DeltaImages",
    "integer_delta",
    "delta_matrix",
    "kernel_blocks",
    "KernelBasis",
    "kernel_basis",
]


def delta_table(
    d: int, n: tuple[int, ...]
) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The y-weight and the delta image of every basis monomial, by position.

    images[pos] lists (position, coefficient) pairs: b_i at pos - stride_i
    for every i with b_i > 0.  itertools.product walks the y-exponent
    tuples b in position order, since the last stride is 1.
    """
    strides = component_strides(d, n)
    weights: list[int] = []
    images: list[list[tuple[int, int]]] = []
    for b in product(*(range(k + 1) for k in n)):
        pos = len(weights)
        weights.append(sum(b))
        images.append([(pos - s, e) for s, e in zip(strides, b) if e])
    return weights, images


class DeltaImages(dict):
    """delta_table(d, n)'s images, each built on its first lookup.

    images[pos] decodes b_i = (pos // stride_i) % (n_i + 1) and is the
    same list delta_table gives, so a caller that touches few positions
    of a large component never builds the rest.
    """

    __slots__ = ("_radix",)

    def __init__(self, d: int, n: tuple[int, ...]):
        super().__init__()
        self._radix = tuple(zip(component_strides(d, n), (k + 1 for k in n)))

    def __missing__(self, pos: int) -> list[tuple[int, int]]:
        image = self[pos] = [
            (pos - s, e) for s, r in self._radix if (e := pos // s % r)
        ]
        return image


def integer_delta(
    images: list[list[tuple[int, int]]], vector: dict[int, int]
) -> dict[int, int]:
    """delta of a component vector {position: coefficient}; zeros dropped."""
    out: dict[int, int] = {}
    for pos, c in vector.items():
        for target, e in images[pos]:
            out[target] = out.get(target, 0) + e * c
    return {pos: c for pos, c in out.items() if c}


def delta_matrix(d: int, n: tuple[int, ...]) -> list[list[int]]:
    """Matrix of delta on the multidegree-n component, as dense integer rows.

    Rows and columns are both indexed by component_basis(d, n) in
    canonical order; column j holds the image of the j-th basis monomial.
    """
    _, images = delta_table(d, n)
    rows = [[0] * len(images) for _ in images]
    for j, image in enumerate(images):
        for t, e in image:
            rows[t][j] = e
    return rows


def kernel_blocks(
    d: int, n: tuple[int, ...], table: tuple | None = None
) -> list[tuple[int, list[int], list[list[int]]]]:
    """Integer kernel of delta on component n, one bi-weight block at a time.

    Returns (q, positions, vectors) for every y-weight q whose block has
    a nonzero kernel, q ascending.  positions are the block's basis
    positions in component order; each vector holds coprime integer
    coefficients over them with the first nonzero positive, in
    nullspace order.  Every vector is checked to be a constant.  table
    is delta_table(d, n) when the caller has built it already.
    """
    weights, images = table or delta_table(d, n)
    blocks: dict[int, list[int]] = {}
    local = [0] * len(weights)
    for pos, q in enumerate(weights):
        block = blocks.setdefault(q, [])
        local[pos] = len(block)
        block.append(pos)
    out = []
    for q in sorted(blocks):
        source = blocks[q]
        rows = [[0] * len(source) for _ in blocks.get(q - 1, ())]
        for j, pos in enumerate(source):
            for target, e in images[pos]:
                rows[local[target]][j] = e
        vectors = integer_nullspace(rows, len(source))
        for v in vectors:
            if integer_delta(images, dict(zip(source, v))):
                raise AssertionError("kernel vector failed the constancy check")
        if vectors:
            out.append((q, source, vectors))
    return out


@dataclass(frozen=True)
class KernelBasis:
    """Basis of the constants of one multidegree component.

    vectors are bi-homogeneous polynomials, normalized to coprime integer
    coefficients with positive leading term, listed by increasing y-weight
    and then by nullspace order.  dims_by_biweight records the dimension
    of each nonzero bi-weight block.
    """

    d: int
    n: tuple[int, ...]
    vectors: tuple[Polynomial, ...]
    dims_by_biweight: tuple[tuple[tuple[int, int], int], ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


@lru_cache(maxsize=None)
def kernel_basis(d: int, n: tuple[int, ...]) -> KernelBasis:
    """kernel_blocks, rebuilt as polynomials."""
    basis = component_basis(d, n)
    total = sum(n)
    vectors: list[Polynomial] = []
    dims: list[tuple[tuple[int, int], int]] = []
    for q, source, block in kernel_blocks(d, n):
        dims.append(((total - q, q), len(block)))
        for v in block:
            vectors.append(
                Polynomial(d, {basis[pos]: c for pos, c in zip(source, v) if c})
            )
    return KernelBasis(d, n, tuple(vectors), tuple(dims))
