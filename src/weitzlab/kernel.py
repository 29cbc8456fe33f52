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

A weight-q block sees each exponent only through min(n_i, q): its
positions are the b with sum(b) = q and b_i <= min(n_i, q), in lex
order, its target block is the same with q - 1, and delta's entries are
the b_i.  block_key(n, q) is therefore an exact key for the integer
matrix, zero exponents dropped as in poly.component_content, and
kernel_blocks eliminates each distinct key once per process.  Its delta
images come from a DeltaImages, which builds the image of a position on
first use, so a block whose key is known builds none.

Above the middle weight (2q > |n|) the key (q, min(n_i, q)) belongs to
one content only.  There a block is read in the divided-power basis
m_a = x^a y^b / (a! b!), b = n - a, where

    delta(m_a) = sum_i (a_i + 1) m_(a + e_i)    (terms with a_i = n_i drop),

so its positions are the a with sum(a) = p = |n| - q and
a_i <= min(n_i, p), in the same component order, and the entry a_i + 1
sits wherever a_i + 1 <= min(n_i, p + 1): x_weight_key(n, q), the
x-weight p and min(n_i, p + 1), fixes the matrix whatever the y-side
caps, and many contents share it.  The divided-power matrix is the
monomial one with row t scaled by a_t! b_t! and column s by
1 / (a_s! b_s!), both positive.  Nonzero column and row scalings keep
which columns depend on the ones before them, hence the rank, the pivot
columns and the order of the echelon nullspace vectors; each vector
changes by the column scaling alone, so mapped back and made primitive
it is exactly the monomial basis's vector.

verify calls kernel_blocks on sorted contents only
(products._content_dimensions), so a cold d=2 |n|<=18 sweep eliminates
111 distinct blocks among the 1,285 of its 100 sorted contents (387 on
block_key alone), and a cold d=4 |n|<=8 sweep 106 among 368 (184).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, prod
from operator import mul

from .linalg import integer_nullspace
from .poly import Polynomial, component_basis, component_strides

__all__ = [
    "position_weights",
    "DeltaImages",
    "integer_delta",
    "delta_matrix",
    "block_key",
    "x_weight_key",
    "kernel_blocks",
    "KernelBasis",
    "kernel_basis",
]


def position_weights(n: tuple[int, ...]) -> list[int]:
    """The y-weight sum(b) of every position of component n, in position order."""
    weights = [0]
    for k in n:
        weights = [w + e for w in weights for e in range(k + 1)]
    return weights


class DeltaImages(dict):
    """The delta image of every position of component n, built on first lookup.

    images[pos] lists (position, coefficient) pairs: b_i at pos - stride_i
    for every i with b_i > 0, where b_i = (pos // stride_i) % (n_i + 1).
    A caller that touches few positions of a large component never builds
    the rest.
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
    images = DeltaImages(d, n)
    size = prod(k + 1 for k in n)
    rows = [[0] * size for _ in range(size)]
    for j in range(size):
        for t, e in images[j]:
            rows[t][j] = e
    return rows


def block_key(n: tuple[int, ...], q: int) -> tuple[int, tuple[int, ...]]:
    """(q, min(c_i, q) for the content c of n): what fixes n's weight-q blocks."""
    return q, tuple([k if k < q else q for k in n if k])


def x_weight_key(n: tuple[int, ...], q: int) -> tuple[str, int, tuple[int, ...]]:
    """("x", p, min(c_i, p + 1)) with p = |n| - q: what fixes the divided-power block.

    The "x" tag keeps it apart from block_key's pairs in one table.
    """
    p = sum(n) - q
    return "x", p, tuple([k if k <= p else p + 1 for k in n if k])


def _block_rows(
    images: DeltaImages,
    source: list[int],
    target: list[int],
    radix: tuple[tuple[int, int], ...] | None = None,
) -> list[list[int]]:
    """delta from the positions source to the positions target, as dense rows.

    An entry is the monomial basis's b_i, or, given the component's radix
    pairs (stride_i, n_i + 1), the divided-power basis's
    a_i + 1 = n_i - b_i + 1.
    """
    tops = None if radix is None else {s: r for s, r in radix if r > 1}
    local = {pos: i for i, pos in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for j, pos in enumerate(source):
        for t, e in images[pos]:
            rows[local[t]][j] = e if tops is None else tops[pos - t] - e
    return rows


def _from_divided(
    vectors: tuple[tuple[int, ...], ...],
    source: list[int],
    radix: tuple[tuple[int, int], ...],
) -> tuple[tuple[int, ...], ...]:
    """Divided-power kernel vectors over source in the monomial basis.

    m_a = x^a y^b / (a! b!) is prod C(n_i, b_i) / prod n_i! times the
    monomial, so each coordinate is scaled by prod C(n_i, b_i) (radix
    pairs (stride_i, n_i + 1) decode b) and the vector made primitive;
    the scale is positive, so the first nonzero entry stays positive.
    """
    if not vectors:
        return vectors
    scale = [prod([comb(r - 1, pos // s % r) for s, r in radix]) for pos in source]
    out = []
    for v in vectors:
        w = list(map(mul, v, scale))
        g = gcd(*w)
        out.append(tuple([e // g for e in w]))
    return tuple(out)


# Checked kernel vectors of every y-weight block eliminated so far, keyed
# on block_key, or on x_weight_key in the divided-power basis; see
# kernel_blocks.
_BLOCK_KERNELS: dict[tuple, tuple[tuple[int, ...], ...]] = {}


def kernel_blocks(
    d: int, n: tuple[int, ...], images: DeltaImages | None = None
) -> list[tuple[int, list[int], tuple[tuple[int, ...], ...]]]:
    """Integer kernel of delta on component n, one bi-weight block at a time.

    Returns (q, positions, vectors) for every y-weight q whose block has
    a nonzero kernel, q ascending.  positions are the block's basis
    positions in component order; vectors is a tuple of integer tuples
    over them, coprime with the first nonzero positive, in nullspace
    order.  Every vector is checked to be a constant.  images is the
    component's DeltaImages when the caller has one.

    A block at or below the middle (2q <= |n|) is eliminated on its
    monomial matrix and stored on block_key(n, q).  A block above it is
    eliminated on its divided-power matrix (see the module docstring),
    stored on x_weight_key(n, q) in divided-power coordinates, and mapped
    back by _from_divided for every component that reads it, which gives
    exactly the monomial vectors.  Upper blocks have no kernel (a
    constant's x-weight is at least its y-weight), but they are
    eliminated all the same: that is part of what the Kostka oracle is
    checked against.  A block's entry is stored only once its monomial
    vectors pass the check; a later block with the same key is not
    eliminated again, and builds no delta image.
    """
    images = DeltaImages(d, n) if images is None else images
    radix = images._radix
    total = sum(n)
    blocks: list[list[int]] = [[] for _ in range(total + 1)]
    for pos, q in enumerate(position_weights(n)):
        blocks[q].append(pos)
    out = []
    for q, source in enumerate(blocks):
        upper = 2 * q > total
        key = x_weight_key(n, q) if upper else block_key(n, q)
        vectors = _BLOCK_KERNELS.get(key)
        if vectors is None:
            target = blocks[q - 1] if q else []
            rows = _block_rows(images, source, target, radix if upper else None)
            vectors = tuple(map(tuple, integer_nullspace(rows, len(source))))
            for v in _from_divided(vectors, source, radix) if upper else vectors:
                if integer_delta(images, dict(zip(source, v))):
                    raise AssertionError("kernel vector failed the constancy check")
            _BLOCK_KERNELS[key] = vectors
        if vectors:
            if upper:
                vectors = _from_divided(vectors, source, radix)
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
