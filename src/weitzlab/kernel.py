"""Exact kernels of delta, one multidegree component at a time.

delta preserves every multidegree component, so its kernel is computed
component by component.  Within a component delta only connects adjacent
bi-weight blocks, (p, q) -> (p + 1, q - 1); the kernel therefore splits as
the direct sum of per-block kernels and each block gives a much smaller
elimination than the whole component.

Everything here runs on integers indexed by component position (see
poly.component_strides): delta sends x^a y^b to sum_i b_i x^(a+e_i)
y^(b-e_i), which in component order is the entry b_i at position
pos - stride_i.  The lowering map x_i -> y_i, which crosscheck's ladder
check applies (LoweringImages), has the entry a_i = n_i - b_i at
pos + stride_i.  times_u multiplies a vector by u_ij, for the span route
(products) and crosscheck (tensor), and block_rows gives crosscheck the
block matrices.  kernel_basis only turns the integer vectors into
Polynomials at the end.

A weight-q block sees each exponent only through min(n_i, q): its
positions are the b with sum(b) = q and b_i <= min(n_i, q), in lex
order, its target block is the same with q - 1, and delta's entries are
the b_i.  block_key(n, q) is therefore an exact key for the integer
matrix, zero exponents dropped as in poly.component_content, and
kernel_blocks eliminates each distinct key once per process.  Its delta
images come from a DeltaImages, which builds the image of a position on
first use, so a block whose key is known builds none.

Above the middle weight (2q > |n|) a block is read off its partner
q' = |n| - q + 1 below it.  In the divided-power basis
m_a = x^a y^b / (a! b!), b = n - a, delta has the entries a_i + 1 from
x-weight q' - 1 to q', so the weight-q block's matrix is the transpose,
entry for entry under b -> n - b, of the monomial matrix of block q'.  The
change of basis only scales rows and columns by positive numbers, and
neither that nor transposing changes the rank, so the upper nullity is
|W_q| - rank(q') = |W_q| - |W_q'| + nullity(q').  It is 0 (a constant's
x-weight is at least its y-weight), and such a block is neither
eliminated nor stored.  The Kostka oracle still checks the upper
nullities, through the lower ranks.  The self-transposed middle block
of odd |n| (q' = q) is eliminated like a lower one.

verify calls kernel_blocks on sorted contents only
(products._content_dimensions), so a cold d=2 |n|<=18 sweep eliminates
57 distinct blocks among the 1,285 of its 100 sorted contents, and a
cold d=4 |n|<=8 sweep 59 among 368.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import sub

from .linalg import integer_nullspace
from .poly import Monomial, Polynomial, component_strides

__all__ = [
    "positions_by_weight",
    "weight_block_sizes",
    "DeltaImages",
    "LoweringImages",
    "integer_delta",
    "times_u",
    "block_key",
    "block_rows",
    "kernel_blocks",
    "KernelBasis",
    "kernel_basis",
]


def positions_by_weight(n: tuple[int, ...]) -> list[list[int]]:
    """The positions of component n grouped by y-weight: entry q lists W_q ascending."""
    weights = [0]
    for k in n:  # the y-weight sum(b) of every position, in position order
        weights = [w + e for w in weights for e in range(k + 1)]
    blocks: list[list[int]] = [[] for _ in range(sum(n) + 1)]
    for pos, q in enumerate(weights):
        blocks[q].append(pos)
    return blocks


def weight_block_sizes(n: tuple[int, ...]) -> list[int]:
    """len(positions_by_weight(n)[q]) for every q: prod_i (1 + t + ... + t^n_i)."""
    sizes = [1]
    for k in n:  # times (1 - t^(k+1)) / (1 - t): a running sum minus its shift
        running = list(accumulate(sizes + [0] * k))
        sizes = [a - b for a, b in zip(running, [0] * (k + 1) + running)]
    return sizes


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


class LoweringImages(DeltaImages):
    """The image of every position under x_i -> y_i, y_i -> 0, built on first lookup.

    images[pos] lists a_i at pos + stride_i for every i with a_i > 0,
    where a_i = n_i - b_i; integer_delta applies it like delta.
    """

    __slots__ = ()

    def __missing__(self, pos: int) -> list[tuple[int, int]]:
        image = self[pos] = [
            (pos + s, a) for s, r in self._radix if (a := r - 1 - pos // s % r)
        ]
        return image


def integer_delta(
    images: list[list[tuple[int, int]]], vector: dict[int, int]
) -> dict[int, int]:
    """The images' map on a component vector {position: coefficient}; zeros dropped."""
    out: dict[int, int] = {}
    for pos, c in vector.items():
        for target, e in images[pos]:
            out[target] = out.get(target, 0) + e * c
    return {pos: c for pos, c in out.items() if c}


def times_u(column: dict[int, int], si: int, sj: int) -> dict[int, int]:
    """column * u_ij in component coordinates, zeros dropped.

    Positions count y-exponents only, so u_ij = x_i y_j - x_j y_i adds
    stride_j with sign + and stride_i with sign -.
    """
    out: dict[int, int] = {}
    for pos, c in column.items():
        out[pos + sj] = out.get(pos + sj, 0) + c
        out[pos + si] = out.get(pos + si, 0) - c
    return {pos: c for pos, c in out.items() if c}


def block_key(n: tuple[int, ...], q: int) -> tuple[int, tuple[int, ...]]:
    """(q, min(c_i, q) for the content c of n): what fixes n's weight-q blocks."""
    return q, tuple([k if k < q else q for k in n if k])


def block_rows(
    images: DeltaImages, source: list[int], target: list[int]
) -> list[list[int]]:
    """delta from the positions source to the positions target, as dense rows."""
    local = {pos: i for i, pos in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for j, pos in enumerate(source):
        for t, e in images[pos]:
            rows[local[t]][j] = e
    return rows


# Checked kernel vectors of every y-weight block eliminated so far, keyed
# on block_key; see kernel_blocks.
_BLOCK_KERNELS: dict[tuple, tuple[tuple[int, ...], ...]] = {}


def kernel_blocks(
    d: int, n: tuple[int, ...]
) -> list[tuple[int, list[int], tuple[tuple[int, ...], ...]]]:
    """Integer kernel of delta on component n, one bi-weight block at a time.

    Returns (q, positions, vectors) for every y-weight q whose block has
    a nonzero kernel, q ascending.  positions are the block's basis
    positions in component order; vectors is a tuple of integer tuples
    over them, coprime with the first nonzero positive, in nullspace
    order.  Every vector is checked to be a constant, on a DeltaImages
    of n built here, which holds images only for the blocks eliminated.

    A block above the middle whose partner q' = |n| - q + 1 lies below
    it takes its nullity |W_q| - |W_q'| + nullity(q') by transposition
    (see the module docstring); when that is 0, as it always is, the
    block is skipped.  Every other block, the self-transposed middle one
    of odd |n| included, is eliminated on its monomial matrix and stored
    on block_key(n, q), and an upper block's eliminated nullity must
    equal its derived one.  A block's entry is stored only once its
    checks pass; a later block with the same key is not eliminated
    again, and builds no delta image.
    """
    images = DeltaImages(d, n)
    total = sum(n)
    blocks = positions_by_weight(n)
    nullities: list[int] = []
    out = []
    for q, source in enumerate(blocks):
        partner = total - q + 1
        derived = None
        if partner < q:
            derived = len(source) - len(blocks[partner]) + nullities[partner]
            if not derived:
                nullities.append(0)
                continue
        key = block_key(n, q)
        vectors = _BLOCK_KERNELS.get(key)
        if vectors is None:
            target = blocks[q - 1] if q else []
            rows = block_rows(images, source, target)
            vectors = tuple(map(tuple, integer_nullspace(rows, len(source))))
            for v in vectors:
                if integer_delta(images, dict(zip(source, v))):
                    raise AssertionError("kernel vector failed the constancy check")
            if derived is not None and len(vectors) != derived:
                raise AssertionError("upper block nullity disagrees with its transpose")
            _BLOCK_KERNELS[key] = vectors
        nullities.append(len(vectors))
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
    """kernel_blocks, rebuilt as polynomials.

    Only the monomials at the vectors' nonzero positions are built: a
    position's b_i is read from the radix, as DeltaImages reads it, and
    its a_i is n_i - b_i.
    """
    blocks = kernel_blocks(d, n)  # checks (d, n)
    radix = tuple(zip(component_strides(d, n), (k + 1 for k in n)))
    total = sum(n)
    vectors: list[Polynomial] = []
    dims: list[tuple[tuple[int, int], int]] = []
    for q, source, block in blocks:
        dims.append(((total - q, q), len(block)))
        for v in block:
            terms = {}
            for pos, c in zip(source, v):
                if c:
                    b = [pos // s % r for s, r in radix]
                    terms[Monomial(map(sub, n, b), b)] = c
            vectors.append(Polynomial(d, terms))
    return KernelBasis(d, n, tuple(vectors), tuple(dims))
