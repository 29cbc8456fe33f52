"""Exact kernels of delta, one multidegree component at a time.

delta preserves every multidegree component, so its kernel is computed
component by component.  Within a component delta only connects adjacent
bi-weight blocks, (p, q) -> (p + 1, q - 1); the kernel therefore splits as
the direct sum of per-block kernels, each one much smaller than the
whole component.

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
matrix, zero exponents dropped as in poly.component_content, and each
distinct key's kernel is built once per process (_BLOCK_KERNELS).

A block is built by peeling the last index off the content c (the
largest part, on the sorted contents that verify computes).  Write
m = c[-1], c' = c[:-1] and delta' for delta on c'.  A position of c is
p * (m + 1) + j, with p a position of c' and j = b_d, so a vector of
W_q(c) splits into pieces x_j in W_(q-j)(c'), and delta is delta' on
each piece plus the last index's term, which sends piece j to piece
j - 1 times j.  So delta v = 0 says that delta' x_j + (j + 1) x_(j+1) = 0
for each j < m and that delta' x_m = 0: every piece is
x_j = (-1)^j delta'^j x_0 / j!, an integer vector for j <= min(m, q)
(delta'^j / j! has integer entries), and

    ker delta|W_q(c)  =  ker delta'^(m+1): W_q(c') -> W_(q-m-1)(c').

When q <= m the target is empty and every x_0 in W_q(c') gives a kernel
vector; only a block with q > m eliminates, and then the smaller matrix
of delta'^(m+1) on c' (_power_kernel).  This is the Leibniz rule on one
tensor factor: it takes no sl2 theory and no tableau, so the kernel
route stays independent of the Kostka oracle.  The peeled vectors
depend only on the key (the key keeps the order of the parts, and the
peel reads m only through min(m, q)).  Each one is primitive, since its
piece x_0 is, gets its first nonzero entry positive, and is checked
constant on the delta images of c before its block is stored.  The images of c and the state
of c' (its positions and delta images) are built on the first block
whose key is new, and a block whose key is known builds none.

Above the middle weight (2q > |n|) a block is read off its partner
q' = |n| - q + 1 below it.  In the divided-power basis
m_a = x^a y^b / (a! b!), b = n - a, delta has the entries a_i + 1 from
x-weight q' - 1 to q', so the weight-q block's matrix is the transpose,
entry for entry under b -> n - b, of the monomial matrix of block q'.  The
change of basis only scales rows and columns by positive numbers, and
neither that nor transposing changes the rank, so the upper nullity is
|W_q| - rank(q') = |W_q| - |W_q'| + nullity(q'), from
weight_block_sizes.  It is 0 (a constant's x-weight is at least its
y-weight), and such a block is neither built nor stored.  The Kostka
oracle still checks the upper nullities, through the lower ranks.  The
self-transposed middle block of odd |n| (q' = q) is built like a lower
one, and so would be an upper block that derived a nonzero nullity, its
built nullity then compared with the derived one.

verify reads the nullities alone (kernel_dimension, on sorted contents
only, from products._content_dimensions) and builds no position of the
component itself.  A cold d=2 |n|<=18 sweep builds 57 distinct blocks
among the 1,285 of its 100 sorted contents and eliminates none (every
one has q <= m), and a cold d=4 |n|<=8 sweep builds 59 among 368 and
eliminates 16 powers, none wider than 7 columns.  kernel_blocks and
kernel_basis read the same table and turn each entry into
integer_nullspace's basis of the block's kernel (_free_column_basis), so
their output does not depend on how the block was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import sub
from typing import Iterator

from .linalg import integer_nullspace
from .poly import Monomial, Polynomial, component_content, component_strides

__all__ = [
    "positions_by_weight",
    "weight_block_sizes",
    "DeltaImages",
    "LoweringImages",
    "integer_delta",
    "times_u",
    "block_key",
    "block_rows",
    "kernel_dimension",
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


# Checked kernel vectors of every y-weight block built so far, keyed on
# block_key; see _weight_kernels.
_BLOCK_KERNELS: dict[tuple, tuple[tuple[int, ...], ...]] = {}


class _Peel:
    """What building a weight block of content c from c' = c[:-1] reads.

    m is the peeled part c[-1] (0 for the empty content, whose one block
    W_0 = {0} then peels like any block with q <= m); rest_images and
    rest_blocks are the delta images and the positions by weight of c',
    and images the delta images of c, which check the rebuilt vectors.
    """

    __slots__ = ("m", "rest_images", "rest_blocks", "images")

    def __init__(self, c: tuple[int, ...]):
        rest = c[:-1]
        self.m = c[-1] if c else 0
        self.rest_images = DeltaImages(len(rest), rest)
        self.rest_blocks = positions_by_weight(rest)
        self.images = DeltaImages(len(c), c)

    def rest_block(self, w: int) -> list[int]:
        """W_w(c'), empty above |c'|."""
        return self.rest_blocks[w] if w < len(self.rest_blocks) else []


def _power_kernel(peel: _Peel, q: int, power: int) -> list[dict[int, int]]:
    """integer_nullspace of delta'^power from W_q(c') to W_(q - power)(c')."""
    source = peel.rest_block(q)
    local = {pos: i for i, pos in enumerate(peel.rest_block(q - power))}
    rows = [[0] * len(source) for _ in local]
    for k, pos in enumerate(source):
        image = {pos: 1}
        for _ in range(power):
            image = integer_delta(peel.rest_images, image)
        for target, e in image.items():
            rows[local[target]][k] = e
    return [
        {pos: e for pos, e in zip(source, v) if e}
        for v in integer_nullspace(rows, len(source))
    ]


def _peeled_vectors(peel: _Peel, q: int) -> list[dict[int, int]]:
    """A basis of the kernel of delta on W_q(c), rebuilt from W_q(c'); unchecked.

    Each x_0 (every unit vector of W_q(c') when q <= m, else
    _power_kernel's vectors for the power m + 1) gives the vector with
    the pieces x_j = (-1)^j delta'^j x_0 / j!, j = 0..min(m, q), at the
    positions p * (m + 1) + j.  Each division by j is exact, since
    delta'^j / j! sends y^b to sum_k prod_i C(b_i, k_i) x^k y^(b-k) over
    |k| = j.  The vector is primitive, because its piece x_0 is, and its
    sign is set so that its first nonzero entry is positive.
    """
    m = peel.m
    if q <= m:
        starts = [{pos: 1} for pos in peel.rest_block(q)]
    else:
        starts = _power_kernel(peel, q, m + 1)
    vectors = []
    for x in starts:
        v = {pos * (m + 1): e for pos, e in x.items()}
        for j in range(1, min(m, q) + 1):
            x = {pos: -e // j for pos, e in integer_delta(peel.rest_images, x).items()}
            for pos, e in x.items():
                v[pos * (m + 1) + j] = e
        if v[min(v)] < 0:
            v = {pos: -e for pos, e in v.items()}
        vectors.append(v)
    return vectors


def _checked_block(peel: _Peel, q: int) -> tuple[tuple[int, ...], ...]:
    """_peeled_vectors of block q, each checked constant, dense over W_q(c)."""
    vectors = _peeled_vectors(peel, q)
    for v in vectors:
        if integer_delta(peel.images, v):
            raise AssertionError("kernel vector failed the constancy check")
    if not vectors:
        return ()
    m = peel.m
    source = sorted(
        pos * (m + 1) + j for j in range(min(m, q) + 1) for pos in peel.rest_block(q - j)
    )
    return tuple(tuple([v.get(pos, 0) for pos in source]) for v in vectors)


def _weight_kernels(
    c: tuple[int, ...]
) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """(q, table entry) of every y-weight block of content c not derived to be 0.

    A block above the middle whose partner q' = |c| - q + 1 lies below
    it takes its nullity |W_q| - |W_q'| + nullity(q') by transposition
    (see the module docstring), from weight_block_sizes(c); when that is
    0, as it always is, the block is skipped.  Every other block, the
    self-transposed middle one of odd |c| included, is read from
    _BLOCK_KERNELS or built by the peel (_checked_block) and stored on
    block_key(c, q) once its checks pass; an upper block's built nullity
    must equal its derived one.  The state of c' is built on the first
    block whose key is new, so a content whose keys are all known builds
    no position and no delta image.
    """
    sizes = weight_block_sizes(c)
    total = len(sizes) - 1
    nullities: list[int] = []
    peel = None
    for q, size in enumerate(sizes):
        partner = total - q + 1
        derived = None
        if partner < q:
            derived = size - sizes[partner] + nullities[partner]
            if not derived:
                nullities.append(0)
                continue
        key = block_key(c, q)
        vectors = _BLOCK_KERNELS.get(key)
        if vectors is None:
            if peel is None:
                peel = _Peel(c)
            vectors = _checked_block(peel, q)
            if derived is not None and len(vectors) != derived:
                raise AssertionError("upper block nullity disagrees with its transpose")
            _BLOCK_KERNELS[key] = vectors
        nullities.append(len(vectors))
        yield q, vectors


def kernel_dimension(d: int, n: tuple[int, ...]) -> int:
    """dim ker delta on component n: the sum of its block nullities.

    Reads the table entries' sizes only (_weight_kernels), so a block
    whose key is known costs one lookup, and no position of component n
    is ever built.
    """
    return sum(len(vectors) for _, vectors in _weight_kernels(component_content(d, n)))


def _free_column_basis(
    vectors: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """integer_nullspace's basis of the span of vectors.

    That basis has one vector per free column: its last nonzero entry
    sits there, it is 0 at the other free columns, and it is primitive
    with its first nonzero entry positive, which fixes it given the
    span.  The vectors are reduced from the last position backwards,
    each pivot cleared from every other vector, and listed by pivot.
    """
    rows = [list(v) for v in vectors]
    r = 0
    for col in range(len(rows[0]) - 1, -1, -1):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                g = gcd(pivot[col], row[col])
                a, b = pivot[col] // g, row[col] // g
                reduced = [a * x - b * y for x, y in zip(row, pivot)]
                g = gcd(*reduced)
                rows[i] = [x // g for x in reduced] if g > 1 else reduced
        r += 1
    basis = []
    for row in reversed(rows):
        g = gcd(*row)
        if next(e for e in row if e) < 0:
            g = -g
        basis.append(tuple(e // g for e in row))
    return tuple(basis)


def kernel_blocks(
    d: int, n: tuple[int, ...]
) -> list[tuple[int, list[int], tuple[tuple[int, ...], ...]]]:
    """Integer kernel of delta on component n, one bi-weight block at a time.

    Returns (q, positions, vectors) for every y-weight q whose block has
    a nonzero kernel, q ascending.  positions are the block's basis
    positions in component order; vectors is a tuple of integer tuples
    over them, integer_nullspace's basis of the block's kernel (coprime
    with the first nonzero positive, in free-column order), reduced here
    from the table entries (_free_column_basis).  The blocks are those of
    n's content, peeled at its last index; the table and its checks are
    kernel_dimension's.
    """
    kernels = [(q, v) for q, v in _weight_kernels(component_content(d, n)) if v]
    blocks = positions_by_weight(n)
    return [(q, blocks[q], _free_column_basis(v)) for q, v in kernels]


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
