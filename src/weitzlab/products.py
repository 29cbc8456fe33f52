"""The conjectured generators and the per-component verification engine.

The candidate generating set is X_d = {x_1..x_d} together with the 2x2
determinants u_ij = x_i*y_j - x_j*y_i (i < j).  A ProductTerm names one
monomial x^p * prod u_ij^q_ij in those generators; enumerate_products
lists every ProductTerm of a given multidegree.  The products span each
component's kernel but are not independent: the Plucker identity
u_ij*u_kl - u_ik*u_jl + u_il*u_jk = 0 (and its x-degree shadows) makes
the span collapse, which is why ranks are measured by elimination rather
than by counting.

verify_component is the whole point: for one multidegree it computes the
kernel dimension, the product-span dimension, and the independent tableau
count, and reports whether all three agree.  It runs on integers indexed
by component position (poly.component_strides): one iterative walk over
the u exponents expands every product into an integer column, sharing
the expansion of common prefixes, and only _product_blocks assembles the
columns into matrices; no ProductTerm is built on that path.

decompose needs no matrix.  The standard products, one per two-row
semistandard tableau (_standard_columns), are a basis of each component
and each has its own leading position with coefficient +-1 (standard
monomial theory), so a constant is straightened into them from its
largest position down.

Both verify_component and decompose key this engine on the component's
content (poly.component_content): components that differ only by zero
exponents are the same integers, so each distinct content is computed
once per process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterator

from .derivation import delta
from .derivation import is_constant  # noqa: F401  (perfbench/tracer.py rebinds it here)
from .kernel import DeltaImages, delta_table, integer_delta, kernel_blocks
from .linalg import integer_rank
from .poly import (
    Polynomial,
    component_basis,
    component_content,
    component_strides,
    format_poly,
)
from .tableaux import kostka_numbers

__all__ = [
    "make_u",
    "pair_order",
    "ProductTerm",
    "enumerate_products",
    "expand",
    "span_dimension",
    "pluecker",
    "decompose",
    "NotInKernel",
    "NotHomogeneous",
    "ConjectureViolation",
    "ComponentReport",
    "verify_component",
]


def make_u(d: int, i: int, j: int) -> Polynomial:
    """The determinant x_i*y_j - x_j*y_i; antisymmetric in (i, j)."""
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"indices must lie in 1..{d}")
    if i == j:
        raise ValueError("u_ii is identically zero and rejected")
    if i > j:
        return -make_u(d, j, i)
    x_i, y_i = Polynomial.x(i, d), Polynomial.y(i, d)
    x_j, y_j = Polynomial.x(j, d), Polynomial.y(j, d)
    return x_i * y_j - x_j * y_i


def pair_order(d: int) -> tuple[tuple[int, int], ...]:
    """All index pairs (i, j) with i < j, lexicographically."""
    return tuple(combinations(range(1, d + 1), 2))


@dataclass(frozen=True)
class ProductTerm:
    """Exponent data for one product x^p * prod u_ij^q_ij.

    q is stored flat over pair_order(d).  x_i^p_i contributes p_i to
    component i of the multidegree; u_ij^q contributes q to components i
    and j.
    """

    p: tuple[int, ...]
    q: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.p)

    def multidegree(self) -> tuple[int, ...]:
        n = list(self.p)
        for (i, j), e in zip(pair_order(self.d), self.q):
            n[i - 1] += e
            n[j - 1] += e
        return tuple(n)

    def label(self) -> str:
        parts = []
        for i, e in enumerate(self.p, start=1):
            if e == 1:
                parts.append(f"x{i}")
            elif e >= 2:
                parts.append(f"x{i}^{e}")
        for (i, j), e in zip(pair_order(self.d), self.q):
            if e == 0:
                continue
            name = f"u{i}{j}" if j <= 9 else f"u{i}_{j}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def _exponent_walk(d: int, n: tuple[int, ...]) -> Iterator[tuple]:
    """Every product of multidegree n as (level, q, p), p forced by q.

    An iterative odometer over pair_order(d), exponents ascending, the
    last pair turning fastest, so the all-x product comes first.  level is
    the pair whose exponent just rose by one, all later ones back at 0
    (len(q) for the first product); q and p are updated in place.
    """
    if len(n) != d or any(k < 0 for k in n):
        raise ValueError("invalid multidegree")
    pairs = [(i - 1, j - 1) for i, j in pair_order(d)]
    p = list(n)
    q = [0] * len(pairs)
    yield len(q), q, p
    k = len(q) - 1
    while k >= 0:
        i, j = pairs[k]
        if p[i] and p[j]:
            p[i] -= 1
            p[j] -= 1
            q[k] += 1
            yield k, q, p
            k = len(q) - 1
        else:
            p[i] += q[k]
            p[j] += q[k]
            q[k] = 0
            k -= 1


@lru_cache(maxsize=None)
def enumerate_products(d: int, n: tuple[int, ...]) -> tuple[ProductTerm, ...]:
    """Every ProductTerm of multidegree n, exactly once, in _exponent_walk order."""
    return tuple(ProductTerm(tuple(p), tuple(q)) for _, q, p in _exponent_walk(d, n))


def _times_u(column: dict[int, int], si: int, sj: int) -> dict[int, int]:
    """column * u_ij in component coordinates, zeros dropped.

    Positions count y-exponents only, so u_ij = x_i y_j - x_j y_i adds
    stride_j with sign + and stride_i with sign -.
    """
    out: dict[int, int] = {}
    for pos, c in column.items():
        out[pos + sj] = out.get(pos + sj, 0) + c
        out[pos + si] = out.get(pos + si, 0) - c
    return {pos: c for pos, c in out.items() if c}


def _product_columns(
    d: int, n: tuple[int, ...], table: tuple | None = None
) -> list[tuple[int, dict[int, int]]]:
    """(y-weight, column) of every product of multidegree n, each checked constant.

    In enumerate_products order.  partial[k + 1] is the product of the u
    factors of pairs 0..k, shared by every product with those exponents:
    when pair k's exponent rises it gains one u_ij factor, and the later
    levels, back at 0, share it.  table is delta_table(d, n) when the
    caller has built it already.
    """
    strides = component_strides(d, n)
    _, images = table or delta_table(d, n)
    pairs = pair_order(d)
    partial = [{0: 1}] * (len(pairs) + 1)
    out = []
    for k, q, p in _exponent_walk(d, n):
        if k < len(pairs):
            i, j = pairs[k]
            column = _times_u(partial[k + 1], strides[i - 1], strides[j - 1])
            partial[k + 1 :] = [column] * (len(pairs) - k)
        column = partial[-1]
        if integer_delta(images, column):
            label = ProductTerm(tuple(p), tuple(q)).label()
            raise AssertionError(f"product {label} is not a constant")
        out.append((sum(q), column))
    return out


@lru_cache(maxsize=None)
def expand(t: ProductTerm) -> Polynomial:
    """Multiply the product out; the result is always a constant of delta."""
    n = t.multidegree()
    basis = component_basis(t.d, n)
    strides = component_strides(t.d, n)
    column = {0: 1}
    for (i, j), e in zip(pair_order(t.d), t.q):
        for _ in range(e):
            column = _times_u(column, strides[i - 1], strides[j - 1])
    return Polynomial(t.d, {basis[pos]: c for pos, c in column.items()})


class NotInKernel(ValueError):
    """Raised for inputs with a nonzero delta image; carries that image."""

    def __init__(self, image: Polynomial):
        super().__init__(f"not in the kernel: delta(f) = {format_poly(image)}")
        self.image = image


class NotHomogeneous(ValueError):
    pass


class ConjectureViolation(Exception):
    """A kernel element outside the product span; must never be swallowed."""


def _product_blocks(
    d: int, n: tuple[int, ...], table: tuple | None = None
) -> Iterator[tuple]:
    """The expansion matrix of all products of a component, split by y-weight.

    x^p * prod u_ij^q_ij has y-weight sum(q) in every term, so the matrix
    is block diagonal.  A block is (indices, positions, rows): its products
    in enumeration order, the positions they touch (ascending) and one
    fresh dense integer row per position.  Only the span rank reads it;
    decompose straightens over the standard products instead.
    """
    columns = _product_columns(d, n, table)
    grouped: dict[int, list[int]] = {}
    for k, (weight, _) in enumerate(columns):
        grouped.setdefault(weight, []).append(k)
    for indices in grouped.values():
        block = [columns[k][1] for k in indices]
        positions = sorted({pos for column in block for pos in column})
        rows = [[column.get(pos, 0) for column in block] for pos in positions]
        yield indices, positions, rows


def span_dimension(d: int, n: tuple[int, ...], table: tuple | None = None) -> int:
    """Exact rank of the products of multidegree n inside their component.

    table is delta_table(d, n) when the caller has built it already.
    """
    blocks = _product_blocks(d, n, table)
    return sum(integer_rank(rows, len(ks)) for ks, _, rows in blocks)


def pluecker(d: int, i: int, j: int, k: int, l: int) -> Polynomial:
    """Expand u_ij*u_kl - u_ik*u_jl + u_il*u_jk; identically zero."""
    if not i < j < k < l:
        raise ValueError("indices must be strictly increasing")
    if l > d:
        raise ValueError(f"index {l} out of range 1..{d}")
    return (
        make_u(d, i, j) * make_u(d, k, l)
        - make_u(d, i, k) * make_u(d, j, l)
        + make_u(d, i, l) * make_u(d, j, k)
    )


def _standard_columns(d: int, c: tuple[int, ...]) -> list[tuple]:
    """(q, p, column) of every standard product of content c, each checked constant.

    The standard products are indexed by the two-row semistandard
    tableaux of content c on the reversed alphabet d > d-1 > ... > 1: a
    height-2 column with top b over bottom a (a < b) is u_ab, a row-1
    cell l left over at the right end is x_l.  So the pairs (a, b) form a
    chain (no a < a' with b > b'), and x_l appears only for l at most the
    smallest b used.  The walk places the letters d, d-1, ..., 1 in turn:
    k copies of l go into row 2, under the first row-1 cells not yet
    covered (one u factor each), and the rest of the copies extend row 1.
    Products with the same choices so far share that part of the column,
    and the constancy check builds the delta image of a position only
    when a column first touches it (kernel.DeltaImages).
    """
    strides = component_strides(d, c)
    images = DeltaImages(d, c)
    slot = {pair: k for k, pair in enumerate(pair_order(d))}
    q = [0] * len(slot)
    out = []

    def place(l: int, top: list[int], covered: int, column: dict[int, int]) -> None:
        if l == 0:
            p = [0] * d
            for b in top[covered:]:
                p[b - 1] += 1
            if integer_delta(images, column):
                label = ProductTerm(tuple(p), tuple(q)).label()
                raise AssertionError(f"product {label} is not a constant")
            out.append((tuple(q), tuple(p), column))
            return
        count = c[l - 1]
        for k in range(min(count, len(top) - covered) + 1):
            if k:
                b = top[covered + k - 1]
                column = _times_u(column, strides[l - 1], strides[b - 1])
                q[slot[l, b]] += 1
            place(l - 1, top + [l] * (count - k), covered + k, column)
        for b in top[covered : covered + k]:
            q[slot[l, b]] -= 1

    place(d, [], 0, {0: 1})
    del place  # the closure refers to itself; free its cells now, not at the next gc
    return out


@lru_cache(maxsize=None)
def _component_solver(d: int, c: tuple[int, ...]) -> dict[int, tuple]:
    """The standard products of content c by leading position, built once.

    Maps each product's leading position, its largest, to (q, p, sign,
    rest): its exponents, the coefficient there and the (position,
    coefficient) pairs of the rest of its column.  u_ab = x_a y_b - x_b y_a
    leads with -x_b y_a, so a standard product leads with y to the power
    of its row 2, coefficient +-1, and distinct tableaux have distinct
    leads.  Position order is lex on the y exponents, a monomial order;
    weighting y_i by d + 1 - i first would pick the same leads.  A column
    that breaks this raises AssertionError.  An empty column has no lead
    and is skipped, so the positions it should cover stay uncovered.
    """
    table: dict[int, tuple] = {}
    for q, p, column in _standard_columns(d, c):
        if not column:
            continue
        lead = max(column)
        sign = column[lead]
        if sign not in (1, -1):
            label = ProductTerm(p, q).label()
            raise AssertionError(f"product {label} leads with coefficient {sign}")
        if lead in table:
            labels = [ProductTerm(p, q).label() for q, p, *_ in (table[lead], (q, p))]
            raise AssertionError(f"products {' and '.join(labels)} share a lead")
        rest = [(pos, e) for pos, e in column.items() if pos != lead]
        table[lead] = (q, p, sign, rest)
    return table


def _certificate(f: Polynomial, n: tuple[int, ...]) -> dict | None:
    """f as a combination of the standard products of multidegree n, or None.

    f is scaled to integers by the lcm of its denominators and
    straightened from its largest position down: the standard product
    that leads there takes the whole coefficient, and its column, which
    lies below its lead, is subtracted.  A position that leads no
    product means f is outside the span.
    """
    d = f.d
    strides, c, index, slots, names = _coordinates(d, n)
    terms = list(f.terms())
    den = lcm(*[v.denominator for _, v in terms])
    residual = {
        sum(map(mul, m[d:], strides)): v.numerator * (den // v.denominator)
        for m, v in terms
    }
    table = _component_solver(len(c), c)
    heap = [-pos for pos in residual]
    heapify(heap)
    support = []
    while heap:
        lead = -heappop(heap)
        value = residual.pop(lead)
        if not value:
            continue
        entry = table.get(lead)
        if entry is None:
            return None
        q, p, sign, rest = entry
        value *= sign
        support.append((q, p, lead, value))
        for pos, e in rest:
            if pos in residual:
                residual[pos] -= value * e
            else:
                residual[pos] = -value * e
                heappush(heap, -pos)
    support.sort()
    certificate = {}
    for q, p, lead, value in support:
        term = names.get(lead)
        if term is None:  # content indices back to those of n
            p_n, q_n = _spread(p, index, d), _spread(q, slots, d * (d - 1) // 2)
            term = names[lead] = ProductTerm(p_n, q_n)
        certificate[term] = Fraction(value, den)
    return certificate


@lru_cache(maxsize=None)
def _coordinates(d: int, n: tuple[int, ...]) -> tuple:
    """(strides, content, index, slots, names) of component n, checked once.

    index[i] is where content index i + 1 sits in n (0-based), and
    slots[k] where the k-th pair of pair_order(len(content)) sits in
    pair_order(d).  names maps a lead of the content's solver table to
    its standard product in the indices of n, each built on first use.
    """
    strides = component_strides(d, n)
    c = component_content(d, n)
    index = [i for i, k in enumerate(n) if k]
    slot = {pair: k for k, pair in enumerate(pair_order(d))}
    slots = [slot[index[i - 1] + 1, index[j - 1] + 1] for i, j in pair_order(len(c))]
    return strides, c, index, slots, {}


def _spread(values: tuple[int, ...], at: list[int], size: int) -> tuple[int, ...]:
    """values placed at the indices at of a zero tuple of length size."""
    out = [0] * size
    for i, e in zip(at, values):
        out[i] = e
    return tuple(out)


def decompose(f: Polynomial) -> dict[ProductTerm, Fraction]:
    """Write a homogeneous constant in the standard products of its multidegree.

    The standard products (_standard_columns) are a basis of the
    component, so the certificate is the unique one on them, found by
    straightening with no linear solve; its terms are in increasing q.
    It re-expands to f exactly, proving f a constant, so delta(f) runs
    only without one, to pick the error: NotInKernel, else NotHomogeneous,
    else ConjectureViolation (which contradicts the spanning theorem).
    """
    if f.is_zero:
        return {}
    n = f.multidegree()
    certificate = None if n is None else _certificate(f, n)
    if certificate is not None:
        return certificate
    image = delta(f)
    if not image.is_zero:
        raise NotInKernel(image)
    if n is None:
        raise NotHomogeneous(
            "input mixes multidegrees; decompose each component separately"
        )
    raise ConjectureViolation(
        f"kernel element of multidegree {n} lies outside the product span: "
        f"{format_poly(f)}"
    )


@dataclass(frozen=True)
class ComponentReport:
    """Verification record for one multidegree component."""

    n: tuple[int, ...]
    dim_kernel: int
    dim_span: int
    dim_tableau_oracle: int
    product_count: int
    verdict: bool
    seconds: float

    def to_dict(self) -> dict:
        return {
            "n": list(self.n),
            "dim_kernel": self.dim_kernel,
            "dim_span": self.dim_span,
            "dim_tableau_oracle": self.dim_tableau_oracle,
            "product_count": self.product_count,
            "verdict": self.verdict,
            "seconds": self.seconds,
        }


@lru_cache(maxsize=None)
def _content_dimensions(c: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(dim_kernel, dim_span, oracle, product_count) of content c, d = len(c)."""
    d = len(c)
    table = delta_table(d, c)
    dim_kernel = sum(len(vectors) for _, _, vectors in kernel_blocks(d, c, table))
    dim_span = product_count = 0
    for ks, _, rows in _product_blocks(d, c, table):
        dim_span += integer_rank(rows, len(ks))
        product_count += len(ks)
    return dim_kernel, dim_span, sum(kostka_numbers(c)), product_count


def verify_component(d: int, n: tuple[int, ...]) -> ComponentReport:
    """Compare the three dimension routes for one component.

    dim_kernel comes from exact elimination, dim_span from the rank of the
    expanded products, and the oracle from summing the Kostka numbers of
    every two-row shape.  As side checks every kernel vector and every
    expanded product is confirmed to be a constant.  The numbers are
    computed once per content c, the nonzero entries of n in dimension
    len(c) (poly.component_content), so a component that shares its
    content with an earlier one costs a lookup, and a failing side check
    names products by the content's indices.
    """
    start = time.perf_counter()
    n = tuple(n)
    dim_kernel, dim_span, oracle, product_count = _content_dimensions(
        component_content(d, n)
    )
    verdict = dim_kernel == dim_span == oracle
    return ComponentReport(
        n=n,
        dim_kernel=dim_kernel,
        dim_span=dim_span,
        dim_tableau_oracle=oracle,
        product_count=product_count,
        verdict=verdict,
        seconds=time.perf_counter() - start,
    )
