"""The conjectured generators and the per-component verification engine.

The candidate generating set is X_d = {x_1..x_d} together with the 2x2
determinants u_ij = x_i*y_j - x_j*y_i (i < j).  A ProductTerm names one
monomial x^p * prod u_ij^q_ij in those generators; enumerate_products
lists every ProductTerm of a given multidegree.  The products span each
component's kernel but are not independent: the Plucker identity
u_ij*u_kl - u_ik*u_jl + u_il*u_jk = 0 (and its x-degree shadows) makes
the span collapse.  The standard products, one per two-row semistandard
tableau (_standard_columns), are a basis of that span, and each has its
own leading position with coefficient +-1 (standard monomial theory).

verify_component is the whole point: for one multidegree it computes the
kernel dimension, the product-span dimension, and the independent tableau
count, and reports whether all three agree.  It runs on integers indexed
by component position (poly.component_strides).  The span dimension
counts the standard products' distinct leading positions: one walk over
the tableaux expands them into integer columns, sharing the expansion of
common prefixes, and checks each one constant; no ProductTerm is built
and nothing is eliminated on that path.  That is enough to prove a
component: k columns with distinct leads have rank at least k, the
standard products lie in the kernel, and equality with its dimension
means they span it.  The other products are only counted, never expanded.

decompose needs no matrix: a constant is straightened into the standard
products from its largest position down.  One pass maps its terms to
positions and checks each against the first term's multidegree, and
the certificate's keys are ProductTerm tuples and its values shared
Fractions (poly.shared_fraction), so a warm decompose builds little
beyond the residual it straightens.

Both verify_component and decompose key this engine on the component's
content (poly.component_content): components that differ only by zero
exponents are the same integers, so each distinct content is computed
once per process.  verify goes one step further.  Relabelling the
indices by a permutation sigma, on the x and the y alike, commutes with
delta and maps every weight block of content c onto that of c o sigma,
entry for entry, with u_ij going to +-u_sigma(i)sigma(j); so the kernel
nullity, span rank and product count of c are those of sorted(c), and
only sorted contents are eliminated, expanded and checked
(_content_dimensions).  One level down, each y-weight block is kept on
kernel.block_key: the products of y-weight q are the pair exponents of
total q whose index degrees are at most min(c_i, q), so blocks with the
same key are the same matrix with the same number of columns, and the
same rank, which the block's standard products have too.  Each distinct
block's standard products are expanded, checked constant and their
leads counted once per process (_span_rank), and a content whose blocks
are all known costs one lookup per weight, as on the kernel side
(kernel.kernel_blocks).  A cold d=4 |n|<=8 sweep counts 38 distinct
product blocks among the 164 of its 53 sorted contents, and a cold d=2
|n|<=18 sweep 12 among 385.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import lcm
from operator import add, mul
from typing import Iterator, NamedTuple

from .derivation import delta
from .derivation import is_constant  # noqa: F401  (perfbench/tracer.py rebinds it here)
from .kernel import DeltaImages, block_key, integer_delta, kernel_blocks, times_u
from .poly import (
    Polynomial,
    component_basis,
    component_content,
    component_strides,
    format_poly,
    shared_fraction,
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


class ProductTerm(NamedTuple):
    """Exponent data for one product x^p * prod u_ij^q_ij.

    q is stored flat over pair_order(d).  x_i^p_i contributes p_i to
    component i of the multidegree; u_ij^q contributes q to components i
    and j.  A ProductTerm is the tuple (p, q), so it hashes and compares
    in C, equals that plain tuple and cannot be changed.  The constructor
    checks nothing, so that building a term stays cheap; multidegree(),
    label() and expand() raise ValueError unless q has one entry per pair
    and no exponent is negative.
    """

    p: tuple[int, ...]
    q: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.p)

    def _check(self) -> None:
        d = self.d
        if len(self.q) != d * (d - 1) // 2 or any(e < 0 for e in self.p + self.q):
            raise ValueError(f"malformed product exponents p={self.p}, q={self.q}")

    def multidegree(self) -> tuple[int, ...]:
        self._check()
        n = list(self.p)
        for (i, j), e in zip(pair_order(self.d), self.q):
            n[i - 1] += e
            n[j - 1] += e
        return tuple(n)

    def label(self) -> str:
        self._check()
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
    """Every product of multidegree n as (q, p), p forced by q.

    An iterative odometer over pair_order(d), exponents ascending, the
    last pair turning fastest, so the all-x product comes first; q and p
    are updated in place.
    """
    if len(n) != d or any(k < 0 for k in n):
        raise ValueError("invalid multidegree")
    pairs = [(i - 1, j - 1) for i, j in pair_order(d)]
    p = list(n)
    q = [0] * len(pairs)
    yield q, p
    k = len(q) - 1
    while k >= 0:
        i, j = pairs[k]
        if p[i] and p[j]:
            p[i] -= 1
            p[j] -= 1
            q[k] += 1
            yield q, p
            k = len(q) - 1
        else:
            p[i] += q[k]
            p[j] += q[k]
            q[k] = 0
            k -= 1


@lru_cache(maxsize=None)
def enumerate_products(d: int, n: tuple[int, ...]) -> tuple[ProductTerm, ...]:
    """Every ProductTerm of multidegree n, exactly once, in _exponent_walk order."""
    return tuple(ProductTerm(tuple(p), tuple(q)) for q, p in _exponent_walk(d, n))


@lru_cache(maxsize=None)
def expand(t: ProductTerm) -> Polynomial:
    """Multiply the product out; the result is always a constant of delta.

    A malformed t raises ValueError, through t.multidegree().
    """
    n = t.multidegree()
    basis = component_basis(t.d, n)
    strides = component_strides(t.d, n)
    column = {0: 1}
    for (i, j), e in zip(pair_order(t.d), t.q):
        for _ in range(e):
            column = times_u(column, strides[i - 1], strides[j - 1])
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


def _top_weight(n: tuple[int, ...]) -> int:
    """The largest y-weight of a product of multidegree n.

    The pair exponents q form a multigraph on the indices with degree
    n_i at most, and its largest edge count is min(|n| // 2, |n| - max n);
    every smaller count is reached by dropping edges.
    """
    total = sum(n)
    return min(total // 2, total - max(n, default=0))


# (distinct standard-product leads, product count) of every y-weight
# product block seen so far, keyed like kernel._BLOCK_KERNELS; see _span_rank.
_BLOCK_SPANS: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}


def _span_rank(d: int, n: tuple[int, ...]) -> tuple[int, int]:
    """(rank of the standard products, number of all products) of multidegree n.

    A weight's rank is the number of distinct largest positions over its
    nonzero standard columns, with no elimination: each standard product
    has its own lead (see _component_solver).  The products of y-weight q
    are the pair exponents of total q whose index degrees are at most
    min(n_i, q), so kernel.block_key(n, q) fixes the all-product block's
    matrix, its number of columns and its rank, although the tableaux
    differ between contents that share it.  Only the weights whose key
    is not in _BLOCK_SPANS have their standard products walked, checked
    constant and their leads counted, and their products counted by
    _exponent_walk with no column built; each entry is stored once every
    one of its columns has passed its check.  The walk builds its own
    delta images, so this route shares no state with kernel_blocks.

    The sum is a lower bound on the span whatever the walk emits:
    - vectors with k pairwise-distinct leads have rank at least k;
    - the standard products' rank is at most the all-product block's
      rank, which block_key fixes;
    - that rank is at most the block's kernel nullity, because every
      standard column is still checked constant.
    So dim_span == dim_kernel still proves that the products span the
    component's kernel: a lead collision can fail a true component, but
    it can never pass a false one.
    """
    keys = [block_key(n, q) for q in range(_top_weight(n) + 1)]
    missing = {q for q, key in enumerate(keys) if key not in _BLOCK_SPANS}
    if missing:
        leads: dict[int, set[int]] = {q: set() for q in missing}
        for q, _, column in _standard_columns(d, n, missing):
            if column:
                leads[sum(q)].add(max(column))
        counts = Counter(sum(q) for q, _ in _exponent_walk(d, n))
        for q, block in leads.items():
            _BLOCK_SPANS[keys[q]] = len(block), counts[q]
    rank = count = 0
    for key in keys:
        block_rank, block_count = _BLOCK_SPANS[key]
        rank += block_rank
        count += block_count
    return rank, count


def span_dimension(d: int, n: tuple[int, ...]) -> int:
    """Rank of the products of multidegree n inside their component.

    It is the number of distinct leads of the standard products, a basis
    of the products' span; only they are expanded and checked constant.
    As in verify_component, (d, n) is checked and the rank read from its
    sorted content, so only sorted contents are keys of the span table.
    """
    c = tuple(sorted(component_content(d, n)))
    return _span_rank(len(c), c)[0]


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


def _standard_columns(
    d: int, c: tuple[int, ...], weights: set[int] | None = None
) -> list[tuple]:
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
    when a column first touches it, in a kernel.DeltaImages of its own.
    With weights, only the products of those y-weights, their row-2
    lengths, are checked and kept, and no branch is walked past the
    largest.
    """
    strides = component_strides(d, c)
    images = DeltaImages(d, c)
    cap = sum(c) if weights is None else max(weights)
    slot = {pair: k for k, pair in enumerate(pair_order(d))}
    q = [0] * len(slot)
    out = []

    def place(l: int, top: list[int], covered: int, column: dict[int, int]) -> None:
        if l == 0:
            if weights is not None and covered not in weights:
                return
            p = [0] * d
            for b in top[covered:]:
                p[b - 1] += 1
            if integer_delta(images, column):
                label = ProductTerm(tuple(p), tuple(q)).label()
                raise AssertionError(f"product {label} is not a constant")
            out.append((tuple(q), tuple(p), column))
            return
        count = c[l - 1]
        for k in range(min(count, len(top) - covered, cap - covered) + 1):
            if k:
                b = top[covered + k - 1]
                column = times_u(column, strides[l - 1], strides[b - 1])
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


def _certificate(f: Polynomial) -> dict | None:
    """f as a combination of the standard products of its multidegree, or None.

    The multidegree n is read from the first term, and the one pass that
    turns terms into positions checks every other term against it: a
    term of another multidegree means None, even where its position
    would land on a lead of n.  f is scaled to integers by the lcm of its
    denominators and straightened from its largest position down: the
    standard product that leads there takes the whole coefficient, and
    its column, which lies below its lead, is subtracted.  A position
    that leads no product means f is outside the span.
    """
    d = f.d
    terms = list(f.terms())
    n = terms[0][0].multidegree()
    strides, c, index, slots, names = _coordinates(d, n)
    den = lcm(*[v.denominator for _, v in terms])
    residual = {}
    for m, v in terms:
        b = m[d:]
        if tuple(map(add, m[:d], b)) != n:
            return None
        residual[sum(map(mul, b, strides))] = v.numerator * (den // v.denominator)
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
        certificate[term] = shared_fraction(value, den)
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
    It re-expands to f exactly, proving f a constant, so delta(f) and
    then f.multidegree() run only without one, to pick the error:
    NotInKernel, else NotHomogeneous, else ConjectureViolation (which
    contradicts the spanning theorem).  Homogeneity is checked in the
    same pass that finds the terms' positions (_certificate).
    """
    if f.is_zero:
        return {}
    certificate = _certificate(f)
    if certificate is not None:
        return certificate
    image = delta(f)
    if not image.is_zero:
        raise NotInKernel(image)
    n = f.multidegree()
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
    """(dim_kernel, dim_span, oracle, product_count) of content c, d = len(c).

    Relabelling the indices by a permutation sigma, on the x and the y
    alike, commutes with delta and maps each weight block of c onto that
    of c o sigma: positions go to positions, the entries b_i go along and
    u_ij goes to +-u_sigma(i)sigma(j).  So the kernel and span numbers
    of c are those of sorted(c), read from this same cache; only a
    sorted content is eliminated, expanded and checked, in its own
    coordinates.  The Kostka oracle runs on c itself, so that it sees
    the component's own content and shares nothing with that argument.

    Each route is called on (d, c) alone and builds the delta images it
    reads, so the routes share no state; a block whose key is in a
    route's table costs a lookup and builds no image.  product_count
    counts every product, standard or not, with no column built.
    """
    key = tuple(sorted(c))
    if key != c:
        dim_kernel, dim_span, _, product_count = _content_dimensions(key)
    else:
        d = len(c)
        dim_kernel = sum(len(v) for _, _, v in kernel_blocks(d, c))
        dim_span, product_count = _span_rank(d, c)
    return dim_kernel, dim_span, sum(kostka_numbers(c)), product_count


def verify_component(d: int, n: tuple[int, ...]) -> ComponentReport:
    """Compare the three dimension routes for one component.

    dim_kernel comes from exact elimination, dim_span from the distinct
    leads of the expanded standard products, and the oracle from summing
    the Kostka numbers of every two-row shape.  As side checks every
    kernel vector and every standard product is confirmed to be a
    constant; the other products are only counted, for product_count.
    dim_span is at most dim_kernel whichever products the walk picks, so
    equality proves that the products span the kernel (see _span_rank).
    The numbers are computed once per content c, the nonzero entries of
    n in dimension len(c) (poly.component_content), so a component that
    shares its content with an earlier one costs a lookup.  The kernel
    and span numbers of c are those of sorted(c), which is the one
    eliminated, expanded and checked, so a failing side check names
    products by the sorted content's indices; the oracle runs on c
    itself.  Below the content, each distinct y-weight block
    (kernel.block_key) is eliminated, expanded and checked once per
    process, and its kernel vectors, lead count and product count are
    read back for every later content that has it.
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
