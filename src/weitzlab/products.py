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
by component position (poly.component_strides): products expand into
integer columns, which only _product_blocks assembles into matrices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul
from typing import Iterator

from .derivation import delta
from .derivation import is_constant  # noqa: F401  (perfbench/tracer.py rebinds it here)
from .kernel import delta_table, integer_delta, kernel_blocks
from .linalg import LinearSolver, integer_rank
from .poly import Polynomial, component_basis, component_strides, format_poly
from .tableaux import kostka, two_row_partitions

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


@lru_cache(maxsize=None)
def enumerate_products(d: int, n: tuple[int, ...]) -> tuple[ProductTerm, ...]:
    """Every ProductTerm of multidegree n, exactly once, in a fixed order.

    Recursion assigns u exponents pair by pair (lexicographic pairs,
    exponent ascending); whatever degree remains is forced onto p.  The
    all-x product therefore always comes first.
    """
    if len(n) != d or any(k < 0 for k in n):
        raise ValueError("invalid multidegree")
    pairs = pair_order(d)
    found: list[ProductTerm] = []

    def assign(k: int, remaining: list[int], q: list[int]) -> None:
        if k == len(pairs):
            found.append(ProductTerm(tuple(remaining), tuple(q)))
            return
        i, j = pairs[k]
        cap = min(remaining[i - 1], remaining[j - 1])
        for e in range(cap + 1):
            remaining[i - 1] -= e
            remaining[j - 1] -= e
            q.append(e)
            assign(k + 1, remaining, q)
            q.pop()
            remaining[i - 1] += e
            remaining[j - 1] += e

    assign(0, list(n), [])
    return tuple(found)


def _product_column(t: ProductTerm, strides: tuple[int, ...]) -> dict[int, int]:
    """t expanded in its component's coordinates, {position: coefficient}.

    A position depends only on the y-exponents, so x^p shifts nothing, and

        u_ij^e = sum_k (-1)^k C(e, k) (x_i y_j)^(e-k) (x_j y_i)^k

    adds k*stride_i + (e-k)*stride_j with coefficient (-1)^k C(e, k).
    """
    column = {0: 1}
    for (i, j), e in zip(pair_order(t.d), t.q):
        if not e:
            continue
        si, sj = strides[i - 1], strides[j - 1]
        factor = [
            (k * si + (e - k) * sj, -comb(e, k) if k & 1 else comb(e, k))
            for k in range(e + 1)
        ]
        out: dict[int, int] = {}
        for pos, c in column.items():
            for offset, f in factor:
                key = pos + offset
                out[key] = out.get(key, 0) + c * f
        column = out
    return {pos: c for pos, c in column.items() if c}


def _product_columns(
    d: int, n: tuple[int, ...], table: tuple | None = None
) -> list[dict[int, int]]:
    """Every product of multidegree n as a column, each checked to be a constant.

    table is delta_table(d, n) when the caller has built it already.
    """
    strides = component_strides(d, n)
    _, images = table or delta_table(d, n)
    columns = []
    for t in enumerate_products(d, n):
        column = _product_column(t, strides)
        if integer_delta(images, column):
            raise AssertionError(f"product {t.label()} is not a constant")
        columns.append(column)
    return columns


@lru_cache(maxsize=None)
def expand(t: ProductTerm) -> Polynomial:
    """Multiply the product out; the result is always a constant of delta."""
    n = t.multidegree()
    basis = component_basis(t.d, n)
    column = _product_column(t, component_strides(t.d, n))
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
    """The expansion matrix of a component, split by y-weight.

    x^p * prod u_ij^q_ij has y-weight sum(q) in every term, so the matrix
    is block diagonal.  A block is (indices, positions, rows): its products
    in enumeration order, the positions they touch (ascending) and one
    fresh dense integer row per position.
    """
    columns = _product_columns(d, n, table)
    grouped: dict[int, list[int]] = {}
    for k, t in enumerate(enumerate_products(d, n)):
        grouped.setdefault(sum(t.q), []).append(k)
    for indices in grouped.values():
        positions = sorted({pos for k in indices for pos in columns[k]})
        rows = [[columns[k].get(pos, 0) for k in indices] for pos in positions]
        yield indices, positions, rows


@lru_cache(maxsize=None)
def _component_solver(d: int, n: tuple[int, ...]) -> tuple:
    """(indices, positions, LinearSolver) for every product block, built once."""
    blocks = _product_blocks(d, n)
    return tuple((ks, at, LinearSolver(rows, len(ks))) for ks, at, rows in blocks)


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


def _certificate(f: Polynomial, n: tuple[int, ...]) -> dict | None:
    """f as a combination of the products of multidegree n, or None."""
    strides = component_strides(f.d, n)
    values = {sum(map(mul, m.b, strides)): c for m, c in f.terms()}
    solution = {}
    for indices, positions, solver in _component_solver(f.d, n):
        x = solver.solve([values.pop(pos, 0) for pos in positions])
        if x is None:
            return None
        solution.update(zip(indices, x))
    if values:  # f has a monomial that no product touches
        return None
    products = enumerate_products(f.d, n)
    return {products[k]: c for k, c in sorted(solution.items()) if c}


def decompose(f: Polynomial) -> dict[ProductTerm, Fraction]:
    """Write a homogeneous constant as a combination of products.

    Among the affine solution set the certificate supported on the
    earliest products in enumeration order is returned (free coordinates
    of the echelon parametrization are pinned to zero, block by block).
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


def verify_component(d: int, n: tuple[int, ...]) -> ComponentReport:
    """Compare the three dimension routes for one component.

    dim_kernel comes from exact elimination, dim_span from the rank of the
    expanded products, and the oracle from summing Kostka numbers over
    two-row shapes.  As side checks every kernel vector and every
    expanded product is confirmed to be a constant.
    """
    start = time.perf_counter()
    n = tuple(n)
    table = delta_table(d, n)
    dim_kernel = sum(len(vectors) for _, _, vectors in kernel_blocks(d, n, table))
    products = enumerate_products(d, n)
    dim_span = span_dimension(d, n, table)
    oracle = sum(kostka(shape, n) for shape in two_row_partitions(sum(n)))
    verdict = dim_kernel == dim_span == oracle
    return ComponentReport(
        n=n,
        dim_kernel=dim_kernel,
        dim_span=dim_span,
        dim_tableau_oracle=oracle,
        product_count=len(products),
        verdict=verdict,
        seconds=time.perf_counter() - start,
    )
