"""The integer component engine against the Polynomial route it replaced.

Every component with d <= 4 and |n| <= 5 is checked three ways: product
columns against repeated Polynomial multiplication, the integer delta
against derivation.delta, and the span rank against the number of
standard products and the unsplit rational rank.  decompose, which
straightens over the standard products, must find a certificate exactly
when the all-product LinearSolver it replaced does.  The
engine computes each content once, so the integers it builds for a
multidegree are checked equal to those of its content, and sweep records
equal to cold recomputations.  The fault-injection tests corrupt one
column or one kernel vector on cold caches and require the constancy
side checks to fire with their usual messages.
"""

import random
from dataclasses import replace
from operator import mul

import pytest

from weitzlab import kernel, products
from weitzlab.derivation import delta
from weitzlab.kernel import delta_table, kernel_basis, kernel_blocks
from weitzlab.linalg import LinearSolver
from weitzlab.poly import Polynomial, component_basis, component_content, component_strides
from weitzlab.products import (
    ConjectureViolation,
    NotInKernel,
    _product_blocks,
    _product_columns,
    _standard_columns,
    decompose,
    enumerate_products,
    expand,
    span_dimension,
    verify_component,
)
from weitzlab.report import SweepConfig, enumerate_multidegrees, run_verify_sweep
from weitzlab.tableaux import kostka_numbers

from oracles import expand_oracle, span_dim_of_polys
from test_invariants import certificate_inputs

COMPONENTS = [(d, n) for d in range(1, 5) for n in enumerate_multidegrees(d, 5)]


def as_column(poly, d, n):
    index = {m: i for i, m in enumerate(component_basis(d, n))}
    return {index[m]: c for m, c in poly.terms()}


def test_product_columns_match_multiplication_oracle():
    for d, n in COMPONENTS:
        columns = [column for _, column in _product_columns(d, n)]
        terms = enumerate_products(d, n)
        assert len(columns) == len(terms)
        for t, column in zip(terms, columns):
            oracle = expand_oracle(t)
            assert column == as_column(oracle, d, n), t.label()
            assert expand(t) == oracle


def test_integer_delta_matches_derivation():
    for d, n in COMPONENTS:
        weights, images = delta_table(d, n)
        for pos, m in enumerate(component_basis(d, n)):
            assert weights[pos] == sum(m.b)
            image = delta(Polynomial.from_monomial(m))
            assert dict(images[pos]) == as_column(image, d, n)


def test_span_rank_matches_standard_count():
    for d, n in COMPONENTS:
        polys = [expand_oracle(t) for t in enumerate_products(d, n)]
        unsplit = span_dim_of_polys(polys, component_basis(d, n))
        assert span_dimension(d, n) == len(_standard_columns(d, n)) == unsplit, n


def solver_finds_certificate(f, d, n):
    """Is every y-weight block of the all-product system [A | I] consistent at f?"""
    strides = component_strides(d, n)
    values = {sum(map(mul, m.b, strides)): c for m, c in f.terms()}
    for indices, positions, rows in _product_blocks(d, n):
        b = [values.pop(pos, 0) for pos in positions]
        if LinearSolver(rows, len(indices)).solve(b) is None:
            return False
    return not values  # a monomial that no product touches


def test_decompose_agrees_with_all_product_solver():
    rng = random.Random(11)
    for d, n, f in certificate_inputs():
        monomial = Polynomial.from_monomial(rng.choice(component_basis(d, n)))
        for g in (f, f + monomial):
            try:
                certificate = decompose(g)
            except (NotInKernel, ConjectureViolation):
                certificate = None
            assert (certificate is not None) == solver_finds_certificate(g, d, n), n
            if certificate is not None:
                rebuilt = Polynomial.zero(d)
                for t, c in certificate.items():
                    rebuilt = rebuilt + expand(t) * c
                assert rebuilt == g, n


def test_components_equal_their_content():
    components = [(d, n) for d in range(1, 5) for n in enumerate_multidegrees(d, 7)]
    components += [(5, n) for n in enumerate_multidegrees(5, 5)]
    for d, n in components:
        c = component_content(d, n)
        assert delta_table(d, n) == delta_table(len(c), c), n
        assert kernel_blocks(d, n) == kernel_blocks(len(c), c), n
        assert _product_columns(d, n) == _product_columns(len(c), c), n
        assert kostka_numbers(n) == kostka_numbers(c), n


def test_sweep_records_equal_cold_recomputation():
    report = run_verify_sweep(SweepConfig(d=4, max_total_degree=6))
    for record in report.components:
        products._content_dimensions.cache_clear()
        fresh = verify_component(4, record.n)
        assert replace(record, seconds=0) == replace(fresh, seconds=0)


@pytest.fixture
def cold_engine():
    """Empty the engine's caches, so that a corrupted layer actually runs."""
    products._content_dimensions.cache_clear()
    kernel_basis.cache_clear()
    yield
    products._content_dimensions.cache_clear()
    kernel_basis.cache_clear()


def test_corrupted_product_column_fails_verification(monkeypatch, cold_engine):
    # in the (1, 1) component of d=2 only u12 multiplies by a u
    real = products._times_u

    def corrupt(column, si, sj):
        return {pos: c for pos, c in real(column, si, sj).items() if c > 0}  # x1*y2 alone

    monkeypatch.setattr(products, "_times_u", corrupt)
    with pytest.raises(AssertionError, match=r"^product u12 is not a constant$"):
        verify_component(2, (1, 1))


def test_corrupted_kernel_vector_fails_both_routes(monkeypatch, cold_engine):
    real = kernel.integer_nullspace

    def corrupt(rows, cols):
        vectors = real(rows, cols)
        return [[v[0] + 1] + v[1:] if len(v) > 1 else v for v in vectors]

    monkeypatch.setattr(kernel, "integer_nullspace", corrupt)
    message = r"^kernel vector failed the constancy check$"
    with pytest.raises(AssertionError, match=message):
        verify_component(2, (1, 1))
    with pytest.raises(AssertionError, match=message):
        kernel_basis(2, (1, 1))
