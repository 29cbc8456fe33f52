"""The integer component engine against the Polynomial route it replaced.

Every component with d <= 4 and |n| <= 5 is checked three ways: product
columns against repeated Polynomial multiplication, the integer delta
against derivation.delta, and the span rank against the number of
standard products and the unsplit rational rank.  decompose, which
straightens over the standard products, must find a certificate exactly
when the all-product LinearSolver it replaced does.  The
engine computes each content once, so the integers it builds for a
multidegree are checked equal to those of its content, and sweep records
equal to cold recomputations.  Kernel vectors and span ranks are kept
per y-weight block on kernel.block_key, so the block matrices of
contents that share a key are checked equal, and cold results equal
warm ones, and a product block whose key is known is not checked
again.  The fault-injection tests corrupt one
column or one kernel vector on cold caches and require the constancy
side checks to fire with their usual messages and store nothing.
"""

import random
from dataclasses import replace
from operator import mul

import pytest
from click.testing import CliRunner

from weitzlab import kernel, products
from weitzlab.derivation import delta
from weitzlab.cli import main
from weitzlab.kernel import (
    DeltaImages,
    block_key,
    delta_matrix,
    delta_table,
    kernel_basis,
    kernel_blocks,
)
from weitzlab.linalg import LinearSolver
from weitzlab.poly import Polynomial, component_basis, component_content, component_strides
from weitzlab.products import (
    ConjectureViolation,
    NotInKernel,
    _product_blocks,
    _product_columns,
    _standard_columns,
    _top_weight,
    decompose,
    enumerate_products,
    expand,
    span_dimension,
    verify_component,
)
from weitzlab.report import SweepConfig, enumerate_multidegrees, run_verify_sweep
from weitzlab.tableaux import kostka_numbers

from oracles import expand_oracle, span_dim_of_polys
from test_invariants import certificate_inputs, golden_kernel_runs

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


def test_lazy_delta_images_match_delta_table():
    for d in range(1, 5):
        for n in enumerate_multidegrees(d, 6):
            _, images = delta_table(d, n)
            lazy = DeltaImages(d, n)
            for pos in reversed(range(len(images))):  # any order of first use
                assert lazy[pos] == images[pos], (n, pos)
            assert len(lazy) == len(images)


def test_span_rank_matches_standard_count():
    for d, n in COMPONENTS:
        polys = [expand_oracle(t) for t in enumerate_products(d, n)]
        unsplit = span_dim_of_polys(polys, component_basis(d, n))
        assert span_dimension(d, n) == len(_standard_columns(d, n)) == unsplit, n


def solver_finds_certificate(f, d, n):
    """Is every y-weight block of the all-product system [A | I] consistent at f?"""
    strides = component_strides(d, n)
    values = {sum(map(mul, m.b, strides)): c for m, c in f.terms()}
    for _, indices, positions, rows in _product_blocks(d, n):
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


def clear_engine():
    """Empty every cache of the verify engine, block tables included."""
    products._content_dimensions.cache_clear()
    kernel_basis.cache_clear()
    kernel._BLOCK_KERNELS.clear()
    products._BLOCK_SPANS.clear()


def test_sweep_records_equal_cold_recomputation():
    report = run_verify_sweep(SweepConfig(d=4, max_total_degree=6))
    for record in report.components:
        clear_engine()
        fresh = verify_component(4, record.n)
        assert replace(record, seconds=0) == replace(fresh, seconds=0)


@pytest.fixture
def cold_engine():
    """Empty the engine's caches, so that a corrupted layer actually runs."""
    clear_engine()
    yield
    clear_engine()


def test_corrupted_product_column_fails_verification(monkeypatch, cold_engine):
    # in the (1, 1) component of d=2 only u12 multiplies by a u
    real = products._times_u

    def corrupt(column, si, sj):
        return {pos: c for pos, c in real(column, si, sj).items() if c > 0}  # x1*y2 alone

    monkeypatch.setattr(products, "_times_u", corrupt)
    with pytest.raises(AssertionError, match=r"^product u12 is not a constant$"):
        verify_component(2, (1, 1))
    assert products._BLOCK_SPANS == {}
    monkeypatch.undo()
    report = verify_component(2, (1, 1))
    assert (report.dim_kernel, report.dim_span, report.dim_tableau_oracle) == (2, 2, 2)


def corrupt_nullspace(monkeypatch):
    real = kernel.integer_nullspace

    def corrupt(rows, cols):
        vectors = real(rows, cols)
        return [[v[0] + 1] + v[1:] if len(v) > 1 else v for v in vectors]

    monkeypatch.setattr(kernel, "integer_nullspace", corrupt)


KERNEL_CHECK = r"^kernel vector failed the constancy check$"


def test_corrupted_kernel_vector_fails_both_routes(monkeypatch, cold_engine):
    corrupt_nullspace(monkeypatch)
    with pytest.raises(AssertionError, match=KERNEL_CHECK):
        verify_component(2, (1, 1))
    with pytest.raises(AssertionError, match=KERNEL_CHECK):
        kernel_basis(2, (1, 1))


def test_failed_block_check_stores_nothing(monkeypatch, cold_engine):
    corrupt_nullspace(monkeypatch)
    with pytest.raises(AssertionError, match=KERNEL_CHECK):
        verify_component(2, (1, 1))
    monkeypatch.undo()
    report = verify_component(2, (1, 1))
    assert (report.dim_kernel, report.dim_span, report.dim_tableau_oracle) == (2, 2, 2)
    assert kernel_blocks(2, (1, 1)) == [(0, [0], ((1,),)), (1, [1, 2], ((1, -1),))]


def test_weight_blocks_are_fixed_by_their_key():
    """Every y-weight block's delta and product matrices depend only on block_key."""
    boxes = ((2, 12), (3, 8), (4, 7))
    contents = {component_content(d, n) for d, m in boxes for n in enumerate_multidegrees(d, m)}
    first = {}
    shared = 0
    for c in sorted(contents):
        d = len(c)
        weights, _ = delta_table(d, c)
        matrix = delta_matrix(d, c)
        by_weight = {}
        for pos, q in enumerate(weights):
            by_weight.setdefault(q, []).append(pos)
        spans = {q: rows for q, _, _, rows in _product_blocks(d, c)}
        for q, source in by_weight.items():
            rows = [[matrix[t][s] for s in source] for t in by_weight.get(q - 1, ())]
            blocks = first.setdefault(block_key(c, q), (rows, spans.get(q)))
            assert blocks == (rows, spans.get(q)), (c, q)
            shared += blocks[0] is not rows
    assert shared > len(first)  # most blocks repeat one seen before


def test_content_dimensions_equal_cold_and_warm():
    contents = sorted({component_content(4, n) for n in enumerate_multidegrees(4, 8)})
    clear_engine()
    warm = [products._content_dimensions(c) for c in contents]
    assert len(kernel._BLOCK_KERNELS) < sum(sum(c) + 1 for c in contents)
    assert len(products._BLOCK_SPANS) < sum(_top_weight(c) + 1 for c in contents)
    cold = []
    for c in contents:
        clear_engine()
        cold.append(products._content_dimensions(c))
    assert cold == warm


def test_top_weight_is_the_largest_product_weight():
    for d in range(1, 6):
        for n in enumerate_multidegrees(d, 7 if d < 5 else 5):
            weights = {sum(t.q) for t in enumerate_products(d, n)}
            assert weights == set(range(_top_weight(n) + 1)), n


def test_span_blocks_in_the_table_are_not_checked_again(monkeypatch, cold_engine):
    expected = [products._span_rank(2, c) for c in ((3, 5), (4, 4))]
    clear_engine()
    products._span_rank(2, (3, 3))  # stores the blocks of (3, 5), all but u12^4 of (4, 4)
    checked = []

    def count_checks(images, column):
        checked.append(column)
        return {}

    monkeypatch.setattr(products, "integer_delta", count_checks)
    assert products._span_rank(2, (3, 5)) == expected[0]
    assert checked == []
    assert products._span_rank(2, (4, 4)) == expected[1]
    assert len(checked) == 1  # u12^4, the one product of weight 4


def types_of(value):
    if isinstance(value, (list, tuple)):
        return type(value), [types_of(v) for v in value]
    return type(value)


def test_kernel_blocks_same_cold_and_warm():
    for d in range(1, 5):
        for n in enumerate_multidegrees(d, 6):
            kernel._BLOCK_KERNELS.clear()
            cold = kernel_blocks(d, n)
            warm = kernel_blocks(d, n)
            assert warm == cold and types_of(warm) == types_of(cold), n


def test_kernel_blocks_results_cannot_reach_the_table():
    expected = kernel_blocks(3, (2, 2, 2))
    blocks = kernel_blocks(3, (2, 2, 2))
    _, source, vectors = blocks[-1]
    with pytest.raises(TypeError):
        vectors[0][0] += 1
    source.append(0)
    blocks.clear()
    assert kernel_blocks(3, (2, 2, 2)) == expected


def test_golden_kernel_output_cold_and_warm():
    for args, expected in golden_kernel_runs():
        clear_engine()
        for _ in range(2):  # the second run reads the block table
            assert CliRunner().invoke(main, args).output == expected
