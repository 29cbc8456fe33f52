"""The integer component engine against the Polynomial route it replaced.

Every component with d <= 4 and |n| <= 5 is checked three ways:
standard product columns against repeated Polynomial multiplication,
the integer delta against derivation.delta, and the span rank against
the number of standard products and the unsplit rational rank of all
products.  decompose, which straightens over the standard products,
must find a certificate exactly when an all-product LinearSolver on
oracles.product_blocks_oracle does.  The
engine computes each content once, so the integers it builds for a
multidegree are checked equal to those of its content, and sweep records
equal to cold recomputations.  Kernel vectors and span ranks are kept
per y-weight block on kernel.block_key, so the block matrices of
contents that share a key are checked equal, cold results equal warm
ones, the table's size after a cold benchmark sweep is pinned, and a
product block whose key is known is not checked again.  The span is
ranked on the standard products, whose tableaux differ between contents
that share a key, so an entry stored by one content is checked against
another's cold value, and on every sorted content of d=6 |n| <= 8 the
rank is checked equal to the standard count and the Kostka sum.  A span
entry counts distinct leading positions, so after cold d=6 |n| <= 8 and
d=2 |n| <= 18 sweeps every entry is checked equal to integer_rank of the
standard columns of each sorted content with its key.  Only sorted
contents reach the block tables: every weight block of a content is
checked equal, through the relabelling of its indices, to that of its
sorted content, with the same nullities and span numbers, and an
unsorted component is checked to be computed through its sorted
content.  An upper
block's nullity is derived from its partner below the middle: its
divided-power matrix is checked to be the partner's monomial matrix
transposed, with the same rank, and the derived nullity 0.  The
fault-injection tests corrupt one column or one kernel vector on cold
caches and require the constancy side checks to fire with their usual
messages and store nothing; a kernel vector dropped below the middle
must trip the transpose check of its upper partner, and so must a
peel one power short; a standard column emitted in place of another
must leave dim_span below dim_kernel and fail verify's exit code.
Kernel blocks are peeled: verify is checked to eliminate nothing at
d=2 and nothing wider than W_6(1^11) for (1^12), and to list the
positions of c' alone.  The integer
lowering map is checked against oracles.delta_star on every position,
and a lowering with a wrong coefficient, one that drops every rung or
one whose string never ends must fail crosscheck's ladder check, its
row and the command's exit code; so must tensor columns that are not
constants or not independent, and a projection that drops a term.
Crosscheck rows of one sorted content share nothing a caller can
change.
"""

import copy
import importlib
import json
import pkgutil
import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod
from operator import mul

import pytest
from click.testing import CliRunner

import weitzlab
from weitzlab import kernel, products, report, tensor
from weitzlab.derivation import delta
from weitzlab.cli import main
from weitzlab.kernel import (
    DeltaImages,
    LoweringImages,
    block_key,
    kernel_basis,
    kernel_blocks,
)
from weitzlab.linalg import LinearSolver, integer_rank
from weitzlab.poly import (
    Polynomial,
    component_basis,
    component_content,
    component_strides,
    parse_poly,
)
from weitzlab.products import (
    ConjectureViolation,
    NotInKernel,
    ProductTerm,
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

from oracles import (
    delta_matrix,
    delta_star,
    delta_table,
    expand_oracle,
    product_blocks_oracle,
    span_dim_of_polys,
)
from test_invariants import certificate_inputs, golden_kernel_runs

COMPONENTS = [(d, n) for d in range(1, 5) for n in enumerate_multidegrees(d, 5)]


def as_column(poly, d, n):
    index = {m: i for i, m in enumerate(component_basis(d, n))}
    return {index[m]: c for m, c in poly.terms()}


def test_product_columns_match_multiplication_oracle():
    for d, n in COMPONENTS:
        for t in enumerate_products(d, n):
            assert expand(t) == expand_oracle(t), t.label()
        for q, p, column in _standard_columns(d, n):
            t = ProductTerm(p, q)
            assert column == as_column(expand_oracle(t), d, n), t.label()


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


def test_lowering_images_match_delta_star():
    for d in range(1, 4):
        for n in enumerate_multidegrees(d, 6):
            lowering = LoweringImages(d, n)
            for pos, m in enumerate(component_basis(d, n)):
                image = delta_star(Polynomial.from_monomial(m))
                assert dict(lowering[pos]) == as_column(image, d, n), (n, pos)


def test_span_rank_matches_standard_count():
    for d, n in COMPONENTS:
        polys = [expand_oracle(t) for t in enumerate_products(d, n)]
        unsplit = span_dim_of_polys(polys, component_basis(d, n))
        assert span_dimension(d, n) == len(_standard_columns(d, n)) == unsplit, n


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_span_dimension_rejects_invalid_multidegrees(warm, cold_engine):
    if warm:
        assert span_dimension(2, (1, 1)) == 2
    for d, n in [(2, (-1, 3)), (2, (1, 1, 0)), (3, (1, 1))]:
        with pytest.raises(ValueError):
            span_dimension(d, n)


def test_span_dimension_is_invariant_under_permutation(cold_engine):
    for n in [(3, 0, 1, 2), (2, 2, 1, 0), (0, 4, 1, 1)]:
        expected = span_dimension(4, tuple(sorted(n)))
        for sigma in set(permutations(n)):
            clear_engine()
            assert span_dimension(4, sigma) == expected, sigma
            # only sorted contents key the span table
            assert all(list(c) == sorted(c) for _, c in products._BLOCK_SPANS), sigma


def test_span_rank_is_the_standard_count_and_the_kostka_sum():
    """Every sorted content of d=6 |n|<=8, through the warm span table."""
    contents = sorted({tuple(sorted(filter(None, n))) for n in enumerate_multidegrees(6, 8)})
    for c in contents:
        rank, count = products._span_rank(len(c), c)
        assert rank == len(_standard_columns(len(c), c)) == sum(kostka_numbers(c)), c
        assert count == len(enumerate_products(len(c), c)), c
    assert len(contents) == 64


def solver_finds_certificate(f, d, n):
    """Is every y-weight block of the all-product system [A | I] consistent at f?"""
    strides = component_strides(d, n)
    values = {sum(map(mul, m.b, strides)): c for m, c in f.terms()}
    for terms, positions, rows in product_blocks_oracle(d, n).values():
        b = [values.pop(pos, 0) for pos in positions]
        if LinearSolver(rows, len(terms)).solve(b) is None:
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


def test_decompose_lists_terms_in_q_then_p_order():
    """The CLI prints a certificate in the order decompose returns it."""
    count = 0
    for _, _, f in certificate_inputs():
        terms = list(decompose(f))
        assert terms == sorted(terms, key=lambda t: (t.q, t.p)), f
        count += len(terms) > 1
    assert count > 100


def weighted_columns(d, n):
    """(y-weight, column) of every standard product, in walk order."""
    return [(sum(q), column) for q, _, column in _standard_columns(d, n)]


def test_components_equal_their_content():
    components = [(d, n) for d in range(1, 5) for n in enumerate_multidegrees(d, 7)]
    components += [(5, n) for n in enumerate_multidegrees(5, 5)]
    for d, n in components:
        c = component_content(d, n)
        assert delta_matrix(d, n) == delta_matrix(len(c), c), n
        assert kernel_blocks(d, n) == kernel_blocks(len(c), c), n
        assert weighted_columns(d, n) == weighted_columns(len(c), c), n
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


# The lru_caches that only the benchmark's worker reads: perfbench/worker.py
# lists them as the package's caches.  No verify, crosscheck or decompose
# route takes a hit on them; they go with the benchmark rework (ROADMAP
# items 1 and 8).
WORKER_ONLY_CACHES = {
    "poly.component_basis",
    "kernel.kernel_basis",
    "products.enumerate_products",
    "products.expand",
    "tableaux.kostka",
}


def package_caches() -> dict:
    """Every lru_cache the package defines, as module.name (package prefix dropped)."""
    caches = {}
    for info in pkgutil.iter_modules(weitzlab.__path__):
        module = importlib.import_module(f"weitzlab.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value
    return caches


def test_every_route_cache_takes_a_hit(decompose_stream):
    """A cache no route reads twice only costs memory: each one must hit on
    the three units of work, a verify sweep, the decompose stream and a
    crosscheck, run from cold."""
    caches = package_caches()
    assert WORKER_ONLY_CACHES < caches.keys()
    for cache in caches.values():
        cache.cache_clear()
    clear_engine()
    run_verify_sweep(SweepConfig(d=4, max_total_degree=8))
    d, lines = decompose_stream
    for text in lines:
        decompose(parse_poly(text, d))
    report.run_crosscheck(SweepConfig(d=3, tensor_crosscheck_limit=9))
    idle = [
        name
        for name, cache in sorted(caches.items())
        if name not in WORKER_ONLY_CACHES and not cache.cache_info().hits
    ]
    assert idle == []


@pytest.fixture
def cold_engine():
    """Empty the engine's caches, so that a corrupted layer actually runs."""
    clear_engine()
    yield
    clear_engine()


def test_corrupted_product_column_fails_verification(monkeypatch, cold_engine):
    # in the (1, 1) component of d=2 only u12 multiplies by a u
    real = products.times_u

    def corrupt(column, si, sj):
        return {pos: c for pos, c in real(column, si, sj).items() if c > 0}  # x1*y2 alone

    monkeypatch.setattr(products, "times_u", corrupt)
    with pytest.raises(AssertionError, match=r"^product u12 is not a constant$"):
        verify_component(2, (1, 1))
    assert products._BLOCK_SPANS == {}
    monkeypatch.undo()
    report = verify_component(2, (1, 1))
    assert (report.dim_kernel, report.dim_span, report.dim_tableau_oracle) == (2, 2, 2)


def corrupt_peel(monkeypatch):
    """Add 1 to the first entry of every rebuilt kernel vector with two or more."""
    real = kernel._peeled_vectors

    def corrupt(peel, q):
        vectors = real(peel, q)
        return [{**v, min(v): v[min(v)] + 1} if len(v) > 1 else v for v in vectors]

    monkeypatch.setattr(kernel, "_peeled_vectors", corrupt)


KERNEL_CHECK = r"^kernel vector failed the constancy check$"


def test_corrupted_kernel_vector_fails_both_routes(monkeypatch, cold_engine):
    corrupt_peel(monkeypatch)
    with pytest.raises(AssertionError, match=KERNEL_CHECK):
        verify_component(2, (1, 1))
    with pytest.raises(AssertionError, match=KERNEL_CHECK):
        kernel_basis(2, (1, 1))


def test_failed_block_check_stores_nothing(monkeypatch, cold_engine):
    corrupt_peel(monkeypatch)
    with pytest.raises(AssertionError, match=KERNEL_CHECK):
        verify_component(2, (1, 1))
    monkeypatch.undo()
    report = verify_component(2, (1, 1))
    assert (report.dim_kernel, report.dim_span, report.dim_tableau_oracle) == (2, 2, 2)
    assert kernel_blocks(2, (1, 1)) == [(0, [0], ((1,),)), (1, [1, 2], ((1, -1),))]


def radix_of(c):
    """(stride_i, c_i + 1) pairs of content c, as kernel.DeltaImages keeps them."""
    return tuple(zip(component_strides(len(c), c), (k + 1 for k in c)))


def weight_blocks(boxes):
    """(c, q, source, target, rows) for every y-weight block of every content in boxes.

    source and target are the positions of weights q and q - 1, and rows
    is delta between them, cut from delta_matrix.
    """
    contents = {component_content(d, n) for d, m in boxes for n in enumerate_multidegrees(d, m)}
    for c in sorted(contents):
        weights, _ = delta_table(len(c), c)
        matrix = delta_matrix(len(c), c)
        by_weight = {}
        for pos, q in enumerate(weights):
            by_weight.setdefault(q, []).append(pos)
        for q, source in by_weight.items():
            target = by_weight.get(q - 1, [])
            yield c, q, source, target, [[matrix[t][s] for s in source] for t in target]


def divided_power_rows(c, source, target, rows):
    """A delta block in the basis x^a y^b / (a! b!), rescaled from its monomial rows."""
    basis = component_basis(len(c), c)

    def norm(pos):
        return prod(map(factorial, basis[pos].a)) * prod(map(factorial, basis[pos].b))

    scaled = [
        [Fraction(e * norm(t), norm(s)) for s, e in zip(source, row)]
        for t, row in zip(target, rows)
    ]
    assert all(e.denominator == 1 for row in scaled for e in row), c
    return [[int(e) for e in row] for row in scaled]


def test_weight_blocks_are_fixed_by_their_key():
    """Every y-weight block's delta and product matrices depend only on block_key,
    and kernel_blocks cuts the same delta rows out of its images."""
    first = {}
    spans = {}
    shared = 0
    for c, q, source, target, rows in weight_blocks(((2, 12), (3, 8), (4, 7))):
        if c not in spans:
            spans[c] = {w: block[2] for w, block in product_blocks_oracle(len(c), c).items()}
        assert kernel.block_rows(DeltaImages(len(c), c), source, target) == rows, (c, q)
        blocks = first.setdefault(block_key(c, q), (rows, spans[c].get(q)))
        assert blocks == (rows, spans[c].get(q)), (c, q)
        shared += blocks[0] is not rows
    assert shared > len(first)  # most blocks repeat one seen before


def test_upper_blocks_are_their_partners_transposed():
    """Above the middle, block q's divided-power matrix is block q' = |c| - q + 1's
    monomial matrix transposed under b -> n - b, which sends position pos to
    last - pos; so both blocks have one rank, and the nullity kernel_blocks
    derives for the upper block, |W_q| - |W_q'| + nullity(q'), is 0."""
    blocks = {}
    for c, q, source, target, rows in weight_blocks(((2, 14), (3, 9), (4, 7), (5, 6))):
        blocks[c, q] = source, target, rows
    checked = 0
    for (c, q), (source, target, rows) in blocks.items():
        partner = sum(c) - q + 1
        if partner >= q:
            continue
        p_source, p_target, p_rows = blocks[c, partner]
        last = prod(k + 1 for k in c) - 1
        row = {pos: i for i, pos in enumerate(p_target)}
        col = {pos: j for j, pos in enumerate(p_source)}
        transposed = [[p_rows[row[last - s]][col[last - t]] for s in source] for t in target]
        assert divided_power_rows(c, source, target, rows) == transposed, (c, q)
        rank = integer_rank(p_rows, len(p_source))
        assert integer_rank(rows, len(source)) == rank, (c, q)
        nullity = len(p_source) - rank
        assert len(source) - len(p_source) + nullity == 0, (c, q)
        checked += 1
    assert checked == 890  # over 231 contents


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


def test_a_shared_span_key_stands_for_other_standard_products(cold_engine):
    """(1, 2, 2) and (1, 2, 3) share block_key at q = 2, where c_3 = q in the
    first and c_3 > q in the second, so their weight-2 standard products
    differ; the second's span numbers read from the table equal its cold ones."""
    first, second, q = (1, 2, 2), (1, 2, 3), 2
    key = block_key(first, q)
    assert key == block_key(second, q)

    def standard(c):
        return {ProductTerm(p, e) for e, p, _ in _standard_columns(3, c) if sum(e) == q}

    assert standard(first) != standard(second)
    assert len(standard(first)) == len(standard(second))
    cold = products._span_rank(3, second)
    cold_entry = products._BLOCK_SPANS[key]
    clear_engine()
    products._span_rank(3, first)
    assert products._BLOCK_SPANS[key] == cold_entry
    assert products._span_rank(3, second) == cold


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


def test_bogus_upper_block_vector_fails_and_stores_nothing(monkeypatch, cold_engine):
    # the one upper block still built is the middle one of odd |n|: for
    # (1, 1, 1) at q = 2 a square 3x3 block, transposed onto itself
    real = kernel._peeled_vectors
    middle = kernel.positions_by_weight((1, 1, 1))[2]

    def bogus(peel, q):
        vectors = real(peel, q)
        return vectors + [dict.fromkeys(middle, 1)] if q == 2 else vectors

    monkeypatch.setattr(kernel, "_peeled_vectors", bogus)
    with pytest.raises(AssertionError, match=KERNEL_CHECK):
        kernel_blocks(3, (1, 1, 1))
    assert block_key((1, 1, 1), 2) not in kernel._BLOCK_KERNELS
    monkeypatch.undo()
    assert kernel_blocks(3, (1, 1, 1)) == [
        (0, [0], ((1,),)),
        (1, [1, 2, 4], ((1, -1, 0), (1, 0, -1))),
    ]
    assert kernel._BLOCK_KERNELS[block_key((1, 1, 1), 2)] == ()
    assert block_key((1, 1, 1), 3) not in kernel._BLOCK_KERNELS  # derived, not built


def test_dropped_lower_kernel_vector_fails_the_transpose_check(monkeypatch, cold_engine):
    # (1, 1) at q = 1 has the one kernel vector x1*y2 - y1*x2; without it the
    # upper block y1*y2 derives nullity 1 - 2 + 0 and is built, finding 0
    real = kernel._peeled_vectors

    def dropped(peel, q):
        vectors = real(peel, q)
        return vectors[:-1] if q == 1 else vectors

    monkeypatch.setattr(kernel, "_peeled_vectors", dropped)
    with pytest.raises(AssertionError, match=r"^upper block nullity disagrees with its transpose$"):
        kernel_blocks(2, (1, 1))
    assert block_key((1, 1), 2) not in kernel._BLOCK_KERNELS


def test_peeling_one_power_short_fails_the_transpose_check(monkeypatch, cold_engine):
    # (1, 1, 1, 1) at q = 2 peels to ker delta'^2 on W_2(1, 1, 1), of
    # nullity 2; delta'^1 has none there, so the upper block q = 3 derives
    # 4 - 6 + 0, is built and finds 0
    real = kernel._power_kernel
    monkeypatch.setattr(
        kernel, "_power_kernel", lambda peel, q, power: real(peel, q, power - 1)
    )
    with pytest.raises(AssertionError, match=r"^upper block nullity disagrees with its transpose$"):
        verify_component(4, (1, 1, 1, 1))
    assert block_key((1, 1, 1, 1), 3) not in kernel._BLOCK_KERNELS
    monkeypatch.undo()
    clear_engine()
    report = verify_component(4, (1, 1, 1, 1))
    assert (report.dim_kernel, report.verdict) == (6, True)


def test_verify_peels_without_eliminating_large_blocks(monkeypatch, cold_engine):
    """verify builds no position list of the component itself, only of c', and
    eliminates only delta'^(m+1) on W_q(c') for q > m: none at d=2, and for
    (1^12) nothing wider than W_6(1^11), where the old route eliminated the
    792 x 924 middle block."""
    widths, listed = [], []
    real_nullspace, real_positions = kernel.integer_nullspace, kernel.positions_by_weight

    def nullspace(rows, cols):
        widths.append(cols)
        return real_nullspace(rows, cols)

    def positions(n):
        listed.append(n)
        return real_positions(n)

    monkeypatch.setattr(kernel, "integer_nullspace", nullspace)
    monkeypatch.setattr(kernel, "positions_by_weight", positions)
    run_verify_sweep(SweepConfig(d=2, max_total_degree=18))
    assert widths == []
    assert all(len(n) <= 1 for n in listed)
    listed.clear()
    report = verify_component(12, (1,) * 12)
    assert (report.dim_kernel, report.verdict) == (924, True)
    assert max(widths) == comb(11, 6) == 462
    assert listed == [(1,) * 11]


@pytest.mark.parametrize("d,max_degree,entries,spans", [(2, 18, 57, 12), (4, 8, 59, 38)])
def test_block_kernel_table_size_after_a_cold_sweep(d, max_degree, entries, spans, cold_engine):
    """The two benchmark sweeps' distinct kernel and product blocks, sorted contents only.

    Eliminating every content's blocks gave 183 and 365 kernel entries
    (699 and 678 on block_key alone) and 12 and 138 span entries; on
    sorted contents, with upper blocks eliminated in the divided-power
    basis rather than derived, 111 and 106 kernel entries.
    """
    run_verify_sweep(SweepConfig(d=d, max_total_degree=max_degree))
    assert len(kernel._BLOCK_KERNELS) == entries
    assert len(products._BLOCK_SPANS) == spans


@pytest.mark.parametrize("d,max_degree", [(6, 8), (2, 18)])
def test_span_entries_are_the_rank_of_their_standard_columns(d, max_degree, cold_engine):
    """Each lead count a cold sweep stores equals integer_rank, the elimination
    it replaced, of the standard columns of every sorted content with its key."""
    run_verify_sweep(SweepConfig(d=d, max_total_degree=max_degree))
    contents = {tuple(sorted(filter(None, n))) for n in enumerate_multidegrees(d, max_degree)}
    keys = set()
    for c in sorted(contents):
        blocks = {}
        for q, column in weighted_columns(len(c), c):
            blocks.setdefault(q, []).append(column)
        for q, block in blocks.items():
            positions = sorted({pos for column in block for pos in column})
            rows = [[column.get(pos, 0) for column in block] for pos in positions]
            key = block_key(c, q)
            assert products._BLOCK_SPANS[key][0] == integer_rank(rows, len(block)), (c, q)
            keys.add(key)
    assert keys == products._BLOCK_SPANS.keys()


def test_a_standard_column_emitted_twice_fails_verify(monkeypatch, cold_engine):
    # (1, 1) has x1*x2 at weight 0 and u12 at weight 1; emitting x1*x2 in
    # place of u12 leaves two equal leads at weight 0 and none at weight 1
    real = products._standard_columns

    def twice(*args):
        columns = real(*args)
        return columns[:1] * 2 + columns[2:]

    monkeypatch.setattr(products, "_standard_columns", twice)
    record = verify_component(2, (1, 1))
    assert (record.dim_kernel, record.dim_span, record.verdict) == (2, 1, False)
    clear_engine()
    result = CliRunner().invoke(main, ["verify", "--d", "2", "--max-degree", "2"])
    assert result.exit_code == 1
    failed = [c for c in json.loads(result.stdout)["components"] if not c["verdict"]]
    assert [(c["n"], c["dim_kernel"], c["dim_span"]) for c in failed] == [([1, 1], 2, 1)]


def relabelled(c, sigma):
    """Position map of content c onto c o sigma: b goes to (b_sigma(0), b_sigma(1), ...)."""
    radix = radix_of(c)
    strides = component_strides(len(c), [c[i] for i in sigma])
    return lambda pos: sum(pos // radix[i][0] % radix[i][1] * s for i, s in zip(sigma, strides))


def test_blocks_of_a_content_are_those_of_its_sorted_content():
    """Relabelling the indices through sigma, sorted(c) = c o sigma, maps every
    monomial weight block of c entry for entry onto that of sorted(c), so both
    have the same kernel nullities, span rank and product count."""
    contents = {
        component_content(d, n)
        for d, m in ((3, 9), (4, 7), (5, 6))
        for n in enumerate_multidegrees(d, m)
    }
    unsorted = 0
    for c in sorted(contents):
        key = tuple(sorted(c))
        numbers, blocks, images = [], [], []
        for content in (c, key):
            clear_engine()
            nullities = [(q, len(v)) for q, _, v in kernel_blocks(len(content), content)]
            numbers.append((nullities, products._span_rank(len(content), content)))
            blocks.append(dict(enumerate(kernel.positions_by_weight(content))))
            images.append(DeltaImages(len(content), content))
        assert numbers[0] == numbers[1], c
        move = relabelled(c, sorted(range(len(c)), key=c.__getitem__))
        for q, source in blocks[0].items():
            target = blocks[0].get(q - 1, [])
            source_key, target_key = blocks[1][q], blocks[1].get(q - 1, [])
            assert sorted(map(move, source)) == source_key, (c, q)
            assert sorted(map(move, target)) == target_key, (c, q)
            rows = kernel.block_rows(images[0], source, target)
            rows_key = kernel.block_rows(images[1], source_key, target_key)
            row_of = {pos: i for i, pos in enumerate(target_key)}
            column_of = {pos: j for j, pos in enumerate(source_key)}
            for t, row in zip(target, rows):
                moved = rows_key[row_of[move(t)]]
                assert row == [moved[column_of[move(s)]] for s in source], (c, q)
        unsorted += key != c
    assert (len(contents), unsorted) == (171, 109)


def test_an_unsorted_content_is_computed_through_its_sorted_one(monkeypatch, cold_engine):
    """Each route is called with the sorted content alone: no state is passed
    between routes.  The Kostka oracle also runs on the component's own content."""
    calls = []

    def record(name, real):
        def recorded(*args, **kwargs):
            calls.append((name, args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(products, name, recorded)

    record("kernel_dimension", kernel.kernel_dimension)
    record("_span_rank", products._span_rank)
    record("kostka_numbers", kostka_numbers)
    report = verify_component(3, (3, 1, 2))
    assert calls == [
        ("kernel_dimension", (3, (1, 2, 3)), {}),
        ("_span_rank", (3, (1, 2, 3)), {}),
        ("kostka_numbers", ((1, 2, 3),), {}),
        ("kostka_numbers", ((3, 1, 2),), {}),
    ]
    assert products._content_dimensions.cache_info().currsize == 2
    assert replace(verify_component(3, (1, 2, 3)), n=report.n, seconds=0) == replace(
        report, seconds=0
    )
    assert len(calls) == 4


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


class OffByOneLowering(LoweringImages):
    """The lowering map with the coefficient a_i + 1 in place of a_i."""

    __slots__ = ()

    def __missing__(self, pos):
        image = self[pos] = [(t, a + 1) for t, a in super().__missing__(pos)]
        return image


def drop_rungs(monkeypatch):
    real = tensor.integer_delta

    def dropping(images, vector):
        return {} if isinstance(images, LoweringImages) else real(images, vector)

    monkeypatch.setattr(tensor, "integer_delta", dropping)


def never_end(monkeypatch):
    real = tensor.integer_delta

    def endless(images, vector):
        image = real(images, vector)
        if isinstance(images, LoweringImages) and not image:
            return dict(vector)
        return image

    monkeypatch.setattr(tensor, "integer_delta", endless)


def clear_crosscheck():
    tensor._content_audit.cache_clear()
    tensor.standard_hwv_columns.cache_clear()


@pytest.fixture
def cold_crosscheck():
    """Empty crosscheck's caches, so that a corrupted layer actually runs."""
    clear_crosscheck()
    yield
    clear_crosscheck()


@pytest.mark.parametrize("fault", ["lowering off by one", "rungs dropped", "no last rung"])
def test_a_broken_ladder_fails_crosscheck(monkeypatch, cold_crosscheck, fault):
    # (1, 1) holds x1*x2, whose string has the rungs x1*x2, x1*y2 + y1*x2, 2*y1*y2
    if fault == "rungs dropped":
        drop_rungs(monkeypatch)
    elif fault == "no last rung":
        never_end(monkeypatch)
    else:
        monkeypatch.setattr(tensor, "LoweringImages", OffByOneLowering)
    row = tensor.crosscheck_component(2, (1, 1))
    assert not row["chains_ok"] and not row["ok"]
    assert all(check["ok"] for check in row["checks"])
    assert report.run_crosscheck(SweepConfig(d=2, tensor_crosscheck_limit=2)).violations >= 1
    result = CliRunner().invoke(main, ["crosscheck", "--d", "2", "--limit", "2"])
    assert result.exit_code == 1
    monkeypatch.undo()
    clear_crosscheck()
    assert tensor.crosscheck_component(2, (1, 1))["chains_ok"]


def plus_pairs(monkeypatch):
    real = tensor.times_u

    def plus(column, si, sj):  # x (x) y + y (x) x, which Delta does not kill
        return {mask: abs(c) for mask, c in real(column, si, sj).items()}

    monkeypatch.setattr(tensor, "times_u", plus)


def repeat_tableaux(monkeypatch):
    real = tensor.standard_tableaux

    def repeated(shape):
        tableaux = real(shape)
        return [tableaux[0]] * len(tableaux)

    monkeypatch.setattr(tensor, "standard_tableaux", repeated)


def drop_projected_term(monkeypatch):
    real = tensor.project

    def dropping(column, strides):
        return dict(list(real(column, strides).items())[1:])

    monkeypatch.setattr(tensor, "project", dropping)


TENSOR_FAULTS = {
    "pairs not constant": (plus_pairs, "delta_constant"),
    "columns repeated": (repeat_tableaux, "independent"),
    "projection drops a term": (drop_projected_term, "projection_equivariant"),
}


@pytest.mark.parametrize("fault", TENSOR_FAULTS)
def test_a_broken_tensor_side_fails_crosscheck(monkeypatch, cold_crosscheck, fault):
    # (2, 1) has the shape (2, 1), whose two standard columns u13*x2 and
    # u12*x3 both project onto u12*x2
    corrupt, field = TENSOR_FAULTS[fault]
    corrupt(monkeypatch)
    row = tensor.crosscheck_component(2, (2, 1))
    assert row["chains_ok"] and not row["ok"]
    (check,) = [check for check in row["checks"] if check["shape"] == [2, 1]]
    assert check[field] is False and not check["ok"]
    assert report.run_crosscheck(SweepConfig(d=2, tensor_crosscheck_limit=3)).violations >= 1
    result = CliRunner().invoke(main, ["crosscheck", "--d", "2", "--limit", "3"])
    assert result.exit_code == 1
    monkeypatch.undo()
    clear_crosscheck()
    assert tensor.crosscheck_component(2, (2, 1))["ok"]


def test_crosscheck_rows_share_nothing_mutable(cold_crosscheck):
    # (1, 2) and (2, 1) read one cached audit of the content (1, 2)
    first = tensor.crosscheck_component(2, (1, 2))
    expected = copy.deepcopy(first["checks"])
    first["checks"][1]["shape"].append(0)
    first["checks"][1]["ok"] = False
    first["checks"].pop(0)
    assert tensor.crosscheck_component(2, (2, 1))["checks"] == expected
