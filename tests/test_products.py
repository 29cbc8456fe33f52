"""Generators, product enumeration, spans, Plucker, and decomposition."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from weitzlab import products
from weitzlab.derivation import delta, is_constant
from weitzlab.kernel import kernel_basis, weight_block_sizes
from weitzlab.poly import (
    Polynomial,
    component_basis,
    component_content,
    format_poly,
    parse_poly,
)
from weitzlab.products import (
    ConjectureViolation,
    NotHomogeneous,
    NotInKernel,
    ProductTerm,
    _standard_columns,
    decompose,
    enumerate_products,
    expand,
    make_u,
    pluecker,
    span_dimension,
    verify_component,
)
from weitzlab.report import enumerate_multidegrees
from weitzlab.tableaux import kostka_numbers

from oracles import is_standard_product, products_oracle, random_rational, span_dim_of_polys


def test_make_u_examples():
    u12 = make_u(2, 1, 2)
    assert u12 == Polynomial.x(1, 2) * Polynomial.y(2, 2) - Polynomial.x(2, 2) * Polynomial.y(1, 2)
    assert make_u(2, 2, 1) == -u12
    with pytest.raises(ValueError):
        make_u(3, 2, 2)
    with pytest.raises(ValueError):
        make_u(2, 1, 3)


def test_all_determinants_are_constants_up_to_d6():
    for d in range(2, 7):
        for i, j in combinations(range(1, d + 1), 2):
            assert delta(make_u(d, i, j)).is_zero


def test_enumerate_products_examples():
    terms = enumerate_products(2, (1, 1))
    assert [t.label() for t in terms] == ["x1*x2", "u12"]
    assert terms[0] == ProductTerm(p=(1, 1), q=(0,))
    assert terms[1] == ProductTerm(p=(0, 0), q=(1,))

    assert enumerate_products(3, (0, 0, 0)) == (ProductTerm((0, 0, 0), (0, 0, 0)),)

    # golden value from the verified first run, cross-checked by the
    # brute-force oracle below
    labels = [t.label() for t in enumerate_products(3, (1, 1, 2))]
    assert labels == ["x1*x2*x3^2", "x1*x3*u23", "x2*x3*u13", "u13*u23", "x3^2*u12"]


def test_enumerate_products_complete_and_duplicate_free():
    for d, bound in ((2, 6), (3, 4), (4, 3)):
        for n in enumerate_multidegrees(d, bound):
            terms = enumerate_products(d, n)
            as_pairs = {(t.p, t.q) for t in terms}
            assert len(as_pairs) == len(terms)
            assert as_pairs == products_oracle(d, n)
            assert all(t.multidegree() == n for t in terms)


def test_expand_examples():
    d = 3
    t = ProductTerm(p=(1, 0, 0), q=(0, 0, 1))
    assert expand(t) == Polynomial.x(1, d) * make_u(d, 2, 3)

    assert expand(ProductTerm((0, 0), (0,))) == Polynomial.one(2)

    sq = expand(ProductTerm((0, 0), (2,)))
    x1, x2 = Polynomial.x(1, 2), Polynomial.x(2, 2)
    y1, y2 = Polynomial.y(1, 2), Polynomial.y(2, 2)
    assert sq == x1**2 * y2**2 - 2 * x1 * x2 * y1 * y2 + x2**2 * y1**2


@pytest.mark.parametrize(
    "term",
    [
        ProductTerm((0, 0), (1, 2)),  # a second pair exponent in d=2
        ProductTerm((0, 0, 0), (1,)),  # two pair exponents missing in d=3
        ProductTerm((-1, 0), (1,)),
        ProductTerm((0, 1), (-1,)),
    ],
    ids=["long-q", "short-q", "negative-p", "negative-q"],
)
def test_malformed_product_terms_are_rejected(term):
    for method in (term.multidegree, term.label, lambda: expand(term)):
        with pytest.raises(ValueError, match="malformed product exponents"):
            method()


def test_expansions_are_constants():
    for n in enumerate_multidegrees(3, 4):
        for t in enumerate_products(3, n):
            assert is_constant(expand(t))


def test_span_dimension_examples():
    assert span_dimension(2, (1, 1)) == 2
    for k in range(0, 5):
        assert span_dimension(1, (k,)) == 1
    # Plucker collapse: 10 products, rank 6
    terms = enumerate_products(4, (1, 1, 1, 1))
    assert len(terms) == 10
    assert span_dimension(4, (1, 1, 1, 1)) == 6
    oracle = span_dim_of_polys(
        [expand(t) for t in terms], component_basis(4, (1, 1, 1, 1))
    )
    assert oracle == 6


def test_pluecker_identities():
    assert pluecker(4, 1, 2, 3, 4).is_zero
    for quad in combinations(range(1, 7), 4):
        assert pluecker(6, *quad).is_zero
    with pytest.raises(ValueError):
        pluecker(4, 2, 1, 3, 4)
    with pytest.raises(ValueError):
        pluecker(3, 1, 2, 3, 4)
    # the three matching products are distinct and nonzero
    d = 4
    m1 = make_u(d, 1, 2) * make_u(d, 3, 4)
    m2 = make_u(d, 1, 3) * make_u(d, 2, 4)
    m3 = make_u(d, 1, 4) * make_u(d, 2, 3)
    assert not m1.is_zero and not m2.is_zero and not m3.is_zero
    assert m1 != m2 and m1 != m3 and m2 != m3


def test_decompose_product_is_itself():
    f = Polynomial.x(1, 2) * Polynomial.x(2, 2)
    cert = decompose(f)
    assert cert == {ProductTerm((1, 1), (0,)): Fraction(1)}


def test_decompose_pluecker_pair():
    d = 4
    f = make_u(d, 1, 2) * make_u(d, 3, 4) - make_u(d, 1, 3) * make_u(d, 2, 4)
    cert = decompose(f)
    rebuilt = Polynomial.zero(d)
    for t, c in cert.items():
        rebuilt = rebuilt + expand(t) * c
    assert rebuilt == f
    # by the Plucker identity f = -u14*u23, a single product
    assert f == -make_u(d, 1, 4) * make_u(d, 2, 3)


def test_decompose_round_trip_random_kernel_elements():
    rng = random.Random(41)
    for d, n in [(2, (1, 1)), (2, (2, 2)), (3, (1, 1, 1)), (3, (1, 1, 2)), (4, (1, 1, 1, 1))]:
        basis = kernel_basis(d, n).vectors
        for _ in range(10):
            f = Polynomial.zero(d)
            for v in basis:
                f = f + v * random_rational(rng, 4)
            cert = decompose(f)
            rebuilt = Polynomial.zero(d)
            for t, c in cert.items():
                rebuilt = rebuilt + expand(t) * c
            assert rebuilt == f


def test_decompose_rejections():
    with pytest.raises(NotInKernel) as err:
        decompose(Polynomial.y(1, 1))
    assert err.value.image == Polynomial.x(1, 1)

    mixed = Polynomial.x(1, 1) + Polynomial.x(1, 1) ** 2
    with pytest.raises(NotHomogeneous):
        decompose(mixed)

    assert decompose(Polynomial.zero(2)) == {}

    # mixed and non-constant at once: not being a constant is named first
    with pytest.raises(NotInKernel) as err:
        decompose(parse_poly("y1 + x1^2", 1))
    assert err.value.image == Polynomial.x(1, 1)


def test_decompose_checks_every_term_against_the_first_terms_multidegree():
    # under (1, 1)'s strides x1^2 lands on position 0, the lead of x1*x2,
    # so only the per-term multidegree check keeps it out of a certificate
    d = 2
    u12, square = make_u(d, 1, 2), Polynomial.x(1, d) ** 2
    for f in (u12 + square, square + u12):
        with pytest.raises(NotHomogeneous):
            decompose(f)
    y1, x1_squared = Polynomial.y(1, 1), Polynomial.x(1, 1) ** 2
    for f in (y1 + x1_squared, x1_squared + y1):
        with pytest.raises(NotInKernel) as err:
            decompose(f)
        assert err.value.image == Polynomial.x(1, 1)


def test_decompose_round_trip_through_the_parse_memo():
    # the second parse of each text reads every monomial from the memo
    rng = random.Random(27)
    d = 4
    for n in enumerate_multidegrees(d, 6):
        if sum(n) < 5:
            continue
        terms = enumerate_products(d, n)
        f = Polynomial.zero(d)
        while f.is_zero:  # a Pluecker combination can cancel to zero
            for t in rng.sample(terms, rng.randint(1, min(4, len(terms)))):
                f = f + expand(t) * random_rational(rng)
        text = format_poly(f)
        first, second = (decompose(parse_poly(text, d)) for _ in range(2))
        assert list(first.items()) == list(second.items()), n
        assert all(type(c) is Fraction for c in second.values()), n
        rebuilt = Polynomial.zero(d)
        for t, c in second.items():
            rebuilt = rebuilt + expand(t) * c
        assert rebuilt == f, n


def test_product_term_is_the_tuple_p_q():
    t = ProductTerm(p=(1, 0, 0), q=(0, 0, 2))
    assert t == ((1, 0, 0), (0, 0, 2)) and hash(t) == hash(((1, 0, 0), (0, 0, 2)))
    assert {t: 1}[((1, 0, 0), (0, 0, 2))] == 1
    assert (t.p, t.q) == ((1, 0, 0), (0, 0, 2))
    assert repr(t) == "ProductTerm(p=(1, 0, 0), q=(0, 0, 2))"
    assert t.d == 3
    assert t.label() == "x1*u23^2"
    assert t.multidegree() == (1, 2, 2)
    for name in ("p", "q", "extra"):
        with pytest.raises(AttributeError):
            setattr(t, name, (0, 0, 0))
    assert t == ProductTerm((1, 0, 0), (0, 0, 2))


def test_standard_products_number_the_largest_weight_block():
    # the kernel nullities sum to |W_{|c|//2}|, since the block sizes are
    # symmetric and unimodal; cli refuses decompose by that count
    contents = {tuple(sorted(k for k in n if k)) for n in enumerate_multidegrees(8, 8)}
    contents.discard(())
    assert len(contents) == 66
    for c in sorted(contents):
        assert len(products._component_solver(len(c), c)) == max(weight_block_sizes(c)), c


def test_decompose_untouched_coefficient_is_a_violation(monkeypatch):
    # with u12 expanding to nothing, no product touches x1*y2 or x2*y1
    # in the (1, 1) component of d=2 only u12 multiplies by a u
    monkeypatch.setattr(products, "times_u", lambda column, si, sj: {})
    products._component_solver.cache_clear()
    try:
        with pytest.raises(ConjectureViolation):
            decompose(make_u(2, 1, 2))
    finally:
        products._component_solver.cache_clear()


def test_decompose_shared_lead_is_an_assertion(monkeypatch):
    # with u12 expanding to x1*x2, both products of (1, 1) lead at x1*x2
    monkeypatch.setattr(products, "times_u", lambda column, si, sj: dict(column))
    products._component_solver.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"^products x1\*x2 and u12 share a lead$"):
            decompose(make_u(2, 1, 2))
    finally:
        products._component_solver.cache_clear()


def test_decompose_checks_standard_products_are_constants(monkeypatch):
    # keeping only the positive term of column * u12 leaves x1*y2 alone
    real = products.times_u

    def corrupt(column, si, sj):
        return {pos: c for pos, c in real(column, si, sj).items() if c > 0}

    monkeypatch.setattr(products, "times_u", corrupt)
    products._component_solver.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"^product u12 is not a constant$"):
            decompose(make_u(2, 1, 2))
    finally:
        products._component_solver.cache_clear()


def test_decompose_success_never_computes_delta(monkeypatch):
    def refuse(f):
        raise AssertionError("delta called on the success path")

    monkeypatch.setattr(products, "delta", refuse)
    d = 4
    f = make_u(d, 1, 2) * make_u(d, 3, 4) - make_u(d, 1, 3) * make_u(d, 2, 4)
    f = f + Polynomial.x(1, d) * Polynomial.x(2, d) * make_u(d, 3, 4)
    cert = decompose(f)
    rebuilt = Polynomial.zero(d)
    for t, c in cert.items():
        rebuilt = rebuilt + expand(t) * c
    assert rebuilt == f


def test_decompose_certificate_prefers_early_products():
    # x3^2*u12 is not standard (x3 lies above b = 2), and by
    # x1*x3*u23 - x2*x3*u13 + x3^2*u12 = 0 its certificate sits on the
    # two standard products, which come earlier in enumeration order
    d = 3
    f = expand(ProductTerm((0, 0, 2), (1, 0, 0)))  # x3^2*u12
    cert = decompose(f)
    rebuilt = Polynomial.zero(d)
    for t, c in cert.items():
        rebuilt = rebuilt + expand(t) * c
    assert rebuilt == f
    labels = sorted(t.label() for t in cert)
    assert labels == ["x1*x3*u23", "x2*x3*u13"]


TRIANGULAR_TIERS = ((3, 14), (4, 10), (6, 9), (8, 10))


def test_standard_products_are_triangular():
    # standard monomial theory: as many standard products as two-row
    # tableaux, each leading with coefficient +-1 at a position of its
    # own; the y_i-weighted order picks the same leads as position order
    for d, bound in TRIANGULAR_TIERS:
        contents = {component_content(d, n) for n in enumerate_multidegrees(d, bound)}
        for c in sorted(contents):
            k = len(c)
            ys = product(*(range(e + 1) for e in c))
            weights = [sum(e * (k - i) for i, e in enumerate(b)) for b in ys]
            columns = [column for _, _, column in _standard_columns(k, c)]
            assert len(columns) == sum(kostka_numbers(c)), c
            leads = [max(column) for column in columns]
            assert len(set(leads)) == len(leads), c
            assert all(column[lead] in (1, -1) for lead, column in zip(leads, columns)), c
            weighted = [max(column, key=lambda pos: (weights[pos], pos)) for column in columns]
            assert weighted == leads, c


def test_standard_products_are_their_own_certificates():
    for d in range(1, 5):
        for n in enumerate_multidegrees(d, 6):
            standard = [t for t in enumerate_products(d, n) if is_standard_product(t)]
            walked = {ProductTerm(p, q) for q, p, _ in _standard_columns(d, n)}
            assert set(standard) == walked, n
            for t in standard:
                assert decompose(expand(t)) == {t: 1}, t.label()


def test_verify_component_examples():
    report = verify_component(2, (1, 1))
    assert (report.dim_kernel, report.dim_span, report.dim_tableau_oracle) == (2, 2, 2)
    assert report.verdict

    for k in range(0, 5):
        r = verify_component(1, (k,))
        assert (r.dim_kernel, r.dim_span, r.dim_tableau_oracle) == (1, 1, 1)
        assert r.verdict

    r4 = verify_component(4, (1, 1, 1, 1))
    assert r4.verdict
    assert r4.dim_span < r4.product_count  # spanning despite dependence


def test_verify_component_d3_111_resolved_dimension():
    r = verify_component(3, (1, 1, 1))
    assert (r.dim_kernel, r.dim_span, r.dim_tableau_oracle) == (3, 3, 3)
    assert r.product_count == 4


@pytest.mark.parametrize(
    "d,n,message",
    [
        (3, (1, 2), "multidegree length must equal d"),
        (2, (1, 2, 0), "multidegree length must equal d"),
        (2, (1, -1), "multidegree entries must be nonnegative"),
        (3, (0, -1, 2), "multidegree entries must be nonnegative"),
    ],
)
def test_verify_component_rejects_malformed_multidegree(d, n, message, monkeypatch):
    # the content's numbers are cached by now; the check must not ride on them
    verify_component(2, (1, 2))
    table = products._content_dimensions
    size = table.cache_info().currsize
    # an invalid content is refused before any route runs, and never stored
    routes = []
    monkeypatch.setattr(products, "kernel_dimension", lambda *args: routes.append(args))
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_component(d, n)
        assert table.cache_info().currsize == size
    assert routes == []
