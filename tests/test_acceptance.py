"""Acceptance criteria, one test per criterion, one printed line each.

The sweep box is d in {1, 2, 3, 4} with |n| <= 6, widened to |n| <= 8 for
d <= 2.  Everything is exact: a single disagreement anywhere is a hard
failure.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import random
import time
from fractions import Fraction
from itertools import combinations

from click.testing import CliRunner

from weitzlab.cli import main as cli_main
from weitzlab.derivation import delta, exp_action
from weitzlab.kernel import DeltaImages, integer_delta, kernel_basis
from weitzlab.poly import Polynomial, component_content
from weitzlab.products import (
    decompose,
    enumerate_products,
    expand,
    make_u,
    pluecker,
    span_dimension,
    verify_component,
)
from weitzlab.report import enumerate_multidegrees, strip_timing
from weitzlab.tableaux import (
    dimension_identity_check,
    kostka,
    standard_tableau_count,
    standard_tableaux,
    two_row_partitions,
)
from weitzlab.tensor import _chains_ok, position_strides, project, standard_hwv_columns

from oracles import build_chain, delta_star, random_polynomial, random_rational, rank_oracle

SWEEP_BOXES = ((1, 8), (2, 8), (3, 6), (4, 6))


@functools.cache
def sweep_components():
    return [
        (d, n) for d, bound in SWEEP_BOXES for n in enumerate_multidegrees(d, bound)
    ]


def emit(line):
    print(f"\n{line}", flush=True)


def test_criterion_1_verification_sweep():
    """Kernel dim = span dim = Kostka sum on every component in the box."""
    start = time.perf_counter()
    failures = []
    for d, n in sweep_components():
        report = verify_component(d, n)
        if not report.verdict:
            failures.append(report)
    elapsed = time.perf_counter() - start
    ok = not failures
    emit(
        f"{'PASS' if ok else 'FAIL'} criterion 1: Nowicki sweep over "
        f"{len(sweep_components())} components, {len(failures)} disagreement(s), "
        f"{elapsed:.1f}s"
    )
    assert ok, failures


def test_criterion_2_derivation_laws():
    rng = random.Random(2024)
    pairs = 0
    for _ in range(1000):
        f = random_polynomial(rng, rng.randint(1, 3), max_terms=4, max_exp=3)
        g = random_polynomial(rng, f.d, max_terms=4, max_exp=3)
        assert delta(f * g) == delta(f) * g + f * delta(g)
        assert delta_star(f * g) == delta_star(f) * g + f * delta_star(g)
        pairs += 1

    determinant_count = 0
    for d in range(2, 7):
        for i, j in combinations(range(1, d + 1), 2):
            assert delta(make_u(d, i, j)).is_zero
            determinant_count += 1

    for _ in range(200):
        f = random_polynomial(rng, 2, max_terms=4, max_exp=2)
        s, t = random_rational(rng), random_rational(rng)
        assert exp_action(exp_action(f, s), t) == exp_action(f, s + t)

    fixed = 0
    for d, n in [(2, (1, 1)), (2, (2, 2)), (3, (1, 1, 1)), (3, (2, 1, 1)), (4, (1, 1, 1, 1))]:
        for v in kernel_basis(d, n).vectors:
            for _ in range(3):
                assert exp_action(v, random_rational(rng)) == v
                fixed += 1

    emit(
        f"PASS criterion 2: Leibniz on {pairs} pairs (delta and delta_star), "
        f"{determinant_count} determinants annihilated, group law x200, "
        f"{fixed} fixed-point checks"
    )


def test_criterion_3_tensor_oracle():
    checked = 0
    for d in (1, 2, 3):
        for n in enumerate_multidegrees(d, 8):
            total = sum(n)
            images = DeltaImages(d, n)
            words = DeltaImages(total, (1,) * total)  # Delta on V^(x)total
            strides = position_strides(d, n)
            for shape in two_row_partitions(total):
                expected = standard_tableau_count(shape)
                hwv = standard_hwv_columns(total, shape)
                assert hwv.hwv_rank == expected
                basis = hwv.columns
                assert len(basis) == expected
                for column in basis:
                    image = integer_delta(words, column)
                    assert not image
                    assert project(image, strides) == integer_delta(
                        images, project(column, strides)
                    )
                masks = sorted({mask for column in basis for mask in column})
                coords = [[column.get(m, 0) for m in masks] for column in basis]
                assert rank_oracle(coords) == len(basis)
                checked += 1
    emit(
        f"PASS criterion 3: tensor oracle on {checked} (content, shape) cells: "
        "weight-block kernel rank = tableau count, bases independent and "
        "constant, projection equivariant"
    )


def test_criterion_4_ladders():
    """The integer ladder check, and the Fraction reference on the same vectors.

    Every sorted content c of the box is itself a component (len(c), c)
    of the box, so the reference walks every vector the check does.
    """
    contents = {tuple(sorted(component_content(d, n))) for d, n in sweep_components()}
    for c in contents:
        assert _chains_ok(c), c
    chains = 0
    for d, n in sweep_components():
        for w0 in kernel_basis(d, n).vectors:  # kernel_blocks' vectors as Polynomials
            p, q = w0.biweight()
            chain = build_chain(w0)  # validates rung count and termination
            assert len(chain.ladder) == p - q + 1
            assert all(not w.is_zero for w in chain.ladder)
            assert delta_star(chain.ladder[-1]).is_zero
            for i in range(1, len(chain.ladder)):
                c = chain.raising_scalars[i - 1]
                assert c == i * (p - q - i + 1)
                assert delta(chain.ladder[i]) == c * chain.ladder[i - 1]
            chains += 1
    emit(
        f"PASS criterion 4: integer ladder check on {len(contents)} sorted "
        f"contents; {chains} Fraction reference ladders with exact rung counts "
        "and raising scalars i*(p-q-i+1)"
    )


def test_criterion_5_pluecker():
    quads = list(combinations(range(1, 7), 4))
    assert len(quads) == 15
    for quad in quads:
        assert pluecker(6, *quad).is_zero
    n = (1, 1, 1, 1)
    count = len(enumerate_products(4, n))
    span = span_dimension(4, n)
    assert span < count
    assert verify_component(4, n).verdict
    emit(
        f"PASS criterion 5: all 15 Plucker relations vanish; d=4 n=(1,1,1,1) "
        f"span {span} < {count} products yet verdict holds"
    )


def test_criterion_6_decomposition_round_trip():
    rng = random.Random(606)
    start = time.perf_counter()
    total = 0
    for d, n in sweep_components():
        basis = kernel_basis(d, n).vectors
        for _ in range(100):
            f = Polynomial.zero(d)
            for v in basis:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if c:
                    f = f + v * c
            certificate = decompose(f)
            rebuilt = Polynomial.zero(d)
            for t, c in certificate.items():
                rebuilt = rebuilt + expand(t) * c
            assert rebuilt == f
            total += 1

    result = CliRunner().invoke(cli_main, ["decompose", "--d", "1"], input="y1\n")
    assert result.exit_code == 1
    assert "delta(f) = x1" in result.output

    emit(
        f"PASS criterion 6: {total} random kernel elements decomposed and "
        f"re-expanded exactly in {time.perf_counter() - start:.1f}s; "
        "y1 rejected with its delta image"
    )


def test_criterion_7_combinatorial_self_consistency():
    identity_checks = 0
    for d in (1, 2, 3):
        for n in enumerate_multidegrees(d, 8):
            assert dimension_identity_check(n)
            identity_checks += 1
    for n in enumerate_multidegrees(4, 6):
        assert dimension_identity_check(n)
        identity_checks += 1

    closed_form = 0
    for total in range(0, 11):
        for shape in two_row_partitions(total):
            assert standard_tableau_count(shape) == len(standard_tableaux(shape))
            closed_form += 1

    from itertools import permutations

    symmetry = 0
    for d in (2, 3):
        for n in enumerate_multidegrees(d, 6):
            for shape in two_row_partitions(sum(n)):
                reference = kostka(shape, n)
                for perm in set(permutations(n)):
                    assert kostka(shape, perm) == reference
                symmetry += 1

    emit(
        f"PASS criterion 7: dimension identity on {identity_checks} contents, "
        f"closed form vs enumeration on {closed_form} shapes, Kostka symmetry "
        f"on {symmetry} cells"
    )


def test_criterion_8_report_determinism(tmp_path):
    runner = CliRunner()
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        result = runner.invoke(
            cli_main,
            ["verify", "--d", "3", "--max-degree", "5", "--format", "json",
             "--out", str(path)],
        )
        assert result.exit_code == 0

    import json

    reports = [json.loads(path.read_text()) for path in paths]
    stripped = [
        json.dumps(strip_timing(r), indent=2, sort_keys=True) for r in reports
    ]
    assert stripped[0].encode() == stripped[1].encode()
    assert reports[0]["content_digest"] == reports[1]["content_digest"]
    emit(
        "PASS criterion 8: two verify --d 3 --max-degree 5 runs byte-identical "
        "after stripping timing fields"
    )
