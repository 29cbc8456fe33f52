"""Independent oracles for the test suite.

Everything here is deliberately naive and shares no code path with the
package: plain rational Gauss-Jordan instead of fraction-free elimination,
generate-and-filter enumerations instead of recursive construction, and
the sl2 character identity instead of counting tableaux.
Expected values asserted in the tests are computed with these.  There
are two exceptions.  product_blocks_oracle, the all-product reference
for the standard-product routes, multiplies the products out with the
package's enumerate_products and expand, which the tests check against
products_oracle and expand_oracle.  full_block_nullity, the reference
for the kernel route's peeled blocks, eliminates a whole weight block as
that route did before it peeled, on the package's block_rows and
integer_rank, which the tests check against delta_matrix and
rank_oracle.  The sl2 ladders are the Fraction
reference for the package's integer ladder check: they lower with
delta_star here and raise with the package's Polynomial delta.  The
tensor words at the end take their tableaux, in order, from
weitzlab.tableaux.standard_tableaux.  The report references at the
end write a report's digest and CSV from its to_dict() records, as the
package wrote them before it wrote them from the records' fields.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations, product

from weitzlab.derivation import delta, is_constant
from weitzlab.kernel import DeltaImages, block_rows, positions_by_weight
from weitzlab.linalg import integer_rank
from weitzlab.poly import Monomial, PolyParseError, Polynomial, component_basis
from weitzlab.products import ComponentReport, enumerate_products, expand
from weitzlab.report import strip_timing
from weitzlab.tableaux import standard_tableaux


# ------------------------------------------------------------ linear algebra


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by textbook rational elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    m = len(rows)
    cols = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank_oracle(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[1])


def nullspace_oracle(rows: list[list[Fraction]], cols: int) -> list[list[Fraction]]:
    """Kernel basis with the standard free-column parametrization."""
    if not rows:
        rows = [[Fraction(0)] * cols]
    reduced, pivots = rref(rows)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def bareiss_oracle(rows, pivot_limit):
    """Bareiss single-step reduction to row echelon form; returns the pivot columns.

    The reference that the package's reducer must match pivot for pivot.
    Pivots are searched only in columns 0..pivot_limit-1 (first nonzero
    row at or below the current one), but eliminations update full rows,
    so callers may carry extra bookkeeping columns on the right.  Every
    remaining row is updated at every step, which is what keeps the
    divisions by the previous pivot exact.
    """
    m = len(rows)
    pivots = []
    prev = 1
    r = 0
    for c in range(pivot_limit):
        if r == m:
            break
        pr = -1
        for i in range(r, m):
            if rows[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        rr = rows[r]
        piv = rr[c]
        width = len(rr)
        for i in range(r + 1, m):
            ri = rows[i]
            vi = ri[c]
            for j in range(c + 1, width):
                ri[j] = (piv * ri[j] - vi * rr[j]) // prev
            ri[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return pivots


def span_dim_of_polys(polys, basis_monomials) -> int:
    index = {m: i for i, m in enumerate(basis_monomials)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(basis_monomials)
        for m, c in p.terms():
            row[index[m]] = c
        rows.append(row)
    return rank_oracle(rows) if rows else 0


def same_span(vectors_a, vectors_b) -> bool:
    """Do two lists of rational vectors span the same space?"""
    if not vectors_a and not vectors_b:
        return True
    width = len(vectors_a[0]) if vectors_a else len(vectors_b[0])
    ra = rank_oracle(vectors_a) if vectors_a else 0
    rb = rank_oracle(vectors_b) if vectors_b else 0
    rab = rank_oracle(vectors_a + vectors_b)
    return ra == rb == rab and width is not None


# ------------------------------------------------------------- combinatorics


def kostka_oracle(shape: tuple[int, int], content: tuple[int, ...]) -> int:
    """Count semistandard fillings by brute force over entry assignments."""
    l1, l2 = shape
    d = len(content)
    count = 0
    for row1 in product(range(1, d + 1), repeat=l1):
        if any(row1[i] > row1[i + 1] for i in range(l1 - 1)):
            continue
        for row2 in product(range(1, d + 1), repeat=l2):
            if any(row2[i] > row2[i + 1] for i in range(l2 - 1)):
                continue
            if any(row1[c] >= row2[c] for c in range(l2)):
                continue
            used = [0] * d
            for e in row1 + row2:
                used[e - 1] += 1
            if tuple(used) == tuple(content):
                count += 1
    return count


def kostka_enumeration_oracle(shape: tuple[int, int], content: tuple[int, ...]) -> int:
    """Count semistandard fillings over all C(|n|, l2) position subsets.

    Pick the multiset of the second row, sort both rows, check the column
    condition.
    """
    l1, l2 = shape
    letters = []
    for i, k in enumerate(content, start=1):
        letters.extend([i] * k)
    count = 0
    seen = set()
    for picks in combinations(range(len(letters)), l2):
        row2 = tuple(letters[p] for p in picks)
        if row2 in seen:
            continue
        seen.add(row2)
        remaining = list(letters)
        for p in reversed(picks):
            del remaining[p]
        row1 = tuple(remaining)
        # letters is sorted, so both rows weakly increase; only the strict
        # column condition can fail
        if all(row1[c] < row2[c] for c in range(l2)):
            count += 1
    return count


def sl2_kostka(shape: tuple[int, int], content: tuple[int, ...]) -> int:
    """K_{(N-k,k),n} = c_k - c_{k-1} with c_k = [t^k] prod_i (1 + ... + t^{n_i}).

    The multiplicity of the sl2 irreducible of highest weight N - 2k in a
    tensor product of irreducibles of highest weights n_i: no tableaux.
    """
    k = shape[1]
    coeffs = [1]
    for n_i in content:
        step = [0] * (len(coeffs) + n_i)
        for j, c in enumerate(coeffs):
            for e in range(n_i + 1):
                step[j + e] += c
        coeffs = step
    return coeffs[k] - (coeffs[k - 1] if k else 0)


def standard_count_oracle(shape: tuple[int, int]) -> int:
    """Count standard fillings by filtering all permutation placements."""
    from itertools import permutations

    l1, l2 = shape
    n = l1 + l2
    count = 0
    for perm in permutations(range(1, n + 1)):
        row1, row2 = perm[:l1], perm[l1:]
        if any(row1[i] > row1[i + 1] for i in range(l1 - 1)):
            continue
        if any(row2[i] > row2[i + 1] for i in range(l2 - 1)):
            continue
        if any(row1[c] > row2[c] for c in range(l2)):
            continue
        count += 1
    return count


def products_oracle(d: int, n: tuple[int, ...]) -> set[tuple[tuple, tuple]]:
    """All (p, q) exponent arrays of multidegree n by bounded brute force."""
    pairs = list(combinations(range(1, d + 1), 2))
    bounds = [min(n[i - 1], n[j - 1]) for i, j in pairs]
    out = set()
    for q in product(*(range(b + 1) for b in bounds)):
        used = [0] * d
        for (i, j), e in zip(pairs, q):
            used[i - 1] += e
            used[j - 1] += e
        p = tuple(k - u for k, u in zip(n, used))
        if all(e >= 0 for e in p):
            out.add((p, q))
    return out


def is_standard_product(t) -> bool:
    """Is a ProductTerm standard on the reversed alphabet d > ... > 1?

    Its pairs (a, b) form a chain, no a < a' with b > b', and x_l appears
    only for l at most the smallest b used; read off the exponents alone.
    """
    pairs = [pair for pair, e in zip(combinations(range(1, t.d + 1), 2), t.q) if e]
    chain = not any(a < a2 and b > b2 for a, b in pairs for a2, b2 in pairs)
    bound = min((b for _, b in pairs), default=t.d)
    return chain and all(l <= bound for l, e in enumerate(t.p, start=1) if e)


def expand_oracle(t) -> Polynomial:
    """Multiply a ProductTerm out by repeated Polynomial multiplication."""
    d = t.d
    poly = Polynomial.one(d)
    for i, e in enumerate(t.p, start=1):
        if e:
            poly = poly * Polynomial.x(i, d) ** e
    for (i, j), e in zip(combinations(range(1, d + 1), 2), t.q):
        if e:
            x_i, y_i = Polynomial.x(i, d), Polynomial.y(i, d)
            x_j, y_j = Polynomial.x(j, d), Polynomial.y(j, d)
            poly = poly * (x_i * y_j - x_j * y_i) ** e
    return poly


def delta_table(
    d: int, n: tuple[int, ...]
) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The y-weight and the delta image of every basis monomial, by position.

    Positions walk the y-exponent tuples b of component n lexicographically,
    with stride_i = prod_{k>i} (n_k + 1); images[pos] lists (position,
    coefficient) pairs: b_i at pos - stride_i for every i with b_i > 0.
    """
    if len(n) != d:
        raise ValueError("multidegree length must equal d")
    strides = [1] * d
    for i in range(d - 2, -1, -1):
        strides[i] = strides[i + 1] * (n[i + 1] + 1)
    exponents = list(product(*(range(k + 1) for k in n)))
    images = [
        [(pos - s, e) for s, e in zip(strides, b) if e] for pos, b in enumerate(exponents)
    ]
    return [sum(b) for b in exponents], images


def delta_matrix(d: int, n: tuple[int, ...]) -> list[list[int]]:
    """Matrix of delta on the multidegree-n component, as dense integer rows.

    Rows and columns are both indexed by component_basis(d, n) in
    canonical order; column j holds the image of the j-th basis monomial,
    read off delta_table.
    """
    _, images = delta_table(d, n)
    rows = [[0] * len(images) for _ in images]
    for j, image in enumerate(images):
        for t, e in image:
            rows[t][j] = e
    return rows


def full_block_nullity(c: tuple[int, ...], q: int) -> int:
    """Nullity of delta on the weight-q block of content c, the whole block eliminated.

    The block's rows, from W_q to W_(q - 1), are cut by kernel.block_rows
    and ranked by linalg.integer_rank.
    """
    blocks = positions_by_weight(c)
    source = blocks[q]
    rows = block_rows(DeltaImages(len(c), c), source, blocks[q - 1] if q else [])
    return len(source) - integer_rank(rows, len(source))


def product_blocks_oracle(d: int, n: tuple[int, ...]) -> dict[int, tuple]:
    """(terms, positions, rows) of every y-weight block of the products of n.

    Every product of enumerate_products(d, n) is multiplied out by expand
    and grouped by its y-weight sum(q), in enumeration order.  positions
    are the component positions its columns touch, ascending, and
    rows[i][j] is the coefficient of product j at positions[i].
    """
    index = {m: pos for pos, m in enumerate(component_basis(d, n))}
    grouped: dict[int, list] = {}
    for t in enumerate_products(d, n):
        grouped.setdefault(sum(t.q), []).append(t)
    blocks = {}
    for q, terms in grouped.items():
        columns = [{index[m]: int(c) for m, c in expand(t).terms()} for t in terms]
        positions = sorted({pos for column in columns for pos in column})
        rows = [[column.get(pos, 0) for column in columns] for pos in positions]
        blocks[q] = (terms, positions, rows)
    return blocks


# ------------------------------------------------------------ sl2 ladders
#
# The Fraction reference for tensor._chains_ok, on Polynomials.


def _replace(exponents: tuple[int, ...], i: int, value: int) -> tuple[int, ...]:
    return exponents[:i] + (value,) + exponents[i + 1 :]


def delta_star(f: Polynomial) -> Polynomial:
    """The opposite derivation: x_i -> y_i, y_i -> 0."""
    terms: dict[Monomial, Fraction] = {}
    for m, c in f.terms():
        for i, ai in enumerate(m.a):
            if ai == 0:
                continue
            image = Monomial(_replace(m.a, i, ai - 1), _replace(m.b, i, m.b[i] + 1))
            s = terms.get(image, Fraction(0)) + c * ai
            if s:
                terms[image] = s
            else:
                terms.pop(image, None)
    return Polynomial(f.d, terms)


def proportionality(f: Polynomial, g: Polynomial) -> Fraction | None:
    """The scalar c with f = c*g, or None if f is not a multiple of g != 0."""
    if g.is_zero:
        raise ValueError("g must be nonzero")
    if f.is_zero:
        return Fraction(0)
    lead = g.leading_monomial()
    c = f.coefficient(lead) / g.leading_coefficient()
    return c if f == g * c else None


@dataclass(frozen=True)
class WeightVectorChain:
    """A lowering ladder grown from one bi-homogeneous constant.

    ladder[i] is the i-th delta_star image of base; its bi-weight is
    (p - i, q + i) when base has bi-weight (p, q), and the ladder has
    exactly p - q + 1 nonzero rungs.  raising_scalars[i-1] is the nonzero
    c_i with delta(ladder[i]) = c_i * ladder[i-1].
    """

    base: Polynomial
    ladder: tuple[Polynomial, ...]
    weight: tuple[int, int]
    raising_scalars: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.ladder)


def build_chain(w0: Polynomial) -> WeightVectorChain:
    """Apply delta_star repeatedly to a bi-homogeneous constant.

    Validates the sl2 ladder shape as it goes: p - q + 1 nonzero rungs,
    zero immediately after, and delta stepping each rung back to a
    nonzero multiple of the one before.
    """
    if w0.is_zero:
        raise ValueError("chain base must be nonzero")
    if not is_constant(w0):
        raise ValueError("chain base must be a constant of delta")
    weight = w0.biweight()
    if weight is None:
        raise ValueError("chain base must be bi-homogeneous")
    p, q = weight
    if p < q:
        raise ValueError(f"bi-weight ({p}, {q}) cannot head a ladder")
    length = p - q
    ladder = [w0]
    for _ in range(length):
        ladder.append(delta_star(ladder[-1]))
    for i, w in enumerate(ladder):
        if w.is_zero:
            raise ValueError(f"ladder rung {i} vanished early")
    beyond = delta_star(ladder[-1])
    if not beyond.is_zero:
        raise ValueError("ladder failed to terminate after p - q steps")
    scalars = []
    for i in range(1, length + 1):
        c = proportionality(delta(ladder[i]), ladder[i - 1])
        if c is None or c == 0:
            raise ValueError(f"delta does not step rung {i} onto rung {i - 1}")
        scalars.append(c)
    return WeightVectorChain(w0, tuple(ladder), (p, q), tuple(scalars))


# ------------------------------------------------------------ tensor words
#
# The word model of V^(x)N that weitzlab.tensor's mask columns stand for:
# a word is a tuple of letters ("x" | "y", index), an element a dict
# {word: coefficient}.


def delta_words(w: dict) -> dict:
    """Sum over positions of replacing one y letter by x of the same index."""
    out: dict = {}
    for word, c in w.items():
        for pos, (kind, idx) in enumerate(word):
            if kind == "y":
                image = word[:pos] + (("x", idx),) + word[pos + 1 :]
                out[image] = out.get(image, 0) + c
    return {word: c for word, c in out.items() if c}


def place_permutation(w: dict, sigma) -> dict:
    """Right action: slot p of the result takes the letter from slot sigma[p] (0-based)."""
    out = {}
    for word, c in w.items():
        if sorted(sigma) != list(range(len(word))):
            raise ValueError(f"not a permutation of 0..{len(word) - 1}")
        out[tuple(word[s] for s in sigma)] = c
    return out


def skew_pair_words(layout: tuple[int, ...], pairs) -> dict:
    """x (x) y - y (x) x on each position pair (a, b), x letters elsewhere.

    layout[p] is the index of the letter at position p; positions are 0-based.
    """
    out = {}
    for flips in product((0, 1), repeat=len(pairs)):
        kinds = ["x"] * len(layout)
        for (a, b), flip in zip(pairs, flips):
            kinds[a if flip else b] = "y"
        out[tuple(zip(kinds, layout))] = (-1) ** sum(flips)
    return out


def special_hwv_words(pairs, singles) -> dict:
    """The special element: skew pairs (i, j) on positions (1, 2), (3, 4), ..., then x letters."""
    layout = tuple(idx for pair in pairs for idx in pair) + tuple(singles)
    return skew_pair_words(layout, [(2 * a, 2 * a + 1) for a in range(len(pairs))])


def standard_hwv_words(n: tuple[int, ...], shape: tuple[int, int]) -> list[dict]:
    """One element per standard tableau of shape, in the sorted layout of n.

    The skew pairs sit on the columns (row1[c], row2[c]) of the tableau
    and x letters on its leftover first-row cells.
    """
    layout = tuple(idx for idx, k in enumerate(n, start=1) for _ in range(k))
    return [
        skew_pair_words(layout, [(a - 1, b - 1) for a, b in zip(t.row1, t.row2)])
        for t in standard_tableaux(shape)
    ]


def word_mask(word) -> int:
    """The y positions of a word as a mask: bit 2^(N-1-p) for a y at position p."""
    top = len(word) - 1
    return sum(1 << (top - p) for p, (kind, _) in enumerate(word) if kind == "y")


# ------------------------------------------------------------ text format

_FACTOR_RE = re.compile(r"^([xy])(\d+)(?:\^(\d+))?$")
_COEF_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def parse_poly_oracle(text: str, d: int) -> Polynomial:
    """The textual format parsed term by term into Fraction coefficients.

    Same grammar and PolyParseError messages as weitzlab.poly.parse_poly,
    but every term becomes a Fraction and a Monomial on its own.
    """
    s = text.strip()
    if not s:
        raise PolyParseError("empty input")
    chunks = re.findall(r"[+-]|[^+\-\s]+", s)
    terms: dict[Monomial, Fraction] = {}
    sign = 1
    expect_term = True
    for chunk in chunks:
        if chunk in "+-":
            if expect_term and chunk == "-":
                sign = -sign
                continue
            if expect_term:
                raise PolyParseError(f"unexpected {chunk!r}")
            sign = -1 if chunk == "-" else 1
            expect_term = True
            continue
        if not expect_term:
            raise PolyParseError(f"missing operator before {chunk!r}")
        coef, mono = _parse_term_oracle(chunk, d)
        coef *= sign
        if coef:
            acc = terms.get(mono, Fraction(0)) + coef
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        sign = 1
        expect_term = False
    if expect_term:
        raise PolyParseError("dangling operator")
    return Polynomial(d, terms)


def _parse_term_oracle(chunk: str, d: int) -> tuple[Fraction, Monomial]:
    parts = chunk.split("*")
    coef = Fraction(1)
    start = 0
    m = _COEF_RE.match(parts[0])
    if m:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise PolyParseError(f"zero denominator in {parts[0]!r}")
        coef = Fraction(num, den)
        start = 1
    a = [0] * d
    b = [0] * d
    for part in parts[start:]:
        fm = _FACTOR_RE.match(part)
        if not fm:
            raise PolyParseError(f"bad factor {part!r}")
        kind, idx, exp = fm.group(1), int(fm.group(2)), fm.group(3)
        e = int(exp) if exp else 1
        if e < 1:
            raise PolyParseError(f"bad exponent in {part!r}")
        if not 1 <= idx <= d:
            raise PolyParseError(f"index out of range 1..{d} in {part!r}")
        (a if kind == "x" else b)[idx - 1] += e
    return coef, Monomial(a, b)


# ------------------------------------------------------------ reports


def digest_oracle(report) -> str:
    """The content digest written from the record dicts: sha256 of the sorted-key dump."""
    text = json.dumps(strip_timing(report.to_dict()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def csv_oracle(report) -> str:
    """A verify report's CSV through csv.DictWriter over its to_dict() records."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[f.name for f in fields(ComponentReport)])
    writer.writeheader()
    for record in report.to_dict()["components"]:
        writer.writerow({**record, "n": ",".join(map(str, record["n"]))})
    return buf.getvalue()


# ------------------------------------------------------------ random inputs


def random_polynomial(
    rng: random.Random,
    d: int,
    max_terms: int = 5,
    max_exp: int = 3,
    max_coef: int = 9,
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        a = tuple(rng.randint(0, max_exp) for _ in range(d))
        b = tuple(rng.randint(0, max_exp) for _ in range(d))
        num = rng.randint(-max_coef, max_coef)
        den = rng.randint(1, 4)
        terms[Monomial(a, b)] = Fraction(num, den)
    return Polynomial(d, terms)


def random_rational(rng: random.Random, max_abs: int = 9) -> Fraction:
    num = rng.randint(-max_abs, max_abs)
    den = rng.randint(1, max_abs)
    return Fraction(num, den)
