"""Tensor words over the letters x_i, y_i and the highest-weight machinery.

A word is a tuple of letters ("x"|"y", index); an element is an exact
linear combination of words of one length and one index content.  The
raising derivation Delta acts per position (y -> x, same index), the
symmetric group acts from the right by place permutation, and multiplying
the letters out projects everything onto the commutative component of the
same content.

Highest weight vectors enter through two constructors:

* special_hwv builds the product of skew pairs
  (x_i (x) y_j - y_i (x) x_j) followed by single x letters, with the pairs
  occupying positions (1, 2), (3, 4), ...;
* standard_hwv_basis places the skew pairs on the columns of a standard
  two-row tableau instead, inside the index layout that lists index 1
  first.  One element per standard tableau gives a basis of the
  highest-weight space of its shape, which is how tableau counts become a
  dimension oracle for Delta kernels.

hwv_space_dimension measures that kernel directly: the matrix of Delta
from one weight block to the next is built as dense integer rows and
ranked with linalg.integer_rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Mapping, Sequence

from .linalg import integer_rank
from .poly import Monomial, Polynomial
from .tableaux import standard_tableaux

__all__ = [
    "Letter",
    "TensorElement",
    "delta_tensor",
    "place_permutation",
    "PairingPlan",
    "special_hwv",
    "standard_hwv_basis",
    "project_to_polynomial",
    "sorted_layout",
    "hwv_space_dimension",
    "weight_block_words",
    "element_y_coordinates",
]

Letter = tuple[str, int]
Word = tuple[Letter, ...]


def _word_content(word: Word, d: int) -> tuple[int, ...]:
    counts = [0] * d
    for kind, idx in word:
        if kind not in ("x", "y"):
            raise ValueError(f"bad letter kind {kind!r}")
        if not 1 <= idx <= d:
            raise ValueError(f"letter index {idx} out of range 1..{d}")
        counts[idx - 1] += 1
    return tuple(counts)


class TensorElement:
    """Exact linear combination of same-content tensor words."""

    __slots__ = ("d", "content", "terms")

    def __init__(
        self,
        d: int,
        terms: Mapping[Word, Fraction],
        content: tuple[int, ...] | None = None,
    ):
        clean: dict[Word, Fraction] = {}
        for word, c in terms.items():
            word = tuple(word)
            wc = _word_content(word, d)
            if content is None:
                content = wc
            elif wc != content:
                raise ValueError("mixed-content combination rejected")
            c = Fraction(c)
            if c != 0:
                clean[word] = c
        if content is None:
            raise ValueError("an empty element needs an explicit content")
        if len(content) != d:
            raise ValueError("content length must equal d")
        self.d = d
        self.content = content
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def length(self) -> int:
        return sum(self.content)

    def weight(self) -> tuple[int, int] | None:
        """Common (x-count, y-count) of all words, or None if mixed or zero."""
        weights = {
            (sum(1 for k, _ in w if k == "x"), sum(1 for k, _ in w if k == "y"))
            for w in self.terms
        }
        if len(weights) != 1:
            return None
        return weights.pop()

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.d != other.d or self.content != other.content:
            raise ValueError("content mismatch")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, Fraction(0)) + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        return TensorElement(self.d, terms, self.content)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (other * -1)

    def __mul__(self, scalar) -> "TensorElement":
        c = Fraction(scalar)
        return TensorElement(
            self.d, {w: c * v for w, v in self.terms.items()}, self.content
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.d == other.d
            and self.content == other.content
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        def fmt(word: Word) -> str:
            return "(x)".join(f"{k}{i}" for k, i in word) if word else "1"

        body = " + ".join(f"{c}*{fmt(w)}" for w, c in sorted(self.terms.items()))
        return f"TensorElement({body or '0'})"


def delta_tensor(w: TensorElement) -> TensorElement:
    """Sum over positions of replacing one y letter by x of the same index."""
    terms: dict[Word, Fraction] = {}
    for word, c in w.terms.items():
        for pos, (kind, idx) in enumerate(word):
            if kind != "y":
                continue
            image = word[:pos] + (("x", idx),) + word[pos + 1 :]
            s = terms.get(image, Fraction(0)) + c
            if s:
                terms[image] = s
            else:
                terms.pop(image, None)
    return TensorElement(w.d, terms, w.content)


def place_permutation(w: TensorElement, sigma: Sequence[int]) -> TensorElement:
    """Right action: slot p of the result takes the letter from slot sigma[p].

    sigma is 0-based.  Applying sigma and then tau equals applying the
    composite with composite[p] = sigma[tau[p]].
    """
    n = w.length
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}")
    terms = {
        tuple(word[sigma[p]] for p in range(n)): c for word, c in w.terms.items()
    }
    return TensorElement(w.d, terms, w.content)


@dataclass(frozen=True)
class PairingPlan:
    """Placement data for a skew-pair product element.

    pairs[a] = (i, j) puts the skew pair on positions (2a+1, 2a+2) with
    index i on the left slot and j on the right; singles list the indices
    of the trailing x letters.
    """

    pairs: tuple[tuple[int, int], ...]
    singles: tuple[int, ...]

    def content(self, d: int) -> tuple[int, ...]:
        counts = [0] * d
        for i, j in self.pairs:
            for idx in (i, j):
                if not 1 <= idx <= d:
                    raise ValueError(f"plan index {idx} out of range 1..{d}")
                counts[idx - 1] += 1
        for idx in self.singles:
            if not 1 <= idx <= d:
                raise ValueError(f"plan index {idx} out of range 1..{d}")
            counts[idx - 1] += 1
        return tuple(counts)


def _skew_pair_element(
    d: int,
    content: tuple[int, ...],
    layout: Sequence[int],
    pair_positions: Sequence[tuple[int, int]],
    single_positions: Sequence[int],
) -> TensorElement:
    """Product of skew pairs at given position pairs, x letters elsewhere.

    layout[p] is the variable index at position p; each pair contributes
    the two words (x, y) with sign + and (y, x) with sign -.
    """
    n = len(layout)
    occupied = sorted(
        [p for pair in pair_positions for p in pair] + list(single_positions)
    )
    if occupied != list(range(n)):
        raise ValueError("positions must partition the word slots")
    terms: dict[Word, Fraction] = {}
    for flips in product((0, 1), repeat=len(pair_positions)):
        kinds = ["x"] * n
        sign = 1
        for (pa, pb), flip in zip(pair_positions, flips):
            if flip:
                kinds[pa] = "y"
                sign = -sign
            else:
                kinds[pb] = "y"
        word = tuple((kinds[p], layout[p]) for p in range(n))
        terms[word] = terms.get(word, Fraction(0)) + sign
    return TensorElement(d, terms, content)


def special_hwv(d: int, plan: PairingPlan) -> TensorElement:
    """Expand the skew-pair product with pairs at positions (1,2), (3,4), ...

    The result is bi-homogeneous of weight (pairs + singles, pairs) and is
    annihilated by delta_tensor.
    """
    content = plan.content(d)
    layout: list[int] = []
    for i, j in plan.pairs:
        layout.extend((i, j))
    layout.extend(plan.singles)
    pair_positions = [(2 * a, 2 * a + 1) for a in range(len(plan.pairs))]
    single_positions = list(range(2 * len(plan.pairs), len(layout)))
    return _skew_pair_element(d, content, layout, pair_positions, single_positions)


def sorted_layout(n: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical index layout of a content: all 1s, then all 2s, ..."""
    layout: list[int] = []
    for idx, count in enumerate(n, start=1):
        layout.extend([idx] * count)
    return tuple(layout)


def standard_hwv_basis(
    d: int, n: tuple[int, ...], shape: tuple[int, int]
) -> list[TensorElement]:
    """One skew-pair element per standard tableau of the given shape.

    Works inside the canonical index layout of the content n.  For the
    tableau with rows r1, r2 the skew pairs sit on the position pairs
    (r1[c], r2[c]) given by its columns and the leftover first-row cells
    carry plain x letters; this realizes the place-permuted version of the
    special element for the column-reading permutation of the tableau.

    The returned elements are independent constants of delta_tensor and
    their count (the standard tableau number) equals the dimension of the
    whole weight-(shape) kernel, so they form a basis of it.
    """
    if len(shape) != 2:
        raise ValueError("only two-row shapes are supported")
    if sum(shape) != sum(n):
        raise ValueError("shape size must equal the content total")
    layout = sorted_layout(n)
    out = []
    for tableau in standard_tableaux(tuple(shape)):
        pair_positions = [
            (tableau.row1[c] - 1, tableau.row2[c] - 1) for c in range(shape[1])
        ]
        single_positions = [p - 1 for p in tableau.row1[shape[1] :]]
        out.append(
            _skew_pair_element(d, tuple(n), layout, pair_positions, single_positions)
        )
    return out


def project_to_polynomial(w: TensorElement) -> Polynomial:
    """Multiply the letters of each word out into a commutative monomial.

    Linear over the coefficients; intertwines delta_tensor with the
    polynomial delta.  Skew pairs with equal indices collapse to zero.
    """
    terms: dict[Monomial, Fraction] = {}
    for word, c in w.terms.items():
        a = [0] * w.d
        b = [0] * w.d
        for kind, idx in word:
            if kind == "x":
                a[idx - 1] += 1
            else:
                b[idx - 1] += 1
        m = Monomial(a, b)
        s = terms.get(m, Fraction(0)) + c
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)
    return Polynomial(w.d, terms)


# ------------------------------------------------------------------ rank oracle
#
# Inside one index layout a word is determined by its set of y positions,
# so the weight-(N - q, q) block of an N-letter component has C(N, q)
# basis words and the matrix of delta_tensor on it depends only on N and
# q.  These helpers expose that block structure for rank computations.


def weight_block_words(total: int, q: int) -> list[tuple[int, ...]]:
    """y-position sets of the q-th weight block, in lexicographic order."""
    return [tuple(c) for c in combinations(range(total), q)]


def _delta_block_rows(total: int, q: int) -> list[list[int]]:
    """delta_tensor from weight block q to block q - 1, as dense integer rows."""
    source = weight_block_words(total, q)
    target_index = {w: i for i, w in enumerate(weight_block_words(total, q - 1))}
    rows = [[0] * len(source) for _ in target_index]
    for j, positions in enumerate(source):
        for p in positions:
            rows[target_index[tuple(t for t in positions if t != p)]][j] += 1
    return rows


@lru_cache(maxsize=None)
def hwv_space_dimension(total: int, shape: tuple[int, int]) -> int:
    """Dimension of the delta_tensor kernel in the weight-(shape) block.

    Computed by exact elimination on the block matrix; independent of the
    index content because the derivation never looks at indices.
    """
    l1, l2 = shape
    if l1 + l2 != total:
        raise ValueError("shape size must equal the word length")
    if l2 == 0:
        return 1
    cols = comb(total, l2)
    return cols - integer_rank(_delta_block_rows(total, l2), cols)


def element_y_coordinates(w: TensorElement) -> tuple[int, list[Fraction]]:
    """Coordinates of a layout-pure bi-homogeneous element over its block.

    Requires every word to live in the canonical sorted layout; returns
    (q, vector) over weight_block_words(length, q).
    """
    layout = sorted_layout(w.content)
    weight = w.weight()
    if weight is None:
        raise ValueError("element is not bi-homogeneous or is zero")
    q = weight[1]
    block = {word: i for i, word in enumerate(weight_block_words(w.length, q))}
    coords = [Fraction(0)] * len(block)
    for word, c in w.terms.items():
        if tuple(idx for _k, idx in word) != layout:
            raise ValueError("element does not live in the sorted layout")
        positions = tuple(p for p, (k, _i) in enumerate(word) if k == "y")
        coords[block[positions]] = c
    return q, coords
