"""Sparse exact polynomials in the paired variables x1..xd, y1..yd.

A Polynomial's coefficients are `fractions.Fraction`s; nothing in this
package ever touches floating point.  A monomial is a tuple holding the
x-exponents and then the y-exponents, so x1*y2^3 in K[X_2, Y_2] is
Monomial((1, 0), (0, 3)), the tuple (1, 0, 0, 3), and dict lookups on
monomials hash and compare in C.  parse_poly reads the text format
without a Fraction per term: it sums integer coefficients per monomial,
parses each distinct factor text once per process, and builds the
result through Polynomial._of, the constructor that trusts its terms,
since the grammar already guarantees valid exponents.

Two gradings drive the whole engine:

* the multidegree n with n_i = a_i + b_i, preserved by the derivations;
* the bi-weight (p, q) = (sum a_i, sum b_i), shifted by one step.

The canonical monomial order compares (total degree, a + b) and lists the
largest key first, so within one multidegree component the pure-x monomial
comes first and the pure-y monomial last.  component_basis() enumerates
each component in exactly this order, which makes every downstream matrix,
kernel basis, and report deterministic.

That order is a mixed radix: the monomial with y-exponents b sits at
position sum(b_i * stride_i), stride_i = prod_{k>i} (n_k + 1), which is
how the verification engine indexes a component without building any
monomials (component_strides).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add
from typing import Iterable, Iterator, Mapping

Rational = Fraction

__all__ = [
    "Rational",
    "Monomial",
    "Polynomial",
    "component_basis",
    "component_content",
    "component_strides",
    "format_poly",
    "parse_poly",
    "PolyParseError",
]


class Monomial(tuple):
    """x^a y^b, stored flat as the exponent tuple a + b of length 2d.

    Monomial(a, b) checks its input; a and b are slices of the flat tuple.
    Being a tuple, a Monomial hashes and tests equal in C, and so it is
    equal to the plain tuple a + b and finds the same dict entry.  Order,
    arithmetic and printing are its own: <, <=, > and >= follow sort_key,
    m1 * m2 adds exponents, and +, or * by anything but a Monomial, raises
    TypeError rather than concatenating or repeating the tuple.
    """

    __slots__ = ()

    def __new__(cls, a: Iterable[int], b: Iterable[int]) -> "Monomial":
        a = tuple(a)
        b = tuple(b)
        if len(a) != len(b):
            raise ValueError("x and y exponent tuples must have equal length")
        if any(e < 0 for e in a) or any(e < 0 for e in b):
            raise ValueError("exponents must be nonnegative")
        return tuple.__new__(cls, a + b)

    def __getnewargs__(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.a, self.b)

    @classmethod
    def one(cls, d: int) -> "Monomial":
        return cls((0,) * d, (0,) * d)

    @classmethod
    def x(cls, i: int, d: int) -> "Monomial":
        _check_index(i, d)
        return cls(tuple(1 if k == i - 1 else 0 for k in range(d)), (0,) * d)

    @classmethod
    def y(cls, i: int, d: int) -> "Monomial":
        _check_index(i, d)
        return cls((0,) * d, tuple(1 if k == i - 1 else 0 for k in range(d)))

    @property
    def a(self) -> tuple[int, ...]:
        return self[: len(self) // 2]

    @property
    def b(self) -> tuple[int, ...]:
        return self[len(self) // 2 :]

    @property
    def d(self) -> int:
        return len(self) // 2

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def is_one(self) -> bool:
        return not any(self)

    def multidegree(self) -> tuple[int, ...]:
        d = len(self) // 2
        return tuple(map(add, self[:d], self[d:]))

    def biweight(self) -> tuple[int, int]:
        d = len(self) // 2
        return (sum(self[:d]), sum(self[d:]))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (sum(self), tuple(self))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError("dimension mismatch")
        return _monomial(map(add, self, other))

    def __rmul__(self, other):
        return NotImplemented

    def __add__(self, other):
        return NotImplemented

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Monomial") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Monomial") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Monomial") -> bool:
        return self.sort_key() >= other.sort_key()

    def __repr__(self) -> str:
        return f"Monomial({self.a}, {self.b})"

    def __str__(self) -> str:
        factors = []
        for i, e in enumerate(self.a, start=1):
            if e == 1:
                factors.append(f"x{i}")
            elif e >= 2:
                factors.append(f"x{i}^{e}")
        for i, e in enumerate(self.b, start=1):
            if e == 1:
                factors.append(f"y{i}")
            elif e >= 2:
                factors.append(f"y{i}^{e}")
        return "*".join(factors) if factors else "1"


def _monomial(exponents: Iterable[int]) -> Monomial:
    """A Monomial on flat exponents a + b that are known to be valid."""
    return tuple.__new__(Monomial, exponents)


def _check_index(i: int, d: int) -> None:
    if not 1 <= i <= d:
        raise ValueError(f"variable index {i} out of range 1..{d}")


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(c).__name__}")


class Polynomial:
    """Finite map from Monomial to nonzero Fraction, all sharing one d.

    Values are immutable after construction; every operation returns a new
    Polynomial in canonical form (no zero coefficients stored).  The public
    constructor checks every monomial's d and coerces every coefficient;
    parse_poly and the arithmetic, whose terms are clean by construction,
    build through Polynomial._of, which checks nothing.
    """

    __slots__ = ("d", "_terms")

    def __init__(self, d: int, terms: Mapping[Monomial, Fraction] | None = None):
        if d < 0:
            raise ValueError("d must be nonnegative")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if m.d != d:
                    raise ValueError("monomial dimension mismatch")
                c = _coerce(c)
                if c != 0:
                    clean[m] = c
        self.d = d
        self._terms = clean

    @classmethod
    def _of(cls, d: int, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """A Polynomial that owns terms: Monomials of dimension d, nonzero Fractions."""
        p = object.__new__(cls)
        p.d = d
        p._terms = terms
        return p

    # ---------------------------------------------------------------- constructors

    @classmethod
    def zero(cls, d: int) -> "Polynomial":
        return cls(d)

    @classmethod
    def one(cls, d: int) -> "Polynomial":
        return cls(d, {Monomial.one(d): Fraction(1)})

    @classmethod
    def constant(cls, c, d: int) -> "Polynomial":
        return cls(d, {Monomial.one(d): _coerce(c)})

    @classmethod
    def x(cls, i: int, d: int) -> "Polynomial":
        return cls(d, {Monomial.x(i, d): Fraction(1)})

    @classmethod
    def y(cls, i: int, d: int) -> "Polynomial":
        return cls(d, {Monomial.y(i, d): Fraction(1)})

    @classmethod
    def from_monomial(cls, m: Monomial, c=1) -> "Polynomial":
        return cls(m.d, {m: _coerce(c)})

    # ---------------------------------------------------------------- inspection

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order, largest monomial first."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key(), reverse=True)

    def leading_monomial(self) -> Monomial:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms, key=Monomial.sort_key)

    def leading_coefficient(self) -> Fraction:
        return self._terms[self.leading_monomial()]

    def degree(self) -> int:
        if self.is_zero:
            return 0
        return max(m.degree for m in self._terms)

    def multidegree(self) -> tuple[int, ...] | None:
        """The common multidegree of all terms, or None if mixed or zero."""
        d = self.d
        degrees = {tuple(map(add, m[:d], m[d:])) for m in self._terms}
        if len(degrees) != 1:
            return None
        return degrees.pop()

    def biweight(self) -> tuple[int, int] | None:
        """The common bi-weight (p, q) of all terms, or None if mixed or zero."""
        weights = {m.biweight() for m in self._terms}
        if len(weights) != 1:
            return None
        return weights.pop()

    def multidegree_components(self) -> dict[tuple[int, ...], "Polynomial"]:
        parts: dict[tuple[int, ...], dict[Monomial, Fraction]] = {}
        for m, c in self._terms.items():
            parts.setdefault(m.multidegree(), {})[m] = c
        return {n: Polynomial._of(self.d, t) for n, t in sorted(parts.items())}

    # ---------------------------------------------------------------- arithmetic

    def _require_same_d(self, other: "Polynomial") -> None:
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: d={self.d} vs d={other.d}")

    def __add__(self, other) -> "Polynomial":
        other = self._lift(other)
        self._require_same_d(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, Fraction(0)) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial._of(self.d, terms)

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._lift(other))

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.d, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if c == 0:
                return Polynomial.zero(self.d)
            return Polynomial._of(self.d, {m: c * v for m, v in self._terms.items()})
        other = self._lift(other)
        self._require_same_d(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                s = terms.get(m, Fraction(0)) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial._of(self.d, terms)

    def __rmul__(self, other) -> "Polynomial":
        return self * other

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.d)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def _lift(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.d)
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.d)
        return (
            isinstance(other, Polynomial)
            and self.d == other.d
            and self._terms == other._terms
        )

    __hash__ = None  # mutable-looking container; not usable as a dict key

    def __repr__(self) -> str:
        return f"Polynomial(d={self.d}, {format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


# -------------------------------------------------------------------- components


def _check_multidegree(d: int, n: tuple[int, ...]) -> None:
    if len(n) != d:
        raise ValueError("multidegree length must equal d")
    if any(k < 0 for k in n):
        raise ValueError("multidegree entries must be nonnegative")


@lru_cache(maxsize=None)
def component_basis(d: int, n: tuple[int, ...]) -> tuple[Monomial, ...]:
    """All monomials of multidegree n, in canonical order.

    The component has exactly prod(n_i + 1) monomials: index i contributes
    an independent split a_i + b_i = n_i.  Enumeration runs a_1, then a_2,
    ... each from n_i down to 0, which coincides with the canonical
    (descending) monomial order.
    """
    _check_multidegree(d, n)
    ranges = [range(k, -1, -1) for k in n]
    basis = tuple(
        Monomial(a, tuple(k - e for k, e in zip(n, a))) for a in product(*ranges)
    )
    return basis


def component_strides(d: int, n: tuple[int, ...]) -> tuple[int, ...]:
    """Mixed-radix strides of component_basis(d, n).

    The monomial x^a y^b sits at position sum(b_i * stride_i), which is
    sum((n_i - a_i) * stride_i), with stride_i = prod_{k>i} (n_k + 1).
    """
    _check_multidegree(d, n)
    strides = [1] * d
    for i in range(d - 2, -1, -1):
        strides[i] = strides[i + 1] * (n[i + 1] + 1)
    return tuple(strides)


def component_content(d: int, n: tuple[int, ...]) -> tuple[int, ...]:
    """The nonzero entries of n in order, once (d, n) is checked.

    A zero n_i has radix 1, so the component of n and that of its content
    c, in dimension len(c), have the same positions and the same integers
    on them: delta_table, kernel_blocks, product columns, kostka_numbers.
    """
    _check_multidegree(d, n)
    return tuple(filter(None, n))


# -------------------------------------------------------------------- text format

# Grammar: poly := ['-'] term (('+'|'-') term)*
#          term := coef ['*' mono] | mono
#          coef := INT ['/' INT]
#          mono := factor ('*' factor)*
#          factor := ('x'|'y') INDEX ['^' EXP]
# The printer omits coefficients of magnitude 1 (unless the monomial is 1)
# and never emits ^0 or ^1.

_FACTOR_RE = re.compile(r"^([xy])(\d+)(?:\^(\d+))?$")
_COEF_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_CHUNK_RE = re.compile(r"[+-]|[^+\-\s]+")

# Factor text -> (0 for x or 1 for y, index, exponent), filled by
# _parse_factor with well-formed factors only; the index depends on no d.
_FACTORS: dict[str, tuple[int, int, int]] = {}


class PolyParseError(ValueError):
    pass


def parse_poly(text: str, d: int) -> Polynomial:
    """Parse the textual polynomial format; inverse of format_poly.

    Coefficients accumulate as ints per monomial; a Fraction is built only
    for a coefficient written with '/', and the sums become Fractions once
    per distinct monomial.  Each factor text such as 'x3^5' is parsed once
    per process (the _FACTORS memo, bounded by the number of distinct
    factor texts), and its index is checked against d on every use because
    d varies between calls.  The grammar admits only indices in 1..d and
    exponents of at least 1, so the result is built unchecked.
    """
    s = text.strip()
    if not s:
        raise PolyParseError("empty input")
    terms: dict[Monomial, int | Fraction] = {}
    sign = 1
    expect_term = True
    for chunk in _CHUNK_RE.findall(s):
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
        parts = chunk.split("*")
        head = parts[0]
        if head.isdecimal():
            coef, start = int(head), 1
        elif "/" in head and (m := _COEF_RE.match(head)):
            den = int(m.group(2))
            if den == 0:
                raise PolyParseError(f"zero denominator in {head!r}")
            coef, start = Fraction(int(m.group(1)), den), 1
        else:
            coef, start = 1, 0
        ab = [0] * (2 * d)
        for part in parts[start:]:
            block, idx, e = _FACTORS.get(part) or _parse_factor(part)
            if not 1 <= idx <= d:
                raise PolyParseError(f"index out of range 1..{d} in {part!r}")
            ab[block * d + idx - 1] += e
        if coef:
            key = _monomial(ab)
            acc = terms.get(key, 0) + sign * coef
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        sign = 1
        expect_term = False
    if expect_term:
        raise PolyParseError("dangling operator")
    return Polynomial._of(d, {m: Fraction(c) for m, c in terms.items()})


def _parse_factor(part: str) -> tuple[int, int, int]:
    fm = _FACTOR_RE.match(part)
    if not fm:
        raise PolyParseError(f"bad factor {part!r}")
    kind, idx, exp = fm.group(1), int(fm.group(2)), fm.group(3)
    e = int(exp) if exp else 1
    if e < 1:
        raise PolyParseError(f"bad exponent in {part!r}")
    factor = _FACTORS[part] = (0 if kind == "x" else 1, idx, e)
    return factor


def format_poly(p: Polynomial) -> str:
    """Render in the textual format; canonical order, largest monomial first."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for m, c in p.sorted_terms():
        mag = abs(c)
        if m.is_one:
            body = str(mag)
        elif mag == 1:
            body = str(m)
        else:
            body = f"{mag}*{m}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(pieces)
