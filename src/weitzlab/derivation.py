"""The triangular derivation delta and the group actions.

delta sends x_i -> 0 and y_i -> x_i and extends by the Leibniz rule; its
kernel (the algebra of constants) is what the rest of the package
measures.  It acts monomial-by-monomial (each image has at most d
terms), not by substitute-and-subtract.  exp_action and gl2_action are
the unipotent flow exp(t*delta) and the GL2 substitution of the paper's
argument, on Polynomials.  The opposite lowering map x_i -> y_i and the
sl2 ladders it grows are checked on integer vectors
(kernel.LoweringImages, tensor._chains_ok).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .poly import Monomial, Polynomial

__all__ = [
    "delta",
    "is_constant",
    "exp_action",
    "GL2Element",
    "gl2_action",
]


def _replace(exponents: tuple[int, ...], i: int, value: int) -> tuple[int, ...]:
    return exponents[:i] + (value,) + exponents[i + 1 :]


def delta(f: Polynomial) -> Polynomial:
    """Map each y_i to x_i, one position at a time, weighted by its exponent."""
    terms: dict[Monomial, Fraction] = {}
    for m, c in f.terms():
        for i, bi in enumerate(m.b):
            if bi == 0:
                continue
            image = Monomial(_replace(m.a, i, m.a[i] + 1), _replace(m.b, i, bi - 1))
            s = terms.get(image, Fraction(0)) + c * bi
            if s:
                terms[image] = s
            else:
                terms.pop(image, None)
    return Polynomial(f.d, terms)


def is_constant(f: Polynomial) -> bool:
    return delta(f).is_zero


@dataclass(frozen=True)
class GL2Element:
    """An invertible 2x2 rational matrix ((g11, g12), (g21, g22))."""

    g11: Fraction
    g12: Fraction
    g21: Fraction
    g22: Fraction

    def __post_init__(self):
        for name in ("g11", "g12", "g21", "g22"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.det == 0:
            raise ValueError("singular matrix rejected")

    @property
    def det(self) -> Fraction:
        return self.g11 * self.g22 - self.g12 * self.g21

    @classmethod
    def identity(cls) -> "GL2Element":
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    @classmethod
    def unitriangular(cls, t) -> "GL2Element":
        return cls(Fraction(1), Fraction(t), Fraction(0), Fraction(1))

    def __matmul__(self, other: "GL2Element") -> "GL2Element":
        return GL2Element(
            self.g11 * other.g11 + self.g12 * other.g21,
            self.g11 * other.g12 + self.g12 * other.g22,
            self.g21 * other.g11 + self.g22 * other.g21,
            self.g21 * other.g12 + self.g22 * other.g22,
        )


def gl2_action(g: GL2Element, f: Polynomial) -> Polynomial:
    """Substitute x_i -> g11*x_i + g21*y_i and y_i -> g12*x_i + g22*y_i.

    The same matrix acts on every index pair, so multidegree components
    are preserved.  This is a left action: acting by g @ h equals acting
    by h first, then by g.
    """
    d = f.d
    out = Polynomial.zero(d)
    for m, c in f.terms():
        factors = []
        for i in range(1, d + 1):
            ai, bi = m.a[i - 1], m.b[i - 1]
            if ai:
                gx = Polynomial.x(i, d) * g.g11 + Polynomial.y(i, d) * g.g21
                factors.append(gx**ai)
            if bi:
                gy = Polynomial.x(i, d) * g.g12 + Polynomial.y(i, d) * g.g22
                factors.append(gy**bi)
        image = reduce(lambda p, q: p * q, factors, Polynomial.one(d))
        out = out + image * c
    return out


def exp_action(f: Polynomial, t) -> Polynomial:
    """The unipotent flow exp(t*delta): y_i -> y_i + t*x_i, x_i fixed.

    Equals the finite sum of t^k delta^k(f) / k! and is a ring
    automorphism; constants of delta are exactly its fixed points.
    """
    return gl2_action(GL2Element.unitriangular(t), f)
