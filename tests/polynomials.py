"""Exact polynomials over the rationals, for checking identities.

A `Poly` is a dict from monomial to `fractions.Fraction` coefficient; a
monomial is a sorted tuple of (variable name, exponent) pairs, and the
constant monomial is ().  Nothing here shares code with the package or
needs anything outside the standard library.

Two operation sets run the package's formulas, which are written against
an abstract operation set (add, sub, mul, div, sqrt; a float operand is an
exact constant), on these polynomials:

- `RootOps` has no div, and its sqrt returns a fresh variable, recording
  its square: a formula with square roots becomes a polynomial in its
  inputs and the roots, and `reduce_roots` replaces each root's square by
  its radicand.
- `RatioOps` has no sqrt, and its values are (numerator, denominator)
  pairs of polynomials: a rational formula becomes one fraction.
"""

from fractions import Fraction


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def const(cls, value) -> "Poly":
        # Fraction(float) is the float's exact value
        return cls({(): Fraction(value)})

    @classmethod
    def of(cls, value) -> "Poly":
        return value if isinstance(value, Poly) else cls.const(value)

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in Poly.of(other).terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in Poly.of(other).terms.items():
                m = _monomial_product(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return self.terms == Poly.of(other).terms

    def __repr__(self):
        return " + ".join(f"{c}*{m}" for m, c in sorted(self.terms.items())) or "0"


def _monomial_product(m1, m2):
    powers = dict(m1)
    for name, k in m2:
        powers[name] = powers.get(name, 0) + k
    return tuple(sorted(powers.items()))


class RootOps:
    """Polynomial operations whose sqrt is a fresh variable.

    `roots` maps each root variable, in the order sqrt made them, to its
    radicand.
    """

    def __init__(self):
        self.roots = {}

    @staticmethod
    def add(a, b):
        return Poly.of(a) + b

    @staticmethod
    def sub(a, b):
        return Poly.of(a) - b

    @staticmethod
    def mul(a, b):
        return Poly.of(a) * b

    def sqrt(self, a):
        name = f"root{len(self.roots)}"
        self.roots[name] = Poly.of(a)
        return Poly.var(name)

    def reduce_roots(self, p: Poly) -> Poly:
        """`p` with each even power of a root replaced by its radicand's
        power; an odd power keeps one factor of the root."""
        for name, radicand in self.roots.items():
            out = Poly()
            for m, c in p.terms.items():
                powers = dict(m)
                k = powers.pop(name, 0)
                rest = Poly({tuple(sorted(powers.items())): c})
                out = out + rest * radicand ** (k // 2) * Poly.var(name) ** (k % 2)
            p = out
        return p


class RatioOps:
    """Fractions of polynomials, as (numerator, denominator) pairs."""

    @staticmethod
    def _pair(a):
        return a if isinstance(a, tuple) else (Poly.of(a), Poly.const(1))

    @classmethod
    def add(cls, a, b):
        (p, q), (r, s) = cls._pair(a), cls._pair(b)
        return p * s + r * q, q * s

    @classmethod
    def sub(cls, a, b):
        (p, q), (r, s) = cls._pair(a), cls._pair(b)
        return p * s - r * q, q * s

    @classmethod
    def mul(cls, a, b):
        (p, q), (r, s) = cls._pair(a), cls._pair(b)
        return p * r, q * s

    @classmethod
    def div(cls, a, b):
        (p, q), (r, s) = cls._pair(a), cls._pair(b)
        return p * s, q * r
