"""Scalar helpers shared by the exact and floating arithmetic tiers.

Exact entries are int, Fraction, or `Surd` r + s*sqrt(d): every exact entry
at coordinate n of the block core lies in Q(sqrt(lambda_n)), so one radicand
per coordinate is all the exact tier needs.  Floats mark the analysis tier.
Arithmetic never promotes exact values to float implicitly; `to_float` is the
only crossing.

sympy is imported for that crossing alone.  `float(Surd)` rebuilds sympy's
value Rational(r) + Rational(s)*sqrt(d), whose expression tree sympy makes
canonical however the element was computed, so every float equals the one a
sympy expression of the same number gives, bit for bit.  sympy's float of
s*sqrt(d) is not always correctly rounded; the reports keep its bits.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

import sympy


def as_fraction(x) -> Fraction:
    """Convert to an exact Fraction; floats convert to their exact binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _common_denominator(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators N_i and their common denominator L, v_i = N_i / L."""
    values = [as_fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


@functools.cache
def _sympy_root(d: Fraction):
    """sympy's sqrt(d), split as (c, sqrt(n)): sympy writes the square root of
    a positive rational as a rational c times the root of an integer n."""
    return sympy.sqrt(sympy.Rational(d.numerator, d.denominator)).as_coeff_Mul()


class Surd:
    """The exact number r + s*sqrt(d): r and s Fractions, d a positive Fraction
    whose square root is irrational, and s != 0.

    Results with s = 0 fold back to Fraction, so a Surd is never rational and
    never zero.  Operands may be int, Fraction, or a Surd of the same radicand;
    another radicand raises ValueError and a float raises TypeError.
    """

    __slots__ = ("r", "s", "d")

    def __init__(self, r, s, d):
        r, s, d = (_rational(x) for x in (r, s, d))
        if s == 0:
            raise ValueError("s: must be nonzero; a rational value is a Fraction")
        if d <= 0 or (_is_square(d.numerator) and _is_square(d.denominator)):
            raise ValueError(f"d: {d} is not a positive non-square")
        for name, value in (("r", r), ("s", s), ("d", d)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    def __repr__(self) -> str:
        return f"Surd({self.r!r}, {self.s!r}, {self.d!r})"

    def __float__(self) -> float:
        # The Mul is the canonical tree of sympy's own product Rational(s) *
        # sqrt(d), built without the flatten pass that would reach it.
        r, s = self.r, self.s
        c, root = _sympy_root(self.d)
        c *= sympy.Rational(s.numerator, s.denominator)
        value = root if c == 1 else sympy.Mul(c, root, evaluate=False)
        if r:
            value = sympy.Rational(r.numerator, r.denominator) + value
        return float(value)

    def __eq__(self, other):
        if isinstance(other, Surd):
            _same_radicand(self, other)
            return self.r == other.r and self.s == other.s
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.r, self.s, self.d))

    def __neg__(self):
        return _surd(-self.r, -self.s, self.d)

    def __add__(self, other):
        if isinstance(other, Surd):
            return _surd(self.r + other.r, self.s + other.s, _same_radicand(self, other))
        if isinstance(other, (int, Fraction)):
            return _surd(self.r + other, self.s, self.d)
        return _reject(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Surd, int, Fraction)):
            return self + -other
        return _reject(other)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return _reject(other)

    def __mul__(self, other):
        if isinstance(other, Surd):
            d = _same_radicand(self, other)
            if not (self.r or other.r):
                return self.s * other.s * d
            return _surd(self.r * other.r + self.s * other.s * d,
                         self.r * other.s + self.s * other.r, d)
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO
            return _surd(self.r * other if self.r else _ZERO, self.s * other, self.d)
        return _reject(other)

    __rmul__ = __mul__

    def _inverse(self):
        """1 / (r + s sqrt d) = (r - s sqrt d) / (r^2 - s^2 d); the norm is
        nonzero because sqrt d is irrational."""
        if not self.r:
            return _surd(_ZERO, 1 / (self.s * self.d), self.d)
        norm = self.r * self.r - self.s * self.s * self.d
        return _surd(self.r / norm, -self.s / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, Surd):
            return self * other._inverse()
        if isinstance(other, (int, Fraction)):
            return _surd(self.r / other, self.s / other, self.d)
        return _reject(other)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._inverse() * other
        return _reject(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("Surd powers take a non-negative int exponent")
        out, base = _ONE, self
        while k:
            if k & 1:
                out = base * out
            k >>= 1
            if k:
                base = base * base
        return out


_ZERO, _ONE = Fraction(0), Fraction(1)


def _rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"{x!r} is not an exact rational")


def _surd(r: Fraction, s: Fraction, d: Fraction):
    """r + s sqrt(d) from already valid parts, folded to r when s = 0."""
    if s == 0:
        return r
    out = object.__new__(Surd)
    object.__setattr__(out, "r", r)
    object.__setattr__(out, "s", s)
    object.__setattr__(out, "d", d)
    return out


def _same_radicand(x: Surd, y: Surd) -> Fraction:
    if x.d is not y.d and x.d != y.d:
        raise ValueError(f"radicands differ: sqrt({x.d}) and sqrt({y.d})")
    return x.d


def _reject(other):
    if isinstance(other, float):
        raise TypeError("float operand in exact Surd arithmetic; convert with to_float")
    return NotImplemented


def exact_sqrt(x):
    """Square root that stays exact for exact input and float for float: a
    Fraction when it is rational, else Surd(0, 1, x)."""
    if isinstance(x, float):
        return math.sqrt(x)
    x = _rational(x)
    if x.numerator < 0:
        raise ValueError(f"no real square root of {x}")
    if _is_square(x.numerator) and _is_square(x.denominator):
        return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
    return _surd(_ZERO, _ONE, x)


def to_float(x) -> float:
    return float(x)


def is_exact_zero(x) -> bool:
    """Exact zero test; a Surd is never zero, so plain equality decides it."""
    return x == 0
