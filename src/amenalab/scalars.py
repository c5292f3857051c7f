"""Scalar helpers shared by the exact and floating arithmetic tiers.

Exact entries are int, Fraction, or `Surd` r + s*sqrt(d): every exact entry
at coordinate n of the block core lies in Q(sqrt(lambda_n)), so one radicand
per coordinate is all the exact tier needs.  Floats mark the analysis tier.
Arithmetic never promotes exact values to float implicitly; `to_float` is the
only crossing.

`float(Surd)` gives the bits of sympy 1.14's float of the same number, so
reports do not depend on how a value was computed.  sympy splits each
radicand once, sqrt(d) = c0*sqrt(n) with n an integer; its choice of n sets
the bits.  For r = 0, integer code then repeats evalf's chain of roundings
for c*sqrt(n), c = c0*s:

- c != 1: c is rounded toward zero to 64 bits, n to 69 bits, and sqrt(n)
  toward zero to 64 bits; the exact product is rounded to nearest (ties to
  even) at 57 bits, then again at 53, and `math.ldexp` makes the float, with
  overflow going to +-inf as in mpmath's `to_float`;
- c == 1, the bare root: n is rounded toward zero to 62 bits and sqrt(n) to
  57, then to nearest at 53.

The result is not always correctly rounded; the reports keep sympy's bits.
Every step depends on the value of c alone, so `surd_float`, the float kernel
behind `float(Surd)`, takes s as an unreduced num/den of integers.
A value with r != 0, which no pipeline floats, is floated by sympy itself,
and the tests use sympy as the oracle for every float.
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
def _sympy_root(num: int, den: int) -> tuple[int, int, tuple[int, int], float]:
    """sympy's sqrt(d) = (p0/q0) * sqrt(n) for d = num/den, split once per
    radicand, with the parts of the float that depend on n alone: sqrt(n) cut
    to 64 bits, as (man, exp), and the float of the bare root.  sympy writes
    the root of a positive rational as a rational times the root of an
    integer n, and its choice of n sets the bits, so the split stays sympy's.
    The cache is keyed by the two ints, which hash faster than a Fraction."""
    c0, root = sympy.sqrt(sympy.Rational(num, den)).as_coeff_Mul()
    n = int(root.base)
    bare = _round_nearest(*_sqrt_down(*_truncate(n, 62), 57), 53)
    return int(c0.p), int(c0.q), _sqrt_down(*_truncate(n, 69), 64), _ldexp(*bare)


def _truncate(n: int, bits: int) -> tuple[int, int]:
    """n > 0 rounded toward zero to `bits` bits, as (man, exp)."""
    drop = max(n.bit_length() - bits, 0)
    return n >> drop, drop


def _sqrt_down(man: int, exp: int, bits: int) -> tuple[int, int]:
    """sqrt(man * 2**exp) rounded toward zero to `bits` bits, as (man, exp)."""
    if exp & 1:
        man, exp = man << 1, exp - 1
    shift = max(2 * bits + 2 - man.bit_length(), 0) + 1 >> 1
    root = math.isqrt(man << 2 * shift)
    drop = max(root.bit_length() - bits, 0)
    return root >> drop, exp // 2 - shift + drop


def _round_nearest(man: int, exp: int, bits: int) -> tuple[int, int]:
    """man * 2**exp (man > 0) rounded to nearest, ties to even, at `bits` bits."""
    drop = man.bit_length() - bits
    if drop <= 0:
        return man, exp
    out, rest = man >> drop, man & ((1 << drop) - 1)
    half = 1 << (drop - 1)
    if rest > half or (rest == half and out & 1):
        out += 1
    return out, exp + drop


def _ldexp(man: int, exp: int) -> float:
    """man * 2**exp as mpmath's to_float makes it: overflow goes to +-inf."""
    try:
        return math.ldexp(man, exp)
    except OverflowError:
        return math.copysign(math.inf, man)


def surd_float(num: int, den: int, d: Fraction) -> float:
    """float((num/den) * sqrt(d)) with sympy's bits, for d a positive
    non-square and den > 0: the rounding chain of the module docstring for
    c = p0/q0 * num/den.  num/den need not be in lowest terms."""
    if not num:
        return 0.0
    p0, q0, (root, root_exp), bare = _sympy_root(d.numerator, d.denominator)
    p, q = p0 * num, q0 * den
    if p == q:
        return bare
    # |c| = |p|/q scaled to 65 or 66 bits, floored, then cut to 64
    a = abs(p)
    shift = 65 - a.bit_length() + q.bit_length()
    c = (a << shift) // q if shift >= 0 else a // (q << -shift)
    drop = c.bit_length() - 64
    man, exp = _round_nearest((c >> drop) * root, drop - shift + root_exp, 57)
    man, exp = _round_nearest(man, exp, 53)
    return _ldexp(-man if p < 0 else man, exp)


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
        if self.r:
            return float(self._sympy_())
        return surd_float(self.s.numerator, self.s.denominator, self.d)

    def _sympy_(self):
        """The exact value Rational(r) + Rational(s)*sqrt(d), so sympify and
        mixed sympy arithmetic stay exact instead of going through float."""
        r, s, d = (sympy.Rational(x.numerator, x.denominator) for x in (self.r, self.s, self.d))
        return r + s * sympy.sqrt(d)

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
