"""Scalar helpers shared by the exact and floating arithmetic tiers.

Exact entries are int, Fraction, or `Surd` s*sqrt(d).  The exact tier works in
the rational algebra of T = [[0, N^(1/2)], [0, N]], which is graded: at
coordinate n, its elements (and lambda_n I - T and the intertwiner N^(-1/2))
have rational diagonal blocks and an upper-right block in Q*sqrt(lambda_n).
Sums keep the grading blockwise, and so do products: the upper-right block of
[[a, b], [0, c]] [[a', b'], [0, c']] is a b' + b c', with a and c' rational.
So every exact entry is rational or a rational multiple of one square root,
and the product of two such multiples is rational.  Floats mark the analysis
tier.  Arithmetic never promotes exact values to float implicitly; `to_float`
is the only crossing, and `scaled_float` is to_float of a product that it
does not build.

`float(Surd)` gives the bits of sympy 1.14's float of the same number, so
reports do not depend on how a value was computed.  sympy writes the root as
sqrt(d) = c0*sqrt(n) with n an integer, and its choice of n sets the bits.
When sympy can factor d = num/den, n is the square-free part of num*den,
so integer trial division up to 2**15 splits each radicand once.  A cofactor
left above 2**15 that is not provably prime goes to sympy, which is
registered lazily, so its code runs only then.  Integer code then repeats
evalf's chain of roundings for c*sqrt(n), c = c0*s:

- c != 1: c is rounded toward zero to 64 bits, n to 69 bits, and sqrt(n)
  toward zero to 64 bits; the exact product is rounded to nearest (ties to
  even) at 57 bits, then again at 53, and `math.ldexp` makes the float, with
  overflow going to +-inf as in mpmath's `to_float`;
- c == 1, the bare root: n is rounded toward zero to 62 bits and sqrt(n) to
  57, then to nearest at 53.

The result is not always correctly rounded; the reports keep sympy's bits,
and the tests use sympy as the oracle for every float.  Every step depends on
the value of c alone, so `surd_float`, the one float kernel of a `Surd`
(behind `float(Surd)` and `scaled_float`), takes s as an unreduced num/den
of integers.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from fractions import Fraction
from typing import Sequence


def _lazy_module(name: str):
    """The module `name`, in sys.modules at once but run on its first
    attribute read; a module already imported is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


sympy = _lazy_module("sympy")


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
    """Integer numerators N_i and their common denominator L, v_i = N_i / L,
    of int or Fraction values; a float or any other value raises TypeError."""
    values = [_rational(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


# Trial division stops past this bound, sympy's own for a root's radicand.
_TRIAL_LIMIT = 1 << 15


def _square_free_split(num: int, den: int) -> tuple[int, int, int]:
    """sympy's sqrt(num/den) = (p0/q0) * sqrt(n), num/den in lowest terms.
    Trial division of num*den by 2 and the odd numbers up to 2**15 leaves a
    cofactor; when it is 1 or a prime (below the square of the next divisor),
    n is the square-free part of num*den and p0/q0 = sqrt(num*den / n) / den,
    which is sympy's split.  Any other cofactor is left to sympy."""
    rest = num * den
    twos = (rest & -rest).bit_length() - 1
    rest >>= twos
    root, n, k = 1 << (twos >> 1), 1 + (twos & 1), 3
    while k * k <= rest:
        if k > _TRIAL_LIMIT:
            c0, radical = sympy.sqrt(sympy.Rational(num, den)).as_coeff_Mul()
            return int(c0.p), int(c0.q), int(radical.base)
        if not rest % k:
            e = 0
            while not rest % k:  # k, k^2, k^4, ...: about log(e)^2 divisions, not e
                power, m = k, 1
                while not rest % power:
                    rest //= power
                    e += m
                    power, m = power * power, 2 * m
            root *= k ** (e >> 1)
            if e & 1:
                n *= k
        k += 2
    g = math.gcd(root, den)
    return root // g, den // g, n * rest


@functools.cache
def _root_split(num: int, den: int) -> tuple[int, int, tuple[int, int], float]:
    """The split (p0, q0, n) of sqrt(num/den), made once per radicand, with
    the parts of the float that depend on n alone in place of n: sqrt(n) cut
    to 64 bits, as (man, exp), and the float of the bare root.  The cache is
    keyed by the two ints, which hash faster than a Fraction."""
    p0, q0, n = _square_free_split(num, den)
    bare = _round_nearest(*_sqrt_down(*_truncate(n, 62), 57), 53)
    return p0, q0, _sqrt_down(*_truncate(n, 69), 64), _ldexp(*bare)


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
    c = p0/q0 * num/den.  num/den need not be in lowest terms.

    Where the result is normal, it is within 1.13 u (u = 2^-53) of the exact
    value: the bare root's cuts and rounding add 2^-62 + 2^-56 + u, the
    other chain's 2^-63 + 2^-69 + 2^-63 + 2^-57 + u.
    """
    if not num:
        return 0.0
    p0, q0, (root, root_exp), bare = _root_split(d.numerator, d.denominator)
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
    """The exact number s*sqrt(d): s a nonzero Fraction, d a positive Fraction
    whose square root is irrational.  A Surd is never rational and never zero.

    Entries of the rational algebra of T are graded: rational, or a rational
    multiple of one square root (module docstring), so a Surd keeps only the
    arithmetic that stays in the grading.  It adds to a Surd of the same
    radicand or to an exact zero, multiplies by a rational (giving a Surd or
    0) or by a Surd (giving the rational s*s'*d), and divides a rational.  A
    nonzero rational summand or another radicand raises ValueError, a float
    raises TypeError.
    """

    __slots__ = ("s", "d")

    def __init__(self, s, d):
        s, d = _rational(s), _rational(d)
        if s == 0:
            raise ValueError("s: must be nonzero; zero is Fraction(0)")
        if d <= 0 or (_is_square(d.numerator) and _is_square(d.denominator)):
            raise ValueError(f"d: {d} is not a positive non-square")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    def __repr__(self) -> str:
        return f"Surd({self.s!r}, {self.d!r})"

    def __float__(self) -> float:
        return surd_float(self.s.numerator, self.s.denominator, self.d)

    def __eq__(self, other):
        if isinstance(other, Surd):
            _same_radicand(self, other)
            return self.s == other.s
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.s, self.d))

    def __neg__(self):
        return _surd(-self.s, self.d)

    def __add__(self, other):
        if isinstance(other, Surd):
            return _surd(self.s + other.s, _same_radicand(self, other))
        if isinstance(other, (int, Fraction)):
            if other:
                raise ValueError(f"{other} + {self!r} leaves the grading: a nonzero "
                                 "rational plus a multiple of a square root")
            return self
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
            return self.s * other.s * _same_radicand(self, other)
        if isinstance(other, (int, Fraction)):
            return _surd(self.s * other, self.d)
        return _reject(other)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        """q / (s sqrt(d)) = (q / (s d)) sqrt(d)."""
        if isinstance(other, (int, Fraction)):
            return _surd(other / (self.s * self.d), self.d)
        return _reject(other)


_ZERO, _ONE = Fraction(0), Fraction(1)


def _rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"{x!r} is not an exact rational")


def _surd(s: Fraction, d: Fraction):
    """s sqrt(d) from already valid parts, folded to Fraction(0) when s = 0."""
    if s == 0:
        return _ZERO
    out = object.__new__(Surd)
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
    """The exact square root of a non-negative int or Fraction: a Fraction
    when it is rational, else Surd(1, x).  A float raises TypeError."""
    x = _rational(x)
    if x.numerator < 0:
        raise ValueError(f"no real square root of {x}")
    if _is_square(x.numerator) and _is_square(x.denominator):
        return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
    return _surd(_ONE, x)


def to_float(x) -> float:
    return float(x)


def scaled_float(x, num: int, den: int) -> float:
    """to_float(x * num / den) for an exact x (int, Fraction or `Surd`) and
    den > 0, bitwise, without building the exact product."""
    if isinstance(x, Surd):
        return surd_float(num * x.s.numerator, den * x.s.denominator, x.d)
    return num * x.numerator / (den * x.denominator)


def exact_key(x) -> tuple:
    """x by type and value, a Surd by its parts (== raises on two radicands)."""
    return (Surd, x.s, x.d) if isinstance(x, Surd) else (type(x), x)


def is_exact_zero(x) -> bool:
    """Exact zero test; a Surd is never zero, so plain equality decides it."""
    return x == 0


def hypot(x: float, y: float) -> float:
    """libm's hypot, bitwise numpy's: a complex abs calls it too, and raises
    OverflowError where the result is inf."""
    try:
        return abs(complex(x, y))
    except OverflowError:
        return math.inf


class _Frozen:
    """An immutable record of its `_fields`, set once by `_set`; it compares,
    hashes and prints as their tuple, with no code generated at import."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # called with (self, name)

    def _set(self, *values):
        vars(self).update(zip(self._fields, values))

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._astuple() == other._astuple() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._astuple()))
        return f"{type(self).__name__}({args})"
