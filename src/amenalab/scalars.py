"""Scalar helpers shared by the exact and floating arithmetic tiers.

Exact entries are int, Fraction, or sympy expressions (needed once square
roots of rationals enter); floats mark the analysis tier.  Arithmetic never
promotes exact values to float implicitly; `to_float` is the only crossing.
"""

from __future__ import annotations

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
    if isinstance(x, sympy.Rational):
        return Fraction(int(x.p), int(x.q))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _common_denominator(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators N_i and their common denominator L, v_i = N_i / L."""
    values = [as_fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def exact_sqrt(x):
    """Square root that stays exact for exact input (sympy) and float for float."""
    if isinstance(x, float):
        return math.sqrt(x)
    if isinstance(x, Fraction):
        x = sympy.Rational(x.numerator, x.denominator)
    return sympy.sqrt(x)


def to_float(x) -> float:
    return float(x)


def is_exact_zero(x) -> bool:
    """Exact zero test; for sympy expressions falls back to simplification."""
    if isinstance(x, sympy.Basic):
        flag = x.is_zero
        if flag is None:
            flag = sympy.simplify(x) == 0
        return bool(flag)
    return x == 0
