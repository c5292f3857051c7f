import math
import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalab import Surd, exact_sqrt, is_exact_zero, make_spectrum
from oracle_utils import to_sympy


def _non_squares(values):
    return [v for v in values
            if math.isqrt(v.numerator) ** 2 != v.numerator
            or math.isqrt(v.denominator) ** 2 != v.denominator]


# Radicands the pipelines meet: points of geometric 1/2 and 9/10 and of harmonic spectra.
RADICANDS = _non_squares(make_spectrum("geometric", 24, ratio=Fraction(1, 2)).values
                         + make_spectrum("geometric", 24, ratio=Fraction(9, 10)).values
                         + make_spectrum("harmonic", 40).values)
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)
nonzero = rationals.filter(bool)


@st.composite
def surd_and_operand(draw):
    """A Surd over one of RADICANDS and an int, Fraction or Surd over the same one."""
    d = draw(st.sampled_from(RADICANDS))
    x = Surd(draw(rationals), draw(nonzero), d)
    y = draw(st.one_of(st.integers(min_value=-9, max_value=9), rationals,
                       st.builds(lambda r, s: Surd(r, s, d), rationals, nonzero)))
    return x, y


def _same_number(got, want) -> bool:
    """Exact: `want` is a polynomial in one square root, which expand makes canonical."""
    return sympy.expand(to_sympy(got) - want) == 0


def _never_rational_surd(value):
    assert not isinstance(value, Surd) or value.s != 0
    assert isinstance(value, (int, Fraction, Surd))


@settings(max_examples=60, deadline=None)
@given(surd_and_operand())
def test_surd_ring_operations_match_sympy(pair):
    x, y = pair
    sx, sy = to_sympy(x), to_sympy(y)
    for op in (operator.add, operator.sub, operator.mul):
        for got, want in ((op(x, y), op(sx, sy)), (op(y, x), op(sy, sx))):
            _never_rational_surd(got)
            assert _same_number(got, sympy.expand(want))
    negated = -x
    _never_rational_surd(negated)
    assert _same_number(negated, -sx)


@settings(max_examples=60, deadline=None)
@given(surd_and_operand())
def test_surd_division_matches_sympy(pair):
    # q = a / b is checked as q * b = a, so the oracle only multiplies
    x, y = pair
    sx, sy = to_sympy(x), to_sympy(y)
    quotients = [(x / y, sy, sx)] if y != 0 else []
    quotients.append((y / x, sx, sy))
    for q, divisor, dividend in quotients:
        _never_rational_surd(q)
        assert sympy.expand(to_sympy(q) * divisor - dividend) == 0


@settings(max_examples=40, deadline=None)
@given(surd_and_operand(), st.integers(min_value=0, max_value=6))
def test_surd_power_matches_sympy(pair, k):
    x, _ = pair
    got = x ** k
    _never_rational_surd(got)
    assert _same_number(got, sympy.expand(to_sympy(x) ** k))


@settings(max_examples=60, deadline=None)
@given(surd_and_operand())
def test_surd_equality_and_hash(pair):
    x, y = pair
    twin = Surd(x.r, x.s, x.d)
    assert x == twin and hash(x) == hash(twin)
    assert x != x + 1 and x != x * 2
    assert x != x.r and not is_exact_zero(x)
    assert (x == y) == _same_number(x, to_sympy(y))


@settings(max_examples=100, deadline=None)
@given(surd_and_operand())
def test_surd_float_is_sympy_float_bitwise(pair):
    x, y = pair
    for value in (x, x * y if isinstance(y, Surd) else x + y):
        assert float(value) == float(to_sympy(value))


def test_surd_float_of_integer_roots_is_sympy_float():
    # 1/sqrt(1/n) = sqrt(n) is the idempotent symbol of the harmonic spectrum;
    # sympy floats a bare sqrt(n) differently from 1*sqrt(n) (n = 38, 269, ...)
    for n in _non_squares([Fraction(n) for n in range(2, 600)]):
        root = 1 / exact_sqrt(1 / n)
        assert float(root) == float(sympy.sqrt(to_sympy(n)))


def test_surd_float_keeps_sympy_rounding():
    # 37 sqrt(1/2) lies above the midpoint of these two adjacent doubles, so
    # the correctly rounded value is `above`; sympy's float, which the reports
    # carry, is `below`.  Correct rounding would change this test.
    below, above = float.fromhex("0x1.a29b726831d24p+4"), float.fromhex("0x1.a29b726831d25p+4")
    assert math.nextafter(below, math.inf) == above
    midpoint = (Fraction(below) + Fraction(above)) / 2
    assert Fraction(37) ** 2 / 2 > midpoint ** 2
    assert float(37 * exact_sqrt(Fraction(1, 2))) == below


def test_perfect_squares_fold_to_fraction():
    root = exact_sqrt(Fraction(9, 4))
    assert type(root) is Fraction and root == Fraction(3, 2)
    eighth = exact_sqrt(Fraction(1, 8))
    assert eighth == Surd(0, 1, Fraction(1, 8))
    square = eighth * eighth
    assert type(square) is Fraction and square == Fraction(1, 8)
    assert exact_sqrt(0) == 0 and type(exact_sqrt(4)) is Fraction
    difference = eighth - eighth
    assert type(difference) is Fraction and is_exact_zero(difference)


def test_mixing_radicands_raises_value_error():
    half, third = exact_sqrt(Fraction(1, 2)), exact_sqrt(Fraction(1, 3))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq):
        with pytest.raises(ValueError, match="radicands differ"):
            op(half, third)


def test_float_operand_raises_type_error():
    x = exact_sqrt(Fraction(1, 2))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError, match="float operand"):
            op(x, 0.5)
        with pytest.raises(TypeError, match="float operand"):
            op(0.5, x)


def test_surd_rejects_invalid_parts():
    with pytest.raises(ValueError, match="s: must be nonzero"):
        Surd(1, 0, 2)
    for d in (Fraction(9, 4), 0, -2):
        with pytest.raises(ValueError, match="not a positive non-square"):
            Surd(0, 1, d)
    with pytest.raises(TypeError):
        Surd(0, 0.5, 2)
    with pytest.raises(ValueError, match="no real square root"):
        exact_sqrt(Fraction(-1, 2))
