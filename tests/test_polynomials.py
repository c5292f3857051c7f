import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amenalab import (InternalConsistencyError, Polynomial, apply_poly_to_block,
                      approximate_with_derivative, build_T, build_shifted_T, divide_shifted,
                      evaluate_on_grid, exact_sqrt, interval_sups, make_spectrum,
                      mvt_bound_check, notch, sup_norm, unit_notch)
from amenalab.polynomials import (GRID_BLOCK, _bernstein_controls, _bernstein_sum, _de_casteljau,
                                  _floats, _grid, _grid_sups, _power, _sup_candidates, _support,
                                  interval_sups_many)
from amenalab.membership import membership_trials
from amenalab.scalars import as_fraction
from oracle_utils import (approximant_oracle, bernstein_to_monomial, count_method_calls,
                          from_rational_strings, notch_derivative_array, notch_value_array,
                          plain_de_casteljau, poly_to_sympy, random_rational_poly, record_calls,
                          reference_trial, to_rational_strings)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=10)


@dataclass(frozen=True)
class PlainFunction:
    """Duck-typed stand-in for a notch: plumbing self-test inputs like x, x^2."""
    a: Fraction
    b: Fraction
    fn: Callable

    def value(self, z):
        return self.fn(as_fraction(z))


# --- basic arithmetic ---------------------------------------------------------

def test_poly_eval_examples():
    p = Polynomial((0, 6, -8))
    assert p(Fraction(1, 4)) == 1  # 6/4 - 8/16
    assert Polynomial((0, 1))(0) == 0
    assert Polynomial((0, 0, 1))(Fraction(1, 2)) == Fraction(1, 4)


def test_poly_arithmetic_and_derivative():
    p = Polynomial((1, 2, 3))
    q = Polynomial((0, 1))
    assert (p * q).coefficients == (0, 1, 2, 3)
    assert (p + q).coefficients == (1, 3, 3)
    assert (p - p).coefficients == ()
    assert p.derivative().coefficients == (2, 6)
    assert (Fraction(1, 2) * q).coefficients == (0, Fraction(1, 2))


def test_compose_affine_exact():
    p = Polynomial((0, 0, 1))  # z^2
    shifted = p.compose_affine(Fraction(1, 2), Fraction(-1))  # (1/2 - z)^2
    assert shifted.coefficients == (Fraction(1, 4), Fraction(-1), Fraction(1))


# Coefficient lists that include the zero polynomial, constants and lists whose
# trailing zeros trim away (degree drop).
coefficient_lists = st.one_of(
    st.lists(rationals, max_size=9),
    st.lists(rationals, max_size=6).map(lambda c: c + [Fraction(0)] * 3),
    st.lists(st.just(Fraction(0)), max_size=4),
)
z_sym, t_sym = sympy.symbols("z t")


def as_sympy(x: Fraction) -> sympy.Rational:
    return sympy.Rational(x.numerator, x.denominator)


def in_z(p: Polynomial) -> sympy.Expr:
    return sympy.sympify(poly_to_sympy(p, z_sym))


@settings(max_examples=80, deadline=None)
@given(coefficient_lists, rationals, st.one_of(st.just(Fraction(0)), rationals))
def test_compose_affine_matches_sympy_expansion(coeffs, alpha, beta):
    p = Polynomial(tuple(coeffs))
    got = p.compose_affine(alpha, beta)
    want = sympy.expand(in_z(p).subs(z_sym, as_sympy(alpha) + as_sympy(beta) * z_sym))
    assert sympy.expand(in_z(got) - want) == 0
    assert all(type(c) is Fraction for c in got.coefficients)
    assert not got.coefficients or got.coefficients[-1] != 0


@settings(max_examples=120, deadline=None)
@given(coefficient_lists, st.one_of(rationals, st.integers(min_value=-7, max_value=7),
                                    st.just(0), st.just(Fraction(0))))
def test_poly_call_matches_sum_of_fraction_powers(coeffs, z):
    p = Polynomial(tuple(coeffs))
    terms = [c * Fraction(z) ** k for k, c in enumerate(p.coefficients)]
    got = p(z)
    assert got == sum(terms, Fraction(0))
    assert type(got) is Fraction  # the zero polynomial too
    with pytest.raises(TypeError):
        p(float(z))  # evaluation is exact only


def exact_controls(p, a, b) -> list[Fraction]:
    """The Bernstein controls of p on [a, b] as Fractions."""
    nums, den = _bernstein_controls(p, a, b)
    return [Fraction(n, den) for n in nums]


@settings(max_examples=60, deadline=None)
@given(coefficient_lists, rationals, st.fractions(min_value=Fraction(1, 8), max_value=5,
                                                  max_denominator=12))
def test_bernstein_controls_match_sympy_bernstein_sum(coeffs, a, width):
    p = Polynomial(tuple(coeffs))
    ctrl = exact_controls(p, a, a + width)
    d = max(p.degree, 0)
    assert len(ctrl) == d + 1
    bernstein_sum = sum(as_sympy(c) * sympy.binomial(d, i) * t_sym ** i * (1 - t_sym) ** (d - i)
                        for i, c in enumerate(ctrl))
    on_interval = in_z(p).subs(z_sym, as_sympy(a) + as_sympy(width) * t_sym)
    assert sympy.expand(bernstein_sum) == sympy.expand(on_interval)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.lists(rationals, min_size=1, max_size=9),
                 st.tuples(rationals, st.integers(0, 8)).map(lambda ck: [ck[0]] * (ck[1] + 1)),
                 st.tuples(rationals, rationals, st.integers(0, 8)).map(
                     lambda abk: [abk[0] + j * abk[1] for j in range(abk[2] + 1)])),
       rationals, st.fractions(min_value=Fraction(1, 8), max_value=5, max_denominator=12))
def test_bernstein_to_monomial_round_trip(values, a, width):
    # Constant and affine value lists give monomial forms of degree 0 and 1.
    p = bernstein_to_monomial(values, a, a + width)
    k = len(values) - 1
    t = (z_sym - as_sympy(a)) / as_sympy(width)
    direct = sum(as_sympy(v) * sympy.binomial(k, j) * t ** j * (1 - t) ** (k - j)
                 for j, v in enumerate(values))
    assert sympy.expand(in_z(p) - direct) == 0
    assert bernstein_to_monomial(exact_controls(p, a, a + width), a, a + width) == p


@pytest.mark.parametrize("num", [1000, 1024, 1025, 4097])
@pytest.mark.parametrize("degree", [0, 1, 7, 128])
def test_evaluate_on_grid_matches_plain_sweep(num, degree):
    rng = random.Random(degree * 10007 + num)
    p = Polynomial(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree))
                   + (Fraction(rng.randint(1, 9), rng.randint(1, 9)),))
    a, b = Fraction(-1, 3), Fraction(5, 7)
    beta = np.array([float(c) for c in exact_controls(p, a, b)])[:, None]
    t = np.linspace(0.0, 1.0, num)
    for _ in range(degree):
        beta = beta[:-1] * (1 - t) + beta[1:] * t
    expected = np.broadcast_to(beta[0], (num,))
    assert np.array_equal(evaluate_on_grid(p, a, b, num), expected)


def test_serialization_round_trip():
    p = Polynomial((0, 6, -8, Fraction(1, 3)))
    strings = to_rational_strings(p)
    assert strings == ["0", "6", "-8", "1/3"]
    assert from_rational_strings(strings) == p


# --- notch functions ----------------------------------------------------------

def test_notch_values_first_index():
    s = make_spectrum("geometric", 16)
    f1 = notch(1, s)
    assert f1.value(0) == 0
    assert f1.value(Fraction(1, 4)) == 1   # lambda_1 - lambda_2
    assert f1.value(Fraction(1, 2)) == 1   # lambda_1 itself


def test_notch_value_on_negative_side():
    s = make_spectrum("geometric", 16)
    f2 = notch(2, s)
    assert f2.value(Fraction(-1, 4)) == 1  # lambda_2 - lambda_1


def test_notch_plateau_at_every_shifted_point():
    s = make_spectrum("geometric", 6)
    for n in range(1, 7):
        f = notch(n, s)
        assert f.value(0) == 0
        assert f.value(s.lam(n)) == 1
        for m in range(1, 7):
            if m != n:
                assert f.value(s.lam(n) - s.lam(m)) == 1


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=-2, max_value=2, max_denominator=1000))
@example(Fraction(1, 256))
@example(Fraction(-1, 256))
@example(Fraction(0))
def test_notch_value_is_the_smoothstep_of_the_scaled_distance(z):
    """The plateau test |z| >= delta runs before any division; the values
    stay those of u = |z| / delta: 1 for u >= 1, 3u^2 - 2u^3 below."""
    f = notch(1, make_spectrum("geometric", 2))  # delta = 1/256
    u = abs(z) / f.delta
    want = Fraction(1) if u >= 1 else 3 * u * u - 2 * u ** 3
    got = f.value(z)
    assert got == want and isinstance(got, Fraction)


def test_notch_range_and_degenerate_truncation():
    s = make_spectrum("geometric", 4)
    with pytest.raises(ValueError, match="out of range"):
        notch(5, s)
    single = make_spectrum("explicit", values=[Fraction(1, 2)])
    f = notch(1, single)
    assert f.value(single.lam(1)) == 1 and f.value(0) == 0


def test_notch_derivative_smoothness():
    s = make_spectrum("geometric", 8)
    f = notch(2, s)
    assert f.derivative(0) == 0
    assert f.derivative(f.delta) == 0
    assert f.derivative(-f.delta) == 0
    assert f.derivative(f.delta / 2) == Fraction(3, 2) / f.delta


def test_unit_notch_plateau():
    s = make_spectrum("geometric", 8)
    f = unit_notch(s)
    assert f.value(0) == 0
    for n in range(1, 9):
        assert f.value(s.lam(n)) == 1


# --- Bernstein approximation ---------------------------------------------------

def test_bernstein_fixes_affine_functions():
    f = PlainFunction(Fraction(0), Fraction(1), lambda x: x)
    for degree in (2, 5, 9):
        assert approximate_with_derivative(f, degree) == Polynomial((0, 1))


def test_bernstein_square_formula():
    # frozen from the direct summation: B_k(x^2) = x^2 + x(1-x)/k on [0, 1]
    f = PlainFunction(Fraction(0), Fraction(1), lambda x: x * x)
    for degree in (2, 4, 16):
        p = approximate_with_derivative(f, degree)
        assert p.coefficients == (Fraction(0), Fraction(1, degree), 1 - Fraction(1, degree))


def test_bernstein_square_direct_summation_oracle():
    x = sympy.Symbol("x")
    k = 4
    direct = sympy.expand(sum(sympy.Rational(j, k) ** 2 * sympy.binomial(k, j)
                              * x ** j * (1 - x) ** (k - j) for j in range(k + 1)))
    f = PlainFunction(Fraction(0), Fraction(1), lambda t: t * t)
    ours = poly_to_sympy(approximate_with_derivative(f, k), x)
    assert sympy.expand(ours - direct) == 0


def test_zero_pin_without_anchors():
    # a duck-typed function has no `anchors`; the origin is inside its interval
    f = PlainFunction(Fraction(-1), Fraction(1), lambda x: x * x + 1)
    p = approximate_with_derivative(f, 4)
    assert p(Fraction(0)) == 0


def test_bernstein_rejects_float_function_values():
    """Floats never enter the exact tier: a function whose values are floats
    raises TypeError, where each value's binary fraction once became a
    control numerator over a power of two."""
    f = PlainFunction(Fraction(0), Fraction(1), lambda x: float(x) / 3)
    with pytest.raises(TypeError, match="not an exact rational"):
        approximate_with_derivative(f, 4)


def test_bernstein_rejects_tiny_degree():
    s = make_spectrum("geometric", 4)
    with pytest.raises(ValueError, match="degree"):
        approximate_with_derivative(notch(1, s), 1)


def test_approximant_root_at_origin_is_exact():
    s = make_spectrum("geometric", 8)
    for n in (1, 2, 3):
        p = approximate_with_derivative(notch(n, s), 12)
        assert p.coefficients[0] == 0
        assert p(Fraction(0)) == 0


def test_notch_refinement_errors_decrease():
    # max-grid error of the approximant and its derivative, first notch
    s = make_spectrum("geometric", 16)
    f = notch(1, s)
    grid = np.linspace(float(f.a), float(f.b), 4096)
    p_err, dp_err = [], []
    for degree in (8, 16, 32, 64):
        p = approximate_with_derivative(f, degree)
        p_err.append(np.max(np.abs(evaluate_on_grid(p, f.a, f.b, 4096)
                                   - notch_value_array(f, grid))))
        dp_err.append(np.max(np.abs(evaluate_on_grid(p.derivative(), f.a, f.b, 4096)
                                    - notch_derivative_array(f, grid))))
    assert all(b < a for a, b in zip(p_err, p_err[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(dp_err, dp_err[1:]))


ORACLE_SPECTRA = (
    make_spectrum("geometric", 16),
    make_spectrum("geometric", 12, ratio=Fraction(9, 10)),
    make_spectrum("harmonic", 16),
    make_spectrum("explicit", values=[Fraction(v) for v in
                                      ("1", "1/2", "1/3", "1/4", "2/9", "1/9", "1/16", "1/18")]),
)
# Duck types without `anchors`: the origin at the left end (x^2 + 1 takes the
# pin there, x trims to degree 1), at the right end (t0 = 1) and inside.
PLAIN_FUNCTIONS = (
    PlainFunction(Fraction(0), Fraction(1), lambda x: x),
    PlainFunction(Fraction(0), Fraction(1), lambda x: x * x + 1),
    PlainFunction(Fraction(-2), Fraction(0), lambda x: x ** 3 - x / 3),
    PlainFunction(Fraction(-1), Fraction(1), lambda x: x * x + 1),
    PlainFunction(Fraction(-1, 3), Fraction(2, 5), lambda x: 1 / (1 + x * x)),
)
APPROXIMATED = tuple(f for s in ORACLE_SPECTRA
                     for f in (notch(1, s), notch(2, s), notch(3, s), unit_notch(s))) + PLAIN_FUNCTIONS


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(APPROXIMATED), st.integers(2, 128))
@example(PLAIN_FUNCTIONS[0], 128)
@example(notch(2, ORACLE_SPECTRA[3]), 128)
def test_approximant_equals_the_z_form_oracle(f, degree):
    """Built in t on integers, the approximant equals the Fraction construction
    in z coefficient for coefficient, and its seeded integer form is what
    `_common_denominator` gives."""
    p = approximate_with_derivative(f, degree)
    assert p == approximant_oracle(f, degree)
    assert p._integers == Polynomial(p.coefficients)._integers


def exact_values(nums, den) -> list[Fraction]:
    return [Fraction(n, den) for n in nums]


@pytest.mark.parametrize("degree", [2, 7, 64])
def test_birth_controls_equal_the_shifted_controls(monkeypatch, degree):
    """On its birth interval an approximant's controls come from its t-form
    with no Taylor shift, and equal in value those of the same coefficients
    shifted by `_compose_integers(a, b - a)`; the interval sups agree
    bitwise.  Another interval takes the shift."""
    for f in APPROXIMATED:
        p = approximate_with_derivative(f, degree)
        born = Polynomial(p.coefficients)  # equal, without a birth form
        shifts = count_method_calls(monkeypatch, Polynomial, "_compose_integers")
        controls = exact_values(*_bernstein_controls(p, f.a, f.b))
        sups = interval_sups(p, f.a, f.b)
        assert shifts[0] == 0
        assert controls == exact_values(*_bernstein_controls(born, f.a, f.b))
        assert sups == interval_sups(born, f.a, f.b)
        assert shifts[0] == 2
        other = (f.a - 1, f.b)
        assert (exact_values(*_bernstein_controls(p, *other))
                == exact_values(*_bernstein_controls(born, *other)))
        assert shifts[0] == 4
        monkeypatch.undo()


MIXED_GRADE = ("1", "1/2", "1/3", "1/4", "2/9", "1/9", "1/16", "1/18")
# (spectrum, degrees) of every character run of the benchmark, the golden
# reports and CI: `verify character --count 16 --degrees 8:128` (whose
# degrees include the default run's), `verify all --kind harmonic --count 8`,
# `verify all --count 8`, `--ratio 9/10 --count 32 --degrees 8:128`,
# `--kind harmonic --count 16 --degrees 8:256`, the mixed-grade config and
# `--ratio 9/10 --count 256 --degrees 8:32`.
CHARACTER_CONFIGS = {
    "geometric_half_16": (make_spectrum("geometric", 16), (8, 16, 32, 64, 128)),
    "harmonic_8": (make_spectrum("harmonic", 8), (8, 16, 32, 64)),
    "geometric_half_8": (make_spectrum("geometric", 8), (8, 16, 32, 64)),
    "ratio_9_10_32": (make_spectrum("geometric", 32, ratio=Fraction(9, 10)),
                      (8, 16, 32, 64, 128)),
    "harmonic_16": (make_spectrum("harmonic", 16), (8, 16, 32, 64, 128, 256)),
    "mixed_grade_8": (make_spectrum("explicit", values=[Fraction(v) for v in MIXED_GRADE]),
                      (8, 16, 32, 64, 128, 256)),
    "ratio_9_10_256": (make_spectrum("geometric", 256, ratio=Fraction(9, 10)), (8, 16, 32)),
}


@pytest.mark.parametrize("case", [*sorted(CHARACTER_CONFIGS), "degree_trim"])
def test_born_controls_equal_the_shifted_controls_of_the_z_form(case):
    """Every approximant of the character runs is born with the Bernstein
    controls that the Fraction oracle's z-form gives by a Taylor shift and a
    Pascal pass, exactly and at the same degree, and its lazy z-form is the
    oracle's.  The degree-trim case: B_k(x) = x and B_k(x^2) have degree 1
    and 2 at every k, so their born controls of degree k are reduced."""
    if case == "degree_trim":
        square = PlainFunction(Fraction(0), Fraction(1), lambda x: x * x)
        functions, degrees = (PLAIN_FUNCTIONS[0], square), (2, 7, 16, 64)
    else:
        s, degrees = CHARACTER_CONFIGS[case]
        functions = (*(notch(n, s) for n in (1, 2, 3)), unit_notch(s))
    for f in functions:
        for k in degrees:
            p = approximate_with_derivative(f, k)
            oracle = approximant_oracle(f, k)
            born = exact_values(*_bernstein_controls(p, f.a, f.b))
            assert born == exact_values(*_bernstein_controls(oracle, f.a, f.b)), (f, k)
            assert p.degree == oracle.degree and len(born) == max(p.degree, 0) + 1
            assert p.coefficients == oracle.coefficients
    if case == "degree_trim":
        assert p.degree == 2


def test_more_anchors_than_the_degree():
    """Three anchors at degree 2: no pin of degree 2 vanishes at all three, so
    the approximant is refused; at degree 3 the pin exists."""
    @dataclass(frozen=True)
    class Anchored(PlainFunction):
        anchors: tuple = (Fraction(-1, 2), Fraction(1, 3), Fraction(3, 4))

    f = Anchored(Fraction(-1), Fraction(1), lambda x: x * x + 1)
    with pytest.raises(ValueError, match="anchors"):
        approximate_with_derivative(f, 2)
    p = approximate_with_derivative(f, 3)
    assert p(0) == 0 and p == approximant_oracle(f, 3)


def test_birth_form_is_trimmed():
    """B_16(x) = x and B_16(x^2) = x/16 + 15 x^2/16 on [0, 1]: the birth t-form
    of degree 16 trims to the approximant's degree."""
    linear = PLAIN_FUNCTIONS[0]
    square = PlainFunction(Fraction(0), Fraction(1), lambda x: x * x)
    p = approximate_with_derivative(linear, 16)
    assert p == Polynomial((0, 1))
    assert exact_values(*_bernstein_controls(p, linear.a, linear.b)) == [0, 1]
    p = approximate_with_derivative(square, 16)
    assert p == Polynomial((0, Fraction(1, 16), Fraction(15, 16)))
    assert exact_values(*_bernstein_controls(p, square.a, square.b)) == [0, Fraction(1, 32), 1]


def test_origin_pin_guard():
    """An anchor at the origin kills the pin where it must be 1."""
    @dataclass(frozen=True)
    class Anchored(PlainFunction):
        anchors: tuple = (Fraction(0),)

    f = Anchored(Fraction(-1), Fraction(1), lambda x: x * x + 1)
    with pytest.raises(InternalConsistencyError, match="origin pin"):
        approximate_with_derivative(f, 8)


# --- the exact Bernstein kernel on the plateau's support -------------------------

def dense_bernstein_sum(ctrl, x, y):
    """sum_j c_j C(k, j) x^j y^(k-j), term by term."""
    k = len(ctrl) - 1
    return sum(c * math.comb(k, j) * x ** j * y ** (k - j) for j, c in enumerate(ctrl))


@st.composite
def integer_rows(draw):
    """Integer controls of degree 0 to 40: a dense random row, whose small
    entries tie often, or a plateau (negative, zero or positive) with 1 to 5
    controls changed, at either end or inside, to a neighbour of the
    plateau, its negative or any value."""
    k = draw(st.integers(0, 40))
    values = st.integers(-10 ** 6, 10 ** 6)
    if draw(st.booleans()):
        return draw(st.lists(st.one_of(values, st.integers(-3, 3)),
                             min_size=k + 1, max_size=k + 1))
    m = draw(st.integers(-50, 50))
    ctrl = [m] * (k + 1)
    spots = st.one_of(st.sampled_from([0, k]), st.integers(0, k))
    near = st.sampled_from([m + 1, m - 1, -m, 2 * m + 1])
    for i in draw(st.lists(spots, min_size=1, max_size=5)):
        ctrl[i] = draw(st.one_of(near, values))
    return ctrl


@settings(max_examples=300, deadline=None)
@given(integer_rows(), st.one_of(st.just((-1, 1)),
                                 st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                                 st.tuples(st.integers(-10 ** 30, 10 ** 30),
                                           st.integers(1, 10 ** 30))))
@example([7], (3, 5))  # k = 0
@example([3, -4], (2, 5))  # k = 1, no control repeats
@example([5, 0, 0, 0, 7], (2, 3))  # off the plateau at both ends: lo = 0, hi = k
@example([1, 2, 1, 2, 3], (2, -3))  # a tie for the most frequent control
@example([-4, -4, -9, -4, -4], (-1, 1))  # the top t-coefficient, plateau negative
@example([6, 6, 6, 6], (-1, 1))  # no control off the plateau
def test_bernstein_sum_equals_the_dense_sum(ctrl, point):
    """`_bernstein_sum` on `_support` equals the dense sum over every
    control, at any integer point, (-1, 1) and k = 0 included.  The support
    keeps every control off the plateau, a most frequent control (0 if none
    repeats), and starts and ends at one unless there is none."""
    x, y = point
    support = _support(ctrl)
    k, m, lo, weights = support
    hi = lo + len(weights) - 1
    counts = Counter(ctrl)
    top = max(counts.values())
    assert k == len(ctrl) - 1
    assert counts[m] == top if top > 1 else m == 0
    assert all(c == m for j, c in enumerate(ctrl) if not lo <= j <= hi)
    assert (ctrl[lo] != m and ctrl[hi] != m) if any(c != m for c in ctrl) else weights == [0]
    assert _bernstein_sum(support, x, y, (x + y) ** k) == dense_bernstein_sum(ctrl, x, y)


@pytest.mark.parametrize("kind", ["geometric", "harmonic"])
def test_notch_approximants_leave_their_plateau_at_most_three_times(kind):
    """The structure `_bernstein_sum` runs on: every notch approximant of a
    pipeline ladder, degree 8 to 256, has at most three controls off its
    plateau, all in a span of at most three."""
    s = make_spectrum(kind, 16)
    for f in (unit_notch(s), notch(1, s), notch(2, s), notch(3, s)):
        for k in (8, 16, 32, 64, 128, 256):
            ctrl = approximate_with_derivative(f, k)._birth[2]
            support = _support(ctrl)
            assert 1 <= sum(c != support.plateau for c in ctrl) <= len(support.weights) <= 3


# --- shifted division and the mean-value bound ---------------------------------

def test_divide_shifted_guard_catches_a_broken_shift(monkeypatch):
    """r_0 of the shift is checked against an independent Horner value of p(lam)."""
    original = Polynomial._compose_integers

    def broken(nums, alpha, beta):
        acc, scale = original(nums, alpha, beta)
        return [acc[0] + 1] + acc[1:], scale

    p = approximate_with_derivative(notch(2, make_spectrum("geometric", 8)), 16)
    lam = Fraction(1, 2)
    divide_shifted(p, lam)
    monkeypatch.setattr(Polynomial, "_compose_integers", staticmethod(broken))
    with pytest.raises(InternalConsistencyError, match="nonzero remainder"):
        divide_shifted(p, lam)
    with pytest.raises(InternalConsistencyError):
        divide_shifted(Polynomial((0, 1)), lam)


def test_divide_shifted_linear_and_quadratic():
    lam = Fraction(1, 2)
    q = divide_shifted(Polynomial((0, 1)), lam)
    assert q.coefficients == (2 * lam, Fraction(-1))
    q2 = divide_shifted(Polynomial((0, 0, 1)), lam)
    assert q2.coefficients == (3 * lam ** 2, -3 * lam, Fraction(1))
    assert divide_shifted(Polynomial.zero(), lam) == Polynomial.zero()


def test_divide_shifted_sympy_expansion_oracle():
    rng = random.Random(2)
    z = sympy.Symbol("z")
    for _ in range(25):
        p = random_rational_poly(rng, 8)
        lam = Fraction(1, 2 ** rng.randint(1, 6))
        q = divide_shifted(p, lam)
        lam_s = sympy.Rational(lam.numerator, lam.denominator)
        p_s = poly_to_sympy(p, z)
        lhs = lam_s * p_s.subs(z, lam_s) - (lam_s - z) * p_s.subs(z, lam_s - z)
        assert sympy.expand(lhs - z * poly_to_sympy(q, z)) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=9),
       st.fractions(min_value=Fraction(1, 64), max_value=1, max_denominator=64))
def test_divide_shifted_reconstruction_pointwise(coeffs, lam):
    p = Polynomial((Fraction(0),) + tuple(coeffs))
    q = divide_shifted(p, lam)
    # polynomial identity checked at degree+2 distinct rational points
    for i in range(p.degree + 3):
        point = Fraction(i - 3, 7)
        lhs = lam * p(lam) - (lam - point) * p(lam - point)
        assert lhs == point * q(point)


def test_sup_norm_spectrum_and_interval():
    s = make_spectrum("geometric", 3)
    assert sup_norm(Polynomial((0, 1)), s) == 0.5
    p = Polynomial((1, -1))  # 2*lambda - z at lambda = 1/2
    assert interval_sups(p, Fraction(-1, 2), Fraction(1, 2))[0] == pytest.approx(1.5, abs=1e-12)
    assert sup_norm(Polynomial.zero(), s) == 0.0
    assert interval_sups(Polynomial.zero(), 0, 1)[0] == 0.0


def _full_sweep_sup(p, a, b):
    """The grid sup as the whole de Casteljau sweep gives it."""
    return float(np.max(np.abs(evaluate_on_grid(p, a, b, 4096))))


@pytest.mark.parametrize("kind,ratio,degree", [
    (kind, ratio, degree)
    for kind, ratio in (("geometric", "1/2"), ("geometric", "9/10"), ("harmonic", ""))
    for degree in (8, 33, 128, 256)
])
def test_sup_norm_equals_full_sweep_on_notch_approximants(kind, ratio, degree):
    """The interval sups of p and of p', each converted on its own, and both
    sups of `interval_sups` of p, are the full sweeps' maxima; so the control
    differences that `interval_sups` takes for p' are checked too."""
    s = make_spectrum(kind, 16, **({"ratio": Fraction(ratio)} if ratio else {}))
    for f in (notch(1, s), notch(2, s), notch(3, s), unit_notch(s)):
        p = approximate_with_derivative(f, degree)
        expected = (_full_sweep_sup(p, f.a, f.b), _full_sweep_sup(p.derivative(), f.a, f.b))
        assert (interval_sups(p, f.a, f.b)[0],
                interval_sups(p.derivative(), f.a, f.b)[0]) == expected
        assert interval_sups_many([(p, f.a, f.b)] * 2) == [expected] * 2


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, max_size=65), rationals,
       st.fractions(min_value=Fraction(1, 10), max_value=4, max_denominator=10))
@example([], Fraction(0), Fraction(1))
@example([Fraction(-5, 3)], Fraction(-1), Fraction(2))
@example([Fraction(-1, 4), 0, 1], Fraction(-1, 2), Fraction(1))
@example([Fraction(-1, 8), 0, 1], Fraction(-1, 2), Fraction(1))  # |p| = 1/8 at 0 and both ends
@example([-1, 0, 2], Fraction(-1), Fraction(2))  # Chebyshev T2: |p| = 1 at 0 and both ends
# Flat tops 1 - z^m: hundreds of grid points whose exact values agree to within
# rounding, so only the error bound tells which swept float is the largest.
@example([1] + [0] * 15 + [-1], Fraction(-1), Fraction(2))
@example([1] + [0] * 31 + [-1], Fraction(-1, 2), Fraction(1))
@example([1] + [0] * 63 + [-1], Fraction(-1), Fraction(2))
# The hull certificate: the endpoint control 1/10 is the largest, but the sweep
# rounds above it, so the guard must reject.
@example([Fraction(1, 10)] + [0] * 7 + [Fraction(-1, 1000)], Fraction(0), Fraction(1))
@example([-1, 0, Fraction(1, 2)], Fraction(0), Fraction(1))  # controls -1, -1, -1/2
@example([1, -2, 2], Fraction(0), Fraction(1))  # controls 1, 0, 1: largest at both ends
# 1 - (1 - z)^8, controls 0, 1, ..., 1: the plateau of the n = 1 notch
@example([0, 8, -28, 56, -70, 56, -28, 8, -1], Fraction(0), Fraction(1))
@example([0, 2, -2], Fraction(0), Fraction(1))  # controls 0, 1, 0: largest inside
def test_sup_norm_equals_full_sweep_on_random_polynomials(coeffs, a, width):
    p = Polynomial(tuple(coeffs))
    b = a + width
    expected = _full_sweep_sup(p, a, b)
    assert interval_sups(p, a, b) == (expected, _full_sweep_sup(p.derivative(), a, b))


@pytest.mark.parametrize("coeffs,sweeps", [
    ([-1, 0, Fraction(1, 2)], 0),
    ([1, -2, 2], 0),
    ([0, 8, -28, 56, -70, 56, -28, 8, -1], 0),
    ([Fraction(1, 10)] + [0] * 7 + [Fraction(-1, 1000)], 1),
    ([0, 2, -2], 1),
], ids=["negative_end", "both_ends", "plateau", "guard_rejects", "largest_inside"])
def test_hull_certificate_decides_endpoint_maxima_without_a_sweep(monkeypatch, coeffs, sweeps):
    calls = record_calls(monkeypatch, "amenalab.polynomials", "_de_casteljau")
    _grid_sups([_floats(*_bernstein_controls(Polynomial(tuple(coeffs)), Fraction(0), Fraction(1)))])
    assert sum(len(rows) for rows, in calls) == sweeps


def candidates(ctrl):
    """`_sup_candidates` on the 4096-point grid, with the row's own (2w)^k."""
    grid = _grid(4096)
    with np.errstate(over="ignore"):
        return _sup_candidates(ctrl, grid, _power(grid.twice_max, len(ctrl) - 1))


def test_sup_candidates_keep_every_point_when_the_bound_overflows():
    assert candidates(np.array([1e308, -1e308, 1e308])).all()
    # From degree 1024 (2 max(t, s))^k overflows at t = 0; at degree 1100 the
    # middle binomials leave the double range too.
    assert candidates(np.ones(1025)).all()
    assert candidates(np.ones(1101)).all()


def test_sup_candidates_prune_a_notch_derivative():
    """A notch approximant p sits on the plateau 1.0 and p' on 0.0, each with
    a few controls off it; the filter keeps few columns for either."""
    f = notch(2, make_spectrum("geometric", 16))
    p = approximate_with_derivative(f, 128)
    for q in (p, p.derivative()):
        ctrl = _floats(*_bernstein_controls(q, f.a, f.b))
        assert np.count_nonzero(candidates(ctrl)) <= 4096 // 16


@st.composite
def plateau_rows(draw):
    """Controls of degree 1 to 300 on a plateau, with 1 to 5 of them changed,
    the first and the last among the candidates."""
    k = draw(st.integers(1, 300))
    m = draw(st.sampled_from([0.0, 1.0, 0.1, -2.5]))
    ctrl = np.full(k + 1, m)
    spots = st.one_of(st.sampled_from([0, k]), st.integers(0, k))
    near = st.sampled_from([m + 2.0 ** -30, m - 2.0 ** -30, -m, 2 * m + 1])
    for i in draw(st.lists(spots, min_size=1, max_size=5)):
        ctrl[i] = draw(st.one_of(near, st.floats(-4, 4)))
    return ctrl


@settings(max_examples=8, deadline=None)  # each example sweeps all 4096 columns
@given(plateau_rows())
@example(np.array([0.1] * 5 + [0.0] + [0.1] * 5))  # a dip: the maximum is off the support
@example(np.array([0.0] * 40 + [0.5]))  # only the last control changed
@example(np.array([-3.0] + [1.0] * 40))  # only the first
@example(np.array([1.0, 0.5] + [0.1] * 37 + [0.3, 1.0]))  # both ends and inner controls
def test_sup_candidates_keep_the_largest_value_of_a_plateau_row(ctrl):
    """On a plateau row the mask keeps the column of the largest |value| of
    the plain sweep over the whole grid, and `_grid_sups` returns that value
    bitwise.  The full sweep is `_de_casteljau`'s, which equals the plain one
    bitwise (`test_batched_sweep_equals_plain_sweep_per_row`); the plain
    sweep confirms it at the chosen column."""
    grid = _grid(4096)
    values = np.abs(_de_casteljau([(ctrl, grid.t, grid.s)])[0])
    j = int(np.argmax(values))
    assert abs(plain_de_casteljau(ctrl, grid.t[j:j + 1], grid.s[j:j + 1])[0]) == values[j]
    assert candidates(ctrl)[j]
    assert _grid_sups([ctrl]) == [float(values[j])]


def test_batched_sweep_equals_plain_sweep_per_row():
    """`_de_casteljau` sweeps rows of degrees 0 to 300 in one call, each at
    its own grid columns: none, a few, or all 4096, a row that spans several
    GRID_BLOCK blocks and shares its first and last with rows of higher and
    lower degree.  Every value is bitwise the plain sweep of its row alone."""
    rng = np.random.default_rng(26)
    grid = _grid(4096)
    rows = [(rng.standard_normal(10), grid.t[:0], grid.s[:0])]
    for k in (0, 1, 300, 7, 64, 2, 128, 33, 255, 17, 300, 5):
        cols = np.sort(rng.choice(4096, size=rng.integers(1, 25), replace=False))
        rows.append((rng.standard_normal(k + 1), grid.t[cols], grid.s[cols]))
    rows.append((rng.standard_normal(25), grid.t, grid.s))
    assert 4096 > 3 * GRID_BLOCK
    got = _de_casteljau(rows)
    assert len(got) == len(rows)
    for (ctrl, t, s), values in zip(rows, got):
        assert values.tobytes() == plain_de_casteljau(ctrl, t, s).tobytes()


def test_grid_sups_sweep_a_batch_once(monkeypatch):
    """`_grid_sups` on rows of mixed degree: the hull certificate decides the
    unit approximant, the filter prunes the kernel_n2 one, and a row whose
    error bound overflows keeps every grid column.  The rows left go into one
    `_de_casteljau` call, and each sup is bitwise the largest |value| of the
    plain sweep of its row over the whole grid."""
    s = make_spectrum("geometric", 16)
    rows = []
    for f, k in ((notch(2, s), 33), (unit_notch(s), 8)):
        p = approximate_with_derivative(f, k)
        rows.append(_floats(*_bernstein_controls(p, f.a, f.b)))
        rows.append(_floats(*_bernstein_controls(p.derivative(), f.a, f.b)))
    rows.append(np.array([1e305, -1e305] * 12 + [1e305]))  # degree 24, C(24, 12) 1e305 overflows
    calls = record_calls(monkeypatch, "amenalab.polynomials", "_de_casteljau")
    got = _grid_sups(rows)
    assert len(calls) == 1
    kept = sorted(len(t) for _, t, _ in calls[0][0])
    assert kept[-1] == 4096 and len(kept) < len(rows) and kept[0] < 4096 // 16
    grid = _grid(4096)
    for ctrl, sup in zip(rows, got):
        assert sup == float(np.max(np.abs(plain_de_casteljau(ctrl, grid.t, grid.s))))


def test_grid_sups_raise_the_grid_once_per_degree(monkeypatch):
    """Swept rows of four degrees, up to four rows of one degree, in an order
    that mixes them: `_grid_sups` raises 2 max(t, s) once per degree, filters
    each row with its own degree's power, and every sup is bitwise the
    largest |value| of the full sweep of its row."""
    s = make_spectrum("geometric", 16)
    rows = []
    for k in (33, 8, 16, 33, 8):
        for f in (notch(2, s), notch(3, s)):
            p = approximate_with_derivative(f, k)
            rows.append(_floats(*_bernstein_controls(p, f.a, f.b)))
    rows += [rows.pop(0), np.array([0.5, -1.0, 2.0, 0.25])]
    grid = _grid(4096)
    powers = record_calls(monkeypatch, "amenalab.polynomials", "_power")
    filtered = record_calls(monkeypatch, "amenalab.polynomials", "_sup_candidates")
    got = _grid_sups(rows)
    assert len(filtered) == len(rows)
    assert sorted(k for x, k in powers if x is grid.twice_max) == [3, 8, 16, 33]
    for ctrl, _, scale in filtered:
        assert scale.tobytes() == _power(grid.twice_max, len(ctrl) - 1).tobytes()
    full = _de_casteljau([(ctrl, grid.t, grid.s) for ctrl in rows])
    assert got == [float(np.max(np.abs(values))) for values in full]


def test_interval_sups_many_equal_one_request_each(monkeypatch):
    """A batch gives each request's `interval_sups`, in order, and sweeps
    each key once: kernel_n1 and the unit share their controls on [0, 1],
    and one request repeats, so 7 requests have 4 keys, whose p and p' make
    8 grid sups in one call, and equal keys get the same sups."""
    s = make_spectrum("harmonic", 8)
    requests = [(approximate_with_derivative(f, k), f.a, f.b)
                for f in (notch(1, s), unit_notch(s), notch(3, s)) for k in (8, 16)]
    requests.append(requests[0])
    want = [interval_sups(p, a, b) for p, a, b in requests]
    calls = record_calls(monkeypatch, "amenalab.polynomials", "_grid_sups")
    got = interval_sups_many(requests)
    assert got == want and [len(ctrls) for ctrls, in calls] == [8]
    assert got[0] is got[-1] and got[0] is got[2] and got[1] is got[3]
    assert interval_sups_many([]) == []


def test_grid_is_built_once_and_read_only():
    """The sup filter's grid arrays are shared by every call in a process,
    so none of them may be written; t <= s holds exactly on the first half."""
    grid = _grid(4096)
    assert _grid(4096) is grid
    assert np.array_equal(grid.t, np.linspace(0.0, 1.0, 4096))
    assert np.array_equal(grid.s, 1 - grid.t)
    assert (grid.t[:grid.half] <= grid.s[:grid.half]).all()
    assert (grid.t[grid.half:] > grid.s[grid.half:]).all()
    for x in (grid.t, grid.s, grid.left_ratio, grid.right_ratio, grid.twice_max):
        with pytest.raises(ValueError):
            x[0] = 0.5


# --- one exact path per kernel --------------------------------------------------

@pytest.mark.parametrize("z", [0.5, 0.0, exact_sqrt(Fraction(1, 2))],
                         ids=["float", "float_zero", "surd"])
def test_evaluation_takes_rationals_only(z):
    for p in (Polynomial((0, 1, Fraction(1, 3))), Polynomial.zero()):
        with pytest.raises(TypeError):
            p(z)


# Floats never enter the exact tier through a polynomial's entry points.

def test_constructor_rejects_a_float_coefficient():
    with pytest.raises(TypeError):
        Polynomial((0, 0.1))
    assert Polynomial((0, 1, Fraction(1, 3))).coefficients == (0, 1, Fraction(1, 3))


def test_constant_rejects_a_float():
    with pytest.raises(TypeError):
        Polynomial.constant(0.5)
    assert Polynomial.constant(Fraction(1, 2)).coefficients == (Fraction(1, 2),)


def test_monomial_rejects_a_float_coefficient():
    with pytest.raises(TypeError):
        Polynomial.monomial(3, 0.25)
    assert Polynomial.monomial(2, Fraction(1, 4)).coefficients == (0, 0, Fraction(1, 4))


def test_scalar_product_rejects_a_float():
    p = Polynomial((0, 1, Fraction(1, 3)))
    for product in (lambda: p * 0.5, lambda: 0.5 * p):
        with pytest.raises(TypeError):
            product()
    assert 3 * p == p * Fraction(3) == Polynomial((0, 3, 1))


_P = Polynomial((0, 1, Fraction(1, 3)))
_S = make_spectrum("geometric", 4)
FLOAT_ENTRY_POINTS = {
    "compose_affine": lambda: _P.compose_affine(0.1, 1.0),
    "divide_shifted": lambda: divide_shifted(_P, 0.1),
    "interval_sups": lambda: interval_sups(_P, 0.0, 0.1),
    "evaluate_on_grid": lambda: evaluate_on_grid(_P, 0.0, 0.5, 9),
    "mvt_bound_check": lambda: mvt_bound_check(_P, divide_shifted(_P, Fraction(1, 2)), 0.5, _S),
    "notch_value": lambda: notch(1, _S).value(0.1),
    "notch_derivative": lambda: notch(1, _S).derivative(0.1),
    "approximate_with_derivative": lambda: approximate_with_derivative(
        PlainFunction(-0.5, Fraction(1, 2), lambda x: x), 4),
}


@pytest.mark.parametrize("name", sorted(FLOAT_ENTRY_POINTS))
def test_entry_points_reject_a_float(name):
    """A float argument raises TypeError instead of entering the exact tier
    as its binary value."""
    with pytest.raises(TypeError):
        FLOAT_ENTRY_POINTS[name]()


def test_zero_polynomial_runs_the_integer_kernels():
    """Zero is the integer form ((0,), 1), and every kernel gives exact zeros
    from its one path."""
    zero = Polynomial.zero()
    assert zero._integers == ((0,), 1)
    for z in (0, Fraction(0), Fraction(-7, 3)):
        assert zero(z) == 0 and type(zero(z)) is Fraction
    for alpha, beta in ((Fraction(1, 2), Fraction(-3)), (0, Fraction(2, 5))):
        shifted = zero.compose_affine(alpha, beta)
        assert shifted == zero and shifted._integers == ((0,), 1)
    assert _bernstein_controls(zero, Fraction(-1), Fraction(2)) == ([0], 1)
    assert interval_sups(zero, Fraction(-1), Fraction(2)) == (0.0, 0.0)
    q = divide_shifted(zero, Fraction(1, 2))
    assert q == zero and q._integers == ((0,), 1)
    # an approximant of the zero function is zero, and its t-form is read from birth
    born = approximate_with_derivative(PlainFunction(Fraction(-1), Fraction(1),
                                                     lambda x: Fraction(0)), 4)
    assert born == zero and born._integers == ((0,), 1)
    assert _bernstein_controls(born, Fraction(-1), Fraction(1)) == ([0], 1)
    assert interval_sups(born, Fraction(-1), Fraction(1)) == (0.0, 0.0)
    s = make_spectrum("geometric", 4)
    for X in (build_T(s), build_shifted_T(s, 2)):
        image = apply_poly_to_block(zero.coefficients, X)
        assert all(type(x) is Fraction and x == 0
                   for block in (image.b11, image.b12, image.b22) for x in block.diag)
        assert reference_trial(zero, X, s) == (0.0, 0.0, 0.0)
    assert membership_trials([zero], s) == [(0.0, 0.0, 0.0)]


def test_mvt_bound_linear_case():
    s = make_spectrum("geometric", 4)
    lam = Fraction(1, 2)
    p = Polynomial((0, 1))
    q = divide_shifted(p, lam)
    check = mvt_bound_check(p, q, lam, s)
    assert check.ok
    assert check.lhs == pytest.approx(1.0, abs=1e-14)
    assert check.rhs == pytest.approx(1.0, abs=1e-12)


def test_mvt_bound_zero_and_quadratic():
    s = make_spectrum("geometric", 4)
    lam = Fraction(1, 2)
    zero = Polynomial.zero()
    check = mvt_bound_check(zero, divide_shifted(zero, lam), lam, s)
    assert check.ok and check.lhs == 0.0 and check.rhs == 0.0
    p = Polynomial((0, 0, 1))
    check = mvt_bound_check(p, divide_shifted(p, lam), lam, s)
    assert check.ok and check.lhs <= check.rhs + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=6))
def test_mvt_bound_never_fails_for_divided_pairs(coeffs):
    s = make_spectrum("geometric", 5)
    p = Polynomial((Fraction(0),) + tuple(coeffs))
    for n in (1, 3):
        lam = s.lam(n)
        assert mvt_bound_check(p, divide_shifted(p, lam), lam, s).ok
