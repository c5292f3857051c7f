import random
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
from amenalab.polynomials import (_bernstein_controls, _float_grid, _floats, _grid_sup,
                                  _sup_candidates)
from amenalab.amenability import membership_trials
from amenalab.scalars import as_fraction
from oracle_utils import (approximant_oracle, bernstein_to_monomial, count_calls,
                          count_method_calls, from_rational_strings, notch_derivative_array,
                          notch_value_array, poly_to_sympy, random_rational_poly,
                          to_rational_strings)

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
        memo = {}
        assert interval_sups(p, f.a, f.b, memo) == expected
        assert memo == {(p, f.a, f.b): expected}


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
    calls = count_calls(monkeypatch, "amenalab.polynomials", "_de_casteljau")
    _grid_sup(_floats(*_bernstein_controls(Polynomial(tuple(coeffs)), Fraction(0), Fraction(1))))
    assert calls[0] == sweeps


def test_sup_candidates_keep_every_point_when_the_bound_overflows():
    t = np.linspace(0.0, 1.0, 4096)
    s = 1 - t
    assert _sup_candidates(np.array([1e308, -1e308, 1e308]), t, s).all()
    # From degree 1024 (2 max(t, s))^k overflows at t = 0; at degree 1100 the
    # middle binomials leave the double range too.
    assert _sup_candidates(np.ones(1025), t, s).all()
    assert _sup_candidates(np.ones(1101), t, s).all()


def test_sup_candidates_prune_a_notch_derivative():
    f = notch(2, make_spectrum("geometric", 16))
    ctrl, t, s = _float_grid(approximate_with_derivative(f, 128).derivative(), f.a, f.b, 4096)
    assert np.count_nonzero(_sup_candidates(ctrl, t, s)) <= 4096 // 16


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
        # the T~ integer trial on T, the composition itself on the shifted generator
        assert membership_trials([zero], X, s) == [(0.0, 0.0, 0.0)]


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
