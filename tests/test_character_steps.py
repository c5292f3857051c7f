"""The character steps against the exact block composition they replace.

`approximate_identity_step` and `unit_approximation_step` float u = p(X) and
X u - X from per-coordinate integers and read sup|q| from closed forms.  The
oracle here is the composition itself: `apply_poly_to_block`, the exact
`BlockOperator` product and difference, `to_float`, `operator_norm`, and for
the kernel steps `divide_shifted` and `mvt_bound_check`.  Every field of
every step must agree bit for bit.
"""

import math
from fractions import Fraction

import pytest

from amenalab import (ApproximationStep, Polynomial, apply_poly_to_block,
                      approximate_identity_step, approximate_with_derivative, build_T,
                      build_shifted_T, divide_shifted, interval_sups, make_spectrum,
                      mvt_bound_check, notch, operator_norm, sup_norm, unit_approximation_step,
                      unit_notch)
from amenalab import amenability
from amenalab.amenability import (_coordinate_powers, _divided_sup, _polynomial_norms,
                                  _quotient_sup, _step_coordinates)
from amenalab.polynomials import _from_integers, interval_sups_many
from amenalab.spectrum import BlockOperator, DiagonalOperator
from amenalab.cli import main
from oracle_utils import count_calls, count_method_calls, record_calls

DEGREES = (8, 16, 32, 64, 128)
EXPLICIT = ("9/10", "1/2", "1/4", "1/7", "1/100")  # 1/4 has a rational root
MIXED = ("1", "1/2", "1/3", "1/4", "2/9", "1/9", "1/16", "1/18")  # the CI mixed-grade spectrum

SPECTRA = {
    "geometric_half_16": make_spectrum("geometric", 16),
    "harmonic_8": make_spectrum("harmonic", 8),
    "harmonic_16": make_spectrum("harmonic", 16),
    "ratio_9_10_12": make_spectrum("geometric", 12, ratio=Fraction(9, 10)),
    "explicit_5": make_spectrum("explicit", values=[Fraction(v) for v in EXPLICIT]),
    "mixed_grade_8": make_spectrum("explicit", values=[Fraction(v) for v in MIXED]),
}


def oracle_kernel_step(p, n, s):
    lam_n, lam_1 = s.lam(n), s.lam(1)
    X = build_shifted_T(s, n)
    u = apply_poly_to_block(p.coefficients, X)
    residual = operator_norm(((X @ u) - X).to_float())
    element_norm = operator_norm(u.to_float())
    check = mvt_bound_check(p, divide_shifted(p, lam_n), lam_n, s)
    certified = check.p_sup + math.sqrt(float(lam_1)) * (check.rhs + check.p_sup) / float(lam_n)
    return ApproximationStep(max(p.degree, 0), residual, element_norm, check.rhs, check.ok,
                             certified)


def oracle_unit_step(p, s):
    lam_1 = s.lam(1)
    T = build_T(s)
    u = apply_poly_to_block(p.coefficients, T)
    residual = operator_norm(((T @ u) - T).to_float())
    element_norm = operator_norm(u.to_float())
    p_sup, q_bound = interval_sups(p, Fraction(0), lam_1)
    mvt_ok = sup_norm(Polynomial(p.coefficients[1:]), s) <= q_bound + 1e-12
    certified = p_sup + math.sqrt(float(lam_1)) * q_bound
    return ApproximationStep(max(p.degree, 0), residual, element_norm, q_bound, mvt_ok,
                             certified)


def polynomial_norms(p, alpha, beta, s):
    """`_polynomial_norms` with the coordinates and powers a ladder would pass."""
    coords = _step_coordinates(alpha, beta, s)
    return _polynomial_norms(p, alpha, beta, s, coords,
                             _coordinate_powers(coords, [max(p.degree, 0)]))


def bits(step):
    return [x.hex() if isinstance(x, float) else x for x in step]


def kernel_polynomials(n, s):
    """The approximants of the sweep, zero, z (z - lambda_n) with p(lambda_n) = 0,
    so that ||u|| takes `operator_norm`'s closed form, z / lambda_n with
    p(lambda_n) = 1, so that the residual does, and z^2, whose divided q
    takes its sup away from the origin where lambda_1 > 3 lambda_n."""
    lam = s.lam(n)
    f = notch(n, s)
    return [*(approximate_with_derivative(f, k) for k in DEGREES), Polynomial.zero(),
            Polynomial((0, -lam, 1)), Polynomial((0, 1 / lam)), Polynomial((0, 0, 1))]


def unit_polynomials(s):
    """The approximants of the sweep, zero, z (z - lambda_1), and z^2, whose
    q = z takes its sup away from the origin."""
    f = unit_notch(s)
    return [*(approximate_with_derivative(f, k) for k in DEGREES), Polynomial.zero(),
            Polynomial((0, -s.lam(1), 1)), Polynomial((0, 0, 1))]


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_kernel_steps_bitwise_equal_block_composition(case):
    s = SPECTRA[case]
    for n in (1, 2, 3):
        for p in kernel_polynomials(n, s):
            want = oracle_kernel_step(p, n, s)
            assert bits(approximate_identity_step(p, n, s)) == bits(want), (n, p)


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_unit_steps_bitwise_equal_block_composition(case):
    s = SPECTRA[case]
    for p in unit_polynomials(s):
        want = oracle_unit_step(p, s)
        assert bits(unit_approximation_step(p, s)) == bits(want), p


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_quotient_sups_bitwise_equal_sup_norm(case):
    """A step's sup|q| enters its fields only through the mean-value verdict,
    which holds for every true q; so its closed forms are compared directly
    with `sup_norm` of the divided polynomial, evaluated by Horner."""
    s = SPECTRA[case]
    for n in (1, 2, 3):
        lam = s.lam(n)
        for p in kernel_polynomials(n, s):
            _, _, values = polynomial_norms(p, lam, -1, s)
            want = sup_norm(divide_shifted(p, lam), s)
            assert _divided_sup(lam, values).hex() == want.hex(), (n, p)
    for p in unit_polynomials(s):
        _, _, values = polynomial_norms(p, Fraction(0), 1, s)
        want = sup_norm(Polynomial(p.coefficients[1:]), s)
        assert _quotient_sup(values).hex() == want.hex(), p


def test_special_polynomials_reach_the_closed_form_norm():
    """The cases `kernel_polynomials` adds do vanish where they should: u's
    upper-left block for p(lambda_n) = 0 and zero, X u - X's for p(lambda_n) = 1."""
    s = SPECTRA["harmonic_8"]
    X = build_shifted_T(s, 2)
    zero, root, unit, _ = kernel_polynomials(2, s)[len(DEGREES):]
    for p in (zero, root):
        assert apply_poly_to_block(p.coefficients, X).b11.is_zero()
    u = apply_poly_to_block(unit.coefficients, X)
    assert ((X @ u) - X).b11.is_zero()


def test_steps_reject_a_constant_term():
    s = SPECTRA["harmonic_8"]
    p = Polynomial((Fraction(1, 3), 1))
    with pytest.raises(ValueError, match="constant term"):
        approximate_identity_step(p, 1, s)
    with pytest.raises(ValueError, match="constant term"):
        unit_approximation_step(p, s)


def test_verify_character_leaves_the_block_algebra(monkeypatch, tmp_path, capsys):
    """No step builds X = lambda_n I - T or p(X), or divides p by a shift:
    the pipeline's only exact block product is T U in
    `character.unit_exact_identity`."""
    shifted = count_calls(monkeypatch, "amenalab.spectrum", "build_shifted_T")
    compositions = count_calls(monkeypatch, "amenalab.spectrum", "apply_poly_to_block")
    divisions = count_calls(monkeypatch, "amenalab.polynomials", "divide_shifted")
    products = [0]
    matmul = BlockOperator.__matmul__

    def counted(self, other):
        products[0] += 1
        return matmul(self, other)

    monkeypatch.setattr(BlockOperator, "__matmul__", counted)
    assert main(["verify", "character", "--count", "16", "--degrees", "8:128",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert shifted[0] == 0
    assert compositions[0] == 0
    assert divisions[0] == 0
    assert products[0] == 1


def spy_horner_passes(monkeypatch) -> list[Fraction]:
    """t = x / (x + y) of every Bernstein evaluation of the character steps."""
    calls = []
    real = amenability._bernstein_sum

    def spy(support, x, y, total):
        calls.append(Fraction(x, x + y))
        return real(support, x, y, total)

    monkeypatch.setattr(amenability, "_bernstein_sum", spy)
    return calls


@pytest.mark.parametrize("case", ["geometric_half_16", "ratio_9_10_12", "mixed_grade_8"])
def test_steps_evaluate_p_at_the_upper_left_entry_once(monkeypatch, case):
    """The upper-left entry a is an end of the controls' interval, t = 1 in
    a kernel step and t = 0 in the unit step, so p(a) and p'(a) are an end
    control and an end difference and take no pass.  Each coordinate m
    takes one pass, at t = (lambda_1 - lambda_m) / lambda_1 in a kernel
    step and t = lambda_m / lambda_1 in the unit step, never at a's end:
    M passes in all."""
    s = SPECTRA[case]
    ratios = [lam / s.lam(1) for lam in s.values]
    calls = spy_horner_passes(monkeypatch)
    for n in (1, 2, 3):
        calls.clear()
        approximate_identity_step(approximate_with_derivative(notch(n, s), 64), n, s)
        assert calls == [1 - t for t in ratios]
    calls.clear()
    unit_approximation_step(approximate_with_derivative(unit_notch(s), 64), s)
    assert calls == ratios


def test_steps_build_only_the_two_float_blocks(monkeypatch):
    """A step builds no exact operator: its only `BlockOperator`s are the
    float blocks of u and X u - X that it hands to `operator_norm`."""
    s = SPECTRA["mixed_grade_8"]
    built = []
    init = BlockOperator.__init__

    def recorded(self, *blocks):
        init(self, *blocks)
        built.append(self)

    monkeypatch.setattr(BlockOperator, "__init__", recorded)
    for step in (lambda p: approximate_identity_step(p, 2, s),
                 lambda p: unit_approximation_step(p, s)):
        built.clear()
        step(Polynomial((0, 3, Fraction(-1, 2))))
        assert len(built) == 2
        assert all(type(x) is float for X in built for block in (X.b11, X.b12, X.b22)
                   for x in block.diag)


@pytest.mark.parametrize("case", ["mixed_grade_8", "ratio_9_10_12"])
def test_polynomial_norms_values_on_alpha_i_plus_beta_t(case):
    """On X = alpha I + beta T, the head is (p(a), p'(a)) at a = alpha and
    row m is (Dp, p(c)) at c = alpha + beta lambda_m, exactly, by Horner on
    the coefficients (`Polynomial.__call__`, `derivative`); and the norms are
    bitwise those of the exact block composition.  Born approximants run on
    their birth interval and off it, z-form polynomials, zero included, at
    the kernel and unit entries and at an upper-left entry of neither."""
    s = SPECTRA[case]
    M = len(s)
    T = build_T(s)
    born = [approximate_with_derivative(notch(n, s), 32) for n in (1, 2, 3)]
    born.append(approximate_with_derivative(unit_notch(s), 32))
    zform = [Polynomial((0, 3, Fraction(-1, 2), Fraction(5, 7))), Polynomial((0, 0, 1)),
             Polynomial((0, Fraction(1, 3))), Polynomial.zero()]
    entries = [(s.lam(1), -1), (s.lam(2), -1), (s.lam(3), -1), (Fraction(0), 1),
               (Fraction(1, 7), 1)]
    for alpha, beta in entries:
        X = BlockOperator(DiagonalOperator.constant(M, alpha), DiagonalOperator.zeros(M),
                          DiagonalOperator.constant(M, alpha)) + T.scale(beta)
        for p in born + zform:
            u = apply_poly_to_block(p.coefficients, X)
            want = (operator_norm(((X @ u) - X).to_float()), operator_norm(u.to_float()))
            residual, element_norm, values = polynomial_norms(p, alpha, beta, s)
            assert (residual.hex(), element_norm.hex()) == tuple(x.hex() for x in want), p
            dp = p.derivative()
            h, g, d = values.head
            assert (Fraction(h, d), Fraction(g, d)) == (p(alpha), dp(alpha))
            assert len(values.rows) == M
            for (g, hc, d), lam in zip(values.rows, s.values):
                c = alpha + beta * lam
                assert (Fraction(g, d), Fraction(hc, d)) == ((p(c) - p(alpha)) / (c - alpha), p(c))


def test_a_polynomial_hashes_by_its_integers():
    """A Fraction-built polynomial and the same one from unreduced integer
    numerators are equal and hash equal, so either finds the other in a dict."""
    pairs = [
        (Polynomial((Fraction(1, 3), Fraction(2, 3), -1)), _from_integers([-2, -4, 6], -6)),
        (Polynomial((0, Fraction(5, 4), 0, Fraction(-1, 8))), _from_integers([0, 10, 0, -1, 0], 8)),
        (Polynomial.zero(), _from_integers([0, 0], 7)),
        (Polynomial((3,)), _from_integers([6], 2)),
    ]
    for p, q in pairs:
        assert p == q and hash(p) == hash(q) and hash(p) == hash(p._integers)
        assert {p: 1}[q] == 1
    assert Polynomial((0, 1)) != Polynomial((0, 2))


def test_interval_sups_many_sweeps_shared_kernel_n1_and_unit_keys_once(monkeypatch):
    """On a geometric spectrum `kernel_n1` and `unit` are born with equal
    controls on [0, lambda_1] as two objects.  One batch of both at every
    degree takes each key's two grid sups once, and equal keys get the same
    sups.  A key hashes its two interval ends and integers, no Fraction
    coefficient, and no coefficient in z is computed."""
    s = SPECTRA["geometric_half_16"]
    pascal = count_calls(monkeypatch, "amenalab.polynomials", "_pascal_controls")
    shifts = count_method_calls(monkeypatch, Polynomial, "_compose_integers")
    grid_sups = record_calls(monkeypatch, "amenalab.polynomials", "_grid_sups")
    pairs = [(approximate_with_derivative(notch(1, s), k),
              approximate_with_derivative(unit_notch(s), k)) for k in DEGREES]
    requests = [(p, Fraction(0), s.lam(1)) for pair in pairs for p in pair]
    hashed = [0]
    fraction_hash = Fraction.__hash__

    def counted(self):
        hashed[0] += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    got = interval_sups_many(requests)
    monkeypatch.setattr(Fraction, "__hash__", fraction_hash)
    assert hashed[0] <= 8 * len(requests)
    assert [len(ctrls) for ctrls, in grid_sups] == [2 * len(DEGREES)]
    assert pascal[0] == 0 and shifts[0] == 0
    for first, second in zip(got[::2], got[1::2]):
        assert first is second
    assert got == [interval_sups(p, a, b) for p, a, b in requests]
    for p, q in pairs:
        assert p is not q and p == q and hash(p) == hash(q)
