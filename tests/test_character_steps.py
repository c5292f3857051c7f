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
from amenalab.amenability import _divided_sup, _polynomial_norms, _quotient_sup
from amenalab.spectrum import BlockOperator
from amenalab.cli import main
from oracle_utils import count_calls

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


def oracle_kernel_step(p, n, s, memo):
    lam_n, lam_1 = s.lam(n), s.lam(1)
    X = build_shifted_T(s, n)
    u = apply_poly_to_block(p.coefficients, X)
    residual = operator_norm(((X @ u) - X).to_float())
    element_norm = operator_norm(u.to_float())
    check = mvt_bound_check(p, divide_shifted(p, lam_n), lam_n, s, memo)
    certified = check.p_sup + math.sqrt(float(lam_1)) * (check.rhs + check.p_sup) / float(lam_n)
    return ApproximationStep(max(p.degree, 0), residual, element_norm, check.rhs, check.ok,
                             certified)


def oracle_unit_step(p, s, memo):
    lam_1 = s.lam(1)
    T = build_T(s)
    u = apply_poly_to_block(p.coefficients, T)
    residual = operator_norm(((T @ u) - T).to_float())
    element_norm = operator_norm(u.to_float())
    p_sup, q_bound = interval_sups(p, Fraction(0), lam_1, memo)
    mvt_ok = sup_norm(Polynomial(p.coefficients[1:]), s) <= q_bound + 1e-12
    certified = p_sup + math.sqrt(float(lam_1)) * q_bound
    return ApproximationStep(max(p.degree, 0), residual, element_norm, q_bound, mvt_ok,
                             certified)


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
    memo: dict = {}
    for n in (1, 2, 3):
        for p in kernel_polynomials(n, s):
            want = oracle_kernel_step(p, n, s, memo)
            assert bits(approximate_identity_step(p, n, s, memo)) == bits(want), (n, p)


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_unit_steps_bitwise_equal_block_composition(case):
    s = SPECTRA[case]
    memo: dict = {}
    for p in unit_polynomials(s):
        want = oracle_unit_step(p, s, memo)
        assert bits(unit_approximation_step(p, s, memo)) == bits(want), p


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_quotient_sups_bitwise_equal_sup_norm(case):
    """A step's sup|q| enters its fields only through the mean-value verdict,
    which holds for every true q; so its closed forms are compared directly
    with `sup_norm` of the divided polynomial, evaluated by Horner."""
    s = SPECTRA[case]
    for n in (1, 2, 3):
        lam = s.lam(n)
        for p in kernel_polynomials(n, s):
            _, _, values = _polynomial_norms(p, build_shifted_T(s, n))
            want = sup_norm(divide_shifted(p, lam), s)
            assert _divided_sup(p, lam, values).hex() == want.hex(), (n, p)
    for p in unit_polynomials(s):
        _, _, values = _polynomial_norms(p, build_T(s))
        want = sup_norm(Polynomial(p.coefficients[1:]), s)
        assert _quotient_sup(p, values).hex() == want.hex(), p


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
    """No step builds p(X) or divides p by a shift: the pipeline's only exact
    block product is T U in `character.unit_exact_identity`."""
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
    assert compositions[0] == 0
    assert divisions[0] == 0
    assert products[0] == 1
