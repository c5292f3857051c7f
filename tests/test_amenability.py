import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amenalab import (ApproximationStep, Polynomial, algebra_element, apply_poly_to_block,
                      approximate_identity_step, approximate_identity_steps, bai_defect,
                      build_T, build_shifted_T, derivation_space,
                      generation_defect, generation_defect_closed_form, idempotent_E,
                      idempotent_norm_closed_form, idempotent_partial_sum, make_spectrum,
                      membership_residual, operator_norm, report_from_steps,
                      unit_approximation_step, unit_approximation_steps)
from amenalab.amenability import character_ladders
from amenalab.polynomials import approximate_with_derivative, notch, unit_notch
from amenalab.spectrum import BlockOperator, DiagonalOperator
from oracle_utils import (character_value, derivation_dimension_oracle, jordan_block,
                          matmul_exact, random_rational_poly, spectral_norm_oracle)


# --- membership -----------------------------------------------------------------

def test_membership_of_polynomial_image():
    s = make_spectrum("geometric", 4)
    T = build_T(s)
    squared = apply_poly_to_block(Polynomial((0, 0, 1)).coefficients, T)
    assert membership_residual(squared, s) == 0.0


def test_membership_rejects_identity():
    s = make_spectrum("geometric", 3)
    eye = BlockOperator(DiagonalOperator.ones(3), DiagonalOperator.zeros(3),
                        DiagonalOperator.ones(3))
    assert membership_residual(eye, s) > 0


def test_membership_residual_needs_a_graded_operator():
    # B12 = 1 against sqrt(1/2): 1 - sqrt(1/2) is no rational and no s*sqrt(d)
    s = make_spectrum("geometric", 3)
    X = BlockOperator(DiagonalOperator.zeros(3), DiagonalOperator.ones(3),
                      DiagonalOperator.ones(3))
    with pytest.raises(ValueError, match="leaves the grading"):
        membership_residual(X, s)


def test_membership_random_polynomials_exact():
    rng = random.Random(4)
    s = make_spectrum("geometric", 5)
    T = build_T(s)
    for _ in range(20):
        p = random_rational_poly(rng, 8)
        assert membership_residual(apply_poly_to_block(p.coefficients, T), s) == 0.0


# --- idempotents and generation ---------------------------------------------------

def test_idempotent_blocks_match_hand_value():
    s = make_spectrum("explicit", values=[Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
    e2 = idempotent_E(2, s)
    assert e2.b12.diag[1] == 2 and e2.b22.diag[1] == 1
    assert e2.b12.diag[0] == 0 and e2.b12.diag[2] == 0
    assert ((e2 @ e2) - e2).is_zero()
    assert membership_residual(e2, s) == 0.0


def test_idempotent_norm_closed_form_and_svd():
    s = make_spectrum("geometric", 6)
    for n in (1, 3, 6):
        e = idempotent_E(n, s)
        expected = math.sqrt(1 / float(s.lam(n)) + 1)
        assert operator_norm(e.to_float()) == pytest.approx(expected, abs=1e-12)
        assert idempotent_norm_closed_form(n, s) == pytest.approx(expected, abs=1e-12)
        assert spectral_norm_oracle(e.to_dense()) == pytest.approx(expected, abs=1e-10)


def test_generation_defect_frozen_value():
    # frozen: sqrt(1/16 + 1/256) = sqrt(17)/16 for m=3 on the 8-point dyadic spectrum
    s = make_spectrum("geometric", 8)
    assert generation_defect(3, s) == pytest.approx(math.sqrt(17) / 16, abs=1e-14)
    assert generation_defect(8, s) == 0.0
    assert generation_defect_closed_form(3, s) == pytest.approx(math.sqrt(17) / 16, abs=1e-14)
    assert generation_defect_closed_form(8, s) == 0.0


def test_generation_defect_monotone():
    s = make_spectrum("geometric", 8)
    defects = [generation_defect(m, s) for m in range(1, 9)]
    assert all(b < a for a, b in zip(defects, defects[1:]))


def test_reconstruction_identity_exact():
    s = make_spectrum("geometric", 8)
    assert (build_T(s) - idempotent_partial_sum(8, s)).is_zero()


@pytest.mark.parametrize("kind", ["geometric", "harmonic"])
def test_partial_sum_matches_explicit_block_sum(kind):
    s = make_spectrum(kind, 8)
    for m in range(1, 9):
        expected = BlockOperator.zeros(8)
        for n in range(1, m + 1):
            expected = expected + idempotent_E(n, s).scale(s.lam(n))
        assert (idempotent_partial_sum(m, s) - expected).is_zero()


# --- characters -------------------------------------------------------------------

def test_character_of_generator_and_idempotents():
    s = make_spectrum("geometric", 4)
    T = build_T(s)
    for n in range(1, 5):
        assert character_value(T, n) == s.lam(n)
    e2 = idempotent_E(2, s)
    assert character_value(e2, 2) == 1
    assert character_value(e2, 1) == 0 and character_value(e2, 4) == 0


def test_character_multiplicative_on_random_pairs():
    rng = random.Random(9)
    s = make_spectrum("geometric", 4)
    for _ in range(100):
        g1 = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)]
        g2 = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)]
        a = algebra_element(s, g1)
        b = algebra_element(s, g2)
        for n in (1, 4):
            lhs = character_value(a @ b, n)
            rhs = character_value(a, n) * character_value(b, n)
            assert (lhs - rhs) == 0


def test_algebra_element_rejects_float_symbol():
    s = make_spectrum("geometric", 2)  # sqrt(1/4) is rational, so r * 0.5 would be a float
    with pytest.raises(TypeError, match="symbol: float"):
        algebra_element(s, [Fraction(1), 0.5])


def test_character_index_validation():
    s = make_spectrum("geometric", 3)
    with pytest.raises(ValueError, match="out of range"):
        character_value(build_T(s), 4)


# --- derivation spaces --------------------------------------------------------------

def test_derivation_single_idempotent_is_trivial():
    space = derivation_space([[[1, 0], [0, 0]]])
    assert space.dimension == 0
    assert space.dimension == derivation_dimension_oracle([[1, 0], [0, 0]])


def test_derivation_nilpotent_with_supplied_module():
    q = jordan_block(2)
    space = derivation_space([q], bimodule=[q])
    assert space.dimension == 1
    # the basis derivation sends the generator to a rational multiple of it
    assert space.basis[0][0] == ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    assert derivation_dimension_oracle(q, module=[q]) == 1


def test_derivation_jordan_self_module_matches_oracle():
    for size in (2, 3, 4):
        q = jordan_block(size)
        assert derivation_space([q]).dimension == derivation_dimension_oracle(q) >= 1


@pytest.mark.parametrize("q, module", [
    (jordan_block(2), None), (jordan_block(3), None), (jordan_block(4), None),
    ([[2, 1], [0, 2]], None), (jordan_block(2), [jordan_block(2)]),
], ids=["J2", "J3", "J4", "2I+N", "J2-supplied"])
def test_derivation_basis_respects_power_relations(q, module):
    """A derivation of a singly generated algebra sends q^k to k q^(k-1) D(q)
    in a commutative bimodule, so every linear relation among q, ..., q^(n+1)
    must annihilate those images too."""
    space = derivation_space([q], bimodule=module)
    assert space.dimension == derivation_dimension_oracle(q, module=module)
    n = len(q)
    Q = sympy.Matrix(q)
    stacked = sympy.Matrix.hstack(*((Q ** k).reshape(n * n, 1) for k in range(1, n + 2)))
    relations = stacked.nullspace()
    module_cols = [sympy.Matrix(x).reshape(n * n, 1) for x in space.module_basis]
    values = []
    for (dq,) in space.basis:
        dq = sympy.Matrix(dq)
        images = [k * Q ** (k - 1) * dq for k in range(1, n + 2)]
        for c in relations:
            assert sum((c[k] * images[k] for k in range(n + 1)), sympy.zeros(n, n)) \
                == sympy.zeros(n, n)
        in_module = sympy.Matrix.hstack(*module_cols, dq.reshape(n * n, 1))
        assert in_module.rank() == len(module_cols)
        values.append(dq.reshape(n * n, 1))
    assert sympy.Matrix.hstack(*values).rank() == len(values)


def test_derivation_zero_algebra():
    assert derivation_space([[[0, 0], [0, 0]]]).dimension == 0


def test_derivation_commuting_idempotent_pair():
    p = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    q = [[0, 0, 0], [0, 1, 0], [0, 0, 1]]
    space = derivation_space([p, q])
    assert space.dimension == 0
    assert space.algebra_dim == 3


def test_derivation_rejects_non_commuting():
    a = [[0, 1], [0, 0]]
    b = [[0, 0], [1, 0]]
    with pytest.raises(ValueError, match="commute"):
        derivation_space([a, b])


def test_derivation_rejects_non_invariant_module():
    q = jordan_block(3)
    stray = [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    with pytest.raises(ValueError, match="commutative|invariant"):
        derivation_space([q], bimodule=[stray])


# --- approximate identities ----------------------------------------------------------

def test_identity_step_exact_interpolant():
    # lambda_1 I - T on the 2-point truncation is diagonalizable with
    # eigenvalues {1/2, 0, 1/4}; this interpolant is 1 on the nonzero ones
    s = make_spectrum("geometric", 2)
    step = approximate_identity_step(Polynomial((0, 6, -8)), 1, s)
    assert step.residual <= 1e-14
    assert step.mvt_ok


def test_identity_step_zero_polynomial():
    s = make_spectrum("geometric", 2)
    step = approximate_identity_step(Polynomial.zero(), 1, s)
    expected = operator_norm(build_shifted_T(s, 1).to_float())
    assert step.residual == pytest.approx(expected, abs=1e-14)


def test_identity_steps_residuals_decrease():
    s = make_spectrum("geometric", 8)
    steps = approximate_identity_steps(2, s, [8, 16, 32])
    residuals = [st.residual for st in steps]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert all(st.mvt_ok for st in steps)
    assert max(st.element_norm for st in steps) <= max(st.certified_bound for st in steps)


def test_identity_steps_validation():
    s = make_spectrum("geometric", 4)
    with pytest.raises(ValueError, match="degrees"):
        approximate_identity_steps(1, s, [8, 8])
    with pytest.raises(ValueError, match="out of range"):
        approximate_identity_steps(9, s, [8, 16])


def test_unit_exact_identity():
    s = make_spectrum("geometric", 6)
    total = idempotent_E(1, s)
    for n in range(2, 7):
        total = total + idempotent_E(n, s)
    T = build_T(s)
    assert ((T @ total) - T).is_zero()


def test_unit_step_zero_polynomial():
    s = make_spectrum("geometric", 4)
    step = unit_approximation_step(Polynomial.zero(), s)
    assert step.residual == pytest.approx(operator_norm(build_T(s).to_float()), abs=1e-14)


def test_unit_step_rejects_a_constant_term():
    # the step's q = p / z is p's coefficients shifted down one place; a
    # nonzero p(0) is rejected before that, by u = p(T)
    with pytest.raises(ValueError, match="constant term"):
        unit_approximation_step(Polynomial((1, 1)), make_spectrum("geometric", 4))


def test_unit_approximation_trend():
    s = make_spectrum("geometric", 8)
    steps = unit_approximation_steps(s, [8, 16, 32])
    residuals = [st.residual for st in steps]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert max(st.element_norm for st in steps) <= max(st.certified_bound for st in steps)


@pytest.mark.parametrize("spectrum", [make_spectrum("harmonic", 8), make_spectrum("geometric", 2),
                                      make_spectrum("geometric", 12, ratio=Fraction(9, 10))],
                         ids=["harmonic_8", "geometric_2", "ratio_9_10_12"])
def test_character_ladders_equal_the_single_steps(spectrum):
    """The ladders of `verify character` (kernels n = 1, 2, 3 up to M, then
    the unit), in one call with one batch of interval sups, are bitwise the
    steps taken one polynomial at a time, each with its own sups and
    coordinates."""
    degrees = [8, 16, 32]
    kernels = [n for n in (1, 2, 3) if n <= len(spectrum)]
    ladders = character_ladders(spectrum, [*kernels, None], degrees)
    want = [[approximate_identity_step(approximate_with_derivative(notch(n, spectrum), k),
                                       n, spectrum) for k in degrees] for n in kernels]
    want.append([unit_approximation_step(approximate_with_derivative(unit_notch(spectrum), k),
                                         spectrum) for k in degrees])
    assert repr(ladders) == repr(want)
    with pytest.raises(ValueError, match="degrees"):
        character_ladders(spectrum, [1, None], [])


def test_report_from_steps_verdicts():
    mk = lambda k, r: ApproximationStep(k, r, 1.0, 2.0, True, 3.0)
    falling = [mk(8, 0.5), mk(16, 0.25)]
    report = report_from_steps(falling, 0.3)
    assert report.threshold_met and report.bounded
    assert report.rows == ((8, 0.5, 1.0, 2.0), (16, 0.25, 1.0, 2.0))
    trend = report_from_steps(falling, None)
    assert trend.threshold_met and trend.tolerance == 0.0
    rising = [mk(8, 0.1), mk(16, 0.2)]
    assert not report_from_steps(rising, None).threshold_met
    assert not report_from_steps(rising, 0.05).threshold_met


# --- bounded-approximate-identity defect ----------------------------------------------

def test_bai_defect_nilpotent_block_pinned_at_one():
    q = jordan_block(2)
    scan = min(spectral_norm_oracle(np.array(matmul_exact(
        [[0, t], [0, 0]], q)) - np.array(q, float)) for t in np.linspace(-10, 10, 101))
    assert scan == pytest.approx(1.0, abs=1e-12)  # exhaustive over u = tQ
    for cap in (10.0, 100.0, 1000.0):
        assert bai_defect(q, cap) == pytest.approx(1.0, abs=1e-9)


def test_bai_defect_invertible_idempotent_like():
    assert bai_defect([[1]], 10.0) == pytest.approx(0.0, abs=1e-12)


def test_bai_defect_three_by_three_floor():
    defect = bai_defect(jordan_block(3), 1000.0)
    assert defect > 0.5


def test_bai_defect_cap_binds():
    # scalar generator 1/10: unconstrained best is u = 10 Q with norm 1;
    # under cap 0.5 the boundary solution u = 5 Q leaves defect 1/20
    assert bai_defect([[Fraction(1, 10)]], 0.5) == 0.05


@pytest.mark.parametrize("generator", [[[0.1]], [[0, 1.0], [0, 0]],
                                       np.array([[0.0, 1.0], [0.0, 0.0]])])
def test_bai_defect_rejects_float_entries(generator):
    """A float entry is not silently taken at its binary value."""
    with pytest.raises(TypeError, match="exact rational"):
        bai_defect(generator, 0.5)


@given(q=st.fractions(-5, 5, max_denominator=12), cap=st.one_of(st.fractions(Fraction(1, 12), 1, max_denominator=12),
                                  st.fractions(1, 4, max_denominator=12)))
@settings(max_examples=60, deadline=None)
@example(q=Fraction(1, 10), cap=Fraction(1, 2))
@example(q=Fraction(-3), cap=Fraction(2))
def test_bai_defect_scalar_matches_brute_force(q, cap):
    # Q = [q]: u = t with |t| <= cap, so ||Qu - Q|| = |q| |t - 1|; scan t on a grid
    steps = 400
    scan = min(abs(q) * abs(-cap + 2 * cap * Fraction(i, steps) - 1) for i in range(steps + 1))
    got = bai_defect([[q]], cap)
    assert got <= float(scan)
    assert got == pytest.approx(float(scan), abs=float(abs(q) * 2 * cap / steps) + 1e-15)


def test_bai_defect_weighted_shift_is_its_norm_at_every_cap():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 5)
        weights = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n - 1)]
        Q = [[weights[i] if j == i + 1 else Fraction(0) for j in range(n)] for i in range(n)]
        cap = rng.choice((0.25, 1.0, 10.0, 1000.0))
        qf = np.array(Q, float)
        defect = bai_defect(Q, cap)
        assert defect == pytest.approx(spectral_norm_oracle(qf), abs=1e-12)
        powers = [np.linalg.matrix_power(qf, k) for k in range(1, n)]
        for _ in range(25):  # sampled u = sum c_k Q^k, scaled into the cap
            u = sum(rng.uniform(-20, 20) * P for P in powers)
            size = spectral_norm_oracle(u)
            if size > cap:
                u = u * (cap / size)
            assert spectral_norm_oracle(qf @ u - qf) >= defect - 1e-12


@pytest.mark.parametrize("generator", [[[0, 1, 5], [0, 0, 1], [0, 0, 0]], [[3, 1], [0, 3]]])
def test_bai_defect_rejects_generators_without_closed_form(generator):
    with pytest.raises(ValueError, match="generator"):
        bai_defect(generator, 10.0)


@pytest.mark.parametrize("generator", [np.array([[0, 3], [0, 0]]), np.array([[0, 3], [0, 0]], np.int8),
                                       [[0, 3], [0, 0]], ((0, Fraction(3)), (0, 0))])
def test_bai_defect_reads_integer_arrays_and_nested_sequences(generator):
    """A numpy integer array is read by its `tolist`, as Python ints."""
    assert bai_defect(generator, 10.0) == 3.0


@pytest.mark.parametrize("generator", [[[0, 1], [0]], [[0], [0, 1]], [[1, 2, 3]], [[]], [],
                                       np.array([0, 1]), 5])
def test_bai_defect_rejects_ragged_and_non_square_generators(generator):
    with pytest.raises(ValueError, match="generator must be a square matrix"):
        bai_defect(generator, 10.0)


def test_exact_matrices_reject_ragged_rows():
    with pytest.raises(ValueError, match="generators and module elements must be square matrices"):
        derivation_space([[[0, 1], [0]]])
    assert derivation_space([np.array([[0, 1], [0, 0]])]).dimension == \
        derivation_space([[[0, 1], [0, 0]]]).dimension


def test_bai_defect_validation():
    with pytest.raises(ValueError, match="square"):
        bai_defect([[1, 2, 3]], 1.0)
    with pytest.raises(ValueError, match="bound"):
        bai_defect(jordan_block(2), 0.0)
