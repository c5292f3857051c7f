import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalab import (BlockOperator, DiagonalOperator, Polynomial, apply_poly_to_block,
                      build_T, build_shifted_T, exact_sqrt, make_spectrum, operator_norm)
from amenalab.spectrum import block_norms
from oracle_utils import (dense_exact, matmul_exact, matpow_exact, poly_to_sympy,
                          random_rational_poly, spectral_norm_oracle, to_sympy)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
# Exact scalars of both rational types, and coefficients that are often zero
# (interior zeros included) so the integer kernels meet every input shape.
exact_scalars = st.one_of(rationals, st.integers(min_value=-4, max_value=4))
sparse_coefficients = st.lists(st.one_of(exact_scalars, st.just(0), st.just(Fraction(0))),
                               min_size=1, max_size=6)


def test_make_spectrum_geometric():
    s = make_spectrum("geometric", 3, ratio=Fraction(1, 2))
    assert s.values == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


def test_make_spectrum_harmonic():
    s = make_spectrum("harmonic", 3)
    assert s.values == (Fraction(1), Fraction(1, 2), Fraction(1, 3))


def test_make_spectrum_explicit_rejects_non_decreasing():
    with pytest.raises(ValueError, match="not strictly decreasing at index 2"):
        make_spectrum("explicit", values=[Fraction(3, 10), Fraction(4, 10)])


def test_make_spectrum_rejects_non_positive():
    with pytest.raises(ValueError, match="not positive at index 2"):
        make_spectrum("explicit", values=[Fraction(1, 2), Fraction(0)])


def test_make_spectrum_bad_ratio_and_count():
    with pytest.raises(ValueError, match="ratio"):
        make_spectrum("geometric", 4, ratio=Fraction(3, 2))
    with pytest.raises(ValueError, match="count"):
        make_spectrum("harmonic", 0)


def test_build_T_single_point():
    s = make_spectrum("explicit", values=[Fraction(1, 4)])
    T = build_T(s)
    assert T.b12.diag == (Fraction(1, 2),)
    assert T.b22.diag == (Fraction(1, 4),)
    assert T.b11.is_zero()


def test_build_T_norm_against_svd_oracle():
    # frozen: sqrt(1/2 + 1/4) for the two-point geometric spectrum
    s = make_spectrum("geometric", 2)
    T = build_T(s)
    norm = operator_norm(T.to_float())
    assert norm == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert norm == pytest.approx(spectral_norm_oracle(T.to_dense()), abs=1e-10)


def test_build_T_norm_unit_spectrum():
    s = make_spectrum("explicit", values=[Fraction(1)])
    assert operator_norm(build_T(s).to_float()) == pytest.approx(math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("count", [1, 3, 7])
def test_T_norm_closed_form_decreasing_spectra(count):
    s = make_spectrum("geometric", count)
    lam1 = float(s.lam(1))
    assert operator_norm(build_T(s).to_float()) == pytest.approx(
        math.sqrt(lam1 + lam1 ** 2), abs=1e-12)


def kth_power(X: BlockOperator, k: int) -> BlockOperator:
    """X^k as the monomial case of the one polynomial application."""
    return apply_poly_to_block(Polynomial.monomial(k).coefficients, X)


def test_block_power_of_T_is_power_of_spectrum():
    s = make_spectrum("geometric", 2)
    squared = kth_power(build_T(s), 2)
    # upper-right block carries lambda^(3/2), lower-right lambda^2
    for lam, x12, x22 in zip(s.values, squared.b12.diag, squared.b22.diag):
        assert x22 == lam * lam
        assert (x12 * x12 - lam ** 3) == 0
    assert squared.b11.is_zero()


def test_block_power_confluent_case():
    d = DiagonalOperator((Fraction(1, 3), Fraction(2)))
    X = BlockOperator(d, d, d)
    squared = kth_power(X, 2)
    assert squared.b11.diag == tuple(v * v for v in d.diag)
    assert squared.b12.diag == tuple(2 * v * v for v in d.diag)
    assert squared.b22.diag == tuple(v * v for v in d.diag)


def test_block_power_rejects_zeroth_power():
    s = make_spectrum("geometric", 2)
    T = build_T(s)
    # the zeroth power arrives as the nonzero constant term 1
    with pytest.raises(ValueError, match="non-unital"):
        kth_power(T, 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(exact_scalars, exact_scalars, exact_scalars), max_size=2),
       st.tuples(exact_scalars, exact_scalars), st.integers(min_value=0, max_value=2),
       sparse_coefficients)
def test_block_power_matches_naive_product(entries, confluent, position, coeffs):
    # 1-3 coordinates, at least one of them confluent (a == c)
    a, b = confluent
    entries = [*entries[:position], (a, b, a), *entries[position:]]
    m = len(entries)
    X = BlockOperator(DiagonalOperator(tuple(e[0] for e in entries)),
                      DiagonalOperator(tuple(e[1] for e in entries)),
                      DiagonalOperator(tuple(e[2] for e in entries)))
    dense = dense_exact(X)
    expected = [[Fraction(0)] * (2 * m) for _ in range(2 * m)]
    for k, c in enumerate(coeffs, start=1):
        power = matpow_exact(dense, k)
        expected = [[e + c * x for e, x in zip(erow, prow)]
                    for erow, prow in zip(expected, power)]
    assert dense_exact(apply_poly_to_block((Fraction(0), *coeffs), X)) == expected


def upper_triangular(m: int):
    diag = st.lists(rationals, min_size=m, max_size=m).map(lambda v: DiagonalOperator(tuple(v)))
    return st.builds(BlockOperator, diag, diag, diag)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
           lambda m: st.tuples(upper_triangular(m), upper_triangular(m))),
       rationals)
def test_block_arithmetic_matches_dense_oracle(pair, c):
    X, Y = pair
    dx, dy = dense_exact(X), dense_exact(Y)
    assert dense_exact(X @ Y) == matmul_exact(dx, dy)
    assert dense_exact(X + Y) == [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(dx, dy)]
    assert dense_exact(X - Y) == [[a - b for a, b in zip(rx, ry)] for rx, ry in zip(dx, dy)]
    assert dense_exact(X.scale(c)) == [[c * a for a in row] for row in dx]
    assert dense_exact(-X) == [[-a for a in row] for row in dx]


def test_block_power_large_truncation_matches_repeated_multiplication():
    rng = random.Random(3)
    m = 32
    X = BlockOperator(
        DiagonalOperator(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(m))),
        DiagonalOperator(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(m))),
        DiagonalOperator(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(m))))
    repeated = X
    for _ in range(15):
        repeated = repeated @ X
    assert (kth_power(X, 16) - repeated).is_zero()


def test_apply_poly_matches_naive_dense_sum():
    s = make_spectrum("geometric", 3)
    X = build_shifted_T(s, 2)
    p = Polynomial((0, Fraction(1, 2), Fraction(-2), Fraction(1, 3)))
    dense = np.array(X.to_dense())
    expected = sum(float(c) * np.linalg.matrix_power(dense, k)
                   for k, c in enumerate(p.coefficients) if k >= 1)
    got = apply_poly_to_block(p.coefficients, X).to_dense()
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("kind,ratio", [("geometric", Fraction(1, 2)),
                                        ("geometric", Fraction(9, 10)), ("harmonic", None)])
def test_apply_poly_exact_on_generators(kind, ratio):
    # b11 and b22 against sum c_k a^k; b12 against the sympy divided difference times b
    rng = random.Random(17)
    s = make_spectrum(kind, 5, ratio=ratio) if ratio else make_spectrum(kind, 5)
    z = sympy.Symbol("z")
    for X in (build_T(s), build_shifted_T(s, 1), build_shifted_T(s, 3), build_shifted_T(s, 5)):
        for _ in range(4):
            p = random_rational_poly(rng, 16, max_num=10 ** 6, max_den=10 ** 5)
            coeffs = list(p.coefficients)
            coeffs[rng.randrange(1, len(coeffs))] = Fraction(0)  # an interior or top zero
            p = Polynomial(tuple(coeffs))
            if not p.coefficients:
                continue
            got = apply_poly_to_block(p.coefficients, X)
            P = poly_to_sympy(p, z)
            for a, b, c, pa, pb, pc in zip(X.b11.diag, X.b12.diag, X.b22.diag,
                                           got.b11.diag, got.b12.diag, got.b22.diag):
                assert pa == sum(ck * Fraction(a) ** k for k, ck in enumerate(p.coefficients))
                assert pc == sum(ck * Fraction(c) ** k for k, ck in enumerate(p.coefficients))
                dp = (P.subs(z, a) - P.subs(z, c)) / (a - c)
                assert sympy.expand(to_sympy(pb) - dp * to_sympy(b)) == 0


def test_apply_poly_rejects_constant_term():
    s = make_spectrum("geometric", 2)
    with pytest.raises(ValueError, match="constant term"):
        apply_poly_to_block((Fraction(1), Fraction(1)), build_T(s))


def test_apply_poly_takes_exact_arguments_only():
    # one integer path: a float or Surd coefficient, a float operator and a
    # Surd on the diagonal are rejected, not evaluated in another tier
    s = make_spectrum("geometric", 2)
    T = build_T(s)
    root = exact_sqrt(Fraction(2))
    for coefficients in ((0, 0.5), (0.0, Fraction(1)), (0, root)):
        with pytest.raises(TypeError):
            apply_poly_to_block(coefficients, T)
    surd_diagonal = BlockOperator(DiagonalOperator((root,)), DiagonalOperator((Fraction(1),)),
                                  DiagonalOperator((Fraction(1, 2),)))
    for X in (T.to_float(), build_shifted_T(s, 1).to_float(), surd_diagonal):
        with pytest.raises(TypeError):
            apply_poly_to_block((0, 1), X)


def test_functional_calculus_entrywise():
    # a polynomial of a diagonal operator acts entrywise
    N = DiagonalOperator((Fraction(1, 2), Fraction(1, 4)))
    assert tuple(Polynomial((0, 1))(d) for d in N.diag) == N.diag
    p = Polynomial((0, 6, -8))
    assert tuple(p(d) for d in N.diag) == (Fraction(1), Fraction(1))


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4),
       st.lists(rationals, min_size=1, max_size=4),
       st.lists(rationals, min_size=2, max_size=3))
def test_functional_calculus_multiplicative(pc, qc, diag):
    N = DiagonalOperator(tuple(diag))
    p, q = Polynomial(tuple(pc)), Polynomial(tuple(qc))
    product = DiagonalOperator(tuple((p * q)(d) for d in N.diag))
    composed = DiagonalOperator(tuple(p(d) for d in N.diag)) @ \
        DiagonalOperator(tuple(q(d) for d in N.diag))
    assert product.diag == composed.diag


def test_operator_norm_examples():
    one = DiagonalOperator.ones(1)
    X = BlockOperator.column_block(one, one)
    assert operator_norm(X) == pytest.approx(math.sqrt(2), abs=1e-14)
    diag_only = BlockOperator(DiagonalOperator((3, 1, 2)), DiagonalOperator.zeros(3),
                              DiagonalOperator.zeros(3))
    assert operator_norm(diag_only) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError, match="upper-left"):
        block_norms(diag_only)  # the per-coordinate form needs a column block
    X = BlockOperator.column_block(DiagonalOperator((3, 0, 1)), DiagonalOperator((4, 0, -1)))
    assert block_norms(X).tolist() == [5.0, 0.0, math.sqrt(2)]


def test_operator_norm_closed_form_vs_svd_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        top = DiagonalOperator(tuple(rng.standard_normal(m)))
        bottom = DiagonalOperator(tuple(rng.standard_normal(m)))
        X = BlockOperator.column_block(top, bottom)
        assert abs(operator_norm(X) - spectral_norm_oracle(X.to_dense())) < 1e-10


def test_shifted_generator_blocks():
    s = make_spectrum("geometric", 2)
    X = build_shifted_T(s, 1)
    assert X.b11.diag == (Fraction(1, 2), Fraction(1, 2))
    assert X.b22.diag == (Fraction(0), Fraction(1, 4))
    total = (X + build_T(s))
    assert total.b12.is_zero()  # shift plus generator restores the scalar block
