"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import functools
import math
import random
from fractions import Fraction

import numpy as np

from amenalab import (DiagonalOperator, Polynomial, apply_poly_to_block,
                      approximate_identity_step, approximate_with_derivative, bai_defect,
                      build_T, conjugate_by_upper_unipotent, derivation_space,
                      divide_shifted, exact_sqrt, generation_defect, idempotent_E,
                      idempotent_partial_sum, make_spectrum, membership_residual,
                      minimal_intertwiner, mvt_bound_check, notch, operator_norm)
from amenalab.spectrum import BlockOperator
from oracle_utils import (derivation_dimension_oracle, diagonal01, jordan_block,
                          spectral_norm_oracle)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return run
    return wrap


@criterion("1 idempotency")
def test_c01_idempotency():
    s = make_spectrum("geometric", 64)
    for n in range(1, 65):
        e_n = idempotent_E(n, s)
        defect = (e_n @ e_n) - e_n
        assert defect.is_zero()                                  # exact arithmetic
        assert operator_norm(defect.to_float()) <= 1e-12         # floating point


@criterion("2 algebra characterization")
def test_c02_membership():
    rng = random.Random(1)
    s = make_spectrum("geometric", 8)
    T = build_T(s)
    for _ in range(100):
        degree = rng.randint(1, 16)
        coeffs = [Fraction(0)] + [Fraction(rng.randint(-99, 99), rng.randint(1, 16))
                                  for _ in range(degree)]
        image = apply_poly_to_block(tuple(coeffs), T)
        assert membership_residual(image, s) == 0.0


@criterion("3 generation")
def test_c03_generation():
    s = make_spectrum("geometric", 64)
    defects = []
    for m in range(1, 65):
        d = generation_defect(m, s)
        defects.append(d)
        if m < 64:
            lam_next = float(s.lam(m + 1))
            assert abs(d - math.sqrt(lam_next + lam_next ** 2)) <= 1e-12
    assert all(b < a for a, b in zip(defects, defects[1:]))
    assert defects[-1] == 0.0
    assert (build_T(s) - idempotent_partial_sum(64, s)).is_zero()


@criterion("4 division identity")
def test_c04_division_identity():
    rng = random.Random(6)
    s = make_spectrum("geometric", 8)
    for _ in range(200):
        degree = rng.randint(1, 32)
        coeffs = (Fraction(0),) + tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                        for _ in range(degree))
        p = Polynomial(coeffs)
        for n in range(1, 9):
            lam = s.lam(n)
            q = divide_shifted(p, lam)  # raises if the remainder is nonzero
            # independent reconstruction: expand p(lam - z) by binomials
            reflected = [Fraction(0)] * (degree + 1)
            for k, c in enumerate(p.coefficients):
                if c == 0:
                    continue
                for m_i in range(k + 1):
                    term = c * math.comb(k, m_i) * lam ** (k - m_i)
                    reflected[m_i] += -term if m_i % 2 else term
            numer = [Fraction(0)] * (degree + 2)
            numer[0] = lam * p(lam)
            for m_i, c in enumerate(reflected):
                numer[m_i] -= lam * c
                numer[m_i + 1] += c
            rebuilt = (Fraction(0),) + q.coefficients
            rebuilt = rebuilt + (Fraction(0),) * (len(numer) - len(rebuilt))
            trimmed = list(numer)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            assert tuple(trimmed) == tuple(rebuilt[:len(trimmed)])
            assert all(c == 0 for c in rebuilt[len(trimmed):])


@functools.lru_cache(maxsize=None)
def _bai_sweep_data():
    s = make_spectrum("geometric", 16)
    data = {}
    for n in (1, 2, 3):
        f = notch(n, s)
        for k in (8, 16, 32, 64):
            p = approximate_with_derivative(f, k)
            data[(n, k)] = (p, approximate_identity_step(p, n, s))
    return s, data


@criterion("5 bounded approximate identity")
def test_c05_bounded_approximate_identity():
    s, data = _bai_sweep_data()
    for n in (1, 2, 3):
        steps = [data[(n, k)][1] for k in (8, 16, 32, 64)]
        residuals = [st.residual for st in steps]
        assert residuals[-1] < 1e-3
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        certified = max(st.certified_bound for st in steps)  # degree-uniform cap
        assert math.isfinite(certified)
        assert max(st.element_norm for st in steps) <= certified + 1e-9
    # exactness spot check: interpolant on the 2-point truncation
    tiny = make_spectrum("geometric", 2)
    spot = approximate_identity_step(Polynomial((0, 6, -8)), 1, tiny)
    assert spot.residual <= 1e-14


@criterion("6 mean-value bound")
def test_c06_mvt_bound():
    s, data = _bai_sweep_data()
    for (n, _k), (p, step) in data.items():
        lam = s.lam(n)
        check = mvt_bound_check(p, divide_shifted(p, lam), lam, s)
        assert check.ok
        assert step.mvt_ok


@criterion("7 derivation dichotomy")
def test_c07_derivation_dichotomy():
    for dim in range(1, 5):
        for mask in range(1, 2 ** dim):
            gen = diagonal01(mask, dim)
            computed = derivation_space([gen]).dimension
            assert computed == 0
            assert computed == derivation_dimension_oracle(gen)
    for size in (2, 3, 4):
        gen = jordan_block(size)
        computed = derivation_space([gen]).dimension
        assert computed >= 1
        assert computed == derivation_dimension_oracle(gen)


@criterion("8 approximate-identity defect")
def test_c08_bai_defect():
    q = jordan_block(2)
    for cap in (10.0, 100.0, 1000.0):
        assert abs(bai_defect(q, cap) - 1.0) <= 1e-9


@criterion("9 non-similarity shadow")
def test_c09_similarity():
    norms = []
    for m in (4, 8, 16, 20):
        s = make_spectrum("geometric", m)
        solve = minimal_intertwiner(s)
        assert solve.residual == 0.0
        norms.append(solve.norm)
    for got, expected in zip(norms, (4.0, 16.0, 256.0, 1024.0)):
        assert abs(got - expected) <= 1e-9
    assert all(b > a for a, b in zip(norms, norms[1:]))
    s = make_spectrum("geometric", 16)
    B = DiagonalOperator(tuple(-1 / exact_sqrt(v) for v in s.values))
    assert conjugate_by_upper_unipotent(build_T(s), B).b12.is_zero()


@criterion("10 norm oracle agreement")
def test_c10_norm_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(1, 13))
        X = BlockOperator.column_block(
            DiagonalOperator(tuple(rng.standard_normal(m) * 3)),
            DiagonalOperator(tuple(rng.standard_normal(m) * 3)))
        assert abs(operator_norm(X) - spectral_norm_oracle(X.to_dense())) < 1e-10
