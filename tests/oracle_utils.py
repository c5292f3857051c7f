"""Independent oracles for the test suite: naive dense products in exact
arithmetic, SVD spectral norms, a brute-force derivation solver over the full
linear-map space, seeded random rational generators, and exact sympy values
of scalar entries.  These deliberately avoid the code paths they are used to
check.  Small helpers that only the tests use live here too, not in the
package."""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Sequence

import numpy as np
import sympy

from amenalab import BlockOperator, Polynomial, Surd


def dense_exact(X: BlockOperator) -> list[list]:
    """Exact dense 2M x 2M entries of a block operator."""
    m = X.dim
    out = [[Fraction(0)] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        out[i][i] = X.b11.diag[i]
        out[i][m + i] = X.b12.diag[i]
        out[m + i][m + i] = X.b22.diag[i]
    return out


def matmul_exact(a: list[list], b: list[list]) -> list[list]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def matpow_exact(a: list[list], k: int) -> list[list]:
    out = a
    for _ in range(k - 1):
        out = matmul_exact(out, a)
    return out


def spectral_norm_oracle(dense: np.ndarray) -> float:
    """Largest singular value via the generic dense SVD."""
    return float(np.linalg.svd(np.asarray(dense, float), compute_uv=False)[0])


def random_rational_poly(rng, max_degree: int, *, max_num: int = 9, max_den: int = 9,
                         zero_at_origin: bool = True) -> Polynomial:
    degree = rng.randint(1, max_degree)
    coeffs = [Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
              for _ in range(degree + 1)]
    if zero_at_origin:
        coeffs[0] = Fraction(0)
    return Polynomial(tuple(coeffs))


def to_sympy(x) -> sympy.Expr:
    """Exact sympy value of an int, Fraction or Surd s*sqrt(d), built from its parts."""
    if isinstance(x, Surd):
        return to_sympy(x.s) * sympy.sqrt(to_sympy(x.d))
    if isinstance(x, (int, Fraction)):
        return sympy.Rational(x.numerator, x.denominator)
    raise TypeError(f"not an exact entry: {x!r}")


def poly_to_sympy(p: Polynomial, z: sympy.Symbol) -> sympy.Expr:
    return sum(sympy.Rational(c.numerator, c.denominator) * z ** i
               for i, c in enumerate(p.coefficients))


def notch_value_array(f, z: np.ndarray) -> np.ndarray:
    """Float values of a NotchFunction's smoothstep dip at the points z."""
    u = np.clip(np.abs(np.asarray(z, float)) / float(f.delta), 0.0, 1.0)
    return 3 * u * u - 2 * u ** 3


def notch_derivative_array(f, z: np.ndarray) -> np.ndarray:
    """Float derivative of a NotchFunction at the points z."""
    z = np.asarray(z, float)
    u = np.abs(z) / float(f.delta)
    inside = u < 1
    out = np.zeros_like(z)
    out[inside] = np.sign(z[inside]) * (6 * u[inside] - 6 * u[inside] ** 2) / float(f.delta)
    return out


def to_rational_strings(p: Polynomial) -> list[str]:
    """Serialize as exact rational strings in ascending degree."""
    return [str(c) for c in p.coefficients]


def from_rational_strings(items: Sequence[str]) -> Polynomial:
    return Polynomial(tuple(Fraction(s) for s in items))


def spectrum_floats(s) -> np.ndarray:
    """Float values of a SpectrumSequence's points."""
    return np.array([float(v) for v in s.values])


def character_value(X: BlockOperator, n: int):
    """The n-th multiplicative functional: the n-th entry of the lower-right
    block."""
    if not 1 <= n <= X.dim:
        raise ValueError(f"n out of range: {n}")
    return X.b22.diag[n - 1]


def count_calls(monkeypatch, module: str, name: str) -> list[int]:
    """Count the calls of `module.name`, patched in every amenalab namespace
    that holds it (modules bind it with `from ... import`)."""
    original = getattr(sys.modules[module], name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "amenalab" or mod_name.startswith("amenalab."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def jordan_block(size: int) -> list[list[int]]:
    return [[int(j == i + 1) for j in range(size)] for i in range(size)]


def diagonal01(mask: int, dim: int) -> list[list[int]]:
    return [[int(i == j and (mask >> i) & 1) for j in range(dim)] for i in range(dim)]


def derivation_dimension_oracle(generator, module=None) -> int:
    """Brute-force derivation-space dimension for a singly generated algebra.

    Works over the FULL linear-map space Hom(A, X): unknowns are the values on
    an algebra basis, with one Leibniz equation per pair of basis elements.
    Exact sympy arithmetic throughout.
    """
    Q = sympy.Matrix(generator)
    n = Q.rows
    basis_mats: list[sympy.Matrix] = []
    stacked = sympy.zeros(n * n, 0)
    P = sympy.eye(n)
    for _ in range(n):
        P = P * Q
        v = P.reshape(n * n, 1)
        candidate = stacked.row_join(v)
        if candidate.rank() > stacked.rank():
            stacked = candidate
            basis_mats.append(P)
    s_a = len(basis_mats)
    module_mats = basis_mats if module is None else [sympy.Matrix(x) for x in module]
    s_x = len(module_mats)
    if s_a == 0 or s_x == 0:
        return 0
    xstack = sympy.zeros(n * n, 0)
    for x in module_mats:
        xstack = xstack.row_join(x.reshape(n * n, 1))

    def coords_in(space: sympy.Matrix, mat: sympy.Matrix) -> sympy.Matrix:
        sol, params = space.gauss_jordan_solve(mat.reshape(n * n, 1))
        assert not params, "coordinates must be unique"
        return sol

    def action(mat: sympy.Matrix) -> sympy.Matrix:
        cols = [coords_in(xstack, mat * x) for x in module_mats]
        return sympy.Matrix.hstack(*cols)

    rho = [action(b) for b in basis_mats]
    unknowns = s_a * s_x
    rows = []
    for p_i in range(s_a):
        for q_i in range(p_i, s_a):
            mu = coords_in(stacked, basis_mats[p_i] * basis_mats[q_i])
            block = [[sympy.Integer(0)] * unknowns for _ in range(s_x)]
            for t in range(s_a):
                if mu[t] == 0:
                    continue
                for r in range(s_x):
                    block[r][t * s_x + r] += mu[t]
            for r in range(s_x):
                for c in range(s_x):
                    if rho[p_i][r, c] != 0:
                        block[r][q_i * s_x + c] -= rho[p_i][r, c]
                    if rho[q_i][r, c] != 0:
                        block[r][p_i * s_x + c] -= rho[q_i][r, c]
            rows.extend(block)
    system = sympy.Matrix(rows)
    return unknowns - system.rank()
