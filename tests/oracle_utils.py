"""Independent oracles for the test suite: naive dense products in exact
arithmetic, SVD spectral norms, a brute-force derivation solver over the full
linear-map space, seeded random rational generators, exact sympy values
of scalar entries, the Bernstein approximant built in z with Fraction
arithmetic, the derivation solver on Fractions, and the membership trials
with every float at every coordinate and their polynomials built from
Fractions.  These deliberately avoid
the code paths they are used to check.  Small helpers that only the tests
use live here too, not in the package."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np
import sympy

from amenalab import (BlockOperator, InternalConsistencyError, Polynomial, Surd,
                      apply_poly_to_block, membership_residual, operator_norm, sup_norm)
from amenalab.amenability import DerivationSpace
from amenalab.membership import MembershipTrial
from amenalab.scalars import _common_denominator, as_fraction, scaled_float


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


def bernstein_to_monomial(values: Sequence[Fraction], a: Fraction, b: Fraction) -> Polynomial:
    """Exact monomial form of sum_j v_j C(k,j) t^j (1-t)^(k-j), t = (z-a)/(b-a)."""
    k = len(values) - 1
    # The t^m coefficient is C(k, m) times the m-th forward difference of the
    # values, taken on their numerators over one common denominator.
    row, den = _common_denominator(values)
    coeff_t = []
    for m in range(k + 1):
        coeff_t.append(Fraction(comb(k, m) * row[0], den))
        row = [y - x for x, y in zip(row, row[1:])]
    width = b - a
    return Polynomial(tuple(coeff_t)).compose_affine(-a / width, 1 / width)


def zero_pin(f, degree: int) -> Polynomial:
    """Degree <= `degree` polynomial equal to 1 at the origin, vanishing at the
    notch anchors, and localized at the Bernstein node nearest the origin."""
    width = f.b - f.a
    anchors = getattr(f, "anchors", ())
    ell = Polynomial.constant(1)
    for g in anchors:
        ell = ell * Polynomial((Fraction(1), -1 / as_fraction(g)))
    m = max(degree - len(anchors), 0)
    t0 = -f.a / width
    j0 = min(max(int(round(t0 * m)), 0), m)
    bump_t = [Fraction(0)] * (m + 1)
    cj = comb(m, j0)
    for s in range(m - j0 + 1):
        term = cj * comb(m - j0, s)
        bump_t[j0 + s] = -term if s % 2 else term
    bump = Polynomial(tuple(bump_t)).compose_affine(-f.a / width, 1 / width)
    pin = bump * ell
    scale = pin(Fraction(0))
    if scale == 0:
        raise InternalConsistencyError("origin pin degenerated to zero at the origin")
    return pin * (1 / scale)


def approximant_oracle(f, degree: int) -> Polynomial:
    """`approximate_with_derivative` built in z with Fraction arithmetic: the
    raw Bernstein polynomial, shifted into z, minus its value at the origin
    times the normalized `zero_pin` (no pin when that value is already 0)."""
    width = f.b - f.a
    nodes = [f.a + width * Fraction(j, degree) for j in range(degree + 1)]
    raw = bernstein_to_monomial([f.value(x) for x in nodes], f.a, f.b)
    at_zero = raw(Fraction(0))
    if at_zero == 0:
        return raw
    return raw - at_zero * zero_pin(f, degree)


def to_rational_strings(p: Polynomial) -> list[str]:
    """Serialize as exact rational strings in ascending degree."""
    return [str(c) for c in p.coefficients]


def from_rational_strings(items: Sequence[str]) -> Polynomial:
    return Polynomial(tuple(Fraction(s) for s in items))


def fraction_membership_polynomials(seed: int, trials: int) -> list[Polynomial]:
    """The membership trials' polynomials built from Fraction coefficients:
    the same randint stream as `amenalab.cli._membership_polynomials`."""
    rng = random.Random(seed)
    polys = []
    for _ in range(trials):
        degree = rng.randint(1, 16)
        coeffs = [Fraction(0)] + [Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                                  for _ in range(degree)]
        polys.append(Polynomial(tuple(coeffs)))
    return polys


def spectrum_floats(s) -> np.ndarray:
    """Float values of a SpectrumSequence's points."""
    return np.array([float(v) for v in s.values])


def plain_de_casteljau(ctrl: Sequence[float], t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The float de Casteljau sweep of one row of controls at the columns
    (t_j, s_j), column by column in plain Python floats: k levels of
    beta_i <- beta_i s_j + beta_(i+1) t_j, each product and sum rounded
    once, with no blocks, no batching and no numpy arithmetic."""
    out = []
    for tj, sj in zip(t.tolist(), s.tolist()):
        beta = [float(c) for c in ctrl]
        for r in range(len(beta) - 1, 0, -1):
            beta = [x * sj + y * tj for x, y in zip(beta[:r], beta[1:r + 1])]
        out.append(beta[0])
    return np.array(out)


def character_value(X: BlockOperator, n: int):
    """The n-th multiplicative functional: the n-th entry of the lower-right
    block."""
    if not 1 <= n <= X.dim:
        raise ValueError(f"n out of range: {n}")
    return X.b22.diag[n - 1]


def integer_trial_table(T: BlockOperator, spectrum, k: int) -> list | None:
    """Every coordinate's integers for membership trials of degree at most k
    on T = [[0, b], [0, lambda_n]], lambda_n = C / E, sqrt(lambda_n) b = P / Q:
    the weights C^(j-1) E^(k-j), C, E, E^k, CQ and PE, and b.  None unless
    every coordinate has that shape with b rational or s sqrt(d) and
    sqrt(lambda_n) b rational."""
    table = []
    for a, b, c, lam, root in zip(T.b11.diag, T.b12.diag, T.b22.diag, spectrum.values,
                                  spectrum.roots):
        if not (a == 0 and isinstance(c, (int, Fraction)) and c == lam
                and isinstance(b, (int, Fraction, Surd))):
            return None
        product = root * b
        if isinstance(product, Surd):
            return None
        num, e = lam.numerator, lam.denominator
        weights = [num ** (j - 1) * e ** (k - j) for j in range(1, k + 1)]
        table.append((weights, num, e, e ** k, num * product.denominator,
                      product.numerator * e, b))
    return table


def integer_trial_floats(p: Polynomial, table: list) -> list[tuple[float, float]] | None:
    """The floats (top, bottom) = (b_n Dp, p(lambda_n)) of p(T) at every
    coordinate of an `integer_trial_table`, each from one dot product and an
    exact integer membership test, or None when p(T) is not an algebra
    element."""
    nums, den = p._integers
    nums = nums[1:]
    out = []
    for weights, c, e, scale, cq, pe, b in table:
        g = sum(x * w for x, w in zip(nums, weights))
        if g * cq != pe * g:
            return None
        out.append((scaled_float(b, e * g, den * scale), c * g / (den * scale)))
    return out


def reference_trial(p: Polynomial, T: BlockOperator, spectrum) -> MembershipTrial:
    """A membership trial by the exact block composition p(T), for any T."""
    X = apply_poly_to_block(p.coefficients, T)
    return MembershipTrial(membership_residual(X, spectrum), operator_norm(X.to_float()),
                           sup_norm(p, spectrum))


def integer_trial_oracle(polynomials: Sequence[Polynomial], T: BlockOperator,
                         spectrum) -> list[MembershipTrial]:
    """The membership trials with every float at every coordinate: the norm is
    the largest np.hypot(top, bottom) and the spectral sup the largest
    |bottom|; a trial that is no algebra element, or a T of another shape,
    is the block composition itself."""
    table = integer_trial_table(T, spectrum, max([0, *(p.degree for p in polynomials)]))
    out = []
    for p in polynomials:
        floats = integer_trial_floats(p, table) if table is not None else None
        if floats is None:
            out.append(reference_trial(p, T, spectrum))
            continue
        tops, bottoms = (np.array(v) for v in zip(*floats))
        out.append(MembershipTrial(0.0, float(np.max(np.hypot(tops, bottoms), initial=0.0)),
                                   max(0.0, *map(abs, bottoms.tolist()))))
    return out


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace `original` in every amenalab namespace that holds it (modules
    bind it with `from ... import`)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "amenalab" or mod_name.startswith("amenalab."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, replacement)


def count_calls(monkeypatch, module: str, name: str) -> list[int]:
    """Count the calls of `module.name`, patched in every amenalab namespace
    that holds it."""
    original = getattr(sys.modules[module], name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    _patch_everywhere(monkeypatch, original, counted)
    return calls


def record_calls(monkeypatch, module: str, name: str) -> list[tuple]:
    """The positional arguments of every call of `module.name`, patched as
    in `count_calls`."""
    original = getattr(sys.modules[module], name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    _patch_everywhere(monkeypatch, original, recorded)
    return calls


def count_method_calls(monkeypatch, cls, name: str) -> list[int]:
    """Count the calls of the static method `cls.name`."""
    original = getattr(cls, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, staticmethod(counted))
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


# --- the Fraction derivation solver ---------------------------------------------------
# derivation_space and its linear algebra as they ran on Fractions before the
# integer solver, kept verbatim (only renamed) as the parity oracle.

def fraction_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices (exact)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def fraction_nullspace(rows: list[list[Fraction]], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right nullspace of the matrix (exact)."""
    if not rows:
        return []
    ncols = ncols if ncols is not None else len(rows[0])
    reduced, pivots = fraction_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def fraction_solve_in_span(basis: Sequence[list[Fraction]],
                           target: list[Fraction]) -> list[Fraction] | None:
    """Coefficients expressing `target` in the span of `basis`, or None."""
    if not basis:
        return [] if all(x == 0 for x in target) else None
    n = len(target)
    aug = [[basis[j][i] for j in range(len(basis))] + [target[i]] for i in range(n)]
    reduced, pivots = fraction_rref(aug)
    if len(basis) in pivots:
        return None
    coeffs = [Fraction(0)] * len(basis)
    for r, pc in enumerate(pivots):
        coeffs[pc] = reduced[r][-1]
    return coeffs


def _fraction_matrix(m) -> tuple:
    rows = [list(r) for r in (m.tolist() if isinstance(m, np.ndarray) else m)]
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("generators and module elements must be square matrices")
    return tuple(tuple(as_fraction(x) for x in r) for r in rows)


def _fraction_mat_mul(a: tuple, b: tuple) -> tuple:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _fraction_vec(m: tuple) -> list[Fraction]:
    return [x for row in m for x in row]


def _fraction_combination(coeffs: Sequence[Fraction], mats: Sequence[tuple]) -> tuple:
    """sum_t coeffs[t] * mats[t] for a nonempty list of matrices."""
    size = len(mats[0])
    return tuple(tuple(sum(c * m[p][q] for c, m in zip(coeffs, mats))
                       for q in range(size)) for p in range(size))


def fraction_derivation_space(generators, bimodule=None) -> DerivationSpace:
    """The Fraction solver: one `fraction_solve_in_span` per algebra candidate,
    per action column, per product b_i b_j and per generator, and a Fraction
    nullspace of the Leibniz rows."""
    gens = tuple(_fraction_matrix(g) for g in generators)
    if not gens:
        raise ValueError("at least one generator is required")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if _fraction_mat_mul(gens[i], gens[j]) != _fraction_mat_mul(gens[j], gens[i]):
                raise ValueError("generators must commute pairwise")

    algebra: list[tuple] = []
    algebra_vecs: list[list[Fraction]] = []
    layer = list(gens)
    while layer:
        fresh = []
        for m in layer:
            v = _fraction_vec(m)
            if fraction_solve_in_span(algebra_vecs, v) is None:
                algebra.append(m)
                algebra_vecs.append(v)
                fresh.append(m)
        layer = [_fraction_mat_mul(m, g) for m in fresh for g in gens]
    algebra_dim = len(algebra)

    if bimodule is None:
        module_kind = "algebra"
        module = tuple(algebra)
    else:
        module_kind = "supplied"
        module = tuple(_fraction_matrix(x) for x in bimodule)
        for g in gens:
            for x in module:
                if _fraction_mat_mul(g, x) != _fraction_mat_mul(x, g):
                    raise ValueError("bimodule action must be commutative")
    module_vecs = [_fraction_vec(x) for x in module]
    s_x = len(module)

    def action_matrix(b: tuple) -> list[list[Fraction]]:
        cols = []
        for x in module:
            coeffs = fraction_solve_in_span(module_vecs, _fraction_vec(_fraction_mat_mul(b, x)))
            if coeffs is None:
                raise ValueError("bimodule is not invariant under the generators")
            cols.append(coeffs)
        return [[cols[q][p] for q in range(s_x)] for p in range(s_x)]

    rho = [action_matrix(b) for b in algebra]

    # unknown t * s_x + p is coordinate p of D(b_t)
    rows: list[list[Fraction]] = []
    for i in range(algebra_dim):
        for j in range(i, algebra_dim):
            mu = fraction_solve_in_span(algebra_vecs,
                                        _fraction_vec(_fraction_mat_mul(algebra[i], algebra[j])))
            if mu is None:
                raise InternalConsistencyError("algebra basis is not closed under products")
            for p in range(s_x):
                row = [Fraction(0)] * (algebra_dim * s_x)
                for t, m_t in enumerate(mu):
                    row[t * s_x + p] += m_t
                for q in range(s_x):
                    row[j * s_x + q] -= rho[i][p][q]
                    row[i * s_x + q] -= rho[j][p][q]
                rows.append(row)

    gen_coords = [fraction_solve_in_span(algebra_vecs, _fraction_vec(g)) for g in gens]
    basis = []
    for sol in fraction_nullspace(rows, algebra_dim * s_x):
        images = [_fraction_combination(sol[t * s_x:(t + 1) * s_x], module)
                  for t in range(algebra_dim)]
        basis.append(tuple(_fraction_combination(c, images) for c in gen_coords))
    return DerivationSpace(gens, module_kind, module, tuple(basis), algebra_dim)


def t_tilde(count: int, ratio=Fraction(1, 2)) -> list[list[Fraction]]:
    """The dense 2M x 2M direct sum of the blocks [[0, 1], [0, lambda_k]],
    lambda_k = ratio^k for k = 1..M: the truncated T with each coordinate
    block [[0, sqrt(lambda_k)], [0, lambda_k]] rescaled to a rational one."""
    size = 2 * count
    rows = [[Fraction(0)] * size for _ in range(size)]
    for k in range(count):
        rows[2 * k][2 * k + 1] = Fraction(1)
        rows[2 * k + 1][2 * k + 1] = ratio ** (k + 1)
    return rows
