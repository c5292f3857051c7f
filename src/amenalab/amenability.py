"""Executable certificates for the operator-algebra claims: membership in the
column-block algebra, idempotent generation, derivation spaces, approximate
identity sweeps, characters, and defect bounds for nilpotent generators.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _rational_linalg as rl
from .polynomials import (InternalConsistencyError, Polynomial, approximate_with_derivative,
                          interval_sups, notch, sup_norm, unit_notch)
from .reports import ConvergenceReport
from .scalars import (Surd, _root_split, _split_float, as_fraction, is_exact_zero,
                      scaled_float, to_float)
from .spectrum import (BlockOperator, DiagonalOperator, SpectrumSequence, _horner_numerators,
                       apply_poly_to_block, block_norms, build_T, build_shifted_T, operator_norm)


def algebra_element(spectrum: SpectrumSequence, symbol: Sequence) -> BlockOperator:
    """Element of the column-block algebra with exact symbol values g at the
    spectrum points: top block g(N), bottom block N^(1/2) g(N)."""
    symbol = tuple(symbol)
    if len(symbol) != len(spectrum):
        raise ValueError("symbol length must match the truncation")
    if any(isinstance(g, float) for g in symbol):
        raise TypeError("symbol: float values; an algebra element is exact")
    top = DiagonalOperator(symbol)
    bottom = DiagonalOperator(tuple(r * g for r, g in zip(spectrum.roots, symbol)))
    return BlockOperator.column_block(top, bottom)


def membership_residual(X: BlockOperator, spectrum: SpectrumSequence) -> float:
    """Distance of X from the algebra shape: norm of the upper-left block plus
    the worst violation of B22[n] = sqrt(lambda_n) B12[n].  Zero exactly iff X
    realizes an algebra element.  X must be exact and graded (see `scalars`),
    so that each violation is rational; an ungraded X raises ValueError."""
    if X.dim != len(spectrum):
        raise ValueError("operator dimension does not match the truncation")
    worst = 0.0
    for root, x12, x22 in zip(spectrum.roots, X.b12.diag, X.b22.diag):
        worst = max(worst, abs(to_float(x22 - root * x12)))
    return X.b11.norm() + worst


class MembershipTrial(NamedTuple):
    residual: float       # `membership_residual` of p(T)
    norm: float           # ||p(T)||
    spectral_sup: float   # sup |p| over the spectrum plus the origin


def _reference_trial(p: Polynomial, T: BlockOperator,
                     spectrum: SpectrumSequence) -> MembershipTrial:
    X = apply_poly_to_block(p.coefficients, T)
    return MembershipTrial(membership_residual(X, spectrum), operator_norm(X.to_float()),
                           sup_norm(p, spectrum))


def _trial_weights(c: int, e: int, k: int) -> list[int]:
    """w_j = c^(j-1) e^(k-j), j = 1..k.  For p = sum_j N_j z^j / L of degree
    at most k with N_0 = 0, g = sum_j N_j w_j gives p(c/e) = c g / (L e^k)
    and the divided difference of p at 0 and c/e, Dp = e g / (L e^k)."""
    return [c ** (j - 1) * e ** (k - j) for j in range(1, k + 1)]


def _trial_table(T: BlockOperator, spectrum: SpectrumSequence, k: int) -> list | None:
    """What every trial of degree at most k shares at each coordinate n of
    T = [[0, b], [0, lambda_n]], lambda_n = C / E, sqrt(lambda_n) b = P / Q:
    the `_trial_weights`, C, E^k, CQ and PE for the membership test, and the
    integers and root parts that float b Dp.  None unless every coordinate
    has that shape with b rational or s sqrt(d) and sqrt(lambda_n) b rational."""
    if T.dim != len(spectrum):
        raise ValueError("operator dimension does not match the truncation")
    table = []
    for a, b, c, lam, root in zip(T.b11.diag, T.b12.diag, T.b22.diag, spectrum.values,
                                  spectrum.roots):
        if not (is_exact_zero(a) and isinstance(c, (int, Fraction)) and c == lam
                and isinstance(b, (int, Fraction, Surd))):
            return None
        product = root * b
        if isinstance(product, Surd):
            return None
        num, e = lam.numerator, lam.denominator
        scale = e ** k
        # b Dp = b e g / (L e^k): top_num g over L top_den, times sqrt(d) for a Surd b
        if isinstance(b, Surd):
            p0, q0, *parts = _root_split(b.d.numerator, b.d.denominator)
            top = (p0 * e * b.s.numerator, q0 * scale * b.s.denominator, parts)
        else:
            top = (e * b.numerator, scale * b.denominator, None)
        table.append((_trial_weights(num, e, k), num, scale, num * product.denominator,
                      product.numerator * e, *top))
    return table


def _integer_trial(p: Polynomial, table: list) -> MembershipTrial | None:
    """The trial of p on a `_trial_table`, or None when p(T) is not an
    algebra element."""
    nums, den = p._integers
    if nums[0]:
        raise ValueError("constant term must vanish; the algebra model is non-unital")
    nums = nums[1:]
    tops, bottoms = [], []
    for weights, c, scale, cq, pe, top_num, top_den, parts in table:
        g = sum(map(operator.mul, nums, weights))
        # p(lambda_n) = sqrt(lambda_n) b Dp over L E^k Q: (C g) Q = P (E g)
        if g * cq != pe * g:
            return None
        bottoms.append(c * g / (den * scale))
        if parts is None:
            tops.append(g * top_num / (den * top_den))
        else:
            tops.append(_split_float(g * top_num, den * top_den, *parts))
    norm = float(np.max(np.hypot(np.array(tops), np.array(bottoms)), initial=0.0))
    return MembershipTrial(0.0, norm, max(0.0, *map(abs, bottoms)))  # |p(0)| = 0


def membership_trials(polynomials: Iterable[Polynomial], T: BlockOperator,
                      spectrum: SpectrumSequence) -> list[MembershipTrial]:
    """For each p, bitwise `membership_residual(X, spectrum)`,
    `operator_norm(X.to_float())` and `sup_norm(p, spectrum)` of
    X = apply_poly_to_block(p.coefficients, T), most often without building X.

    For T = [[0, b], [0, N]] with b_n rational or s sqrt(d), and
    sqrt(lambda_n) b_n rational (as for `build_T`, where b = N^(1/2)), the
    work is that of T~ = [[0, I], [0, N]], all rational: coordinate n of
    p(T) is [[p(0), b_n Dp], [0, p(lambda_n)]] with p(0) = 0 and Dp the
    divided difference of p at 0 and lambda_n, and for invertible b,
    T = D T~ D^-1 with D = diag(I, b^-1).  With lambda_n = C / E and K the
    largest trial degree, one table per call holds each coordinate's
    weights C^(j-1) E^(K-j) (`_trial_weights`), so each trial's numerator g
    is one dot product with p(lambda_n) = C g / (L E^K) and Dp = E g / (L E^K).
    p(T) is an algebra element iff p(lambda_n) = sqrt(lambda_n) b_n Dp at
    every n: an exact integer test, run for every trial and coordinate, that
    fails when T's upper-right block is not N^(1/2) (up to the zeros of Dp).
    A passing trial has residual 0 and floats each entry once, correctly
    rounded or by the root split of b_n made once per call; any other trial,
    and every trial on a T of another shape, is the composition itself.
    """
    polynomials = list(polynomials)
    table = _trial_table(T, spectrum, max([0, *(p.degree for p in polynomials)]))
    trials = []
    for p in polynomials:
        trial = _integer_trial(p, table) if table is not None else None
        trials.append(trial if trial is not None else _reference_trial(p, T, spectrum))
    return trials


def idempotent_E(n: int, spectrum: SpectrumSequence) -> BlockOperator:
    """The n-th idempotent: symbol 1/sqrt(lambda_n) at lambda_n, zero elsewhere.

    It squares to itself exactly.
    """
    spectrum.lam(n)  # validates n
    symbol = [Fraction(0)] * len(spectrum)
    symbol[n - 1] = 1 / spectrum.roots[n - 1]
    return algebra_element(spectrum, symbol)


def idempotent_sum(spectrum: SpectrumSequence) -> BlockOperator:
    """U = sum_n E_n, the algebra element with symbol 1/sqrt(lambda_n) at
    every n: each E_n is U's coordinate-n block and zero elsewhere."""
    return algebra_element(spectrum, [1 / r for r in spectrum.roots])


def idempotent_partial_sum(m: int, spectrum: SpectrumSequence) -> BlockOperator:
    """Sum of the first m idempotents weighted by their spectrum values; at
    m = M this reconstructs the generator exactly.  The sum is the algebra
    element with symbol lambda_n / sqrt(lambda_n) for n <= m and 0 beyond."""
    if not 1 <= m <= len(spectrum):
        raise ValueError(f"m out of range: {m}")
    symbol = [lam / root if n <= m else Fraction(0)
              for n, (lam, root) in enumerate(zip(spectrum.values, spectrum.roots), start=1)]
    return algebra_element(spectrum, symbol)


def generation_defect(m: int, spectrum: SpectrumSequence) -> float:
    """Norm of the generator minus the m-term weighted idempotent sum.

    On a truncation of size M this equals `generation_defect_closed_form`.
    """
    remainder = build_T(spectrum) - idempotent_partial_sum(m, spectrum)
    return operator_norm(remainder.to_float())


def generation_defect_closed_form(m: int, spectrum: SpectrumSequence) -> float:
    """sqrt(lambda_{m+1} + lambda_{m+1}^2) for m < M, and 0 at m = M."""
    if m == len(spectrum):
        return 0.0
    lam = spectrum.lam(m + 1)
    return float(lam + lam ** 2) ** 0.5


def idempotent_norm_closed_form(n: int, spectrum: SpectrumSequence) -> float:
    """||E_n|| = sqrt(1/lambda_n + 1)."""
    return float(1 / spectrum.lam(n) + 1) ** 0.5


class IdempotencySweep(NamedTuple):
    exact: tuple[bool, ...]         # E_n^2 - E_n == 0 exactly, n = 1..M
    residuals: tuple[float, ...]    # ||E_n^2 - E_n||
    norms: tuple[float, ...]        # ||E_n||


def idempotency_sweep(spectrum: SpectrumSequence) -> IdempotencySweep:
    """Every E_n checked from one exact U @ U - U, U = `idempotent_sum`.

    E_n is U's coordinate-n block and zero elsewhere, so E_n^2 - E_n is the
    coordinate-n block of U^2 - U, and the norm of an operator that vanishes
    off coordinate n is that coordinate's block norm: the floats equal those
    of `idempotent_E` taken one n at a time.
    """
    U = idempotent_sum(spectrum)
    defect = (U @ U) - U
    exact = tuple(all(is_exact_zero(x) for x in entries)
                  for entries in zip(defect.b11.diag, defect.b12.diag, defect.b22.diag))
    return IdempotencySweep(exact, tuple(block_norms(defect).tolist()),
                            tuple(block_norms(U).tolist()))


class GenerationSweep(NamedTuple):
    defects: tuple[float, ...]        # ||T - S_m||, m = 1..M
    partial_norms: tuple[float, ...]  # ||S_m||
    reconstructed: bool               # T - S_M == 0 exactly


def generation_sweep(spectrum: SpectrumSequence) -> GenerationSweep:
    """`generation_defect` and the norms of `idempotent_partial_sum` for every
    m from the block norms of T, S_M and T - S_M.

    S_m agrees with S_M on the coordinates k <= m and vanishes beyond, so
    T - S_m is T - S_M on k <= m and T on k > m.  Each norm is a maximum of
    block norms, hence a prefix or suffix maximum, bitwise the dense value.
    """
    T = build_T(spectrum)
    full = idempotent_partial_sum(len(spectrum), spectrum)
    rest = T - full
    head = np.maximum.accumulate(block_norms(rest))
    tail = np.maximum.accumulate(block_norms(T)[::-1])[::-1]
    beyond = np.append(tail[1:], 0.0)  # max over k > m of the blocks of T
    return GenerationSweep(tuple(np.maximum(head, beyond).tolist()),
                           tuple(np.maximum.accumulate(block_norms(full)).tolist()),
                           rest.is_zero())


# --- derivation spaces -------------------------------------------------------

ExactMatrix = tuple  # tuple of row tuples of Fractions


def _to_exact_matrix(m) -> ExactMatrix:
    rows = [list(r) for r in (m.tolist() if isinstance(m, np.ndarray) else m)]
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("generators and module elements must be square matrices")
    return tuple(tuple(as_fraction(x) for x in r) for r in rows)


def _mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _vec(m: ExactMatrix) -> list[Fraction]:
    return [x for row in m for x in row]


@dataclass(frozen=True)
class DerivationSpace:
    """Nullspace basis of the Leibniz system on an algebra basis.

    Each basis element is one derivation, recorded by its values on the
    generators (one module element per generator); those values determine the
    derivation on the whole algebra.
    """

    generators: tuple[ExactMatrix, ...]
    module_kind: str
    module_basis: tuple[ExactMatrix, ...]
    basis: tuple[tuple[ExactMatrix, ...], ...]
    algebra_dim: int

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _combination(coeffs: Sequence[Fraction], mats: Sequence[ExactMatrix]) -> ExactMatrix:
    """sum_t coeffs[t] * mats[t] for a nonempty list of matrices."""
    size = len(mats[0])
    return tuple(tuple(sum(c * m[p][q] for c, m in zip(coeffs, mats))
                       for q in range(size)) for p in range(size))


def derivation_space(generators, bimodule=None) -> DerivationSpace:
    """Basis of derivations from the (non-unital) algebra generated by the
    commuting matrices into a commutative bimodule.

    The algebra basis b_1..b_s collects independent products of the
    generators, breadth first; only independent elements are multiplied
    further, which spans the algebra.  The unknowns are the module
    coordinates of D(b_t), and every pair i <= j contributes the Leibniz
    equation D(b_i b_j) = b_i D(b_j) + b_j D(b_i), with b_i b_j expanded in
    the basis.  Leibniz on basis pairs implies it everywhere, so the exact
    rational nullspace is the derivation space.  The bimodule defaults to the
    algebra itself acting by multiplication.
    """
    gens = tuple(_to_exact_matrix(g) for g in generators)
    if not gens:
        raise ValueError("at least one generator is required")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if _mat_mul(gens[i], gens[j]) != _mat_mul(gens[j], gens[i]):
                raise ValueError("generators must commute pairwise")

    algebra: list[ExactMatrix] = []
    algebra_vecs: list[list[Fraction]] = []
    layer = list(gens)
    while layer:
        fresh = []
        for m in layer:
            v = _vec(m)
            if rl.solve_in_span(algebra_vecs, v) is None:
                algebra.append(m)
                algebra_vecs.append(v)
                fresh.append(m)
        layer = [_mat_mul(m, g) for m in fresh for g in gens]
    algebra_dim = len(algebra)

    if bimodule is None:
        module_kind = "algebra"
        module = tuple(algebra)
    else:
        module_kind = "supplied"
        module = tuple(_to_exact_matrix(x) for x in bimodule)
        for g in gens:
            for x in module:
                if _mat_mul(g, x) != _mat_mul(x, g):
                    raise ValueError("bimodule action must be commutative")
    module_vecs = [_vec(x) for x in module]
    s_x = len(module)

    def action_matrix(b: ExactMatrix) -> rl.Matrix:
        cols = []
        for x in module:
            coeffs = rl.solve_in_span(module_vecs, _vec(_mat_mul(b, x)))
            if coeffs is None:
                raise ValueError("bimodule is not invariant under the generators")
            cols.append(coeffs)
        return [[cols[q][p] for q in range(s_x)] for p in range(s_x)]

    rho = [action_matrix(b) for b in algebra]

    # unknown t * s_x + p is coordinate p of D(b_t)
    rows: rl.Matrix = []
    for i in range(algebra_dim):
        for j in range(i, algebra_dim):
            mu = rl.solve_in_span(algebra_vecs, _vec(_mat_mul(algebra[i], algebra[j])))
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

    gen_coords = [rl.solve_in_span(algebra_vecs, _vec(g)) for g in gens]
    basis = []
    for sol in rl.nullspace(rows, algebra_dim * s_x):
        images = [_combination(sol[t * s_x:(t + 1) * s_x], module) for t in range(algebra_dim)]
        basis.append(tuple(_combination(c, images) for c in gen_coords))
    return DerivationSpace(gens, module_kind, module, tuple(basis), algebra_dim)


# --- approximate identities --------------------------------------------------

class ApproximationStep(NamedTuple):
    degree: int
    residual: float
    element_norm: float
    q_bound: float
    mvt_ok: bool
    certified_bound: float


def _polynomial_norms(p: Polynomial, X: BlockOperator) -> tuple[float, float, list]:
    """(||X u - X||, ||u||, values) for u = p(X), p(0) = 0, on an X with
    rational diagonal blocks, bitwise `operator_norm` of the floats of the
    exact X u - X and u, which are never built.

    Coordinate n of X is [[a, b], [0, c]], so u_n = [[p(a), b Dp], [0, p(c)]]
    and (X u - X)_n = [[a (p(a) - 1), b (a Dp + p(c) - 1)], [0, c (p(c) - 1)]],
    with Dp the divided difference of p at a and c.  One `_horner_numerators`
    pass with a = A / E, c = C / E gives p(a) = H_a / d, Dp = G / d and
    p(c) = H_c / d, and each entry is floated once from integers over d or
    E d (`scaled_float` for b).  `values` holds (A, E, H_a, G, H_c, d) per
    coordinate.
    """
    nums, den = p._integers
    if nums[0]:
        raise ValueError("constant term must vanish; the algebra model is non-unital")
    u, r, values = [], [], []
    for a, b, c in zip(X.b11.diag, X.b12.diag, X.b22.diag):
        e = math.lcm(a.denominator, c.denominator)
        big_a, big_c = a.numerator * (e // a.denominator), c.numerator * (e // c.denominator)
        ha, g, hc, scale = _horner_numerators(nums, big_a, big_c, e)
        d = den * scale
        ed = e * d
        u.append((ha / d, scaled_float(b, g, d), hc / d))
        r.append((big_a * (ha - d) / ed, scaled_float(b, big_a * g + e * (hc - d), ed),
                  big_c * (hc - d) / ed))
        values.append((big_a, e, ha, g, hc, d))
    # the rows of coordinates, transposed, are the three float diagonal blocks
    return (operator_norm(BlockOperator(*map(DiagonalOperator, zip(*r)))),
            operator_norm(BlockOperator(*map(DiagonalOperator, zip(*u)))), values)


def _divided_sup(p: Polynomial, lam_n: Fraction, values: list) -> float:
    """sup|q| over the spectrum and the origin for the q of `divide_shifted`,
    z q(z) = lambda_n p(lambda_n) - (lambda_n - z) p(lambda_n - z), bitwise
    `sup_norm(divide_shifted(p, lam_n), spectrum)`, from closed forms: at
    coordinate m of lambda_n I - T, a = lambda_n and c = lambda_n - lambda_m,
    so q(lambda_m) = a Dp + p(c) from its `_polynomial_norms` values, and
    q(0) = p(lambda_n) + lambda_n p'(lambda_n) from one more integer pass."""
    nums, den = p._integers
    top, bottom = lam_n.numerator, lam_n.denominator
    ha, dp, _, scale = _horner_numerators(nums, top, top, bottom)  # dp / d = p'(lambda_n)
    return max(abs((bottom * ha + top * dp) / (bottom * den * scale)),
               *(abs((big_a * g + e * hc) / (e * d)) for big_a, e, _, g, hc, d in values))


def approximate_identity_step(p: Polynomial, n: int, spectrum: SpectrumSequence,
                              memo: dict | None = None) -> ApproximationStep:
    """One sweep step for the n-th kernel algebra: u = p(X) for the shifted
    generator X = lambda_n I - T, the multiplication residual ||X u - X|| and
    the element norm ||u|| (`_polynomial_norms`), and a certificate for the
    norm from scalar sup bounds only.

    The certificate combines the eigenvalue sup of p with the mean-value bound
    for the divided polynomial q (`_divided_sup`), which controls the
    off-diagonal block.  The floats are bitwise those of the exact block
    composition with `divide_shifted` and `mvt_bound_check`; `memo` is the
    memo of `interval_sups`.
    """
    lam_n = spectrum.lam(n)
    lam_1 = spectrum.lam(1)
    residual, element_norm, values = _polynomial_norms(p, build_shifted_T(spectrum, n))
    q_sup = _divided_sup(p, lam_n, values)
    p_sup, dp_sup = interval_sups(p, lam_n - lam_1, lam_n, memo)
    rhs = p_sup + float(lam_n) * dp_sup
    certified = p_sup + math.sqrt(float(lam_1)) * (rhs + p_sup) / float(lam_n)
    return ApproximationStep(max(p.degree, 0), residual, element_norm,
                             rhs, q_sup <= rhs + 1e-12, certified)


def approximate_identity_steps(n: int, spectrum: SpectrumSequence, degrees: Sequence[int],
                               memo: dict | None = None) -> list[ApproximationStep]:
    _validate_degrees(degrees)
    f = notch(n, spectrum)
    steps = []
    for k in degrees:
        p = approximate_with_derivative(f, k)
        steps.append(approximate_identity_step(p, n, spectrum, memo)._replace(degree=k))
    return steps


def report_from_steps(steps: Sequence[ApproximationStep], tolerance: float | None) -> ConvergenceReport:
    """Assemble the convergence report; `tolerance` None certifies the
    decreasing-residual trend instead of an absolute threshold."""
    rows = tuple((s.degree, s.residual, s.element_norm, s.q_bound) for s in steps)
    if tolerance is None:
        met = all(b.residual <= a.residual + 1e-12 for a, b in zip(steps, steps[1:]))
        tol_field = 0.0
    else:
        met = steps[-1].residual <= tolerance if steps else False
        tol_field = float(tolerance)
    bounded = bool(steps) and max(s.element_norm for s in steps) <= \
        max(s.certified_bound for s in steps) + 1e-9
    return ConvergenceReport(("index", "residual", "u_norm", "q_bound"),
                             rows, met, bounded, tol_field)


def _quotient_sup(p: Polynomial, values: list) -> float:
    """sup|p / z| over the spectrum and the origin, bitwise
    `sup_norm(Polynomial(p.coefficients[1:]), spectrum)`: at coordinate m of
    T, a = 0 and c = lambda_m, so q(lambda_m) = Dp from its
    `_polynomial_norms` values, and q(0) = p_1."""
    q_zero = float(p.coefficients[1]) if p.degree >= 1 else 0.0
    return max(abs(q_zero), *(abs(g / d) for _, _, _, g, _, d in values))


def unit_approximation_step(p: Polynomial, spectrum: SpectrumSequence,
                            memo: dict | None = None) -> ApproximationStep:
    """One sweep step against the generator itself: u = p(T) and the residual
    ||T u - T|| (`_polynomial_norms`), with q = p / z (`_quotient_sup`)
    bounded by sup|p'| on [0, lambda_1].  `memo` is the memo of
    `interval_sups`."""
    lam_1 = spectrum.lam(1)
    residual, element_norm, values = _polynomial_norms(p, build_T(spectrum))
    q_sup = _quotient_sup(p, values)
    p_sup, q_bound = interval_sups(p, Fraction(0), lam_1, memo)
    certified = p_sup + math.sqrt(float(lam_1)) * q_bound
    return ApproximationStep(max(p.degree, 0), residual, element_norm, q_bound,
                             q_sup <= q_bound + 1e-12, certified)


def unit_approximation_steps(spectrum: SpectrumSequence, degrees: Sequence[int],
                             memo: dict | None = None) -> list[ApproximationStep]:
    _validate_degrees(degrees)
    f = unit_notch(spectrum)
    steps = []
    for k in degrees:
        p = approximate_with_derivative(f, k)
        steps.append(unit_approximation_step(p, spectrum, memo)._replace(degree=k))
    return steps


def _validate_degrees(degrees: Sequence[int]):
    if not degrees:
        raise ValueError("degrees: must not be empty")
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees: must be strictly increasing")


# --- bounded-approximate-identity defect for a single generator --------------

def bai_defect(generator, bound: float) -> float:
    """min ||Q u - Q|| over u in the span of positive powers of Q with
    ||u|| <= bound (operator norms), decided exactly from its closed form.

    For Q = [q], u = t with |t| <= bound, so the defect is |q| max(0, 1 - bound).
    For a weighted shift Q (nonzero entries only on the first superdiagonal,
    as in a Jordan block), every u in the span is strictly upper triangular,
    so Q u vanishes on the first superdiagonal and ||Q u - Q|| >= max |q_{i,i+1}|
    = ||Q||, which u = 0 attains: the defect is ||Q|| at every bound.  Any other
    generator raises ValueError.
    """
    shape = np.shape(generator)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("generator must be a square matrix")
    if bound <= 0:
        raise ValueError("bound: must be positive")
    Q = _to_exact_matrix(generator)
    n = len(Q)
    if n == 1:
        return float(abs(Q[0][0]) * max(0, 1 - as_fraction(bound)))
    if any(Q[i][j] for i in range(n) for j in range(n) if j != i + 1):
        raise ValueError("generator: must be 1x1 or a weighted shift")
    return float(max(abs(Q[i][i + 1]) for i in range(n - 1)))
