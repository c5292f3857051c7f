"""Executable certificates for the operator-algebra claims: membership in the
column-block algebra, idempotent generation, derivation spaces, approximate
identity sweeps, characters, and defect bounds for nilpotent generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _rational_linalg as rl
from .polynomials import (InternalConsistencyError, Polynomial, approximate_with_derivative,
                          divide_shifted, interval_sups, mvt_bound_check, notch, sup_norm,
                          unit_notch)
from .reports import ConvergenceReport
from .scalars import Surd, as_fraction, is_exact_zero, surd_float, to_float
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


def _t_tilde_coordinates(T: BlockOperator, spectrum: SpectrumSequence) -> list | None:
    """(C, E, b, P, Q) per coordinate n of T = [[0, b], [0, lambda_n]], with
    lambda_n = C / E and sqrt(lambda_n) b = P / Q; None unless every
    coordinate has that shape with b rational or s sqrt(d)."""
    if T.dim != len(spectrum):
        raise ValueError("operator dimension does not match the truncation")
    coords = []
    for a, b, c, lam, root in zip(T.b11.diag, T.b12.diag, T.b22.diag, spectrum.values,
                                  spectrum.roots):
        if not (is_exact_zero(a) and isinstance(c, (int, Fraction)) and c == lam
                and isinstance(b, (int, Fraction, Surd))):
            return None
        product = root * b
        if isinstance(product, Surd):
            return None
        coords.append((lam.numerator, lam.denominator, b, product.numerator,
                       product.denominator))
    return coords


def _integer_trial(p: Polynomial, coords: list) -> MembershipTrial | None:
    """The trial of p on `_t_tilde_coordinates`, or None when p(T) is not an
    algebra element."""
    nums, den = p._integers
    if nums[0]:
        raise ValueError("constant term must vanish; the algebra model is non-unital")
    tops, bottoms = [], []
    for c, e, b, root_b_num, root_b_den in coords:
        _, g, h, scale = _horner_numerators(nums, 0, c, e)
        # p(lambda_n) = h/d against sqrt(lambda_n) b Dp = (P/Q) g/d
        if h * root_b_den != root_b_num * g:
            return None
        d = den * scale
        bottoms.append(h / d)
        if isinstance(b, Surd):
            tops.append(surd_float(g * b.s.numerator, d * b.s.denominator, b.d))
        else:
            tops.append(g * b.numerator / (d * b.denominator))
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
    T = D T~ D^-1 with D = diag(I, b^-1).  `_horner_numerators` at a = 0
    gives integers h and g, from two accumulators, with p(lambda_n) = h/d and
    Dp = g/d, and p(T) is an algebra element iff h = sqrt(lambda_n) b_n g at
    every n: an exact integer test that fails when T's upper-right block is
    not N^(1/2) (up to the zeros of Dp).  A passing trial has residual 0 and
    floats each entry once, correctly rounded or by `surd_float`; any other
    trial, and every trial on a T of another shape, is the composition itself.
    """
    coords = _t_tilde_coordinates(T, spectrum)
    trials = []
    for p in polynomials:
        trial = _integer_trial(p, coords) if coords is not None else None
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


def approximate_identity_step(p: Polynomial, n: int, spectrum: SpectrumSequence,
                              memo: dict | None = None) -> ApproximationStep:
    """One sweep step for the n-th kernel algebra: build u = p(shifted
    generator), measure the multiplication residual and the element norm, and
    certify the norm from scalar sup bounds only.

    The certificate combines the eigenvalue sup of p with the mean-value bound
    for the divided polynomial, which controls the off-diagonal block.  `memo`
    is the memo of `interval_sups`.
    """
    lam_n = spectrum.lam(n)
    lam_1 = spectrum.lam(1)
    shifted = build_shifted_T(spectrum, n)
    u = apply_poly_to_block(p.coefficients, shifted)
    residual = operator_norm(((shifted @ u) - shifted).to_float())
    element_norm = operator_norm(u.to_float())
    q = divide_shifted(p, lam_n)
    check = mvt_bound_check(p, q, lam_n, spectrum, memo)
    certified = check.p_sup + math.sqrt(float(lam_1)) * (check.rhs + check.p_sup) / float(lam_n)
    return ApproximationStep(max(p.degree, 0), residual, element_norm,
                             check.rhs, check.ok, certified)


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


def unit_approximation_step(p: Polynomial, spectrum: SpectrumSequence,
                            memo: dict | None = None) -> ApproximationStep:
    """One sweep step against the generator itself: u = p(T), residual ||Tu - T||.
    `memo` is the memo of `interval_sups`."""
    lam_1 = spectrum.lam(1)
    T = build_T(spectrum)
    u = apply_poly_to_block(p.coefficients, T)
    residual = operator_norm(((T @ u) - T).to_float())
    element_norm = operator_norm(u.to_float())
    q = Polynomial(p.coefficients[1:])  # p / z: u = p(T) has checked p(0) = 0
    p_sup, q_bound = interval_sups(p, Fraction(0), lam_1, memo)
    mvt_ok = sup_norm(q, spectrum) <= q_bound + 1e-12
    certified = p_sup + math.sqrt(float(lam_1)) * q_bound
    return ApproximationStep(max(p.degree, 0), residual, element_norm, q_bound, mvt_ok, certified)


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
