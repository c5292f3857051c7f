"""Executable certificates for the operator-algebra claims: membership in the
column-block algebra, idempotent generation, derivation spaces, approximate
identity sweeps, characters, and defect bounds for nilpotent generators.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, zip_longest
from typing import NamedTuple, Sequence

from . import _rational_linalg as rl
from .polynomials import (InternalConsistencyError, Polynomial, _bernstein_controls,
                          _bernstein_sum, _support, approximate_with_derivative,
                          interval_sups, interval_sups_many, notch, unit_notch)
from .reports import ConvergenceReport
from .scalars import (_common_denominator, as_fraction, exact_key, hypot, is_exact_zero,
                      scaled_float, to_float)
from .spectrum import (BlockOperator, DiagonalOperator, SpectrumSequence, build_T,
                       float_block_norm, operator_norm)


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


def unit_identity_exact(spectrum: SpectrumSequence) -> bool:
    """Whether T U - T == 0 exactly for U = `idempotent_sum`, read per
    coordinate with no operator built: block n of T is [[0, r], [0, lambda_n]]
    with r = sqrt(lambda_n), and U's is [[0, g], [0, r g]] with g = 1 / r, so
    block n of T U - T is [[0, r (r g) - r], [0, lambda_n (r g) - lambda_n]]."""
    for root, lam in zip(spectrum.roots, spectrum.values):
        bottom = root * (1 / root)
        if not (is_exact_zero(root * bottom - root) and is_exact_zero(lam * bottom - lam)):
            return False
    return True


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
    """sqrt(lambda_{m+1} + lambda_{m+1}^2) for m < M, and 0 at m = M; for
    lambda = p/q, lambda + lambda^2 = p (q + p) / q^2 in lowest terms."""
    if m == len(spectrum):
        return 0.0
    p, q = spectrum.lam(m + 1).as_integer_ratio()
    return (p * (q + p) / (q * q)) ** 0.5


def idempotent_norm_closed_form(n: int, spectrum: SpectrumSequence) -> float:
    """||E_n|| = sqrt(1/lambda_n + 1) = sqrt((q + p) / p), in lowest terms, for lambda_n = p/q."""
    p, q = spectrum.lam(n).as_integer_ratio()
    return ((q + p) / p) ** 0.5


class IdempotencySweep(NamedTuple):
    exact: tuple[bool, ...]         # E_n^2 - E_n == 0 exactly, n = 1..M
    residuals: tuple[float, ...]    # ||E_n^2 - E_n||
    norms: tuple[float, ...]        # ||E_n||


def idempotency_sweep(spectrum: SpectrumSequence) -> IdempotencySweep:
    """Every E_n checked at its one nonzero block [[0, top], [0, bottom]],
    top = 1/sqrt(lambda_n), bottom = sqrt(lambda_n) top, whose square minus
    itself is [[0, top bottom - top], [0, bottom^2 - bottom]].  The norm of
    an operator that vanishes off coordinate n is that coordinate's block
    norm, so the floats are those of `idempotent_E`, and no operator is built.
    """
    tops = [1 / root for root in spectrum.roots]
    bottoms = [root * top for root, top in zip(spectrum.roots, tops)]
    d12 = [top * bottom - top for top, bottom in zip(tops, bottoms)]
    d22 = [bottom * bottom - bottom for bottom in bottoms]
    d12_f, d22_f, top_f, bottom_f = ([to_float(x) for x in xs] for xs in (d12, d22, tops, bottoms))
    exact = tuple(is_exact_zero(a) and is_exact_zero(b) for a, b in zip(d12, d22))
    return IdempotencySweep(exact, tuple(map(hypot, d12_f, d22_f)),
                            tuple(map(hypot, top_f, bottom_f)))


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
    T is read from the spectrum, with its roots' `root_floats`.
    """
    full = idempotent_partial_sum(len(spectrum), spectrum)
    if not full.b11.is_zero():
        raise ValueError("the partial sums need a vanishing upper-left block")
    lams = [to_float(v) for v in spectrum.values]
    s12, rest12, zero12 = _floats_against(spectrum.roots, spectrum.root_floats, full.b12.diag)
    s22, rest22, zero22 = _floats_against(spectrum.values, lams, full.b22.diag)
    t_norms = list(map(hypot, spectrum.root_floats, lams))
    beyond = [*accumulate(t_norms[:0:-1], max)][::-1] + [0.0]  # max over k > m of T's blocks
    head = accumulate(map(hypot, rest12, rest22), max)
    return GenerationSweep(tuple(map(max, head, beyond)),
                           tuple(accumulate(map(hypot, s12, s22), max)), zero12 and zero22)


def _floats_against(t_diag, t_floats, s_diag) -> tuple[list[float], list[float], bool]:
    """The floats of each s and of t - s, and whether each t - s is exactly
    0; an s equal to its t (`exact_key`) reuses t's float, with no subtraction."""
    s_floats, rest_floats, zero = [], [], True
    for t, f, s in zip(t_diag, t_floats, s_diag):
        same = exact_key(s) == exact_key(t)
        rest = 0 if same else t - s
        zero = zero and is_exact_zero(rest)
        s_floats.append(f if same else to_float(s))
        rest_floats.append(0.0 if same else to_float(rest))
    return s_floats, rest_floats, zero


# --- derivation spaces -------------------------------------------------------

ExactMatrix = tuple  # tuple of row tuples of Fractions


class _Flat(NamedTuple):
    """A square matrix as row-major integer numerators over one denominator."""

    nums: tuple[int, ...]
    den: int


def _matrix_rows(m) -> list[list]:
    """The rows of a matrix given as nested sequences, or by a `tolist` that
    gives them (a numpy array); a row that is not a sequence raises TypeError."""
    return [list(r) for r in (m.tolist() if hasattr(m, "tolist") else m)]


def _to_exact_matrix(m) -> _Flat:
    """int and Fraction entries (a numpy integer array too) over their common
    denominator; any other entry, a float included, raises TypeError."""
    rows = _matrix_rows(m)
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("generators and module elements must be square matrices")
    entries = [x for r in rows for x in r]
    for x in entries:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"matrix entry {x!r}: not an exact rational (int or Fraction)")
    nums, den = _common_denominator(entries)
    return _Flat(tuple(nums), den)


def _mat_mul(a: _Flat, b: _Flat, n: int) -> _Flat:
    """Integer product of the numerators over the product of the denominators."""
    cols = [b.nums[j::n] for j in range(n)]
    return _Flat(tuple(sum(map(operator.mul, a.nums[i:i + n], col))
                       for i in range(0, n * n, n) for col in cols), a.den * b.den)


def _combination(coeffs: Sequence[Fraction], mats: Sequence[_Flat]) -> _Flat:
    """sum_t coeffs[t] * mats[t], for a nonempty list, on integer numerators."""
    scaled = [c / m.den for c, m in zip(coeffs, mats)]
    den = math.lcm(*(c.denominator for c in scaled))
    weights = [c.numerator * (den // c.denominator) for c in scaled]
    return _Flat(tuple(sum(map(operator.mul, weights, entries))
                       for entries in zip(*(m.nums for m in mats))), den)


def _rows(m: _Flat, n: int) -> ExactMatrix:
    """The exact matrix, one Fraction per entry."""
    return tuple(tuple(Fraction(x, m.den) for x in m.nums[i:i + n])
                 for i in range(0, n * n, n))


def _coordinates(basis: Sequence[_Flat],
                 targets: Sequence[_Flat]) -> list[tuple[list[int], int]] | None:
    """Coordinates of every target in the basis matrices, each target's as
    integer numerators over one denominator, or None if one lies outside
    their span.  One integer solve on the numerators serves all the targets;
    each coefficient is then rescaled by the ratio of denominators."""
    sols = rl.solve_in_span([b.nums for b in basis], [t.nums for t in targets])
    if sols is None:
        return None
    out = []
    for sol, t in zip(sols, targets):
        den = math.lcm(*(c.denominator for c in sol))
        out.append(([c.numerator * (den // c.denominator) * b.den for c, b in zip(sol, basis)],
                    den * t.den))
    return out


def _over_one_denominator(coords: Sequence[tuple[list[int], int]]) -> tuple[list[list[int]], int]:
    """Several targets' coordinates over their one common denominator."""
    den = math.lcm(*(d for _, d in coords))
    return [[x * (den // d) for x in nums] for nums, d in coords], den


def _commute(a: _Flat, b: _Flat, n: int) -> bool:
    return _mat_mul(a, b, n).nums == _mat_mul(b, a, n).nums


class DerivationSpace(NamedTuple):
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


def derivation_space(generators, bimodule=None) -> DerivationSpace:
    """Basis of derivations from the (non-unital) algebra generated by the
    commuting matrices into a commutative bimodule.

    The algebra basis b_1..b_s collects independent products of the
    generators, breadth first, each tested against an incremental integer
    echelon form; only independent elements are multiplied further, which
    spans the algebra.  The unknowns are the module coordinates of D(b_t),
    and every pair i <= j contributes the Leibniz equation
    D(b_i b_j) = b_i D(b_j) + b_j D(b_i), with b_i b_j expanded in the basis.
    Leibniz on basis pairs implies it everywhere, so the exact rational
    nullspace is the derivation space.  The bimodule defaults to the algebra
    itself acting by multiplication.

    Entries are int or Fraction (a float raises TypeError).  Every matrix is
    integer numerators over one denominator, products multiply both, and the
    coordinates of all products in one basis come from one fraction-free
    elimination; the Fractions of the result are built at the end.
    """
    gens = [_to_exact_matrix(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator is required")
    n = math.isqrt(len(gens[0].nums))
    if any(len(g.nums) != n * n for g in gens):
        raise ValueError("generators and module elements must all have one size")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not _commute(gens[i], gens[j], n):
                raise ValueError("generators must commute pairwise")

    algebra: list[_Flat] = []
    echelon: dict = {}
    layer = gens
    while layer:
        fresh = [m for m in layer if rl.extend_echelon(echelon, m.nums)]
        algebra += fresh
        layer = [_mat_mul(m, g, n) for m in fresh for g in gens]
    algebra_dim = len(algebra)

    pairs = [(i, j) for i in range(algebra_dim) for j in range(i, algebra_dim)]
    coords = _coordinates(algebra, [*(_mat_mul(algebra[i], algebra[j], n) for i, j in pairs),
                                    *gens])
    if coords is None:
        raise InternalConsistencyError("algebra basis is not closed under products")
    mu = dict(zip(pairs, coords))
    gen_coords = [[Fraction(x, den) for x in nums] for nums, den in coords[len(pairs):]]

    if bimodule is None:
        module_kind = "algebra"
        module = algebra
        # b_t x_q = b_t b_q, whose coordinates are the structure constants
        action = [_over_one_denominator([mu[min(t, q), max(t, q)] for q in range(algebra_dim)])
                  for t in range(algebra_dim)]
    else:
        module_kind = "supplied"
        module = [_to_exact_matrix(x) for x in bimodule]
        if any(len(x.nums) != n * n for x in module):
            raise ValueError("generators and module elements must all have one size")
        if not all(_commute(g, x, n) for g in gens for x in module):
            raise ValueError("bimodule action must be commutative")
        products = _coordinates(module, [_mat_mul(b, x, n) for b in algebra for x in module])
        if products is None:
            raise ValueError("bimodule is not invariant under the generators")
        action = [_over_one_denominator(products[t * len(module):(t + 1) * len(module)])
                  for t in range(algebra_dim)]
    s_x = len(module)

    # unknown t * s_x + p is coordinate p of D(b_t); with action[t] = (B, L),
    # B[q][p] / L is coordinate p of b_t x_q.  Each row is scaled to integers
    # by the common denominator of its three targets, which leaves the
    # nullspace unchanged.
    rows = []
    for (i, j), (m, m_den) in mu.items():
        (act_i, den_i), (act_j, den_j) = action[i], action[j]
        den = math.lcm(m_den, den_i, den_j)
        m = [x * (den // m_den) for x in m]
        f_i, f_j = den // den_i, den // den_j
        for p in range(s_x):
            row = [0] * (algebra_dim * s_x)
            for t, m_t in enumerate(m):
                row[t * s_x + p] += m_t
            for q in range(s_x):
                row[j * s_x + q] -= act_i[q][p] * f_i
                row[i * s_x + q] -= act_j[q][p] * f_j
            rows.append(row)

    basis = []
    for sol in rl.nullspace(rows, algebra_dim * s_x):
        images = [_combination(sol[t * s_x:(t + 1) * s_x], module) for t in range(algebra_dim)]
        basis.append(tuple(_rows(_combination(c, images), n) for c in gen_coords))
    return DerivationSpace(tuple(_rows(g, n) for g in gens), module_kind,
                           tuple(_rows(x, n) for x in module), tuple(basis), algebra_dim)


def derivation_dimensions(generator) -> tuple[int, int]:
    """(dim Der(A, A), dim A) for the non-unital algebra A spanned by the
    powers of one exact square matrix X, A acting on itself: the `dimension`
    and `algebra_dim` of `derivation_space([X])`, with no Leibniz system.

    Entries are int or Fraction, as for `derivation_space`.  N is X's integer
    numerator matrix; it generates the same A.  The powers N, N^2, ... are
    reduced fraction-free against one echelon, each with a unit coefficient
    block of width n + 1 (`rl._reduce`), until one's matrix part reduces to
    zero.  Its coefficients give the integer polynomial P of least degree with
    P(0) = 0 and P(N) = 0, and deg P = d + 1 for d = dim A, the number of
    powers before it.  The least-degree polynomial vanishing at N is the
    minimal polynomial m, of degree at most n, so P = m if m(0) = 0 and z m
    otherwise, and the loop ends by N^(n + 1).

    Proof that dim Der(A, A) = deg gcd(P, P').  Evaluation at N maps zQ[z]
    onto A with kernel P Q[z], so A = zQ[z] / (P).  A derivation D is fixed by
    a = D(N) in A, and then D(q(N)) = q'(N) a for q in zQ[z] (Leibniz on
    powers).  This is well defined iff q'(N) a = 0 whenever P divides q; for
    q = P r, q'(N) a = r(N) P'(N) a, so the condition is P'(N) a = 0, and
    any such a gives a derivation.  So Der(A, A) = {a in A : P'(N) a = 0}.
    In B = Q[z] / (P) the annihilator of P' is (P / g) B, g = gcd(P, P'), of
    dimension deg g.  If z^e exactly divides P (e >= 1), z^(e-1) exactly
    divides P' and so g, and z divides P / g: the annihilator lies in zB = A.
    A primitive pseudo-remainder sequence scales by nonzero constants only, so
    its last nonzero term is g up to a constant.  Both numbers are unchanged
    by X -> cX for c != 0, and over any field of characteristic 0.
    """
    x = _to_exact_matrix(generator)
    size = len(x.nums)
    n = math.isqrt(size)
    power = x
    echelon: dict[int, list[int]] = {}
    for k in range(n + 1):
        row = rl._reduce([*power.nums, *(int(i == k) for i in range(n + 1))], echelon)
        pivot = next(i for i, v in enumerate(row) if v)
        if pivot >= size:  # c_0 N + ... + c_k N^(k+1) = 0
            p = [*reversed(row[size:size + k + 1]), 0]
            return _gcd_degree(p, [(len(p) - 1 - i) * c for i, c in enumerate(p[:-1])]), k
        echelon[pivot] = row
        power = _mat_mul(power, x, n)
    raise InternalConsistencyError("no dependency among the first n + 1 powers")


def _gcd_degree(a: list[int], b: list[int]) -> int:
    """deg gcd(a, b) of nonzero integer polynomials, leading coefficient
    first, deg a >= deg b: a becomes the primitive part of b[0] a - a[0] b z^j
    until its degree falls below b's, and then the two swap."""
    while len(b) > 1:
        while len(a) >= len(b):
            f = a[0]
            a = [b[0] * x - f * y for x, y in zip_longest(a, b, fillvalue=0)]
            while a and not a[0]:
                a.pop(0)
            a = rl._primitive(a) or []
        if not a:
            return len(b) - 1
        a, b = b, a
    return 0


# --- approximate identities --------------------------------------------------

class ApproximationStep(NamedTuple):
    degree: int
    residual: float
    element_norm: float
    q_bound: float
    mvt_ok: bool
    certified_bound: float


def _step_coordinates(alpha: Fraction, beta: int, spectrum: SpectrumSequence) -> list[tuple]:
    """What `_polynomial_norms` reads of each coordinate m of X = alpha I +
    beta T at every degree, computed once per ladder: (s, d, sqrt(lambda_m),
    C, E) with lambda_m / lambda_1 = s / d and alpha + beta lambda_m = C / E."""
    lam_1 = spectrum.lam(1)
    pairs = [(lam / lam_1, alpha + beta * lam) for lam in spectrum.values]
    return [(t.numerator, t.denominator, root, c.numerator, c.denominator)
            for (t, c), root in zip(pairs, spectrum.roots)]


def _coordinate_powers(coords: list[tuple], degrees) -> dict[int, list[int]]:
    """d^k for the d of each coordinate of `coords` (`_step_coordinates`)
    at each degree k.  As lambda_m / lambda_1 = s / d, d is the same in
    every ladder of a spectrum, so one table serves all of a run's ladders."""
    return {k: [c[1] ** k for c in coords] for k in set(degrees)}


def _polynomial_norms(p: Polynomial, alpha: Fraction, beta: int, spectrum: SpectrumSequence,
                      coords: list[tuple], powers: dict[int, list[int]]
                      ) -> tuple[float, float, float]:
    """(||X u - X||, ||u||, sup|q|) for u = p(X), p(0) = 0, X = alpha I + beta T
    with beta = +-1.  The norms are bitwise `operator_norm` of the floats of
    the exact X u - X and u, which are never built; neither is X, nor any
    float operator: the float triples of the coordinates go straight to
    `float_block_norm`, the kernel that `operator_norm` runs.

    Coordinate m of X is [[a, b], [0, c]] with a = alpha, b = beta sqrt(lambda_m)
    and c = alpha + beta lambda_m, so u_m = [[p(a), b Dp], [0, p(c)]] and
    (X u - X)_m = [[a (p(a) - 1), b (a Dp + p(c) - 1)], [0, c (p(c) - 1)]],
    with Dp = (p(c) - p(a)) / (c - a) the divided difference; c - a is
    beta lambda_m, never 0.  p is read as its Bernstein controls c_j on the
    interval of length lambda_1 with a at one end and every c inside
    (`_bernstein_controls`: an approximant's birth controls, one conversion
    for any other p).  a is the end t = 0 when beta = 1 and t = 1 when
    beta = -1, so p(a) is an end control and p'(a) beta k / lambda_1 times
    the end difference.  With lambda_m / lambda_1 = s / d, c sits at
    t = s / d or 1 - s / d, and p(c) is sum_j c_j C(k, j) s^j (d - s)^(k-j)
    / (den d^k), or the same with s and d - s swapped: `_bernstein_sum`,
    the plateau times d^k plus one pass over the controls off the plateau,
    whose weights are computed once per p (`_support`).  Then b Dp =
    sqrt(lambda_m) (p(c) - p(a)) / lambda_m, free of beta.  Each entry is
    floated once from integers (`scaled_float` for b); each float is that of
    an exact value, correctly rounded, so it does not depend on the
    denominator it is taken over.  A born approximant vanishes at 0 by
    construction; any other p has its constant term checked.  `coords` is
    its `_step_coordinates`, and `powers` a `_coordinate_powers` table that
    holds p's degree k, from which each d^k is read.

    sup|q| is over the spectrum and the origin, for the divided polynomial q
    of the mean-value verdict, taken in the same loop.  For beta = -1, z q(z)
    = a p(a) - (a - z) p(a - z), the q of `divide_shifted(p, lambda_n)` at
    a = lambda_n: q(lambda_m) = a Dp + p(c) and q(0) = p(a) + a p'(a).  For
    beta = 1, z q(z) = p(a + z) - p(a), p / z at a = 0: q(lambda_m) = Dp and
    q(0) = p'(a).  Each value is one integer division, correctly rounded, so
    sup|q| is bitwise `sup_norm` of q.
    """
    if p._birth is None and p._integers[0][0]:
        raise ValueError("constant term must vanish; the algebra model is non-unital")
    lam_1 = spectrum.lam(1)
    lo = alpha if beta > 0 else alpha - lam_1
    ctrl, den = _bernstein_controls(p, lo, lo + lam_1)
    k = len(ctrl) - 1
    support = _support(ctrl)
    l1_num, l1_den = lam_1.numerator, lam_1.denominator
    big_a, e = alpha.numerator, alpha.denominator
    end = 0 if beta > 0 else -1  # the index of a's end control
    h = ctrl[end]  # p(a) = h / den
    pa, ra = h / den, big_a * (h - den) / (e * den)
    # den l1_num p'(a)
    g = beta * k * (ctrl[end + beta] - h) * l1_den if k else 0
    q_sup = abs((e * h * l1_num + big_a * g) / (e * den * l1_num) if beta < 0
                else g / (den * l1_num))
    u, r = [], []
    for (s, d, root, c_num, c_den), dk in zip(coords, powers[k]):
        # den d^k p(c)
        hc = (_bernstein_sum(support, s, d - s, dk) if beta > 0
              else _bernstein_sum(support, d - s, s, dk))
        # with q = den d^k l1_num s, (p(c) - p(a)) / lambda_m = diff / q and p(c) = hc / q
        diff = (hc - h * dk) * d * l1_den
        q = den * dk * l1_num * s
        hc *= l1_num * s
        u.append((pa, scaled_float(root, diff, q), hc / q))
        # b (a Dp + p(c) - 1) = sqrt(lambda_m) (a diff + beta (hc - q)) / q
        r.append((ra, scaled_float(root, big_a * diff + beta * e * (hc - q), e * q),
                  c_num * (hc - q) / (c_den * q)))
        # q(lambda_m): a Dp + p(c) = (e hc - a diff) / (e q), or Dp = diff / q
        q_sup = max(q_sup, abs((e * hc - big_a * diff) / (e * q) if beta < 0 else diff / q))
    # the rows of coordinates, transposed, are the three float diagonal blocks
    return float_block_norm(*zip(*r)), float_block_norm(*zip(*u)), q_sup


def _step(p: Polynomial, n: int | None, spectrum: SpectrumSequence, sups: tuple[float, float],
          coords: list[tuple], powers: dict[int, list[int]]) -> ApproximationStep:
    """The step of the kernel-n ladder, or of the unit ladder for n None,
    given p's `interval_sups` on its notch interval, `_step_coordinates` and
    `_coordinate_powers`."""
    lam_1 = spectrum.lam(1)
    p_sup, dp_sup = sups
    alpha, beta = (Fraction(0), 1) if n is None else (spectrum.lam(n), -1)
    residual, element_norm, q_sup = _polynomial_norms(p, alpha, beta, spectrum, coords, powers)
    if n is None:
        bound = dp_sup
        certified = p_sup + math.sqrt(float(lam_1)) * bound
    else:
        bound = p_sup + float(alpha) * dp_sup
        certified = p_sup + math.sqrt(float(lam_1)) * (bound + p_sup) / float(alpha)
    return ApproximationStep(max(p.degree, 0), residual, element_norm, bound,
                             q_sup <= bound + 1e-12, certified)


def approximate_identity_step(p: Polynomial, n: int,
                              spectrum: SpectrumSequence) -> ApproximationStep:
    """One sweep step for the n-th kernel algebra: u = p(X) for the shifted
    generator X = lambda_n I - T, the multiplication residual ||X u - X|| and
    the element norm ||u|| (`_polynomial_norms`), and a certificate for the
    norm from scalar sup bounds only.

    The certificate combines the eigenvalue sup of p with the mean-value bound
    for the divided polynomial q (`_polynomial_norms`), which controls the
    off-diagonal block.  The floats are bitwise those of the exact block
    composition with `divide_shifted` and `mvt_bound_check`.
    """
    lam_n = spectrum.lam(n)
    coords = _step_coordinates(lam_n, -1, spectrum)
    return _step(p, n, spectrum, interval_sups(p, lam_n - spectrum.lam(1), lam_n), coords,
                 _coordinate_powers(coords, [max(p.degree, 0)]))


def approximate_identity_steps(n: int, spectrum: SpectrumSequence,
                               degrees: Sequence[int]) -> list[ApproximationStep]:
    return character_ladders(spectrum, [n], degrees)[0]


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


def unit_approximation_step(p: Polynomial, spectrum: SpectrumSequence) -> ApproximationStep:
    """One sweep step against the generator itself: u = p(T) and the residual
    ||T u - T|| (`_polynomial_norms`, with sup|q| for q = p / z),
    and sup|q| bounded by sup|p'| on [0, lambda_1]."""
    coords = _step_coordinates(Fraction(0), 1, spectrum)
    return _step(p, None, spectrum, interval_sups(p, Fraction(0), spectrum.lam(1)), coords,
                 _coordinate_powers(coords, [max(p.degree, 0)]))


def unit_approximation_steps(spectrum: SpectrumSequence,
                             degrees: Sequence[int]) -> list[ApproximationStep]:
    return character_ladders(spectrum, [None], degrees)[0]


def character_ladders(spectrum: SpectrumSequence, ladders: Sequence[int | None],
                      degrees: Sequence[int]) -> list[list[ApproximationStep]]:
    """The steps at every degree of each ladder: the kernel n, or the unit
    for None (`_step`).  Every approximant is built first, then all their
    `interval_sups` come from one `interval_sups_many` call, and only then
    run the exact norms, with one `_coordinate_powers` table for all the
    ladders; `verify character` makes one call for all its ladders."""
    _validate_degrees(degrees)
    built = [(n, unit_notch(spectrum) if n is None else notch(n, spectrum)) for n in ladders]
    built = [(n, f, [approximate_with_derivative(f, k) for k in degrees]) for n, f in built]
    sups = iter(interval_sups_many([(p, f.a, f.b) for _, f, ps in built for p in ps]))
    # X is T for the unit (f.a = 0) and lambda_n I - T for a kernel (f.b = lambda_n)
    coords = [_step_coordinates(*((f.a, 1) if n is None else (f.b, -1)), spectrum)
              for n, f, _ in built]
    powers = _coordinate_powers(coords[0], [max(p.degree, 0) for *_, ps in built for p in ps])
    return [[_step(p, n, spectrum, next(sups), c, powers)._replace(degree=k)
             for p, k in zip(ps, degrees)] for (n, _, ps), c in zip(built, coords)]


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
    generator raises ValueError.  Entries are int or Fraction (a float raises
    TypeError); the bound may be a float, taken at its exact value.
    """
    try:
        rows = _matrix_rows(generator)
    except TypeError:  # a scalar, or a row that is not a sequence
        rows = []
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("generator must be a square matrix")
    if bound <= 0:
        raise ValueError("bound: must be positive")
    q = _to_exact_matrix(rows)
    n = len(rows)
    if n == 1:
        return float(Fraction(abs(q.nums[0]), q.den) * max(0, 1 - as_fraction(bound)))
    if any(x for i, x in enumerate(q.nums) if i % n != i // n + 1):
        raise ValueError("generator: must be 1x1 or a weighted shift")
    return float(Fraction(max(abs(x) for x in q.nums[1::n + 1]), q.den))
