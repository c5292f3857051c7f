"""Exact polynomial arithmetic, notch functions, Bernstein approximation with a
pinned root at the origin, the shifted division identity, and sup norms.

Coefficients are Fractions in ascending degree, so every algebraic identity
(division, reconstruction, vanishing constant term) holds exactly.  Each
approximant is born in t = (z - a) / (b - a) on its interval [a, b], on
integer numerators over one denominator: the node values give its
t-coefficients by forward differences, the origin pin is applied in t, and
exactly one Taylor shift takes it to z.  It keeps its t-form, so its
Bernstein controls on [a, b] are read from birth by one Pascal pass.
Dense-grid evaluation converts to Bernstein form on the interval of interest
and runs a float de Casteljau sweep: high-degree monomial Horner in float is
unusable here because the exact coefficients grow combinatorially large.
The exact kernels (evaluation at a rational point, the Taylor shift, the
shifted division, Bernstein conversion) run their inner loops on integer
numerators over one common denominator (`scalars._common_denominator`) and
build each output Fraction once; the sweep updates one array in place.
Each kernel has one path: evaluation takes an int or Fraction only (a float
or a `Surd` raises TypeError), and the zero polynomial has the integer form
((0,), 1), so no kernel special-cases it.
The grid sup needs only the largest value.  When the largest |control| sits
at an endpoint and a one-line float test bounds every swept value by it (the
hull certificate of `_grid_sup`), it is the sup and no sweep runs; otherwise
an O(k) Bernstein-Horner pass with a proven forward-error bound picks the
points to sweep.  Either way the result is bitwise the full sweep's maximum.
`interval_sups` gives sup|p| and sup|p'| on an interval from one exact
conversion of p, and floats each control by one integer division;
`sup_norm` is the sup over a spectrum and the origin, evaluated exactly.
Of the mean-value check, the pipelines call only `interval_sups`: the
character steps take sup|q| of the divided polynomial from closed forms in
the values of p(X) (`amenability`), so `divide_shifted`, `mvt_bound_check`
and, outside a failing membership trial, `sup_norm` serve as the tests'
oracles.  Coefficients and scalar factors of a `Polynomial` are int or
Fraction; a float raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, gcd, lcm
from typing import NamedTuple, Sequence

import numpy as np

from .scalars import _common_denominator, _rational, as_fraction
from .spectrum import SpectrumSequence

DEFAULT_GRID = 4096
GRID_BLOCK = 1024
NOTCH_WIDTH_DIVISOR = 64


class InternalConsistencyError(RuntimeError):
    """An algebraic identity that must hold exactly failed to hold."""


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with exact rational coefficients, ascending degree, trimmed.
    Coefficients and scalar factors are int or Fraction; a float raises
    TypeError."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = [_rational(c) for c in self.coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((_rational(c),))

    @classmethod
    def monomial(cls, power: int, c=1) -> "Polynomial":
        return cls((Fraction(0),) * power + (_rational(c),))

    # (a, b, numerators, denominator) of the t-form on the birth interval
    # [a, b], set by `approximate_with_derivative`; not a dataclass field, so
    # equality and hashing see the coefficients only.
    _birth = None

    @cached_property
    def _integers(self) -> tuple[tuple[int, ...], int]:
        """The coefficients as integer numerators N_i over their common
        denominator L, computed once per polynomial; ((0,), 1) for zero, so
        every integer kernel sees at least one numerator."""
        nums, den = _common_denominator(self.coefficients or (0,))
        return tuple(nums), den

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def __call__(self, z) -> Fraction:
        """Exact Horner evaluation at a rational z = Z / D (int or Fraction).

        Horner runs on the integer numerators N_j of the coefficients,
        h <- h Z + N_j D^(k-j), and divides by L D^k once.  Any other z, a
        float or a `Surd`, raises TypeError.
        """
        if not isinstance(z, (int, Fraction)):
            raise TypeError(f"z: {z!r} is not an exact rational")
        nums, den = self._integers
        acc, scale = _horner(nums, z.numerator, z.denominator)
        return Fraction(acc, den * scale)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(tuple(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                if a == 0:
                    continue
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
            return Polynomial(tuple(out))
        c = _rational(other)
        return Polynomial(tuple(c * a for a in self.coefficients))

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coefficients) if i >= 1))

    def compose_affine(self, alpha, beta) -> "Polynomial":
        """Exact composition p(alpha + beta * z)."""
        nums, den = self._integers
        acc, scale = self._compose_integers(nums, alpha, beta)
        return _from_integers(acc, den * scale)

    @staticmethod
    def _compose_integers(nums: Sequence[int], alpha, beta) -> tuple[list[int], int]:
        """The Taylor shift on integers: the coefficients of
        sum_i N_i (alpha + beta * z)^i, N nonempty, as integer numerators over
        the returned scale E^k (not reduced).

        With alpha = u / E and beta = v / E, Horner runs on the integer
        polynomial sum_i N_i E^(k-i) (u + v z)^i.
        """
        alpha, beta = as_fraction(alpha), as_fraction(beta)
        e = lcm(alpha.denominator, beta.denominator)
        u, v = alpha.numerator * (e // alpha.denominator), beta.numerator * (e // beta.denominator)
        if not u:  # a pure scaling, N_i v^i E^(k-i)
            k = len(nums) - 1
            return [n * v ** i * e ** (k - i) for i, n in enumerate(nums)], e ** k
        acc = [nums[-1]]
        scale = 1
        for n in reversed(nums[:-1]):
            scale *= e
            acc = ([acc[0] * u + n * scale]
                   + [x * u + y * v for x, y in zip(acc[1:], acc)] + [acc[-1] * v])
        return acc, scale


@dataclass(frozen=True)
class NotchFunction:
    """C^1 piecewise-cubic function on [a, b]: 0 at the origin, 1 outside the
    dip of half-width delta, rising on each side by a smoothstep.

    `anchors` holds the nonzero shifted-spectrum points flanking the dip; the
    approximation stage uses them to keep its origin pin away from the plateau.
    """

    a: Fraction
    b: Fraction
    delta: Fraction
    anchors: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta: must be positive")
        if not self.a <= 0 <= self.b:
            raise ValueError("the interval must contain the origin")

    def value(self, z):
        u = abs(as_fraction(z)) / self.delta
        if u >= 1:
            return Fraction(1)
        return 3 * u * u - 2 * u ** 3

    def derivative(self, z):
        z = as_fraction(z)
        u = abs(z) / self.delta
        if u >= 1 or z == 0:
            return Fraction(0)
        slope = (6 * u - 6 * u * u) / self.delta
        return slope if z > 0 else -slope


def notch(n: int, spectrum: SpectrumSequence) -> NotchFunction:
    """Notch for the n-th character: interval [lambda_n - lambda_1, lambda_n],
    zero at the origin, one at every shifted spectrum point.

    The dip half-width is the distance to the nearest shifted spectrum point
    divided by NOTCH_WIDTH_DIVISOR, well below the Bernstein node spacing at
    the working degrees, so the plateau values survive approximation.
    """
    m = len(spectrum)
    lam_n = spectrum.lam(n)
    a = lam_n - spectrum.lam(1)
    candidates = [lam_n]
    anchors: list[Fraction] = []
    if n > 1:
        left = lam_n - spectrum.lam(n - 1)  # negative
        candidates.append(-left)
        anchors.append(left)
    if n < m:
        right = lam_n - spectrum.lam(n + 1)
        candidates.append(right)
        anchors.append(right)
    if not anchors:
        anchors.append(lam_n)
    delta = min(candidates) / NOTCH_WIDTH_DIVISOR
    return NotchFunction(a, lam_n, delta, tuple(anchors))


def unit_notch(spectrum: SpectrumSequence) -> NotchFunction:
    """Notch for the generator itself: [0, lambda_1], dip below the smallest point."""
    delta = spectrum.lam(len(spectrum)) / NOTCH_WIDTH_DIVISOR
    return NotchFunction(Fraction(0), spectrum.lam(1), delta,
                         (spectrum.lam(len(spectrum)),))


def _horner(nums: Sequence[int], top: int, bottom: int) -> tuple[int, int]:
    """(H, D^k) with sum_i N_i x^i = H / D^k at x = X / D (X = top, D = bottom):
    the homogenised Horner pass H <- H X + N_i D^(k-i) on integers, N nonempty."""
    acc = nums[-1]
    scale = 1
    for n in reversed(nums[:-1]):
        scale *= bottom
        acc = acc * top + n * scale
    return acc, scale


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """The numerators and denominator of sum_i N_i z^i / den, trimmed to at
    least one, with den > 0 and gcd(den, *N) = 1: [0] over 1 for zero."""
    while len(nums) > 1 and not nums[-1]:
        nums.pop()
    if den < 0:
        nums, den = [-n for n in nums], -den
    g = gcd(den, *nums)
    if g != 1:
        nums, den = [n // g for n in nums], den // g
    return nums, den


def _from_integers(nums: list[int], den: int) -> Polynomial:
    """The polynomial sum_i N_i z^i / den, reduced by its content once.
    Reduced numerators over a positive denominator are exactly what
    `_common_denominator` gives for the coefficients, so `_integers` is
    seeded with them and each Fraction is built once."""
    nums, den = _reduced(nums, den)
    p = Polynomial(tuple(Fraction(n, den) for n in nums))
    object.__setattr__(p, "_integers", (tuple(nums), den))
    return p


def _origin_pin(f, degree: int, a: Fraction, width: Fraction, t0: Fraction) -> list[int]:
    """Integer t-coefficients of a nonzero multiple of the origin pin, a
    polynomial of degree max(degree, number of anchors) that vanishes at the
    notch anchors and is localized at the Bernstein node nearest the origin.

    The bump is the Bernstein basis polynomial C(m, j0) t^j0 (1 - t)^(m - j0)
    at the node j0 / m nearest t0, and each anchor g contributes the linear
    factor that vanishes at t = (g - a) / width.  Subtracting (raw value at
    the origin) / (pin value at the origin) times this pin forces an exact
    root at the origin without disturbing the plateau: a global constant
    shift would be size O(1) whenever the dip sits below the Bernstein
    resolution.
    """
    anchors = [as_fraction(g) for g in getattr(f, "anchors", ())]
    m = max(degree - len(anchors), 0)
    j0 = min(max(int(round(t0 * m)), 0), m)
    cj = comb(m, j0)
    pin = [0] * j0 + [(-1) ** s * cj * comb(m - j0, s) for s in range(m - j0 + 1)]
    for g in anchors:
        root = (g - a) / width
        low, high = -root.numerator, root.denominator
        pin = [low * x + high * y for x, y in zip(pin + [0], [0] + pin)]
    return pin


def approximate_with_derivative(f, degree: int) -> Polynomial:
    """Bernstein approximant of f on [f.a, f.b] with an exact root at 0.

    Converges to f together with its first derivative as the degree grows.
    `f` is normally a NotchFunction; any object with fields a, b and an exact
    `value` method works (plumbing self-tests feed plain monomials).

    The approximant is built in t = (z - a) / (b - a) on integer numerators
    over one denominator.  Its t^m coefficient is C(k, m) times the m-th
    forward difference of the node values.  The root at the origin
    t0 = -a / (b - a) is enforced with the pin of `_origin_pin`:
    p_t = raw_t - raw_t(t0) pin_t / pin_t(t0), both values by integer Horner.
    When the origin is an interval endpoint, the raw Bernstein polynomial
    already interpolates f(0) = 0 and no pin is needed.  One Taylor shift
    takes p_t to z, and the trimmed p_t is kept for `_bernstein_controls`
    on [a, b].
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    a, b = as_fraction(f.a), as_fraction(f.b)
    width = b - a
    # node j is a + width j / k = (lo k + j step) / (node_den k), one Fraction each
    (lo, step), node_den = _common_denominator([a, width])
    row, den = _common_denominator([f.value(Fraction(lo * degree + j * step, node_den * degree))
                                    for j in range(degree + 1)])
    nums = []
    for m in range(degree + 1):
        nums.append(comb(degree, m) * row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    t0 = -a / width
    at_t0, raw_scale = _horner(nums, t0.numerator, t0.denominator)
    if at_t0:
        pin = _origin_pin(f, degree, a, width, t0)
        pin_t0, pin_scale = _horner(pin, t0.numerator, t0.denominator)
        if pin_t0 == 0:
            raise InternalConsistencyError("origin pin degenerated to zero at the origin")
        # raw_t(t0) / pin_t(t0) = (at_t0 pin_scale) / (den raw_scale pin_t0) = y / (den x)
        x, y = raw_scale * pin_t0, at_t0 * pin_scale
        g = gcd(x, y)
        x, y = x // g, y // g
        nums += [0] * (len(pin) - len(nums))
        nums = [n * x - y * c for n, c in zip(nums, pin)]
        den *= x
    nums, den = _reduced(nums, den)
    acc, scale = Polynomial._compose_integers(nums, t0, 1 / width)
    p = _from_integers(acc, den * scale)
    object.__setattr__(p, "_birth", (a, b, tuple(nums), den))
    return p


def _bernstein_controls(p: Polynomial, a, b) -> tuple[list[int], int]:
    """Exact Bernstein control points of p on [a, b], as integer numerators
    over one common denominator (not reduced).  On an approximant's birth
    interval the t-form it was born with is read, so only the Pascal pass runs;
    any other interval takes one Taylor shift to t = (z - a) / (b - a)."""
    a, b = as_fraction(a), as_fraction(b)
    if p._birth is not None and p._birth[:2] == (a, b):
        nums, den = p._birth[2:]
    else:
        nums, den = p._integers
        nums, scale = p._compose_integers(nums, a, b - a)
        den *= scale
    d = len(nums) - 1
    # ctrl_i = sum_m C(i, m) / C(d, m) g_m = (1 / (L d!)) sum_m C(i, m) m! (d - m)! G_m;
    # the binomial sums over m are the first entries of a Pascal-style triangle.
    row = [factorial(m) * factorial(d - m) * n for m, n in enumerate(nums)]
    ctrl = []
    for _ in range(d + 1):
        ctrl.append(row[0])
        row = [x + y for x, y in zip(row, row[1:])]
    return ctrl, den * factorial(d)


def _floats(nums: Sequence[int], den: int) -> np.ndarray:
    """The floats of nums[i] / den.  Integer true division rounds the exact
    quotient once, so each is bitwise float(Fraction(nums[i], den))."""
    return np.array([n / den for n in nums])


def _grid(num: int):
    """The uniform grid t on [0, 1], endpoints included, and s = 1 - t."""
    t = np.linspace(0.0, 1.0, num)
    return t, 1 - t


def _float_grid(p: Polynomial, a, b, num: int):
    """Float Bernstein controls of p on [a, b] and the uniform grid t, s = 1 - t."""
    return (_floats(*_bernstein_controls(p, a, b)), *_grid(num))


def _de_casteljau(ctrl: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Float de Casteljau sweep of the controls at every column (t_j, s_j).

    In place, block by block: each step is still round(beta_i * s) +
    round(beta_(i+1) * t), so the floats equal those of the plain sweep and
    each column's value depends on its own t_j and s_j only.
    """
    k = len(ctrl) - 1
    num = len(t)
    out = np.empty(num)
    beta = np.empty((k + 1, min(num, GRID_BLOCK)))
    scratch = np.empty((k, beta.shape[1]))
    for lo in range(0, num, GRID_BLOCK):
        tb, sb = t[lo:lo + GRID_BLOCK], s[lo:lo + GRID_BLOCK]
        w = len(tb)
        beta[:, :w] = ctrl[:, None]
        for r in range(k, 0, -1):
            np.multiply(beta[1:r + 1, :w], tb, out=scratch[:r, :w])
            beta[:r, :w] *= sb
            beta[:r, :w] += scratch[:r, :w]
        out[lo:lo + w] = beta[0, :w]
    return out


def evaluate_on_grid(p: Polynomial, a, b, num: int) -> np.ndarray:
    """Numerically stable dense evaluation: exact Bernstein form, then a
    vectorized float de Casteljau sweep over a uniform grid (endpoints included)."""
    return _de_casteljau(*_float_grid(p, a, b, num))


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k by repeated squaring.  Every rounding enters the result raised to
    the number of times its operand is reused, and these exponents sum to
    k - 1, so the relative error is at most gamma_(k-1) barring over/underflow."""
    out = np.ones_like(x)
    while k:
        if k & 1:
            out *= x
        k >>= 1
        if k:
            x = x * x
    return out


def _sup_candidates(ctrl: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Mask of the columns whose `_de_casteljau` value may have the largest
    magnitude; every other column provably has a smaller one.

    With u = 2^-53, gamma_m = m u / (1 - m u), a_i = beta_i C(k, i) and, in
    exact arithmetic on the same doubles t and s,
        Q = sum_i a_i t^i s^(k-i),   S = sum_i |a_i| t^i s^(k-i),
    the sweep returns D with |D - Q| <= gamma_2k S (Farouki and Rajan 1987:
    every path from a control to the result passes k levels of one product
    and one sum).  An O(k) pass (Schumaker and Volk) evaluates Q and S at
    once: with m = max(t, s) and r = min(t, s) / m <= 1, Q = m^k times a
    Horner sum in r over the a_i, ascending or descending; m^k is computed as
    (2m)^k 2^-k, where (2m)^k in [1, 2^k] cannot underflow and ldexp scales
    it back.  Each term of the computed H (and of the magnitude sum M) is
    the exact term times a factor within gamma_(4k+3) of 1: C(k, i) and
    beta_i C(k, i) round once each, Horner rounds at most 2k times, r^i
    carries at most k ratio roundings, (2m)^k at most k - 1 (`_power`), and
    the final product once.  Hence |H - Q| <= gamma_(4k+3) S and
    S <= M / (1 - gamma_(4k+3)).

    Underflow adds an absolute error of at most 2^-1075 per product, which
    the rest of the evaluation scales by less than 2: k (k + 1) products in
    the sweep and 2k + 3 in the pass.  Sums of subnormals are exact, and r
    itself does not underflow on a grid, where min(t, s) is 0 or at least
    the grid step.  The term 2 (k + 2)^2 2^-1074 covers all of it.

    Write E = (6k + 8) u M + 2 (k + 2)^2 2^-1074.  To first order in u,
    |D - H| needs (2k + 4k + 3) u M, and rounding |H| + E and |H| - E once
    each needs u |H| <= u M more.  The remaining 4 u M absorbs every
    second-order term: those are O(k^2 u^2) M, below 10^-7 u M for every
    degree below 1024.  So the computed |H| + E bounds |D| above and
    |H| - E bounds it below.  A column whose upper bound falls short of the
    largest lower bound cannot hold the maximum, and dropping it leaves
    max |D| unchanged.  If any value is not finite, every column is kept:
    so it is for huge controls, and from degree 1024 on, where (2m)^k
    overflows at t = 0 (a binomial of 2^1023 or more, from degree 1029 on,
    is taken as infinite rather than converted).
    """
    k = len(ctrl) - 1
    binom = np.array([float(c) if c.bit_length() < 1024 else np.inf
                      for c in (comb(k, i) for i in range(k + 1))])
    with np.errstate(over="ignore", invalid="ignore"):
        coef = ctrl * binom
        coef = np.stack((coef, np.abs(coef)), axis=1)
        left = t <= s
        big = np.maximum(t, s)
        ratio = np.minimum(t, s) / big
        acc = np.empty((2, len(t)))
        # Left of the middle Q = s^k sum_i a_i r^i, right of it t^k sum_i a_i r^(k-i).
        for side, order in ((left, coef[::-1]), (~left, coef)):
            r = ratio[side]
            h = np.repeat(order[0][:, None], len(r), axis=1)
            for c in order[1:]:
                h *= r
                h += c[:, None]
            acc[:, side] = h
        value, size = np.ldexp(acc * _power(2 * big, k), -k)
        err = (6 * k + 8) * 2.0 ** -53 * size + 2 * (k + 2) ** 2 * 2.0 ** -1074
        high = np.abs(value) + err
        keep = high >= np.max(np.abs(value) - err)
    return keep if np.isfinite(high).all() else np.ones_like(keep)


def _grid_sup(ctrl: np.ndarray) -> float:
    """Largest |value| of the `_de_casteljau` sweep of the controls over the
    DEFAULT_GRID-point grid, bitwise.

    Hull certificate.  Let C = max |ctrl|.  If C is finite, C is |ctrl[0]|
    or |ctrl[-1]|, and fl(fl(C s) + fl(C t)) <= C on every grid column, the
    sweep's maximum is C and no sweep runs.  Proof: rounding to nearest is
    monotone and odd, so with s, t >= 0, |beta_i| <= C and |beta_(i+1)| <= C
    give |fl(fl(beta_i s) + fl(beta_(i+1) t))| <= fl(fl(C s) + fl(C t)) <= C,
    and by induction over the k levels every swept |D_j| <= C.  The column
    t = 0, s = 1 returns ctrl[0] exactly, and t = 1, s = 0 returns ctrl[-1],
    so C is attained.  This is the convex-hull property of the Bernstein
    form, kept exact in floats by the guard.  The guard is needed: for most
    C that are not powers of two it fails, and rightly so.  p = 1/10 - z^8/1000
    on [0, 1] has the endpoint control 0.1 = C, but the sweep's maximum is
    0.10000000000000012.

    Otherwise the sweep runs only on the columns `_sup_candidates` keeps.
    """
    t, s = _grid(DEFAULT_GRID)
    top = np.max(np.abs(ctrl))
    if (np.isfinite(top) and (top == abs(ctrl[0]) or top == abs(ctrl[-1]))
            and np.all(top * s + top * t <= top)):
        return float(top)
    keep = _sup_candidates(ctrl, t, s)
    return float(np.max(np.abs(_de_casteljau(ctrl, t[keep], s[keep]))))


def sup_norm(p: Polynomial, spectrum: SpectrumSequence) -> float:
    """Supremum of |p| over a spectrum: its points plus the origin, each
    evaluated exactly and floated once.  Sups over an interval are
    `interval_sups`."""
    return max(abs(float(p(z))) for z in (Fraction(0), *spectrum.values))


def interval_sups(p: Polynomial, a, b, memo: dict | None = None) -> tuple[float, float]:
    """(sup|p|, sup|p'|) over the interval (a, b), a != b, sampled on a
    uniform grid of DEFAULT_GRID points, from one exact Bernstein conversion
    of p.

    Each is bitwise the largest |value| of `evaluate_on_grid`, decided by the
    hull certificate of `_grid_sup` when it applies, and otherwise by a de
    Casteljau sweep over only the points that an O(k) evaluation with a
    proven error bound cannot rule out (`_sup_candidates`).

    With p's controls c_i of degree d on [a, b], p' has the controls
    d (c_(i+1) - c_i) / (b - a), so p' is not converted again.  Callers that
    meet equal polynomials on equal intervals share a `memo` dict, keyed by
    (p, a, b), so that each pair is computed once; `verify character` does.
    """
    a, b = as_fraction(a), as_fraction(b)
    key = (p, a, b)
    if memo is not None and key in memo:
        return memo[key]
    nums, den = _bernstein_controls(p, a, b)
    width = b - a
    scale = (len(nums) - 1) * width.denominator
    slopes = [scale * (y - x) for x, y in zip(nums, nums[1:])] or [0]
    sups = (_grid_sup(_floats(nums, den)), _grid_sup(_floats(slopes, den * width.numerator)))
    if memo is not None:
        memo[key] = sups
    return sups


def divide_shifted(p: Polynomial, lam) -> Polynomial:
    """The polynomial q with lam*p(lam) - (lam - z)*p(lam - z) = z*q(z).

    One Taylor shift gives r(z) = p(lam - z), and q_j = r_j - lam r_(j+1).
    The left side vanishes at z = 0 exactly when r_0 = p(lam), which is
    checked against an independent Horner evaluation of p(lam); a mismatch
    is an internal inconsistency.
    """
    lam = as_fraction(lam)
    nums, den = p._integers
    r, scale = p._compose_integers(nums, lam, -1)
    den *= scale
    at_lam = p(lam)
    if r[0] * at_lam.denominator != at_lam.numerator * den:
        raise InternalConsistencyError(
            "the shifted division left a nonzero remainder; the identity it encodes is broken")
    top, bottom = lam.numerator, lam.denominator
    return _from_integers([x * bottom - top * y for x, y in zip(r, r[1:] + [0])],
                          den * bottom)


class MvtCheck(NamedTuple):
    ok: bool
    lhs: float
    rhs: float
    p_sup: float


def mvt_bound_check(p: Polynomial, q: Polynomial, lam, spectrum: SpectrumSequence,
                    memo: dict | None = None) -> MvtCheck:
    """Mean-value bound for the divided polynomial: the sup of |q| over the
    spectrum (plus origin) must not exceed sup|p| + lam * sup|p'| over
    [lam - lambda_1, lam].  Returns the verdict with both sides and sup|p|.
    `memo` is handed to `interval_sups`."""
    lam = as_fraction(lam)
    lhs = sup_norm(q, spectrum)
    p_sup, dp_sup = interval_sups(p, lam - spectrum.lam(1), lam, memo)
    rhs = p_sup + float(lam) * dp_sup
    return MvtCheck(lhs <= rhs + 1e-12, lhs, rhs, p_sup)
