"""Exact polynomial arithmetic, notch functions, Bernstein approximation with a
pinned root at the origin, the shifted division identity, and sup norms.

Coefficients are Fractions in ascending degree, so every algebraic identity
(division, reconstruction, vanishing constant term) holds exactly.  Each
approximant is born as its Bernstein controls on its interval, on integer
numerators over one denominator, in O(k) (`approximate_with_derivative`).
The character steps evaluate and bound it on these controls alone; its
coefficients in z are an on-demand view, computed by forward differences
and one Taylor shift when first read.  A notch approximant equals its
plateau, its most frequent control, at all but a few adjacent controls, so
the exact Bernstein values run on those alone: the plateau times
(x + y)^k plus a Horner pass over the span off it (`_bernstein_sum`, its
weights computed once per polynomial by `_support`).
Dense-grid evaluation runs a float de Casteljau sweep on the Bernstein
controls of the interval of interest: high-degree monomial Horner in float
is unusable here because the exact coefficients grow combinatorially large.
The exact kernels (evaluation at a rational point, the Taylor shift, the
shifted division, Bernstein conversion) run their inner loops on integer
numerators over one common denominator (`scalars._common_denominator`) and
build each output Fraction once.  The one float sweep, `_de_casteljau`, takes
many rows of controls at once and updates one block of columns in place.
Each kernel has one path: evaluation takes an int or Fraction only (a float
or a `Surd` raises TypeError), and the zero polynomial has the integer form
((0,), 1), so no kernel special-cases it.
The grid sup needs only the largest value.  When the largest |control| sits
at an endpoint and a one-line float test bounds every swept value by it (the
hull certificate of `_grid_sups`), it is the sup and no sweep runs; otherwise
a Bernstein-Horner pass on the values alone picks the points to sweep.  The
pass reads only the controls off the row's plateau, its most frequent
control: a notch approximant has 2 to 4 of them at any degree.  Its
forward-error bound is one number per polynomial: the sweep's magnitude
sums are at most max |control| (1 + u)^k on the grid, whose arrays are built
once per process.  Either way the result is bitwise the full sweep's maximum.
`interval_sups` gives sup|p| and sup|p'| on an interval from p's controls
there, and floats each control by one integer division.  `verify character`
asks for every sup of its run in one `interval_sups_many` call, which takes
equal (interval, controls) requests once, so its run sweeps once.
`sup_norm` is the sup over a spectrum and the origin, evaluated exactly.
Of the mean-value check, the pipelines call only `interval_sups`: the
character steps take sup|q| of the divided polynomial from closed forms in
the values of p(X) (`amenability`) and the membership trials sup|p| from
their own floats, so `divide_shifted`, `mvt_bound_check` and `sup_norm` serve
as the tests' oracles.  Coefficients and scalar factors of a `Polynomial` are
int or Fraction; a float raises TypeError.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from itertools import groupby
from math import comb, factorial, gcd, lcm
from typing import NamedTuple, Sequence

import numpy as np

from .scalars import _common_denominator, _Frozen, _rational
from .spectrum import SpectrumSequence

DEFAULT_GRID = 4096
GRID_BLOCK = 1024
NOTCH_WIDTH_DIVISOR = 64


class InternalConsistencyError(RuntimeError):
    """An algebraic identity that must hold exactly failed to hold."""


class Polynomial:
    """Polynomial with exact rational coefficients, ascending degree, trimmed.
    Coefficients and scalar factors are int or Fraction; a float raises
    TypeError.  Immutable; equal polynomials compare and hash equal.

    An approximant is born as its Bernstein controls on an interval (`_born`)
    and has no coefficients until they are read: `coefficients`,
    `_integers`, hashing, equality and evaluation compute them once, by
    forward differences and one Taylor shift."""

    # (a, b, control numerators, denominator) on the birth interval [a, b],
    # exact degree; None for a polynomial built from coefficients.
    _birth = None

    def __init__(self, coefficients: Sequence):
        coeffs = [_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.__dict__["coefficients"] = tuple(coeffs)

    @classmethod
    def _born(cls, a: Fraction, b: Fraction, ctrl: list[int], den: int) -> "Polynomial":
        p = cls.__new__(cls)
        p.__dict__["_birth"] = (a, b, ctrl, den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"Polynomial is immutable: cannot set {name!r}")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((_rational(c),))

    @classmethod
    def monomial(cls, power: int, c=1) -> "Polynomial":
        return cls((Fraction(0),) * power + (_rational(c),))

    @cached_property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Read only for a born polynomial; the others set it at creation."""
        nums, den = self._integers
        return tuple(Fraction(n, den) for n in nums) if any(nums) else ()

    @cached_property
    def _integers(self) -> tuple[tuple[int, ...], int]:
        """The coefficients as integer numerators N_i over their common
        denominator L, computed once per polynomial; ((0,), 1) for zero, so
        every integer kernel sees at least one numerator.  A born polynomial
        takes its t-coefficients from its controls and one Taylor shift."""
        if self._birth is None:
            nums, den = _common_denominator(self.coefficients or (0,))
            return tuple(nums), den
        a, b, ctrl, den = self._birth
        width = b - a
        acc, scale = self._compose_integers(_t_coefficients(ctrl), -a / width, 1 / width)
        nums, den = _reduced(acc, den * scale)
        return tuple(nums), den

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._integers == other._integers

    def __hash__(self) -> int:
        """The hash of `_integers`: equal polynomials have equal coefficients,
        hence equal canonical integers."""
        return hash(self._integers)

    def __repr__(self) -> str:
        return f"Polynomial(coefficients={self.coefficients!r})"

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial.  A born polynomial reads it
        from its controls."""
        if self._birth is None:
            return len(self.coefficients) - 1
        ctrl = self._birth[2]
        return len(ctrl) - 1 if any(ctrl) else -1

    def __call__(self, z) -> Fraction:
        """Exact Horner evaluation at a rational z = Z / D (int or Fraction).

        `_horner` runs on the integer numerators N_j of the coefficients,
        h <- h Z + N_j D^(k-j), and the sum is divided by L D^k once.  Any
        other z, a float or a `Surd`, raises TypeError.
        """
        if not isinstance(z, (int, Fraction)):
            raise TypeError(f"z: {z!r} is not an exact rational")
        nums, den = self._integers
        return Fraction(_horner(nums, z.numerator, z.denominator),
                        den * z.denominator ** (len(nums) - 1))

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
        alpha, beta = _rational(alpha), _rational(beta)
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


class NotchFunction(_Frozen):
    """C^1 piecewise-cubic function on [a, b]: 0 at the origin, 1 outside the
    dip of half-width delta, rising on each side by a smoothstep.

    `anchors` holds the nonzero shifted-spectrum points flanking the dip; the
    approximation stage uses them to keep its origin pin away from the plateau.
    """

    _fields = ("a", "b", "delta", "anchors")

    def __init__(self, a: Fraction, b: Fraction, delta: Fraction,
                 anchors: tuple[Fraction, ...] = ()):
        if delta <= 0:
            raise ValueError("delta: must be positive")
        if not a <= 0 <= b:
            raise ValueError("the interval must contain the origin")
        self._set(a, b, delta, anchors)

    def value(self, z):
        z = abs(_rational(z))
        if z >= self.delta:  # the plateau, decided before any division
            return Fraction(1)
        u = z / self.delta
        return 3 * u * u - 2 * u ** 3

    def derivative(self, z):
        z = _rational(z)
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


def _horner(weights: Sequence[int], x: int, y: int) -> int:
    """sum_j W_j x^j y^(k - j), W nonempty: the homogenised Horner pass
    H <- H x + W_j y^(k-j) on integers.  With the coefficients' numerators
    and y = D it is D^k times their polynomial at x / D; `_bernstein_sum`
    runs it on the weights of the controls off their plateau."""
    acc = weights[-1]
    scale = 1
    for w in reversed(weights[:-1]):
        scale *= y
        acc = acc * x + w * scale
    return acc


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
    seeded with them; `coefficients` builds its Fractions if it is read."""
    nums, den = _reduced(nums, den)
    p = Polynomial.__new__(Polynomial)
    p.__dict__["_integers"] = (tuple(nums), den)
    return p


@cache
def _binomials(k: int) -> tuple[int, ...]:
    """C(k, 0), ..., C(k, k), built once per process and degree."""
    return tuple(comb(k, j) for j in range(k + 1))


def _plateau(controls: Sequence) -> tuple[object, int, int]:
    """(m, lo, hi): the plateau m, the most frequent control (the first of
    them on a tie), or a zero of its type if no control repeats, and the
    span [lo, hi] of the controls other than m (lo = hi = 0 if there are
    none)."""
    counts = Counter(controls)
    m = max(counts, key=counts.__getitem__)
    if counts[m] == 1:
        m = type(m)(0)
    off = [i for i, c in enumerate(controls) if c != m] or [0]
    return m, off[0], off[-1]


class _Support(NamedTuple):
    """Integer controls c_0..c_k read off their plateau m (`_plateau`): the
    weights (c_(lo+i) - m) C(k, lo+i) of the span [lo, hi] of the controls
    other than m.  Computed once per polynomial, read at every point."""

    k: int
    plateau: int
    lo: int
    weights: list[int]


def _support(ctrl: Sequence[int]) -> _Support:
    k = len(ctrl) - 1
    m, lo, hi = _plateau(ctrl)
    return _Support(k, m, lo, [(c - m) * w for c, w in
                               zip(ctrl[lo:hi + 1], _binomials(k)[lo:hi + 1])])


def _bernstein_sum(support: _Support, x: int, y: int, total: int) -> int:
    """sum_j c_j C(k, j) x^j y^(k-j) of the controls of `support`, given
    total = (x + y)^k; with y = D - T it is D^k times their Bernstein form
    at t = T / D.  As sum_j C(k, j) x^j y^(k-j) = (x + y)^k, exactly

        sum_j c_j C(k, j) x^j y^(k-j)
            = m (x + y)^k + x^lo y^(k-hi) sum_i (c_(lo+i) - m) C(k, lo+i) x^i y^(hi-lo-i),

    and the last sum is one `_horner` pass of hi - lo steps.  A dense row
    is lo = 0, hi = k."""
    k, m, lo, weights = support
    return m * total + x ** lo * y ** (k - lo - len(weights) + 1) * _horner(weights, x, y)


def _origin_pin(f, degree: int, a: Fraction, width: Fraction,
                t0: Fraction) -> tuple[int, list[int]]:
    """(j0, pin): the integer Bernstein controls, of the degree (at least
    the number of anchors), of a nonzero multiple of the origin pin, a
    polynomial that vanishes at the notch anchors and is localized at the
    Bernstein node nearest the origin.  They are zero outside
    j0 .. j0 + len(pin) - 1.

    The bump is the Bernstein basis polynomial of degree m = degree - (number
    of anchors) at the node j0 / m nearest t0: its controls are a single 1 at
    j0.  Each anchor g contributes the linear factor D t - R that vanishes
    at t = R / D = (g - a) / width, with Bernstein controls (-R, D - R); the
    product of degree d controls c_i with it has the degree d + 1 controls
    (d + 1 - i) (-R) c_i + i (D - R) c_(i-1), up to the factor 1 / (d + 1).
    Subtracting (raw value at the origin) / (pin value at the origin) times
    this pin forces an exact root at the origin without disturbing the
    plateau: a global constant shift would be size O(1) whenever the dip
    sits below the Bernstein resolution.
    """
    anchors = [_rational(g) for g in getattr(f, "anchors", ())]
    m = degree - len(anchors)
    j0 = min(max(int(round(t0 * m)), 0), m)
    pin, d = [1], m
    for g in anchors:
        root = (g - a) / width
        low, high = -root.numerator, root.denominator - root.numerator
        d += 1
        pin = [(d - i) * low * x + i * high * y
               for i, x, y in zip(range(j0, d + 1), pin + [0], [0] + pin)]
    return j0, pin


def _node_values(f, k: int, a: Fraction, width: Fraction) -> tuple[list[int], int]:
    """f at the nodes a + width j / k, as integer numerators over one
    denominator.  A notch decides its plateau |z| >= delta on integers, so
    only the nodes in its dip build a Fraction; any other f builds one per
    node."""
    # node j is a + width j / k = (lo k + j step) / (node_den k)
    (lo, step), node_den = _common_denominator([a, width])
    nodes = [lo * k + j * step for j in range(k + 1)]
    if not isinstance(f, NotchFunction):
        return _common_denominator([f.value(Fraction(z, node_den * k)) for z in nodes])
    bound = f.delta.numerator * node_den * k
    dip = {j: f.value(Fraction(z, node_den * k)) for j, z in enumerate(nodes)
           if abs(z) * f.delta.denominator < bound}
    den = lcm(*(v.denominator for v in dip.values()))
    return [dip[j].numerator * (den // dip[j].denominator) if j in dip else den
            for j in range(k + 1)], den


def _exact_degree(ctrl: list[int], den: int) -> tuple[list[int], int]:
    """The controls of the same polynomial at its exact degree, reduced, with
    den > 0 and gcd(den, *controls) = 1, so zero is [0] over 1.  The top
    t-coefficient sum_j (-1)^(k-j) C(k, j) c_j of degree k controls vanishes
    exactly when the degree is below k; only then are the t-coefficients
    trimmed and converted back by one Pascal pass.  It is `_bernstein_sum`
    at x = -1, y = 1, where (x + y)^k = 0 for k >= 1 drops the plateau."""
    k = len(ctrl) - 1
    if k and not _bernstein_sum(_support(ctrl), -1, 1, 0):
        nums = _t_coefficients(ctrl)
        while len(nums) > 1 and not nums[-1]:
            nums.pop()
        ctrl, den = _pascal_controls(nums, den)
    if den < 0:
        ctrl, den = [-c for c in ctrl], -den
    g = gcd(den, *ctrl)
    return [c // g for c in ctrl], den // g


def approximate_with_derivative(f, degree: int) -> Polynomial:
    """Bernstein approximant of f on [f.a, f.b] with an exact root at 0,
    born as its Bernstein controls on [f.a, f.b].

    Converges to f together with its first derivative as the degree grows.
    `f` is normally a NotchFunction; any object with fields a, b and an exact
    `value` method works (plumbing self-tests feed plain monomials).  Its
    `anchors`, if any, must not outnumber the degree (ValueError).

    The raw approximant's controls are the node values f(a + (b - a) j / k),
    on integer numerators over one denominator (`_node_values`).  The root
    at the origin t0 = -a / (b - a) is enforced with the pin of
    `_origin_pin`: p = raw - raw(t0) pin / pin(t0), both values from
    `_bernstein_sum` on the controls off their plateau (the pin's are zero
    outside j0 .. j0 + len(pin) - 1), so p's controls are the node values
    except at the few indices where the pin's are nonzero.  When the origin is an
    interval endpoint, raw(t0) is the node value f(0) = 0 and no pin is
    needed.  The controls are taken to the exact degree (`_exact_degree`),
    so the sup sweeps run at the same degree as on the trimmed coefficients.
    No coefficient in z is computed until one is read (`Polynomial`).
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    if len(getattr(f, "anchors", ())) > degree:
        raise ValueError("degree must be at least the number of anchors")
    a, b = _rational(f.a), _rational(f.b)
    width = b - a
    ctrl, den = _node_values(f, degree, a, width)
    t0 = -a / width
    top, bottom = t0.numerator, t0.denominator
    total = bottom ** degree
    at_t0 = _bernstein_sum(_support(ctrl), top, bottom - top, total)
    if at_t0:
        j0, pin = _origin_pin(f, degree, a, width, t0)
        pin_t0 = _bernstein_sum(_support([0] * j0 + pin + [0] * (degree + 1 - j0 - len(pin))),
                                top, bottom - top, total)
        if pin_t0 == 0:
            raise InternalConsistencyError("origin pin degenerated to zero at the origin")
        # raw(t0) / pin(t0) = (at_t0 / (den D^degree)) / (pin_t0 / D^degree) = y / (den x)
        g = gcd(pin_t0, at_t0)
        x, y = pin_t0 // g, at_t0 // g
        ctrl = [c * x for c in ctrl]
        for i, c in enumerate(pin, start=j0):
            ctrl[i] -= y * c
        den *= x
    return Polynomial._born(a, b, *_exact_degree(ctrl, den))


def _t_coefficients(ctrl: Sequence[int]) -> list[int]:
    """The t-coefficients C(d, m) Delta^m c_0 of degree d controls, over the
    controls' denominator: forward differences on integers."""
    d = len(ctrl) - 1
    nums, row = [], list(ctrl)
    for m in range(d + 1):
        nums.append(comb(d, m) * row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    return nums


def _pascal_controls(nums: Sequence[int], den: int) -> tuple[list[int], int]:
    """The Bernstein controls of sum_m (N_m / L) t^m, over one common
    denominator (not reduced).

    ctrl_i = sum_m C(i, m) / C(d, m) g_m = (1 / (L d!)) sum_m C(i, m) m! (d - m)! G_m;
    the binomial sums over m are the first entries of a Pascal-style triangle.
    """
    d = len(nums) - 1
    row = [factorial(m) * factorial(d - m) * n for m, n in enumerate(nums)]
    ctrl = []
    for _ in range(d + 1):
        ctrl.append(row[0])
        row = [x + y for x, y in zip(row, row[1:])]
    return ctrl, den * factorial(d)


def _bernstein_controls(p: Polynomial, a, b) -> tuple[list[int], int]:
    """Exact Bernstein control points of p on [a, b], as integer numerators
    over one common denominator.  On an approximant's birth interval they
    are its birth controls (reduced, not to be mutated); any other interval
    takes one Taylor shift to t = (z - a) / (b - a) and one Pascal pass."""
    a, b = _rational(a), _rational(b)
    if p._birth is not None and p._birth[:2] == (a, b):
        return p._birth[2:]
    nums, den = p._integers
    nums, scale = p._compose_integers(nums, a, b - a)
    return _pascal_controls(nums, den * scale)


def _floats(nums: Sequence[int], den: int) -> np.ndarray:
    """The floats of nums[i] / den.  Integer true division rounds the exact
    quotient once, so each is bitwise float(Fraction(nums[i], den))."""
    return np.array([n / den for n in nums])


class _Grid(NamedTuple):
    """The uniform grid t on [0, 1], endpoints included, s = fl(1 - t), and
    what `_sup_candidates` reads of it.  t rises and s falls, so t <= s
    holds exactly on the first `half` columns.  There the filter writes its
    sums in r = t / s (`left_ratio`), beyond in r = s / t (`right_ratio`);
    `twice_max` is 2 max(t, s).  Every array is read-only."""

    t: np.ndarray
    s: np.ndarray
    half: int
    left_ratio: np.ndarray
    right_ratio: np.ndarray
    twice_max: np.ndarray


@cache
def _grid(num: int) -> _Grid:
    """The grid of `num` points, built once per process and size; the
    pipelines use DEFAULT_GRID only."""
    t = np.linspace(0.0, 1.0, num)
    s = 1 - t
    half = int(np.count_nonzero(t <= s))
    grid = _Grid(t, s, half, t[:half] / s[:half], s[half:] / t[half:], 2 * np.maximum(t, s))
    for x in (t, s, *grid[3:]):
        x.setflags(write=False)
    return grid


def _de_casteljau(rows: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
                  ) -> list[np.ndarray]:
    """Float de Casteljau sweeps of rows (controls, t, s), all in one pass:
    each row's values at its columns (t_j, s_j).

    Every column carries its row's controls.  The columns are ordered by
    degree, highest first, and go in blocks of GRID_BLOCK; level r of a
    block updates only its leading columns, those of degree at least r.  So
    each step is still round(beta_i * s) + round(beta_(i+1) * t) on the
    column's own controls, t_j and s_j: every value is bitwise that of the
    plain sweep of its row alone, and the memory is one block at its degree.
    """
    if not rows:
        return []
    order = sorted(range(len(rows)), key=lambda i: len(rows[i][0]), reverse=True)
    ctrls, ts, ss = zip(*(rows[i] for i in order))
    ctrl = np.zeros((len(ctrls[0]), len(rows)))  # column j: the controls of sorted row j
    for j, c in enumerate(ctrls):
        ctrl[:len(c), j] = c
    sizes = [len(t) for t in ts]
    owner = np.repeat(np.arange(len(rows)), sizes)
    degrees = np.repeat([len(c) - 1 for c in ctrls], sizes)
    t, s = np.concatenate(ts), np.concatenate(ss)
    out = np.empty(len(t))
    for lo in range(0, len(t), GRID_BLOCK):
        block = slice(lo, lo + GRID_BLOCK)
        k = int(degrees[lo])
        beta = ctrl[:k + 1, owner[block]]
        scratch = np.empty((k, beta.shape[1]))
        # widths[r]: the number of leading columns of degree at least r
        widths = np.searchsorted(-degrees[block], -np.arange(k + 1), side="right").tolist()
        tb, sb = t[block], s[block]
        for r in range(k, 0, -1):
            w = widths[r]
            np.multiply(beta[1:r + 1, :w], tb[:w], out=scratch[:r, :w])
            beta[:r, :w] *= sb[:w]
            beta[:r, :w] += scratch[:r, :w]
        out[block] = beta[0]
    parts = np.split(out, np.cumsum(sizes)[:-1])
    return [parts[j] for j in np.argsort(order)]


def evaluate_on_grid(p: Polynomial, a, b, num: int) -> np.ndarray:
    """Numerically stable dense evaluation: exact Bernstein form, then a
    vectorized float de Casteljau sweep over a uniform grid (endpoints included)."""
    grid = _grid(num)
    return _de_casteljau([(_floats(*_bernstein_controls(p, a, b)), grid.t, grid.s)])[0]


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


def _sup_candidates(ctrl: np.ndarray, grid: _Grid, scale: np.ndarray) -> np.ndarray:
    """Mask of the grid columns whose `_de_casteljau` value may have the
    largest magnitude; every other column provably has a smaller one.
    `scale` is (2w)^k = `_power(grid.twice_max, k)` for the row's degree k,
    which the caller computes once per degree.

    With u = 2^-53, gamma_n = n u / (1 - n u), C = max |beta_i| and, in
    exact arithmetic on the same doubles t and s,
        Q = sum_i beta_i C(k, i) t^i s^(k-i),   S = sum_i |beta_i| C(k, i) t^i s^(k-i),
    the sweep returns D with |D - Q| <= gamma_2k S (Farouki and Rajan 1987:
    every path from a control to the result passes k levels of one product
    and one sum).  One bound on S serves every column: S <= C (t + s)^k, and
    s = fl(1 - t) is exact for t >= 1/2 (Sterbenz) and within u/2 of 1 - t
    below, so t + s <= 1 + u and S <= C (1 + u)^k.  So only the values need
    a pass, and it reads only the controls off the row's plateau.

    The plateau m and the span [lo, hi] of the controls other than m are
    those of `_plateau` (m = 0.0 if no control repeats).
    As sum_i C(k, i) t^i s^(k-i) = (t + s)^k, exactly
        Q = m (t + s)^k + R,   R = sum_(lo <= i <= hi) (beta_i - m) C(k, i) t^i s^(k-i).
    The pass computes H = m + R~, R~ an O(k) evaluation of R (Schumaker and
    Volk): with w = max(t, s) and r = min(t, s) / w <= 1, R is s^k r^lo
    times a Horner sum in r of hi - lo steps left of the middle, and t^k
    r^(k-hi) times one right of it; the skipped power of r is one `_power`
    call, and w^k is (2w)^k 2^-k, where (2w)^k in [1, 2^k] cannot underflow
    and ldexp scales it back.  A dense row (m = 0.0, lo = 0, hi = k) takes
    the plain Horner pass over every control.

    Rounding.  |m (t + s)^k - m| <= |m| gamma_k <= C gamma_k.  fl(beta_i - m)
    rounds once and is 0 exactly when beta_i = m, so only zero terms are
    left out.  Each term of R~ is the exact term times a factor within
    gamma_(4k+3) of 1: beta_i - m, C(k, i) and their product round once
    each; the Horner sum, the skipped power r^e and the product with it at
    most 2 (hi - lo) + e <= 2k times; the term's power of r, at most k,
    carries one ratio rounding per factor; (2w)^k at most k - 1 (`_power`),
    and the product with it once.  R's magnitude sum is at most
    sum_i (|beta_i| + |m|) C(k, i) t^i s^(k-i) <= 2 C (1 + u)^k, so
    |R~ - R| <= 2 gamma_(4k+3) C (1 + u)^k, and H = fl(m + R~) rounds once
    more, by at most u |m + R~| <= u C to first order.

    Underflow adds an absolute error of at most 2^-1075 per product.  The
    sweep's k (k + 1) products are scaled by less than 2 in the rest of it,
    and the pass's others, at most 2k + 4, by at most 1 + O(k u): only factors
    r, r^e and w^k <= 1 follow them.  Sums of subnormals are exact, and r
    itself does not underflow on a grid, where min(t, s) is 0 or at least
    the grid step.  The term 2 (k + 2)^2 2^-1074 covers all of it.  The
    skipped power is the exception: its at most 19 products (k < 1024) put
    less than 2^-1070 into r^e, which the Horner sum, at most 2 C 2^k,
    then multiplies; the term 2^(k-1068) C covers it.

    Write E = ((12k + 16) u + 2^(k-1068)) C + 2 (k + 2)^2 2^-1074.  To first
    order in u, |D - H| <= (2k + k + 2 (4k + 3) + 1) u C = (11k + 7) u C, and
    rounding |H| + E and |H| - E once each needs u |H| <= u C more.  The
    remaining (k + 8) u C absorbs every second-order term, those of
    (1 + u)^k and of computing E included: they are O(k^2 u^2) C, below
    10^-6 u C for every degree below 1024.  So the computed |H| + E bounds
    |D| above and |H| - E bounds it below.  A column whose upper bound falls
    short of the largest lower bound cannot hold the maximum, and dropping it
    leaves max |D| unchanged.  If any control, m, value or E is not finite,
    every column is kept: so it is for huge controls, and from degree 1024
    on, where (2w)^k overflows at t = 0 (a binomial of 2^1023 or more, from
    degree 1029 on, is taken as infinite rather than converted).
    """
    k = len(ctrl) - 1
    m, lo, hi = _plateau(ctrl.tolist())
    binom = np.array([float(c) if c.bit_length() < 1024 else np.inf
                      for c in _binomials(k)[lo:hi + 1]])
    with np.errstate(over="ignore", invalid="ignore"):
        coef = (ctrl[lo:hi + 1] - m) * binom
        value = np.empty(len(grid.t))
        # Left of the middle R = s^k r^lo sum_i coef_i r^(i-lo), right of it
        # R = t^k r^(k-hi) sum_i coef_i r^(hi-i).
        for h, r, order, skip in ((value[:grid.half], grid.left_ratio, coef[::-1], lo),
                                  (value[grid.half:], grid.right_ratio, coef, k - hi)):
            h[:] = order[0]
            for c in order[1:]:
                h *= r
                h += c
            h *= _power(r, skip)
        value = np.abs(m + np.ldexp(value * scale, -k))
        top = np.max(np.abs(ctrl))
        err = ((12 * k + 16) * 2.0 ** -53 * top + np.ldexp(top, k - 1068)
               + 2 * (k + 2) ** 2 * 2.0 ** -1074)
        high = value + err
        keep = high >= np.max(value - err)
    return keep if np.isfinite(high).all() else np.ones_like(keep)


def _grid_sups(ctrls: Sequence[np.ndarray]) -> list[float]:
    """Largest |value| of the `_de_casteljau` sweep of each row of controls
    over the DEFAULT_GRID-point grid, bitwise; every row that needs a sweep
    goes into one `_de_casteljau` call.

    Hull certificate.  Let C = max |ctrl|.  If C is finite, C is |ctrl[0]|
    or |ctrl[-1]|, and fl(fl(C s) + fl(C t)) <= C on every grid column, the
    sweep's maximum is C and the row is not swept.  Proof: rounding to
    nearest is monotone and odd, so with s, t >= 0, |beta_i| <= C and
    |beta_(i+1)| <= C give |fl(fl(beta_i s) + fl(beta_(i+1) t))| <=
    fl(fl(C s) + fl(C t)) <= C, and by induction over the k levels every
    swept |D_j| <= C.  The column t = 0, s = 1 returns ctrl[0] exactly, and
    t = 1, s = 0 returns ctrl[-1], so C is attained.  This is the
    convex-hull property of the Bernstein form, kept exact in floats by the
    guard.  The guard is needed: for most C that are not powers of two it
    fails, and rightly so.  p = 1/10 - z^8/1000 on [0, 1] has the endpoint
    control 0.1 = C, but the sweep's maximum is 0.10000000000000012.

    Otherwise the row is swept only at the columns `_sup_candidates` keeps.
    Those rows are filtered in order of degree, with (2w)^k computed once per
    degree, so one such grid-sized array is alive at a time.
    """
    grid = _grid(DEFAULT_GRID)
    t, s = grid.t, grid.s
    sups: list = [None] * len(ctrls)
    swept = []
    for i, ctrl in enumerate(ctrls):
        top = np.max(np.abs(ctrl))
        if (np.isfinite(top) and (top == abs(ctrl[0]) or top == abs(ctrl[-1]))
                and np.all(top * s + top * t <= top)):
            sups[i] = float(top)
        else:
            swept.append(i)
    rows = {}
    for size, group in groupby(sorted(swept, key=lambda i: len(ctrls[i])),
                               lambda i: len(ctrls[i])):
        with np.errstate(over="ignore"):  # from degree 1024 on; the filter keeps every column
            scale = _power(grid.twice_max, size - 1)
        for i in group:
            keep = _sup_candidates(ctrls[i], grid, scale)
            rows[i] = (ctrls[i], t[keep], s[keep])
    for i, values in zip(swept, _de_casteljau([rows[i] for i in swept])):
        sups[i] = float(np.max(np.abs(values)))
    return sups


def sup_norm(p: Polynomial, spectrum: SpectrumSequence) -> float:
    """Supremum of |p| over a spectrum: its points plus the origin, each
    evaluated exactly and floated once.  Sups over an interval are
    `interval_sups`."""
    return max(abs(float(p(z))) for z in (Fraction(0), *spectrum.values))


def interval_sups(p: Polynomial, a, b) -> tuple[float, float]:
    """(sup|p|, sup|p'|) over the interval (a, b), a != b, sampled on a
    uniform grid of DEFAULT_GRID points, from p's exact Bernstein controls on
    [a, b]: an approximant's birth controls on its birth interval, one
    conversion otherwise.  The one-request case of `interval_sups_many`.

    Each is bitwise the largest |value| of `evaluate_on_grid`, decided by the
    hull certificate of `_grid_sups` when it applies, and otherwise by a de
    Casteljau sweep over only the points that an O(k) evaluation with a
    proven error bound cannot rule out (`_sup_candidates`).

    With p's controls c_i of degree d on [a, b], p' has the controls
    d (c_(i+1) - c_i) / (b - a), so p' is not converted again.
    """
    return interval_sups_many([(p, a, b)])[0]


def interval_sups_many(requests: Sequence[tuple[Polynomial, object, object]]
                       ) -> list[tuple[float, float]]:
    """`interval_sups` of every (p, a, b) request, in order.  Requests with
    equal keys (a, b, den, *controls) are computed once: the key hashes
    integers and the two interval ends, and never computes an approximant's
    coefficients.  Every grid sup goes into one `_grid_sups` call, so into
    one sweep."""
    keys, fresh = [], {}
    for p, a, b in requests:
        a, b = _rational(a), _rational(b)
        nums, den = _bernstein_controls(p, a, b)
        key = (a, b, den, *nums)
        if key not in fresh:
            width = b - a
            scale = (len(nums) - 1) * width.denominator
            slopes = [scale * (y - x) for x, y in zip(nums, nums[1:])] or [0]
            fresh[key] = (_floats(nums, den), _floats(slopes, den * width.numerator))
        keys.append(key)
    flat = iter(_grid_sups([ctrl for pair in fresh.values() for ctrl in pair]))
    done = {key: (next(flat), next(flat)) for key in fresh}
    return [done[key] for key in keys]


def divide_shifted(p: Polynomial, lam) -> Polynomial:
    """The polynomial q with lam*p(lam) - (lam - z)*p(lam - z) = z*q(z).

    One Taylor shift gives r(z) = p(lam - z), and q_j = r_j - lam r_(j+1).
    The left side vanishes at z = 0 exactly when r_0 = p(lam), which is
    checked against an independent Horner evaluation of p(lam); a mismatch
    is an internal inconsistency.
    """
    lam = _rational(lam)
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


def mvt_bound_check(p: Polynomial, q: Polynomial, lam, spectrum: SpectrumSequence) -> MvtCheck:
    """Mean-value bound for the divided polynomial: the sup of |q| over the
    spectrum (plus origin) must not exceed sup|p| + lam * sup|p'| over
    [lam - lambda_1, lam].  Returns the verdict with both sides and sup|p|."""
    lam = _rational(lam)
    lhs = sup_norm(q, spectrum)
    p_sup, dp_sup = interval_sups(p, lam - spectrum.lam(1), lam)
    rhs = p_sup + float(lam) * dp_sup
    return MvtCheck(lhs <= rhs + 1e-12, lhs, rhs, p_sup)
