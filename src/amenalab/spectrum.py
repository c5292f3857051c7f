"""Truncated spectra and the diagonal / 2x2-block operator arithmetic over them.

Every block operator here is upper triangular with three diagonal blocks, so
products reduce to entrywise work on the diagonals.  Entries may be exact or
float; the arithmetic preserves whichever tier it is given.  The exact
operators of the pipelines are graded at each coordinate n: rational diagonal
blocks and an upper-right block in Q*sqrt(lambda_n), a Fraction or a `Surd`
s*sqrt(lambda_n).  Sums and products keep the grading (see `scalars`).
Polynomials of an operator are exact only, with rational coefficients and
diagonal blocks (TypeError on a float operator).  `apply_poly_to_block`
builds the exact p(X), the tests' oracle, from the coefficients in z: its
integer kernel `_divided_numerators` evaluates p at each distinct upper-left
entry once, and Dp and p(c) per coordinate.  The pipelines build no p(X).
The character steps' X is alpha I + beta T, read from the spectrum: they
evaluate p in Bernstein form and float p(X) and X p(X) - X from those
integers (`amenability._polynomial_norms`), so `build_shifted_T` is the
tests' oracle too; the membership trials float theirs from one dot product
per coordinate (`membership`).  `verify weak` reads T's entries and floats from
`SpectrumSequence`, where each root and its float is taken once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import inf, lcm
from typing import Sequence

import numpy as np

from .scalars import (_common_denominator, _Frozen, as_fraction, exact_sqrt, hypot,
                      is_exact_zero, to_float)

SpectrumKind = str  # "geometric" | "harmonic" | "explicit"


class SpectrumSequence(_Frozen):
    """Strictly decreasing positive reals lambda_1 > ... > lambda_M.

    The origin belongs to the spectrum set implicitly and is never stored.
    `descriptor` records how the sequence was generated, for reproducibility.
    """

    _fields = ("values", "descriptor")

    def __init__(self, values: tuple[Fraction, ...], descriptor: str = "explicit"):
        if not values:
            raise ValueError("values: must contain at least one point")
        for i, v in enumerate(values, start=1):
            if v <= 0:
                raise ValueError(f"values: not positive at index {i}")
            if i >= 2 and v >= values[i - 2]:
                raise ValueError(f"values: not strictly decreasing at index {i}")
        self._set(values, descriptor)

    def __len__(self) -> int:
        return len(self.values)

    def lam(self, n: int) -> Fraction:
        """1-based access to lambda_n."""
        if not 1 <= n <= len(self.values):
            raise ValueError(f"n out of range: {n} (truncation {len(self.values)})")
        return self.values[n - 1]

    @cached_property
    def roots(self) -> tuple:
        """The exact sqrt(lambda_n), computed once per spectrum."""
        return tuple(exact_sqrt(v) for v in self.values)

    @cached_property
    def root_floats(self) -> tuple[float, ...]:
        """to_float of each root, taken once per spectrum; a rational root
        beyond the float range is inf, as a Surd's float is."""
        return tuple(map(_float_or_inf, self.roots))

    def diagonal(self) -> "DiagonalOperator":
        """The diagonal operator carrying the spectrum points."""
        return DiagonalOperator(self.values)


def _float_or_inf(x) -> float:
    try:
        return to_float(x)
    except OverflowError:  # int / int raises where a float would be inf
        return inf


def make_spectrum(kind: SpectrumKind, count: int | None = None, *,
                  ratio=Fraction(1, 2), values: Sequence | None = None) -> SpectrumSequence:
    """Build a spectrum: geometric(ratio), harmonic, or an explicit list."""
    if kind == "geometric":
        if count is None or count < 1:
            raise ValueError("count: must be a positive integer")
        r = as_fraction(ratio)
        if not 0 < r < 1:
            raise ValueError("ratio: must lie strictly between 0 and 1")
        vals = tuple(r ** n for n in range(1, count + 1))
        return SpectrumSequence(vals, f"geometric(ratio={r},count={count})")
    if kind == "harmonic":
        if count is None or count < 1:
            raise ValueError("count: must be a positive integer")
        vals = tuple(Fraction(1, n) for n in range(1, count + 1))
        return SpectrumSequence(vals, f"harmonic(count={count})")
    if kind == "explicit":
        if values is None:
            raise ValueError("values: required for an explicit spectrum")
        if count is not None and count != len(values):
            raise ValueError("count: does not match the explicit value list")
        vals = tuple(as_fraction(v) for v in values)
        return SpectrumSequence(vals, "explicit")
    raise ValueError(f"kind: unknown spectrum kind {kind!r}")


class DiagonalOperator(_Frozen):
    """Diagonal operator; its norm is exactly the max modulus of the entries."""

    _fields = ("diag",)

    def __init__(self, diag):
        self._set(tuple(diag))

    def __len__(self) -> int:
        return len(self.diag)

    @classmethod
    def zeros(cls, m: int) -> "DiagonalOperator":
        return cls((Fraction(0),) * m)

    @classmethod
    def ones(cls, m: int) -> "DiagonalOperator":
        return cls((Fraction(1),) * m)

    @classmethod
    def constant(cls, m: int, value) -> "DiagonalOperator":
        return cls((value,) * m)

    def _check(self, other: "DiagonalOperator"):
        if len(self) != len(other):
            raise ValueError("dimension mismatch between diagonal operators")

    def __add__(self, other):
        self._check(other)
        return DiagonalOperator(tuple(a + b for a, b in zip(self.diag, other.diag)))

    def __sub__(self, other):
        self._check(other)
        return DiagonalOperator(tuple(a - b for a, b in zip(self.diag, other.diag)))

    def __neg__(self):
        return DiagonalOperator(tuple(-a for a in self.diag))

    def __matmul__(self, other):
        """Composition of diagonal operators is the entrywise product."""
        self._check(other)
        return DiagonalOperator(tuple(a * b for a, b in zip(self.diag, other.diag)))

    def scale(self, c):
        return DiagonalOperator(tuple(c * a for a in self.diag))

    def is_zero(self) -> bool:
        return all(is_exact_zero(a) for a in self.diag)

    def norm(self) -> float:
        """Operator norm, exactly max |d_n| (returned as float)."""
        return max((abs(to_float(a)) for a in self.diag), default=0.0)

    def to_float(self) -> "DiagonalOperator":
        return DiagonalOperator(tuple(to_float(a) for a in self.diag))


class BlockOperator(_Frozen):
    """Upper-triangular block operator [[b11, b12], [0, b22]] with diagonal blocks:
    up to a permutation, the direct sum of the 2x2 [[b11[n], b12[n]], [0, b22[n]]]."""

    _fields = ("b11", "b12", "b22")

    def __init__(self, b11: DiagonalOperator, b12: DiagonalOperator, b22: DiagonalOperator):
        if len(b12) != len(b11) or len(b22) != len(b11):
            raise ValueError("all three blocks must share one dimension")
        self._set(b11, b12, b22)

    @property
    def dim(self) -> int:
        return len(self.b11)

    @classmethod
    def zeros(cls, m: int) -> "BlockOperator":
        z = DiagonalOperator.zeros(m)
        return cls(z, z, z)

    @classmethod
    def column_block(cls, top: DiagonalOperator, bottom: DiagonalOperator) -> "BlockOperator":
        """Operator with a vanishing left column, the shape of every algebra element."""
        return cls(DiagonalOperator.zeros(len(top)), top, bottom)

    def __add__(self, other):
        return BlockOperator(self.b11 + other.b11, self.b12 + other.b12, self.b22 + other.b22)

    def __sub__(self, other):
        return BlockOperator(self.b11 - other.b11, self.b12 - other.b12, self.b22 - other.b22)

    def __neg__(self):
        return BlockOperator(-self.b11, -self.b12, -self.b22)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch between block operators")
        return BlockOperator(
            self.b11 @ other.b11,
            self.b11 @ other.b12 + self.b12 @ other.b22,
            self.b22 @ other.b22,
        )

    def scale(self, c):
        return BlockOperator(self.b11.scale(c), self.b12.scale(c), self.b22.scale(c))

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in (self.b11, self.b12, self.b22))

    def to_float(self) -> "BlockOperator":
        return BlockOperator(self.b11.to_float(), self.b12.to_float(), self.b22.to_float())

    def to_dense(self) -> np.ndarray:
        """Dense 2M x 2M float matrix, for the generic linear-algebra oracles."""
        m = self.dim
        i = np.arange(m)
        out = np.zeros((2 * m, 2 * m))
        out[i, i] = [to_float(x) for x in self.b11.diag]
        out[i, m + i] = [to_float(x) for x in self.b12.diag]
        out[m + i, m + i] = [to_float(x) for x in self.b22.diag]
        return out


def build_T(spectrum: SpectrumSequence) -> BlockOperator:
    """The compact triangular generator: zero left column, sqrt block over the
    diagonal block carrying the spectrum."""
    top = DiagonalOperator(spectrum.roots)
    bottom = DiagonalOperator(spectrum.values)
    return BlockOperator.column_block(top, bottom)


def build_shifted_T(spectrum: SpectrumSequence, n: int) -> BlockOperator:
    """lambda_n I - T on the truncation, the generator of the n-th kernel algebra."""
    lam_n = spectrum.lam(n)
    m = len(spectrum)
    return BlockOperator(
        DiagonalOperator.constant(m, lam_n),
        DiagonalOperator(tuple(-r for r in spectrum.roots)),
        DiagonalOperator(tuple(lam_n - v for v in spectrum.values)),
    )


def _divided_numerators(nums: Sequence[int], num_a: int, num_c: int,
                        e: int) -> tuple[int, int, int]:
    """(G, H_c, E^k) with Dp = G / (L E^k) and p(c) = H_c / (L E^k), for
    a = A / E, c = C / E (A = num_a, C = num_c, E = e), p = sum_j N_j z^j / L
    of degree k, N nonempty, and Dp the divided difference of p at a and c.

    One homogenised pass H <- H C + N_j E^(k-j), G <- G A + H runs on
    integers only, through Dp_j = Dp_(j+1) a + p_(j+1)(c), so the confluent
    case a = c, where the pair is p'(a) and p(a), needs no branch.
    """
    hc = nums[-1]
    g = 0
    scale = 1
    for n in reversed(nums[:-1]):
        scale *= e
        g = g * num_a + hc
        hc = hc * num_c + n * scale
    return g * e, hc, scale


def apply_poly_to_block(coefficients: Sequence, X: BlockOperator) -> BlockOperator:
    """Evaluate sum_k c_k X^k (ascending int or Fraction coefficients, zero
    constant term) on an X with rational diagonal blocks.

    X is upper triangular with diagonal blocks, so each coordinate n is the
    2x2 matrix [[a, b], [0, c]] = [[b11[n], b12[n]], [0, b22[n]]], and
    p(X)_n = [[p(a), b Dp], [0, p(c)]] with the divided difference
    Dp = (p(a) - p(c)) / (a - c), or p'(a) when a == c.  The coefficients
    are written once as integer numerators N_j over their lcm L.  p(a) comes
    from one `_divided_numerators` pass at a = c per distinct a, and Dp and
    p(c) from one pass per coordinate over E = lcm(den a, den c); the
    confluent case a = c needs no branch.  Each is normalized once, and b
    (rational or a `Surd`) enters only in the single product b Dp.  A float
    or `Surd` coefficient, or a diagonal entry that is not an int or
    Fraction, raises TypeError.
    """
    if not all(isinstance(x, (int, Fraction)) for x in coefficients):
        raise TypeError("coefficients: must be int or Fraction")
    if any(coefficients[:1]):
        raise ValueError("constant term must vanish; the algebra model is non-unital")
    nums, den = _common_denominator((0, *coefficients[1:]))
    heads = {}  # a -> p(a)
    top, acc, bot = [], [], []
    for a, b, c in zip(X.b11.diag, X.b12.diag, X.b22.diag):
        if not (isinstance(a, (int, Fraction)) and isinstance(c, (int, Fraction))):
            raise TypeError(f"diagonal entries {a!r}, {c!r}: must be int or Fraction")
        if a not in heads:
            _, h, scale = _divided_numerators(nums, a.numerator, a.numerator, a.denominator)
            heads[a] = Fraction(h, den * scale)
        e = lcm(a.denominator, c.denominator)
        g, hc, scale = _divided_numerators(nums, a.numerator * (e // a.denominator),
                                           c.numerator * (e // c.denominator), e)
        d = den * scale
        top.append(heads[a])
        acc.append(Fraction(g, d) * b)
        bot.append(Fraction(hc, d))
    return BlockOperator(DiagonalOperator(tuple(top)), DiagonalOperator(tuple(acc)),
                         DiagonalOperator(tuple(bot)))


def block_norms(X: BlockOperator) -> np.ndarray:
    """Norm of each coordinate block of a column-block operator (vanishing
    upper-left block): sqrt(B12[n]^2 + B22[n]^2), as floats.  Exact entries
    are floated once each, so an exact X needs no float copy first."""
    if not X.b11.is_zero():
        raise ValueError("block_norms needs a vanishing upper-left block")
    a = np.array([to_float(x) for x in X.b12.diag])
    b = np.array([to_float(x) for x in X.b22.diag])
    return np.hypot(a, b)


def float_block_norm(b11: Sequence[float], b12: Sequence[float], b22: Sequence[float]) -> float:
    """Spectral norm of the block operator with the float diagonal blocks
    b11, b12 and b22, built as no operator.  A column block (every b11
    entry 0.0) takes the exact closed form, the largest `hypot` of its
    coordinate blocks, bitwise numpy's; anything else the dense SVD of the
    2M x 2M matrix that `BlockOperator.to_dense` builds."""
    if not any(b11):
        return max(map(hypot, b12, b22), default=0.0)
    m = len(b11)
    i = np.arange(m)
    dense = np.zeros((2 * m, 2 * m))
    dense[i, i] = b11
    dense[i, m + i] = b12
    dense[m + i, m + i] = b22
    return float(np.linalg.svd(dense, compute_uv=False)[0])


def operator_norm(X: BlockOperator) -> float:
    """Spectral norm: `float_block_norm` of X's floated blocks, so a column
    block (a vanishing upper-left block) takes the closed form and anything
    else the dense SVD oracle.  The column test reads the floats, so an
    exact entry that underflows to 0.0 counts as zero."""
    return float_block_norm(*([to_float(x) for x in d.diag] for d in (X.b11, X.b12, X.b22)))
