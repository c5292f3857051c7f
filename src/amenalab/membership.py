"""The membership trials of `verify weak`: the floats of p(T) for many
polynomials p on the paper's T, read from its spectrum, bitwise those of the
exact block composition.  Every p(T) is an algebra element and the
composition is never built: a float pass with proven error bounds leaves the
exact floats to the few coordinates where a trial's maximum can be.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .polynomials import Polynomial
from .scalars import scaled_float
from .spectrum import SpectrumSequence


class MembershipTrial(NamedTuple):
    residual: float       # `membership_residual` of p(T)
    norm: float           # ||p(T)||
    spectral_sup: float   # sup |p| over the spectrum plus the origin


def _trial_weights(c: int, e: int, k: int) -> list[int]:
    """w_j = c^(j-1) e^(k-j), j = 1..k.  For p = sum_j N_j z^j / L of degree
    at most k with N_0 = 0, g = sum_j N_j w_j gives p(c/e) = c g / (L e^k)
    and the divided difference of p at 0 and c/e, Dp = e g / (L e^k)."""
    return [c ** (j - 1) * e ** (k - j) for j in range(1, k + 1)]


def _trial_row(lam: Fraction, k: int) -> tuple:
    """What every trial of degree at most k shares at a coordinate with
    lambda_n = C / E: the `_trial_weights`, C, E and E^k."""
    c, e = lam.numerator, lam.denominator
    return _trial_weights(c, e, k), c, e, e ** k


_TINY = 2.0 ** -1022  # the least normal float


def _quotient_float(num: int, den: int) -> float:
    """num / den (den > 0), correctly rounded, where that is zero or a normal
    float, so that its relative error is at most 2^-53; NaN where the
    quotient leaves the normal range."""
    try:
        f = num / den
    except OverflowError:
        return math.nan
    return f if not num or _TINY <= abs(f) else math.nan


def _normal(f: float) -> float:
    """f where it is a normal float, else NaN, as in `_quotient_float`: a
    root's float (`root_floats`) is within 1.13 2^-53 of it there."""
    return f if _TINY <= abs(f) < math.inf else math.nan


def _scaled_coefficients(nums: Sequence[int], den: int) -> tuple[list[float], int]:
    """(alphas, s): alpha_j = fl(2^s N_j / L) for the numerators N_1..N_K of
    a trial over L, with s from bit lengths such that the largest
    |2^s N_j / L| lies in (1/2, 2), or s = 0 when every N_j is 0.  Each is
    correctly rounded by one integer division, below the normal range too,
    where its absolute error is at most 2^-1075, and none overflows."""
    top = max((abs(n).bit_length() for n in nums), default=0)
    s = den.bit_length() - top if top else 0
    return [(n << s) / den if s >= 0 else n / (den << -s) for n in nums], s


def _trial_estimates(alphas: np.ndarray, shifts: np.ndarray, x: np.ndarray,
                     b: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Float estimates est with proven bounds err (trials x coordinates) of
    2^s times each trial's floats at each coordinate, s = shifts[t] for
    trial t: (est, err) for hypot(top, bottom) and then for |bottom|, with
    |est - 2^s float| <= err wherever both are finite.

    Row t of `alphas` holds alpha_j = fl(2^s a_j), a_j = N_j / L, j = 1..K,
    the coefficients of z^j of a trial scaled by `_scaled_coefficients`
    (zeros past its degree): the largest is within a factor 2 of 1, and each
    has a relative error of at most u = 2^-53 plus, below the normal range,
    an absolute one of at most 2^-1075.  x_n = fl(lambda_n) and
    b_n = to_float(b_n) at each coordinate are zero or normal, with a
    relative error of at most u, or 2u for a Surd b_n (`surd_float`); the
    callers drop the coordinates where x or b is NaN (`_quotient_float`,
    `_normal`).  Exactly,
        D = sum_j 2^s a_j lambda^(j-1) = 2^s Dp,   S = sum_j 2^s |a_j| lambda^(j-1),
    and the trial's floats at n are bottom = fl(lambda Dp), correctly
    rounded; top = the float of b Dp, correctly rounded for a rational b and
    within 1.13 u for a Surd b (`surd_float`); and their np.hypot, within
    1 ulp (libm), so 2u.  Where these land below the normal range each
    rounding adds at most 2^-1074 instead, 2^(s-1074) once scaled by 2^s.

    One elementwise Horner pass over (trials x coordinates) arrays computes
    D~ and S~ from the alphas and x, and W~ for W = sum_(i<K) x^i.  With
    gamma_m = m u / (1 - m u), rounding the inputs multiplies each term
    2^s a_j lambda^(j-1) by a factor within gamma_K of 1 (one rounding of
    alpha_j, j - 1 of lambda), and Horner's K - 1 products and sums add at
    most gamma_(2K-2) times the magnitude sum (N. J. Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 5.1).  An alpha_j
    below the normal range and a product that underflows each add at most
    2^-1075, which the later steps multiply by at most x^i (1 + gamma_2K).
    So
        |D~ - D| <= gamma_3K S + 2^-1073 W,   S <= S~ / (1 - gamma_3K) + 2^-1073 W.
    The estimates are |fl(x D~)| for 2^s |bottom| and
    np.hypot(fl(b D~), fl(x D~)) for 2^s hypot(top, bottom).  hypot is
    1-Lipschitz in each argument, so to first order in u, with
    R = (lambda + |b|) S,
        | |fl(x D~)| - 2^s |bottom| | <= (3K + 3) u lambda S   (D~, x, the product, bottom),
        |fl(b D~) - 2^s top|          <= (3K + 5) u |b| S      (D~, 2u of b, the product, 2u of top),
        |hypot estimate - 2^s hypot|  <= (3K + 9) u R          (both, and 2u for each hypot),
    plus (lambda + |b|) 2^-1073 W from the underflow in D~, 4 2^-1074 for
    the estimate's final products and floats that land below the normal
    range, and 4 2^(s-1074) for the trial's own.  Rounding |est| + err and
    |est| - err needs u R more.

    So err = (6K + 24) u R~ + 2^-1072 (x + |b|) W~ + 2^-1071 (1 + 2^s), with
    R~ = x S~ for |bottom| and (x + |b|) S~ for the norm: twice the
    first-order need, and the other half absorbs every second-order term,
    O(K^2 u^2) R, for any K below 2^40, and the rounding of err itself.  A
    positive factor 2^s leaves a trial's maxima where they are, so the
    bounds rule out coordinates for the unscaled floats too.
    """
    k = alphas.shape[1]
    b = np.abs(b)
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = np.stack((alphas, np.abs(alphas)))
        acc = np.zeros((2, len(alphas), len(x)))  # D~ and S~
        w = np.ones_like(x)
        for j in range(k - 1, -1, -1):
            acc *= x
            acc += coefficients[:, :, j, None]
            if j:
                w *= x
                w += 1.0
        d, s = acc
        bottom = np.abs(x * d)
        factor = (6 * k + 24) * 2.0 ** -53
        floor = 2.0 ** -1072 * (x + b) * w + 2.0 ** -1071 * (1 + np.ldexp(1.0, shifts))[:, None]
        return [(np.hypot(b * d, bottom), factor * ((x + b) * s) + floor),
                (bottom, factor * (x * s) + floor)]


def _trial_candidates(alphas: np.ndarray, shifts: np.ndarray, x: list[float],
                      b: list[float]) -> list[list[list[int]]]:
    """For each trial, the coordinates whose exact floats may hold its
    maximum: one list for hypot(top, bottom), one for |bottom|.  By the
    bounds of `_trial_estimates`, est + err bounds 2^s times a float above
    and est - err below, so a coordinate whose upper bound falls short of
    the trial's largest lower bound cannot hold the maximum.  A coordinate
    with an input of NaN (x or b) is kept in every trial, and a trial with
    any non-finite upper bound (an overflow) keeps every coordinate."""
    bounded = [n for n, (u, v) in enumerate(zip(x, b)) if not (math.isnan(u) or math.isnan(v))]
    unbounded = sorted(set(range(len(x))).difference(bounded))
    lists = []
    with np.errstate(over="ignore", invalid="ignore"):
        for est, err in _trial_estimates(alphas, shifts, np.array([x[n] for n in bounded]),
                                         np.array([b[n] for n in bounded])):
            high = est + err
            keep = high >= np.max(est - err, axis=1, initial=-np.inf, keepdims=True)
            rows = [[] for _ in alphas]
            for t, i in zip(*(a.tolist() for a in np.nonzero(keep))):
                rows[t].append(bounded[i])
            highest = np.max(high, axis=1, initial=-np.inf).tolist()  # NaN if any is
            lists.append([row + unbounded if h < math.inf else list(range(len(x)))
                          for row, h in zip(rows, highest)])
    return lists


def membership_trials(polynomials: Iterable[Polynomial],
                      spectrum: SpectrumSequence) -> list[MembershipTrial]:
    """For each p, bitwise `membership_residual(X, spectrum)`,
    `operator_norm(X.to_float())` and `sup_norm(p, spectrum)` of
    X = apply_poly_to_block(p.coefficients, build_T(spectrum)), without
    building X or T.

    On T = [[0, N^(1/2)], [0, N]] the work is that of T~ = [[0, I], [0, N]],
    all rational: coordinate n of p(T) is [[p(0), sqrt(lambda_n) Dp], [0,
    p(lambda_n)]] with p(0) = 0 and Dp the divided difference of p at 0 and
    lambda_n, and T = D T~ D^-1 with D = diag(I, N^(-1/2)).  So p(T) is an
    algebra element, residual 0, and its norm and spectral sup are maxima
    over n of floats of exact values.  With lambda_n = C / E and K the
    largest trial degree, each trial's numerator g at n is one dot product
    with the weights C^(j-1) E^(K-j) (`_trial_weights`), and
    p(lambda_n) = C g / (L E^K), Dp = E g / (L E^K).  One float pass with
    proven error bounds over every trial and coordinate
    (`_trial_candidates`) rules out the coordinates that cannot hold a
    maximum, so g and the exact floats (`scaled_float` for sqrt(lambda_n) Dp)
    are computed only on the few that can, and the integers of a coordinate
    (`_trial_row`) only where some trial needs them.
    """
    polynomials = list(polynomials)
    integers = [p._integers for p in polynomials]
    if any(nums[0] for nums, _ in integers):
        raise ValueError("constant term must vanish; the algebra model is non-unital")
    k = max([0, *(len(nums) - 1 for nums, _ in integers)])
    alphas = np.zeros((len(polynomials), k))
    shifts = np.zeros(len(polynomials), dtype=int)
    for t, (nums, den) in enumerate(integers):
        alphas[t, :len(nums) - 1], shifts[t] = _scaled_coefficients(nums[1:], den)
    points, roots = spectrum.values, spectrum.roots
    hyp_at, bottom_at = _trial_candidates(
        alphas, shifts, [_quotient_float(lam.numerator, lam.denominator) for lam in points],
        [_normal(f) for f in spectrum.root_floats])  # a root is never 0
    row = functools.cache(lambda n: _trial_row(points[n], k))
    exact = []  # per trial: its (top, bottom) pairs and its sup
    for (nums, den), hyp_n, bottom_n in zip(integers, hyp_at, bottom_at):
        nums, floats = nums[1:], {}
        for n in {*hyp_n, *bottom_n}:
            weights, c, e, scale = row(n)
            g = sum(map(operator.mul, nums, weights))
            floats[n] = scaled_float(roots[n], e * g, den * scale), c * g / (den * scale)
        exact.append(([floats[n] for n in hyp_n], max(0.0, *(abs(floats[n][1]) for n in bottom_n))))
    pairs = np.reshape([pair for hyp, _ in exact for pair in hyp], (-1, 2))
    hyps = iter(np.hypot(pairs[:, 0], pairs[:, 1]).tolist())
    return [MembershipTrial(0.0, max(itertools.islice(hyps, len(hyp))), sup)  # |p(0)| = 0
            for hyp, sup in exact]
