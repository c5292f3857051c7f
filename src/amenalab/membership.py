"""The membership trials of `verify weak`: the floats of p(T) for many
polynomials p on the paper's T, read from its spectrum, bitwise those of the
exact block composition.  Every p(T) is an algebra element and the
composition is never built: one scalar float pass per trial, with proven
error bounds, visits the coordinates in decreasing lambda until one monotone
bound rules out the whole tail, and leaves the exact floats to the few
coordinates where a trial's maximum can be.  Each norm there is one scalar
`hypot`, libm's as numpy's, so no numpy runs here.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .polynomials import Polynomial
from .scalars import hypot, scaled_float
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


def _coordinate_bounds(alphas: Sequence[float], s: int, x: float,
                       b: float) -> tuple[float, float, float, float, float, float]:
    """(hyp, hyp_err, bottom, bottom_err, hyp_tail, bottom_tail) for one
    trial at one coordinate: float estimates est with proven bounds err of 2^s
    times the trial's floats there, |est - 2^s float| <= err, first for
    hypot(top, bottom) and then for |bottom|; and tail bounds, each at least
    2^s times the same float at every coordinate m with lambda_m <= lambda.

    `alphas` holds alpha_j = fl(2^s a_j), a_j = N_j / L, j = 1..K, the
    coefficients of z^j of a trial of degree K scaled by
    `_scaled_coefficients`: the largest is within a factor 2 of 1, and each
    has a relative error of at most u = 2^-53 plus, below the normal range,
    an absolute one of at most 2^-1075.  x = fl(lambda) and b = the float of
    sqrt(lambda) are normal, with a relative error of at most u, or 1.13 u
    for a Surd root (`surd_float`); the caller skips the coordinates where x
    or b is NaN (`_quotient_float`, `_normal`).  Exactly,
        D = sum_j 2^s a_j lambda^(j-1) = 2^s Dp,   S = sum_j 2^s |a_j| lambda^(j-1),
    and the trial's floats at the coordinate are bottom = fl(lambda Dp),
    correctly rounded; top = the float of sqrt(lambda) Dp, correctly rounded
    for a rational root and within 1.13 u for a Surd (`surd_float`); and
    their `hypot`, within 1 ulp (libm), so 2u.  Where these land below the
    normal range each rounding adds at most 2^-1074 instead, 2^(s-1074)
    once scaled by 2^s.

    One Horner pass computes D~ and S~ from the alphas and x, and W~ for
    W = sum_(i<K) x^i.  With gamma_m = m u / (1 - m u), rounding the inputs
    multiplies each term 2^s a_j lambda^(j-1) by a factor within gamma_K of
    1 (one rounding of alpha_j, j - 1 of lambda), and Horner's K - 1
    products and sums add at most gamma_(2K-2) times the magnitude sum
    (N. J. Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 5.1).  An alpha_j below the normal range and a product that
    underflows each add at most 2^-1075, which the later steps multiply by
    at most x^i (1 + gamma_2K).  So
        |D~ - D| <= gamma_3K S + 2^-1073 W,   S <= S~ / (1 - gamma_3K) + 2^-1073 W.
    The estimates are |fl(x D~)| for 2^s |bottom| and
    hypot(fl(b D~), fl(x D~)) (math.hypot, within 1 ulp) for 2^s hypot(top,
    bottom).  hypot is 1-Lipschitz in each argument, so to first order in
    u, with R = (lambda + b) S,
        | |fl(x D~)| - 2^s |bottom| | <= (3K + 3) u lambda S   (D~, x, the product, bottom),
        |fl(b D~) - 2^s top|          <= (3K + 5) u b S        (D~, 2u of b, the product, 2u of top),
        |hypot estimate - 2^s hypot|  <= (3K + 9) u R          (both, and 2u for each hypot),
    plus (lambda + b) 2^-1073 W from the underflow in D~, 4 2^-1074 for the
    estimate's final products and floats that land below the normal range,
    and 4 2^(s-1074) for the trial's own.  Rounding est + err and est - err
    needs u R more.

    So err = (6K + 24) u R~ + 2^-1072 (x + b) W~ + 2^-1071 (1 + 2^s), with
    R~ = x S~ for |bottom| and (x + b) S~ for the norm: twice the
    first-order need, and the other half absorbs every second-order term,
    O(K^2 u^2) R, for any K below 2^40, and the rounding of err itself.

    The tails.  At a coordinate m with lambda_m <= lambda, |2^s Dp(lambda_m)|
    <= S(lambda_m) <= S(lambda), since S has nonnegative coefficients; the
    exact |bottom| is lambda_m |Dp|, and since sqrt(lambda_m)^2 = lambda_m
    exactly, the exact hypot is sqrt(lambda_m + lambda_m^2) |Dp|.  So 2^s
    times the floats there are at most (1 + 4u) R_t + 4 2^(s-1074), with
    R_t = lambda S for |bottom| and sqrt(lambda + lambda^2) S for the hypot,
    each nondecreasing in lambda.  The tails are fl(x S~) + err and
    fl(sqrt(x + x^2)) S~ + err, both evaluated in floats with the
    coordinate's err.  The root is at least sqrt(lambda + lambda^2) (1 - 3u)
    (x, x^2 and the sum lose at most 2u relatively, since x >= 2^-1022 puts
    an underflow of x^2 below u x, and the root u more), so each product
    is at least (1 - (3K + 5) u) R_t less 2^-1074 and sqrt(lambda + lambda^2)
    2^-1073 W.  And err covers all of that twice: lambda + sqrt(lambda) >=
    sqrt(lambda + lambda^2), so (6K + 24) u R~ >= (6K + 23) u R_t, and the
    floor holds twice each absolute term.  A positive factor 2^s leaves a
    trial's maxima where they are, so the bounds rule out coordinates for
    the unscaled floats too.
    """
    d = total = w = 0.0  # D~, S~, W~
    for a in reversed(alphas):
        d = d * x + a
        total = total * x + abs(a)
        w = w * x + 1.0
    bottom = abs(x * d)
    factor = (6 * len(alphas) + 24) * 2.0 ** -53
    floor = (2.0 ** -1072 * (x + b) * w
             + 2.0 ** -1071 * (1 + (math.ldexp(1.0, s) if s < 1024 else math.inf)))
    hyp_err = factor * ((x + b) * total) + floor
    bottom_err = factor * (x * total) + floor
    return (math.hypot(b * d, bottom), hyp_err, bottom, bottom_err,
            math.sqrt(x + x * x) * total + hyp_err, x * total + bottom_err)


class _Candidates(NamedTuple):
    hyp: list[int]     # the coordinates that may hold the largest hypot(top, bottom)
    bottom: list[int]  # the coordinates that may hold the largest |bottom|
    visited: int       # coordinates whose estimates were computed


def _trial_candidates(alphas: Sequence[float], s: int, x: Sequence[float],
                      b: Sequence[float], unbounded: list[int]) -> _Candidates:
    """The coordinates of one trial (`_coordinate_bounds`' alphas and s)
    whose exact floats may hold its maxima, from one scalar pass in index
    order, which is decreasing lambda.  est + err bounds 2^s times a float
    above and est - err below, so a visited coordinate whose upper bound
    falls short of the best lower bound visited cannot hold the maximum.
    The pass stops for a maximum at the first coordinate whose tail bound
    falls below that best lower bound, since the tail covers it and every
    coordinate after it; the tail's S~ is that of the coordinate's own
    estimates.  A coordinate with an input of NaN (x or b) is kept in every
    trial (`unbounded`), and a trial with a non-finite upper bound (an
    overflow) keeps every coordinate."""
    best_hyp = best_bottom = -math.inf
    hyp, bottom = [], []  # (upper bound, coordinate) while each maximum is open
    hyp_open = bottom_open = True
    visited = 0
    for n, (xn, bn) in enumerate(zip(x, b)):
        if math.isnan(xn) or math.isnan(bn):
            continue
        h, h_err, v, v_err, h_tail, v_tail = _coordinate_bounds(alphas, s, xn, bn)
        hyp_open = hyp_open and not h_tail < best_hyp
        bottom_open = bottom_open and not v_tail < best_bottom
        if not (hyp_open or bottom_open):
            break
        if not (h + h_err < math.inf and v + v_err < math.inf):
            every = list(range(len(x)))
            return _Candidates(every, every, visited + 1)
        visited += 1
        if hyp_open:
            best_hyp = max(best_hyp, h - h_err)
            hyp.append((h + h_err, n))
        if bottom_open:
            best_bottom = max(best_bottom, v - v_err)
            bottom.append((v + v_err, n))
    return _Candidates([n for high, n in hyp if high >= best_hyp] + unbounded,
                       [n for high, n in bottom if high >= best_bottom] + unbounded, visited)


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
    p(lambda_n) = C g / (L E^K), Dp = E g / (L E^K).  One scalar float pass
    per trial with proven error bounds (`_trial_candidates`) visits the
    coordinates in decreasing lambda until a monotone tail bound rules out
    the rest, and keeps only those that can hold a maximum, so g and the
    exact floats (`scaled_float` for sqrt(lambda_n) Dp) are computed only on
    those few, and the integers of a coordinate (`_trial_row`) only where
    some trial needs them.  Each (top, bottom) pair's norm is one scalar
    `hypot`, bitwise numpy's.
    """
    polynomials = list(polynomials)
    integers = [p._integers for p in polynomials]
    if any(nums[0] for nums, _ in integers):
        raise ValueError("constant term must vanish; the algebra model is non-unital")
    k = max([0, *(len(nums) - 1 for nums, _ in integers)])
    points, roots = spectrum.values, spectrum.roots
    x = [_quotient_float(lam.numerator, lam.denominator) for lam in points]
    b = [_normal(f) for f in spectrum.root_floats]  # a root is never 0
    unbounded = [n for n, (u, v) in enumerate(zip(x, b)) if math.isnan(u) or math.isnan(v)]
    row = functools.cache(lambda n: _trial_row(points[n], k))
    trials = []
    for nums, den in integers:
        hyp_n, bottom_n, _ = _trial_candidates(*_scaled_coefficients(nums[1:], den), x, b,
                                               unbounded)
        nums, floats = nums[1:], {}
        for n in {*hyp_n, *bottom_n}:
            weights, c, e, scale = row(n)
            g = sum(map(operator.mul, nums, weights))
            floats[n] = scaled_float(roots[n], e * g, den * scale), c * g / (den * scale)
        trials.append(MembershipTrial(0.0, max(hypot(*floats[n]) for n in hyp_n),  # |p(0)| = 0
                                      max(0.0, *(abs(floats[n][1]) for n in bottom_n))))
    return trials
