"""The membership trials of `verify weak` against the all-coordinates oracle.

`membership_trials` computes exact floats only at the coordinates where an
error-bounded float estimate leaves room for a trial's maximum;
`integer_trial_oracle` (tests/oracle_utils.py) computes every float at every
coordinate.  Their bits must agree, the stated error bound must hold at every
coordinate, and inputs the estimate cannot bound take the full path.
"""

from fractions import Fraction

import numpy as np
import pytest

import amenalab.membership as mt
from amenalab import Polynomial, build_T, make_spectrum
from amenalab.membership import membership_trials
from amenalab.cli import _membership_polynomials
from oracle_utils import (count_calls, integer_trial_floats, integer_trial_oracle,
                          integer_trial_table, reference_trial)

CLI_POLYNOMIALS = list(_membership_polynomials())

# Geometric 1/2 has a rational root at every even n, and at M = 1023 its last
# point 2^-1023 is subnormal; ratio 9/10 reaches denominators of 10^256 and
# harmonic 1024 the CI scale; the explicit spectrum has points above 1.
SPECTRA = {
    "geometric_half_64": make_spectrum("geometric", 64),
    "geometric_half_1023": make_spectrum("geometric", 1023),
    "ratio_9_10_16": make_spectrum("geometric", 16, ratio=Fraction(9, 10)),
    "ratio_9_10_256": make_spectrum("geometric", 256, ratio=Fraction(9, 10)),
    "harmonic_64": make_spectrum("harmonic", 64),
    "harmonic_1024": make_spectrum("harmonic", 1024),
    "explicit_above_one": make_spectrum("explicit", values=[Fraction(v) for v in (
        "7", "3", "2", "1", "1/2", "2/9", "1/16", "1/18")]),
}
LARGE = {"geometric_half_1023", "ratio_9_10_256", "harmonic_1024"}


def bits(trials):
    return [float(v).hex() for trial in trials for v in trial]


def cli_polynomials(case: str) -> list[Polynomial]:
    """The trials of `verify weak`; a 10-trial slice at M = 1023."""
    return CLI_POLYNOMIALS[:10] if case == "geometric_half_1023" else CLI_POLYNOMIALS


def cancelling_polynomials(s) -> list[Polynomial]:
    """z (z - lambda_m)^k, whose terms cancel near lambda_m, and the tie
    z (z - lambda_1 - lambda_2), with |p(lambda_1)| = |p(lambda_2)|."""
    polys = [Polynomial((0, -s.lam(1) - s.lam(2), 1))]
    for m in sorted({1, 2, len(s) // 2, len(s)}):
        for k in (1, 2, 5, 12):
            p = Polynomial.monomial(1)
            for _ in range(k):
                p = p * Polynomial((-s.lam(m), 1))
            polys.append(p)
    return polys


def random_polynomials() -> list[Polynomial]:
    """Degrees 1-16 with wide coefficients, some of them zero."""
    rng = np.random.default_rng(20261019)
    return [Polynomial((0, *(Fraction(int(rng.integers(-10 ** 6, 10 ** 6)) * (rng.random() < 0.8),
                                      int(rng.integers(1, 10 ** 4))) for _ in range(degree))))
            for degree in range(1, 17)]


def polynomials(case: str, source: str) -> list[Polynomial]:
    s = SPECTRA[case]
    return {"cli": cli_polynomials(case), "cancelling": cancelling_polynomials(s),
            "random": random_polynomials()}[source]


CASES = [(case, source) for case in sorted(SPECTRA)
         for source in (("cli", "cancelling") if case in LARGE else ("cli", "cancelling", "random"))]


@pytest.mark.parametrize("case, source", CASES)
def test_trials_bitwise_equal_the_all_coordinates_oracle(case, source, monkeypatch):
    s = SPECTRA[case]
    T = build_T(s)
    polys = polynomials(case, source)
    want = integer_trial_oracle(polys, T, s)
    rows = count_calls(monkeypatch, "amenalab.membership", "_trial_row")
    got = membership_trials(polys, s)
    assert bits(got) == bits(want)
    assert all(trial.residual == 0.0 for trial in got)
    if source == "cli" and len(s) >= 64:
        assert rows[0] <= len(s) // 8  # most coordinates never get their integers


def estimates_and_floats(polys, s):
    """(`_trial_estimates` on the inputs `membership_trials` builds, the
    oracle's (top, bottom) floats as trials x coordinates arrays, each
    trial's scale exponent, the mask of coordinates with both inputs in the
    normal range)."""
    T = build_T(s)
    k = max(p.degree for p in polys)
    alphas = np.zeros((len(polys), k))
    shifts = np.zeros(len(polys), dtype=int)
    for t, p in enumerate(polys):
        nums, den = p._integers
        alphas[t, :len(nums) - 1], shifts[t] = mt._scaled_coefficients(nums[1:], den)
    x = np.array([mt._quotient_float(v.numerator, v.denominator) for v in s.values])
    b = np.array([mt._normal(f) for f in s.root_floats])
    safe = ~(np.isnan(x) | np.isnan(b))
    table = integer_trial_table(T, s, k)
    floats = np.array([integer_trial_floats(p, table) for p in polys])[:, safe]
    return mt._trial_estimates(alphas, shifts, x[safe], b[safe]), floats, shifts, safe


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_estimate_bound_holds_at_every_coordinate(case):
    """|estimate - 2^s float| <= err for the norm's hypot and for |bottom| at
    every trial and coordinate, on cancelling and random polynomials, where
    the estimate's own rounding is largest relative to the result."""
    s = SPECTRA[case]
    polys = cancelling_polynomials(s) + (random_polynomials() if case not in LARGE
                                         else cli_polynomials(case)[:10])
    ((hyp, hyp_err), (bottom, bottom_err)), floats, shifts, safe = estimates_and_floats(polys, s)
    tops, bottoms = floats[..., 0], floats[..., 1]
    # every trial is bounded, those with coefficients below the normal range
    # too (z (z - lambda_m)^k at M = 1023 for large m)
    assert np.isfinite(hyp_err).all() and np.isfinite(bottom_err).all()
    scale = shifts[:, None]
    assert (np.abs(hyp - np.ldexp(np.hypot(tops, bottoms), scale)) <= hyp_err).all()
    assert (np.abs(bottom - np.ldexp(np.abs(bottoms), scale)) <= bottom_err).all()
    assert safe.sum() == len(s) - (case == "geometric_half_1023")  # 2^-1023 is subnormal


@pytest.mark.parametrize("case", ["geometric_half_64", "ratio_9_10_16", "harmonic_64",
                                  "explicit_above_one"])
def test_tie_polynomial_gives_the_oracle_bits(case):
    s = SPECTRA[case]
    T = build_T(s)
    tie = Polynomial((0, -s.lam(1) - s.lam(2), 1))
    assert abs(tie(s.lam(1))) == abs(tie(s.lam(2)))
    assert bits(membership_trials([tie], s)) == bits(integer_trial_oracle([tie], T, s))


def test_no_polynomials_and_the_zero_polynomial():
    s = make_spectrum("harmonic", 8)
    T = build_T(s)
    assert membership_trials([], s) == []
    zero = Polynomial(())
    # K = 0: no trial has a coefficient past the constant
    assert membership_trials([zero, zero], s) == [(0.0, 0.0, 0.0)] * 2
    polys = [zero, CLI_POLYNOMIALS[0], zero]
    got = membership_trials(polys, s)
    assert got[0] == got[2] == (0.0, 0.0, 0.0)
    assert bits(got) == bits(integer_trial_oracle(polys, T, s))


# Inputs the estimate cannot bound, each with finite exact floats: scaled by
# 2^2000 to the coefficient 1, 2^-2000 z^4 has the Horner estimate
# lambda_1^4 = 2^1200 at lambda_1 = 2^300, while its floats are 2^-800 and
# 2^-950; at lambda_1 = 2^400, z (z - lambda_1)^2 vanishes but its error
# bound, of order lambda_1^3, overflows; and a coefficient beyond the float
# range, scaled to 1, leaves estimates that underflow at points near 10^-300.
OUT_OF_RANGE = {
    "bound_overflows": (make_spectrum("explicit", values=[Fraction(2 ** 400), Fraction(1, 2)]),
                        Polynomial((0, 2 ** 800, -2 ** 401, 1))),
    "estimate_overflows": (make_spectrum("explicit", values=[Fraction(2 ** 300), Fraction(1, 2)]),
                           Polynomial((0, 0, 0, 0, Fraction(1, 2 ** 2000)))),
    "coefficient_overflows": (make_spectrum("explicit", values=[Fraction(1, 10 ** 300),
                                                                Fraction(1, 10 ** 301)]),
                              Polynomial((0, 0, 10 ** 400))),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_estimates_take_the_full_path(case, monkeypatch):
    s, p = OUT_OF_RANGE[case]
    T = build_T(s)
    polys = [Polynomial((0, 1, 1)), p]
    want = integer_trial_oracle(polys, T, s)
    assert all(np.isfinite(v) for trial in want for v in trial)
    rows = count_calls(monkeypatch, "amenalab.membership", "_trial_row")
    assert bits(membership_trials(polys, s)) == bits(want)
    assert rows[0] == len(s)  # the out-of-range trial computed every coordinate


# Trials whose coefficients leave the normal range unscaled: 6 of the
# cancelling polynomials at M = 1023 and one whose coefficients span 2^1063,
# each with a coefficient below it, and one with coefficients of 1.5e308,
# whose unscaled estimate overflowed at lambda_1 = 1/4.
SCALED = {
    "coefficient_subnormal": (make_spectrum("harmonic", 6),
                              [Polynomial((0, Fraction(1, 10 ** 320), 1))]),
    "coefficient_huge": (make_spectrum("geometric", 6, ratio=Fraction(1, 4)),
                         [Polynomial((0, 15 * 10 ** 307, 15 * 10 ** 307))]),
    "geometric_half_1023": (SPECTRA["geometric_half_1023"],
                            [p for p in cancelling_polynomials(SPECTRA["geometric_half_1023"])
                             if any(c and abs(c) < 2.0 ** -1022 for c in p.coefficients)]),
}


@pytest.mark.parametrize("case", sorted(SCALED))
def test_scaled_coefficients_keep_few_coordinates(case, monkeypatch):
    """Scaled by a power of two to a largest coefficient near 1, and floated
    below the normal range too, a trial's coefficients get a proven bound,
    so it computes its exact floats at a few coordinates only; each float is
    bitwise the composition's (`reference_trial`; at M = 1023 for the
    trials up to degree 6, since composing one of degree 13 takes up to
    1.7 s, and the all-coordinates oracle checks them all above)."""
    spectrum, trials = SCALED[case]
    T = build_T(spectrum)
    assert len(trials) == (6 if case == "geometric_half_1023" else 1)
    rows = count_calls(monkeypatch, "amenalab.membership", "_trial_row")
    got = membership_trials(trials, spectrum)
    assert rows[0] <= 2 * len(trials) < len(spectrum)
    monkeypatch.undo()
    for p, trial in zip(trials, got):
        if p.degree <= 6:
            assert bits([trial]) == bits([reference_trial(p, T, spectrum)])
