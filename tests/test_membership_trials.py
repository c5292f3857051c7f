"""The membership trials of `verify weak` against the all-coordinates oracle.

`membership_trials` computes exact floats only at the coordinates where an
error-bounded float estimate leaves room for a trial's maximum, visiting the
coordinates until a monotone tail bound rules out the rest;
`integer_trial_oracle` (tests/oracle_utils.py) computes every float at every
coordinate.  Their bits must agree, the stated error bound must hold at every
coordinate, each tail bound must cover every later coordinate, and inputs the
estimate cannot bound take the full path.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def trial_inputs(s) -> tuple[list[float], list[float]]:
    """The x and b floats `membership_trials` builds for a spectrum."""
    return ([mt._quotient_float(v.numerator, v.denominator) for v in s.values],
            [mt._normal(f) for f in s.root_floats])


def estimates_and_floats(polys, s):
    """Per trial: its scale exponent, and `_coordinate_bounds` with the
    oracle's (top, bottom) floats at each coordinate whose inputs are both in
    the normal range; and the number of those coordinates."""
    x, b = trial_inputs(s)
    safe = [n for n in range(len(s)) if not (math.isnan(x[n]) or math.isnan(b[n]))]
    table = integer_trial_table(build_T(s), s, max(p.degree for p in polys))
    trials = []
    for p in polys:
        nums, den = p._integers
        alphas, shift = mt._scaled_coefficients(nums[1:], den)
        floats = integer_trial_floats(p, table)
        trials.append((shift, [(mt._coordinate_bounds(alphas, shift, x[n], b[n]), floats[n])
                               for n in safe]))
    return trials, len(safe)


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_estimate_bound_holds_at_every_coordinate(case):
    """|estimate - 2^s float| <= err for the norm's hypot and for |bottom| at
    every trial and coordinate, on cancelling and random polynomials, where
    the estimate's own rounding is largest relative to the result."""
    s = SPECTRA[case]
    polys = cancelling_polynomials(s) + (random_polynomials() if case not in LARGE
                                         else cli_polynomials(case)[:10])
    trials, safe = estimates_and_floats(polys, s)
    for shift, rows in trials:
        for (hyp, hyp_err, bottom, bottom_err, *_), (top, bot) in rows:
            # every trial is bounded, those with coefficients below the normal
            # range too (z (z - lambda_m)^k at M = 1023 for large m)
            assert math.isfinite(hyp_err) and math.isfinite(bottom_err)
            assert abs(hyp - np.ldexp(np.hypot(top, bot), shift)) <= hyp_err
            assert abs(bottom - np.ldexp(abs(bot), shift)) <= bottom_err
    assert safe == len(s) - (case == "geometric_half_1023")  # 2^-1023 is subnormal


# z^4 / 2^2000 scales by s > 1023, where the bounds' floor 2^(s-1071) is inf.
OVERFLOWING = Polynomial((0, 0, 0, 0, Fraction(1, 2 ** 2000)))


@st.composite
def tail_cases(draw):
    """A geometric, harmonic or explicit spectrum, the explicit one with
    points above 1, with a subnormal point 2^-1060 appended; random trials
    and one whose bounds overflow."""
    kind = draw(st.sampled_from(["geometric", "harmonic", "explicit"]))
    m = draw(st.integers(1, 24))
    if kind == "geometric":
        ratio = draw(st.sampled_from([Fraction(1, 2), Fraction(9, 10), Fraction(1, 7)]))
        values = list(make_spectrum(kind, m, ratio=ratio).values)
    elif kind == "harmonic":
        values = list(make_spectrum(kind, m).values)
    else:
        points = st.fractions(Fraction(1, 1000), 1000, max_denominator=1000)
        values = sorted(set(draw(st.lists(points, min_size=1, max_size=m))), reverse=True)
    coefficient = st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4)
    polys = draw(st.lists(st.lists(coefficient, min_size=1, max_size=10), min_size=1, max_size=6))
    return (make_spectrum("explicit", values=[*values, Fraction(1, 2 ** 1060)]),
            [*(Polynomial((0, *c)) for c in polys), OVERFLOWING])


@given(case=tail_cases())
@settings(max_examples=80, deadline=None)
def test_tail_bound_covers_every_later_coordinate(case):
    """At every coordinate K with normal inputs, each tail bound is at least
    2^s times the trial's float at every n >= K: the subnormal last point
    and the overflowing trial's coordinates included, compared exactly."""
    s, polys = case
    x, b = trial_inputs(s)
    table = integer_trial_table(build_T(s), s, max(p.degree for p in polys))
    for p in polys:
        nums, den = p._integers
        alphas, shift = mt._scaled_coefficients(nums[1:], den)
        scale = Fraction(2) ** shift
        hyp_after, bottom_after = [Fraction(0)], [Fraction(0)]  # maxima over n >= K, from the end
        for top, bottom in reversed(integer_trial_floats(p, table)):
            hyp_after.append(max(hyp_after[-1], Fraction(float(np.hypot(top, bottom))) * scale))
            bottom_after.append(max(bottom_after[-1], Fraction(abs(bottom)) * scale))
        for k in range(len(s)):
            if math.isnan(x[k]) or math.isnan(b[k]):
                continue
            *_, hyp_tail, bottom_tail = mt._coordinate_bounds(alphas, shift, x[k], b[k])
            for tail, floats in ((hyp_tail, hyp_after), (bottom_tail, bottom_after)):
                assert tail == math.inf if p is OVERFLOWING else tail < math.inf
                assert tail == math.inf or Fraction(tail) >= floats[len(s) - k]


def test_weak_geo64_trials_visit_few_coordinates():
    """The tail bounds close each `verify weak` trial on geometric 1/2 at
    M = 64 after at most 4 of its 64 coordinates, 78 of the 100 after the
    first; each keeps one candidate for its norm, and one for its sup but in
    one trial, which keeps two."""
    s = SPECTRA["geometric_half_64"]
    x, b = trial_inputs(s)
    found = [mt._trial_candidates(*mt._scaled_coefficients(nums[1:], den), x, b, [])
             for nums, den in (p._integers for p in CLI_POLYNOMIALS)]
    assert Counter(c.visited for c in found) == {1: 78, 2: 10, 3: 9, 4: 3}
    assert [len(c.hyp) for c in found] == [1] * 100
    assert sorted(len(c.bottom) for c in found) == [1] * 99 + [2]


def test_tail_closes_only_past_the_coordinate_it_bounds():
    """On lambda = 1, 1/2, 1/100, p = z - 7/10 z^2 has its largest |p| and
    norm block at lambda_2, above those at lambda_1, while the tail bounds at
    lambda_3 already fall below those at lambda_1: the pass visits lambda_2
    before it stops, and keeps it alone."""
    s = make_spectrum("explicit", values=[Fraction(1), Fraction(1, 2), Fraction(1, 100)])
    p = Polynomial((0, 1, Fraction(-7, 10)))
    x, b = trial_inputs(s)
    nums, den = p._integers
    assert mt._trial_candidates(*mt._scaled_coefficients(nums[1:], den), x, b, []) == ([1], [1], 2)
    assert bits(membership_trials([p], s)) == bits(integer_trial_oracle([p], build_T(s), s))


def test_membership_trials_build_no_array_before_the_final_hypot(monkeypatch):
    """The filter and the final norms run on Python floats: with numpy's
    array constructors, `hypot` and `reshape` made to raise, the trials
    still give the oracle's bits."""
    s = SPECTRA["ratio_9_10_256"]
    want = bits(integer_trial_oracle(CLI_POLYNOMIALS, build_T(s), s))

    def refuse(*args, **kwargs):
        raise AssertionError("membership_trials built a numpy array")

    for name in ("array", "asarray", "zeros", "zeros_like", "ones", "ones_like", "empty", "stack",
                 "hypot", "reshape"):
        monkeypatch.setattr(np, name, refuse)
    assert bits(membership_trials(CLI_POLYNOMIALS, s)) == want


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
