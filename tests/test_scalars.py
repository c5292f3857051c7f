import math
import operator
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalab import Surd, exact_sqrt, is_exact_zero, make_spectrum
from amenalab import scalars
from amenalab.scalars import _square_free_split, surd_float
from oracle_utils import to_sympy


def _non_squares(values):
    return [v for v in values
            if math.isqrt(v.numerator) ** 2 != v.numerator
            or math.isqrt(v.denominator) ** 2 != v.denominator]


# Radicands the pipelines meet: points of geometric 1/2 and 9/10 and of harmonic spectra.
RADICANDS = _non_squares(make_spectrum("geometric", 24, ratio=Fraction(1, 2)).values
                         + make_spectrum("geometric", 24, ratio=Fraction(9, 10)).values
                         + make_spectrum("harmonic", 40).values)
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)
nonzero = rationals.filter(bool)


@st.composite
def surd_and_operand(draw):
    """A Surd s sqrt(d) over one of RADICANDS and a nonzero int, Fraction or
    Surd over the same one."""
    d = draw(st.sampled_from(RADICANDS))
    x = Surd(draw(nonzero), d)
    y = draw(st.one_of(st.integers(min_value=-9, max_value=9).filter(bool), nonzero,
                       st.builds(lambda s: Surd(s, d), nonzero)))
    return x, y


def _same_number(got, want) -> bool:
    """Exact: `want` is a polynomial in one square root, which expand makes canonical."""
    return sympy.expand(to_sympy(got) - want) == 0


def _graded(value):
    assert isinstance(value, (int, Fraction, Surd))
    assert not isinstance(value, Surd) or value.s != 0


@settings(max_examples=60, deadline=None)
@given(surd_and_operand())
def test_surd_ring_operations_match_sympy(pair):
    # sums stay in one grade, so only a Surd operand is added
    x, y = pair
    sx, sy = to_sympy(x), to_sympy(y)
    ops = (operator.add, operator.sub, operator.mul) if isinstance(y, Surd) else (operator.mul,)
    for op in ops:
        for got, want in ((op(x, y), op(sx, sy)), (op(y, x), op(sy, sx))):
            _graded(got)
            assert _same_number(got, sympy.expand(want))
    negated = -x
    _graded(negated)
    assert _same_number(negated, -sx)


@settings(max_examples=60, deadline=None)
@given(surd_and_operand())
def test_surd_graded_products_and_sums(pair):
    x, y = pair
    assert 0 + x is x and x + Fraction(0) is x and x - 0 is x
    assert type(x - x) is Fraction and x - x == 0
    if isinstance(y, Surd):
        assert type(x * y) is Fraction and x * y == x.s * y.s * x.d
    else:
        assert type(x * y) is Surd and type(x * 0) is Fraction and x * 0 == 0
        for op in (operator.add, operator.sub):
            for a, b in ((x, y), (y, x)):
                with pytest.raises(ValueError, match="leaves the grading") as info:
                    op(a, b)
                assert "Surd(" in str(info.value) and str(abs(y)) in str(info.value)


@settings(max_examples=60, deadline=None)
@given(surd_and_operand())
def test_surd_division_matches_sympy(pair):
    # q / x is checked as (q / x) * x = q, so the oracle only multiplies
    x, y = pair
    for q in (y, Fraction(0), 1) if not isinstance(y, Surd) else (Fraction(0), 1):
        quotient = q / x
        _graded(quotient)
        assert sympy.expand(to_sympy(quotient) * to_sympy(x) - to_sympy(q)) == 0


@settings(max_examples=60, deadline=None)
@given(surd_and_operand())
def test_surd_equality_and_hash(pair):
    x, y = pair
    twin = Surd(x.s, x.d)
    assert x == twin and hash(x) == hash(twin)
    assert x != -x and x != x * 2
    with pytest.raises(ValueError, match="leaves the grading"):
        x + 1
    assert x != x.s and not is_exact_zero(x)
    assert (x == y) == _same_number(x, to_sympy(y))


@settings(max_examples=100, deadline=None)
@given(surd_and_operand())
def test_surd_float_is_sympy_float_bitwise(pair):
    x, y = pair
    for value in (x, x * y, 1 / x):
        assert float(value) == float(to_sympy(value))


def test_surd_float_of_integer_roots_is_sympy_float():
    # 1/sqrt(1/n) = sqrt(n) is the idempotent symbol of the harmonic spectrum;
    # sympy floats a bare sqrt(n) differently from 1*sqrt(n) (n = 38, 269, ...)
    for n in _non_squares([Fraction(n) for n in range(2, 600)]):
        root = 1 / exact_sqrt(1 / n)
        assert float(root) == float(sympy.sqrt(to_sympy(n)))


def test_surd_float_keeps_sympy_rounding():
    # 37 sqrt(1/2) lies above the midpoint of these two adjacent doubles, so
    # the correctly rounded value is `above`; sympy's float, which the reports
    # carry, is `below`.  Correct rounding would change this test.
    below, above = float.fromhex("0x1.a29b726831d24p+4"), float.fromhex("0x1.a29b726831d25p+4")
    assert math.nextafter(below, math.inf) == above
    midpoint = (Fraction(below) + Fraction(above)) / 2
    assert Fraction(37) ** 2 / 2 > midpoint ** 2
    assert float(37 * exact_sqrt(Fraction(1, 2))) == below


def _sympy_split(d: Fraction) -> tuple[sympy.Rational, int]:
    """sympy's sqrt(d) as c0 * sqrt(n), read off sympy's own expression."""
    c0, root = sympy.sqrt(to_sympy(d)).as_coeff_Mul()
    return c0, int(root.base)


_rng = random.Random(20261018)
# Radicands of the wide float sweep: the pipelines' own, random rationals up to
# 10**30 / 10**30, and integers whose root keeps an n above 2**69, so n is
# truncated before its root is taken.
BIG_N_RADICANDS = [d for d in (Fraction(_rng.randint(2 ** 70, 2 ** 140)) for _ in range(12))
                   if _sympy_split(d)[1] > 2 ** 69]
WIDE_RADICANDS = (RADICANDS + BIG_N_RADICANDS + _non_squares(
    [Fraction(_rng.randint(1, 10 ** 30), _rng.randint(1, 10 ** 30)) for _ in range(24)]))


def _wide_surds(kind: str, d: Fraction, rng: random.Random) -> list[Surd]:
    """Surds over d whose s is drawn from one class of the sweep."""
    sign = rng.choice((-1, 1))
    if kind == "small":
        parts = [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(3)]
    elif kind == "wide":
        parts = [Fraction(rng.randint(1, 2 ** 64), rng.randint(1, 2 ** 64)) for _ in range(3)]
    elif kind == "overflow":
        parts = [Fraction(rng.randint(2 ** 1990, 2 ** 2000), rng.randint(1, 2 ** 20))]
    elif kind == "tiny":
        # |s sqrt(d)| near 2**-(1022 + j): subnormal, or zero for large j
        log_root = (d.numerator.bit_length() - d.denominator.bit_length()) // 2
        parts = [Fraction(rng.randint(2 ** 40, 2 ** 41), 2 ** (1063 + j + log_root))
                 for j in (rng.randint(0, 20), rng.randint(20, 60))]
    elif kind == "root":
        c0, _ = _sympy_split(d)
        return [Surd(Fraction(c0.q, c0.p), d), Surd(Fraction(-c0.q, c0.p), d)]
    return [Surd(sign * s, d) for s in parts]


@pytest.mark.parametrize("kind", ["small", "wide", "overflow", "tiny", "root"])
def test_surd_float_is_sympy_float_on_wide_sweep(kind):
    assert len(BIG_N_RADICANDS) >= 8
    rng = random.Random(kind)
    floats = []
    for d in WIDE_RADICANDS:
        for x in _wide_surds(kind, d, rng):
            got, want = float(x), float(to_sympy(x))
            assert got.hex() == want.hex(), (x, got, want)
            floats.append(got)
    # each class reaches the regime it is meant to cover
    if kind == "overflow":
        assert all(math.isinf(v) for v in floats)
    if kind == "tiny":
        assert all(abs(v) < 4 * sys.float_info.min for v in floats)
        assert 0.0 in floats and any(0 < abs(v) < sys.float_info.min for v in floats)


# Values on which one step of sympy's rounding chain decides the last bit.
# The float would differ from sympy's if n were cut at 70 or at 64 bits
# instead of 69 before its root (first four), if c were rounded up instead of
# toward zero (next three), or if the bare root's n (s = 1/c0) were cut at
# 63 or at 61 bits instead of 62 (last four).
CHAIN_CASES = [
    (Fraction(379520758183864418809698178183), Fraction(771, 71)),
    (Fraction(53037225043435344616959366598), Fraction(121, 102)),
    (Fraction(385354937964560045268233935956), Fraction(95, 42)),
    (Fraction(196743269143094240388837432471), Fraction(547, 99)),
    (Fraction(1, 20), Fraction(207404, 118291)),
    (Fraction(1, 28), Fraction(446253, 230722)),
    (Fraction(1, 536870912), Fraction(56577, 10954)),
    (Fraction(550449089615563499181912469), Fraction(1)),
    (Fraction(69596098560167780882436455), Fraction(1)),
    (Fraction(1094181711566254046587227656), Fraction(1, 2)),
    (Fraction(547917437108059959379322477), Fraction(1)),
]


@pytest.mark.parametrize("d, s", CHAIN_CASES)
def test_surd_float_keeps_each_rounding_step(d, s):
    x = Surd(s, d)
    assert float(x).hex() == float(to_sympy(x)).hex()


def test_surd_float_does_not_run_sympy_evalf(monkeypatch):
    d = Fraction(3, 7)
    c0, _ = _sympy_split(d)
    values = [Surd(s, d) for s in (Fraction(5, 3), Fraction(-2 ** 70, 3 ** 40),
                                      Fraction(c0.q, c0.p), Fraction(1, 10 ** 320))]
    want = [float(to_sympy(x)).hex() for x in values]
    float(exact_sqrt(d))  # the radicand is split once

    def no_evalf(*args, **kwargs):
        raise AssertionError("sympy evalf ran")

    monkeypatch.setattr(sympy.core.evalf, "evalf", no_evalf)
    with pytest.raises(AssertionError, match="evalf ran"):
        float(to_sympy(values[0]))
    assert [float(x).hex() for x in values] == want


def _unreduced_cases():
    """(num, den, d) with num/den not in lowest terms."""
    c0, _ = _sympy_split(Fraction(1, 2))  # sqrt(1/2) = sqrt(2)/2
    cases = [
        (6 * 7, 4 * 7, Fraction(2, 3)),                      # shared factor
        (-35, 10, Fraction(5, 7)),                           # negative numerator
        (3 * int(c0.q), 3 * int(c0.p), Fraction(1, 2)),      # c = 1: the bare root
        (-3 * int(c0.q), 3 * int(c0.p), Fraction(1, 2)),     # c = -1
        (5 * (2 ** 300 + 1), 5 * 3 ** 250, Fraction(7, 11)),  # large denominator
        (2 ** 64 * 9, 2 ** 1100 * 9, Fraction(1, 3)),        # subnormal result
    ]
    rng = random.Random("unreduced")
    for d in RADICANDS:
        k = rng.randint(2, 10 ** 12)
        cases.append((k * rng.randint(-10 ** 20, 10 ** 20), k * rng.randint(1, 10 ** 20), d))
    return [case for case in cases if case[0]]


def test_surd_float_takes_an_unreduced_quotient():
    for num, den, d in _unreduced_cases():
        got = surd_float(num, den, d)
        assert got.hex() == float(Surd(Fraction(num, den), d)).hex(), (num, den, d)
        want = sympy.Rational(num, den) * sympy.sqrt(to_sympy(d))
        assert got.hex() == float(want).hex(), (num, den, d)
    assert surd_float(0, 7, Fraction(1, 2)) == 0.0


def _split_radicands() -> list[Fraction]:
    """Geometric (a/b)**k, harmonic 1/k, random ratios below 10**6 and below
    10**40, squares of primes above 2**15 times small primes, and high
    powers, whose primes each divide out many times."""
    rng = random.Random("split")
    values = [Fraction(a, b) ** k for b in range(2, 21) for a in range(1, b)
              for k in range(1, 13)]
    values += [Fraction(1, k) for k in range(2, 3000)]
    values += [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(400)]
    values += [Fraction(rng.randint(1, 10 ** 40), rng.randint(1, 10 ** 40)) for _ in range(30)]
    values += [Fraction(2 * 40009 ** 2, 3), Fraction(32771 ** 2, 7), Fraction(5, 32779 ** 2 * 3)]
    values += [Fraction(9, 10) ** 1023, Fraction(1, 2) ** 1023, Fraction(3, 7) ** 511,
               Fraction(12, 35) ** 255]
    return sorted(set(_non_squares(values)))


def test_square_free_split_is_sympys(monkeypatch):
    radicands = _split_radicands()
    want = [(int(c0.p), int(c0.q), n) for c0, n in map(_sympy_split, radicands)]
    deferred = []
    sqrt = sympy.sqrt
    monkeypatch.setattr(sympy, "sqrt", lambda x: deferred.append(x) or sqrt(x))
    got = [_square_free_split(d.numerator, d.denominator) for d in radicands]
    assert got == want
    # both paths ran: trial division decided nearly all, sympy the rest
    assert 30 < len(deferred) < len(radicands) // 20


def test_split_defers_two_large_primes_to_sympy(monkeypatch):
    # after trial division, 40009 * 40013 is left: neither 1 nor provably prime
    deferred_d = Fraction(12 * 40009 * 40013, 7)
    # 32771 is left, below the square of the next divisor: prime, no deferral
    trial_d = Fraction(12 * 32771, 7)
    values = {}
    for d in (deferred_d, trial_d):
        c0, _ = _sympy_split(d)
        values[d] = [Surd(s, d) for s in (Fraction(5, 3), Fraction(-2 ** 70, 3 ** 40),
                                          Fraction(c0.q, c0.p), Fraction(1, 10 ** 320))]
    want = {d: [float(to_sympy(x)).hex() for x in xs] for d, xs in values.items()}
    deferred = []
    sqrt = sympy.sqrt
    monkeypatch.setattr(sympy, "sqrt", lambda x: deferred.append(x) or sqrt(x))
    scalars._root_split.cache_clear()
    assert [float(x).hex() for x in values[trial_d]] == want[trial_d]
    assert deferred == []
    assert [float(x).hex() for x in values[deferred_d]] == want[deferred_d]
    assert deferred == [sympy.Rational(deferred_d.numerator, deferred_d.denominator)]


CLI_IMPORT = """
import sys
import amenalab.cli
imported = "sympy" in sys.modules, "sympy.core" in sys.modules
argv = ["verify", "all", "--kind", "harmonic", "--count", "8", "--out", sys.argv[1]]
code = amenalab.cli.main(argv)
print(code, *imported, "sympy" in sys.modules, "sympy.core" in sys.modules)
"""


def test_cli_never_runs_sympy(tmp_path):
    """In a fresh interpreter, `import amenalab.cli` and a full run register
    sympy (the benchmark's tracer wraps one of its names) but never run it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", CLI_IMPORT, str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    # exit 1: the known harmonic kernel_n3 FAIL at the default degrees
    assert out.stdout.splitlines()[-1] == "1 True False True False"


def test_perfect_squares_fold_to_fraction():
    root = exact_sqrt(Fraction(9, 4))
    assert type(root) is Fraction and root == Fraction(3, 2)
    eighth = exact_sqrt(Fraction(1, 8))
    assert eighth == Surd(1, Fraction(1, 8))
    square = eighth * eighth
    assert type(square) is Fraction and square == Fraction(1, 8)
    assert exact_sqrt(0) == 0 and type(exact_sqrt(4)) is Fraction
    difference = eighth - eighth
    assert type(difference) is Fraction and is_exact_zero(difference)


def test_mixing_radicands_raises_value_error():
    half, third = exact_sqrt(Fraction(1, 2)), exact_sqrt(Fraction(1, 3))
    for op in (operator.add, operator.sub, operator.mul, operator.eq):
        with pytest.raises(ValueError, match="radicands differ"):
            op(half, third)


def test_float_operand_raises_type_error():
    x = exact_sqrt(Fraction(1, 2))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError, match="float operand"):
            op(x, 0.5)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError, match="float operand"):
            op(0.5, x)
    for value in (x, Fraction(1, 2)):  # no Surd / x, no power, no float root
        with pytest.raises(TypeError):
            x / value
    with pytest.raises(TypeError):
        x ** 2
    with pytest.raises(TypeError):
        exact_sqrt(0.5)


def test_surd_rejects_invalid_parts():
    with pytest.raises(ValueError, match="s: must be nonzero"):
        Surd(0, 2)
    for d in (Fraction(9, 4), 0, -2):
        with pytest.raises(ValueError, match="not a positive non-square"):
            Surd(1, d)
    with pytest.raises(TypeError):
        Surd(0.5, 2)
    with pytest.raises(ValueError, match="no real square root"):
        exact_sqrt(Fraction(-1, 2))


def test_common_denominator_takes_int_and_fraction_only():
    """Every integer kernel reads its inputs through `_common_denominator`,
    so a float, a string or a Surd there raises TypeError instead of
    entering the exact tier at its binary value."""
    assert scalars._common_denominator([1, Fraction(-1, 6), Fraction(3, 4)]) == ([12, -2, 9], 12)
    for bad in (0.5, "1/2", exact_sqrt(Fraction(2))):
        with pytest.raises(TypeError, match="not an exact rational"):
            scalars._common_denominator([Fraction(1, 3), bad])


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def test_hypot_is_bitwise_numpy_hypot():
    """`scalars.hypot` (the complex abs) gives np.hypot's bits: on random bit
    patterns over the full exponent range (subnormals, inf and nan among
    them), on near-equal pairs, on signed zeros and the float range's ends,
    and where the result overflows to inf.  A nan result is compared as nan."""
    import numpy as np

    rng = np.random.default_rng(30)
    raw = rng.integers(0, 2 ** 64, size=(2, 100_000), dtype=np.uint64).view(np.float64)
    mags = np.ldexp(rng.random((2, 50_000)), rng.integers(-1074, 1025, size=(2, 50_000)))
    near = rng.random(20_000) * 10.0 ** rng.integers(-300, 300, size=20_000)
    tiny, big = 5e-324, sys.float_info.max
    special = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 1e-310, 1.0, -1.0, 1e308,
               -1e308, big, -big, math.inf, -math.inf, math.nan, -math.nan]
    xs = [*raw[0], *mags[0], *near, *np.nextafter(near, np.inf),
          *(a for a in special for _ in special)]
    ys = [*raw[1], *mags[1], *np.nextafter(near, np.inf), *near, *(special * len(special))]
    with np.errstate(all="ignore"):
        want = np.hypot(np.array(xs), np.array(ys)).tolist()
    got = list(map(scalars.hypot, map(float, xs), map(float, ys)))
    assert [_bits(g) for g, w in zip(got, want) if not math.isnan(w)] == [
        _bits(w) for w in want if not math.isnan(w)]
    assert [math.isnan(g) for g in got] == [math.isnan(w) for w in want]
    with pytest.raises(OverflowError):  # the path that `hypot` maps to inf
        abs(complex(big, big))
    assert scalars.hypot(big, big) == scalars.hypot(1.5e308, -1.5e308) == math.inf
    assert scalars.hypot(-0.0, -0.0) == 0.0 and _bits(scalars.hypot(-0.0, -0.0)) == 0
    assert scalars.hypot(math.nan, -math.inf) == math.inf
