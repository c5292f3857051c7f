"""`_rational_linalg` against sympy's exact linear algebra on seeded random
rational matrices: zero rows, rank-deficient, tall, wide and empty inputs.
The functions take integer rows, so each rational row is scaled by the lcm
of its denominators first, which leaves its row space unchanged."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from amenalab import _rational_linalg as rl


def integer_row(row):
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def random_rational(rng, nrows, ncols, rank, zero_rows=0):
    """nrows x ncols with the given rank (at most), built as a product of
    random rational factors, with `zero_rows` rows zeroed."""
    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.7 else Fraction(0)
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = [[sum((a * right[k][j] for k, a in enumerate(row)), Fraction(0))
             for j in range(ncols)] for row in left]
    for i in rng.sample(range(nrows), min(zero_rows, nrows)):
        rows[i] = [Fraction(0)] * ncols
    return rows


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r])


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


SHAPES = [(1, 1, 1, 0), (4, 4, 4, 0), (5, 5, 3, 1), (8, 3, 3, 2), (8, 3, 2, 0),
          (3, 8, 3, 0), (3, 8, 2, 1), (6, 6, 0, 0), (7, 5, 5, 3), (2, 9, 2, 0)]
CASES = [(seed, *shape) for seed in range(4) for shape in SHAPES]


@pytest.mark.parametrize("seed, nrows, ncols, rank, zero_rows", CASES)
def test_rref_matches_sympy(seed, nrows, ncols, rank, zero_rows):
    rng = random.Random(f"rref/{seed}/{nrows}x{ncols}/{rank}")
    rows = random_rational(rng, nrows, ncols, rank, zero_rows)
    want, want_pivots = to_sympy(rows, ncols).rref()
    got, pivots = rl.rref([integer_row(r) for r in rows])
    assert pivots == list(want_pivots)
    assert got == [[from_sympy(x) for x in want.row(i)] for i in range(len(pivots))]
    assert all(type(x) is Fraction for row in got for x in row)


def test_rref_of_empty_inputs():
    assert rl.rref([]) == ([], [])
    assert rl.rref([[], []]) == ([], [])
    assert rl.rref([[0, 0, 0]]) == ([], [])
    assert rl.nullspace([]) == []
    assert rl.nullspace([[0, 0]]) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("seed, nrows, ncols, rank, zero_rows", CASES)
def test_nullspace_matches_sympy(seed, nrows, ncols, rank, zero_rows):
    rng = random.Random(f"null/{seed}/{nrows}x{ncols}/{rank}")
    rows = random_rational(rng, nrows, ncols, rank, zero_rows)
    want = [[from_sympy(x) for x in v] for v in to_sympy(rows, ncols).nullspace()]
    assert rl.nullspace([integer_row(r) for r in rows]) == want


def sympy_solve(basis, target):
    """Coefficients with the free columns zero, from sympy's rref of the
    augmented matrix, or None."""
    size = len(target)
    aug = sympy.Matrix(size, len(basis) + 1,
                       [x for e in range(size) for x in [*(v[e] for v in basis), target[e]]])
    reduced, pivots = aug.rref()
    if len(basis) in pivots:
        return None
    coeffs = [Fraction(0)] * len(basis)
    for r, pc in enumerate(pivots):
        coeffs[pc] = from_sympy(reduced[r, len(basis)])
    return coeffs


@pytest.mark.parametrize("seed", range(8))
def test_solve_in_span_matches_sympy(seed):
    rng = random.Random(f"solve/{seed}")
    s = rng.randint(1, 6)
    size = rng.randint(s + 1, 9)
    independent = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(s)]
    # a dependent vector makes a free column, whose coefficient must be 0
    basis = [*independent, [2 * a - b for a, b in zip(independent[0], independent[-1])]]
    weights = [[rng.randint(-3, 3) for _ in independent] for _ in range(4)]
    inside = [[sum(w * v[e] for w, v in zip(ws, independent)) for e in range(size)]
              for ws in weights]
    outside = [rng.randint(-5, 5) for _ in range(size)]
    got = rl.solve_in_span(basis, inside)
    assert got == [sympy_solve(basis, t) for t in inside]
    for coeffs, target in zip(got, inside):
        assert [sum(c * v[e] for c, v in zip(coeffs, basis)) for e in range(size)] == target
    assert sympy_solve(basis, outside) is None
    assert rl.solve_in_span(basis, [outside]) is None
    assert rl.solve_in_span(basis, [*inside, outside]) is None


def test_solve_in_span_inconsistent_and_empty():
    assert rl.solve_in_span([[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]) is None
    assert rl.solve_in_span([[1, 0, 0], [0, 1, 0]], [[2, 3, 0], [0, 0, 5]]) is None
    assert rl.solve_in_span([[1, 1], [2, 2]], [[3, 3]]) == [[3, 0]]
    assert rl.solve_in_span([], [[0, 0]]) == [[]]
    assert rl.solve_in_span([], [[0, 1]]) is None
    assert rl.solve_in_span([[1, 2]], []) == []


@pytest.mark.parametrize("seed", range(6))
def test_extend_echelon_decides_rank_like_sympy(seed):
    rng = random.Random(f"echelon/{seed}")
    size = rng.randint(2, 8)
    vectors = random_rational(rng, 2 * size, size, rng.randint(1, size), zero_rows=2)
    echelon = {}
    kept = []
    for v in vectors:
        grows = to_sympy([*kept, v], size).rank() > len(kept)
        assert rl.extend_echelon(echelon, integer_row(v)) == grows
        if grows:
            kept.append(v)
    assert len(echelon) == to_sympy(vectors, size).rank()
