"""The integer derivation solver against the Fraction solver it replaced
(`fraction_derivation_space` in oracle_utils): every `DerivationSpace` field
must be equal, entry for entry and as Fractions, and the error inputs must
raise the same exception with the same message.  Floats are refused, and
`verify derivations` eliminates on integer rows only.  The one-generator
dimensions of `derivation_dimensions` are checked against both solvers, and
the pipelines must run without the Leibniz solve."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amenalab._rational_linalg as rl
from amenalab import amenability
from amenalab.amenability import derivation_dimensions, derivation_space
from amenalab.cli import main
from oracle_utils import (_patch_everywhere, derivation_dimension_oracle, diagonal01,
                          fraction_derivation_space, jordan_block, matpow_exact, t_tilde)

J3 = jordan_block(3)
IDENTITY3 = [[int(i == j) for j in range(3)] for i in range(3)]

PIPELINE_CASES = [([diagonal01(mask, dim)], None)
                  for dim in range(1, 5) for mask in range(1, 2 ** dim)]
PIPELINE_CASES += [([jordan_block(size)], None) for size in (2, 3, 4)]

EXTRA_CASES = {
    "J2": ([jordan_block(2)], None),
    "J3": ([J3], None),
    "J4": ([jordan_block(4)], None),
    "2I+N": ([[[2, 1], [0, 2]]], None),
    "jordan+simple": ([[[1, 1, 0], [0, 1, 0], [0, 0, 2]]], None),
    "rational": ([[[Fraction(1, 2), Fraction(-3, 7)], [0, Fraction(5, 3)]]], None),
    "rational-nilpotent": ([[[0, Fraction(2, 3), Fraction(-1, 5)], [0, 0, Fraction(7, 4)],
                             [0, 0, 0]]], None),
    "idempotent-pair": ([[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
                         [[0, 0, 0], [0, 1, 0], [0, 0, 1]]], None),
    "J3,J3^2": ([J3, matpow_exact(J3, 2)], None),
    "numpy-int": ([np.array(jordan_block(3))], None),
    "J2-supplied": ([jordan_block(2)], [jordan_block(2)]),
    "J3-supplied-redundant": ([J3], [IDENTITY3, J3, matpow_exact(J3, 2),
                                     [[2 * x for x in row] for row in J3],
                                     [[a + b for a, b in zip(r, s)]
                                      for r, s in zip(J3, matpow_exact(J3, 2))]]),
    "rational-supplied-redundant": ([[[Fraction(1, 2), 1], [0, Fraction(1, 2)]]],
                                    [[[Fraction(1, 3), 0], [0, Fraction(1, 3)]],
                                     [[0, Fraction(5, 2)], [0, 0]],
                                     [[Fraction(2, 3), Fraction(-5, 4)], [0, Fraction(2, 3)]]]),
    "zero": ([[[0, 0], [0, 0]]], None),
    "zero-supplied": ([[[0, 0], [0, 0]]], [[[1, 0], [0, 1]]]),
}


def assert_same_space(generators, bimodule):
    got = derivation_space(generators, bimodule)
    want = fraction_derivation_space(generators, bimodule)
    assert got.generators == want.generators
    assert got.module_kind == want.module_kind
    assert got.module_basis == want.module_basis
    assert got.basis == want.basis
    assert got.algebra_dim == want.algebra_dim
    matrices = [*got.generators, *got.module_basis, *(m for d in got.basis for m in d)]
    assert all(type(x) is Fraction for m in matrices for row in m for x in row)
    return got


def test_pipeline_cases_match_the_fraction_solver():
    assert len(PIPELINE_CASES) == 29
    for generators, bimodule in PIPELINE_CASES:
        assert_same_space(generators, bimodule)


@pytest.mark.parametrize("name", list(EXTRA_CASES))
def test_extra_cases_match_the_fraction_solver(name):
    assert_same_space(*EXTRA_CASES[name])


@pytest.mark.parametrize("m", range(1, 6))
def test_t_tilde_is_weakly_amenable(m):
    """T~_M generates an M-dimensional algebra with no derivations into itself."""
    space = assert_same_space([t_tilde(m)], None)
    assert (space.dimension, space.algebra_dim) == (0, m)


ERROR_CASES = {
    "no-generators": ([], None),
    "not-square": ([[[1, 2, 3]]], None),
    "not-commuting": ([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], None),
    "module-not-commutative": ([J3], [[[0, 0, 0], [0, 0, 0], [1, 0, 0]]]),
    "module-not-invariant": ([[[1, 0], [0, 0]]], [[[1, 0], [0, 1]]]),
}


@pytest.mark.parametrize("name", list(ERROR_CASES))
def test_error_inputs_match_the_fraction_solver(name):
    generators, bimodule = ERROR_CASES[name]
    with pytest.raises(Exception) as want:
        fraction_derivation_space(generators, bimodule)
    with pytest.raises(Exception) as got:
        derivation_space(generators, bimodule)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("generators, bimodule", [
    ([[[0.5, 0], [0, 0]]], None),
    ([np.eye(2)], None),
    ([jordan_block(2)], [[[0, 1.0], [0, 0]]]),
    ([[["1/2", 0], [0, 0]]], None),
], ids=["float", "numpy-float", "float-module", "str"])
def test_floats_never_enter_the_exact_solver(generators, bimodule):
    with pytest.raises(TypeError, match="matrix entry"):
        derivation_space(generators, bimodule)


def test_matrices_of_different_sizes_are_refused():
    with pytest.raises(ValueError, match="one size"):
        derivation_space([jordan_block(2), jordan_block(3)])
    with pytest.raises(ValueError, match="one size"):
        derivation_space([jordan_block(2)], bimodule=[J3])


def test_verify_derivations_eliminates_on_integers(tmp_path, monkeypatch):
    """A regression to Fraction elimination hands the echelon (`rl._reduce`,
    which `derivation_dimensions` reduces each power with) Fraction entries."""
    seen = []
    reduce = rl._reduce

    def spy(v, rows):
        seen.append({type(x) for x in v} | {type(x) for row in rows.values() for x in row})
        return reduce(v, rows)

    monkeypatch.setattr(rl, "_reduce", spy)
    assert main(["verify", "derivations", "--out", str(tmp_path)]) == 0
    assert len(seen) >= 29
    assert set().union(*seen) == {int}


# --- one generator: the dimensions from the minimal polynomial --------------------

ENTRIES = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def upper_triangular(draw, max_size=5):
    """An upper-triangular matrix of size 1 to max_size with int or Fraction
    entries: zero, nilpotent, invertible, a direct sum of Jordan blocks, or a
    random diagonal over a pool of three eigenvalues (so repeated ones)."""
    n = draw(st.integers(1, max_size))
    shape = draw(st.sampled_from(["zero", "nilpotent", "invertible", "jordan", "mixed"]))
    pool = draw(st.lists(ENTRIES.filter(lambda x: shape != "invertible" or x != 0),
                         min_size=3, max_size=3))
    diag = [0 if shape in ("zero", "nilpotent") else draw(st.sampled_from(pool))
            for _ in range(n)]
    if shape == "jordan":  # blocks of equal eigenvalues, 1 on their superdiagonals
        cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
        starts = sorted({0, *cuts})
        ends = starts[1:] + [n]
        for a, b in zip(starts, ends):
            diag[a:b] = [diag[a]] * (b - a)
        upper = {(i, i + 1): int(i + 1 not in cuts) for i in range(n - 1)}
    else:
        upper = {(i, j): 0 if shape == "zero" else draw(st.one_of(st.just(0), ENTRIES))
                 for i in range(n) for j in range(i + 1, n)}
    return [[diag[i] if i == j else upper.get((i, j), 0) for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(upper_triangular(), st.fractions(-5, 5, max_denominator=6).filter(lambda c: c != 0))
@example([[0, 0], [0, 0]], Fraction(3))
@example([[2, 1, 0], [0, 2, 1], [0, 0, 2]], Fraction(-1, 2))  # one invertible Jordan block
@example([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], Fraction(2))  # mixed Jordan
@example([[1, 0, 0], [0, 1, 0], [0, 0, 0]], Fraction(1, 3))  # an idempotent
def test_derivation_dimensions_equal_the_leibniz_solve(x, c):
    """`derivation_dimensions(X)` is (dimension, algebra_dim) of the Leibniz
    solve `derivation_space([X])`, and the same for cX."""
    space = derivation_space([x])
    assert derivation_dimensions(x) == (space.dimension, space.algebra_dim)
    assert derivation_dimensions([[c * v for v in row] for row in x]) == derivation_dimensions(x)


@settings(max_examples=25, deadline=None)
@given(upper_triangular(max_size=3))
@example([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
@example([[1, 1], [0, 1]])
def test_derivation_dimensions_equal_the_brute_force_oracle(x):
    """The derivation dimension against the sympy brute force over Hom(A, A)."""
    assert derivation_dimensions(x)[0] == derivation_dimension_oracle(x)


@pytest.mark.parametrize("m, want", [(1, (0, 1)), (4, (0, 4)), (8, (0, 8))])
def test_t_tilde_dimensions(m, want):
    """T~_M, the paper's operator: no derivations on an algebra of dimension M."""
    assert derivation_dimensions(t_tilde(m)) == want


def test_derivation_dimensions_refuse_inexact_and_non_square_input():
    with pytest.raises(TypeError, match="matrix entry"):
        derivation_dimensions([[0.5, 0], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        derivation_dimensions([[1, 2, 3]])


def test_derivations_pipelines_run_without_the_leibniz_solver(monkeypatch, tmp_path, capsys):
    """`verify derivations` and `verify all --kind harmonic --count 8` with
    `derivation_space`, `rl.nullspace` and `rl.solve_in_span` made to raise, in
    every amenalab namespace: the exit code, stdout and report bytes equal
    those of an unpatched run."""
    argvs = [["verify", "derivations"], ["verify", "all", "--kind", "harmonic", "--count", "8"]]

    def outcome(argv, out):
        code = main([*argv, "--out", str(out)])
        return (code, capsys.readouterr().out,
                {p.name: p.read_bytes() for p in sorted(out.iterdir())})

    want = [outcome(argv, tmp_path / f"plain{i}") for i, argv in enumerate(argvs)]
    for owner, name in ((amenability, "derivation_space"), (rl, "nullspace"),
                        (rl, "solve_in_span")):
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} ran on a pipeline path")

        _patch_everywhere(monkeypatch, getattr(owner, name), refuse)
    assert [outcome(argv, tmp_path / f"patched{i}") for i, argv in enumerate(argvs)] == want
