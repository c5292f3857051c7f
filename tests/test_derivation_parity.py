"""The integer derivation solver against the Fraction solver it replaced
(`fraction_derivation_space` in oracle_utils): every `DerivationSpace` field
must be equal, entry for entry and as Fractions, and the error inputs must
raise the same exception with the same message.  Floats are refused, and
`verify derivations` eliminates on integer rows only."""

from fractions import Fraction

import numpy as np
import pytest

import amenalab._rational_linalg as rl
from amenalab.amenability import derivation_space
from amenalab.cli import main
from oracle_utils import (diagonal01, fraction_derivation_space, jordan_block, matpow_exact,
                          t_tilde)

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
    """A regression to Fraction elimination hands `rref` Fraction entries."""
    seen = []
    rref = rl.rref

    def spy(rows):
        seen.append({type(x) for row in rows for x in row})
        return rref(rows)

    monkeypatch.setattr(rl, "rref", spy)
    assert main(["verify", "derivations", "--out", str(tmp_path)]) == 0
    assert len(seen) >= 29
    assert set().union(*seen) == {int}
