import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from amenalab import (DiagonalOperator, build_T, conjugate_by_upper_unipotent,
                      exact_sqrt, make_spectrum, minimal_intertwiner,
                      similarity_growth_sweep)
from oracle_utils import count_calls, spectrum_floats


def test_conjugation_by_zero_is_identity():
    s = make_spectrum("geometric", 3)
    T = build_T(s)
    out = conjugate_by_upper_unipotent(T, DiagonalOperator.zeros(3))
    assert (out - T).is_zero()


def test_conjugation_single_point_hand_value():
    s = make_spectrum("explicit", values=[Fraction(1, 4)])
    T = build_T(s)
    out = conjugate_by_upper_unipotent(T, DiagonalOperator((Fraction(-2),)))
    assert out.b12.diag == (Fraction(0),)
    assert out.b22.diag == (Fraction(1, 4),)
    assert out.b11.is_zero()


def test_conjugation_matches_dense_oracle():
    rng = np.random.default_rng(12)
    s = make_spectrum("geometric", 4)
    T = build_T(s).to_float()
    B = DiagonalOperator(tuple(rng.standard_normal(4)))
    out = conjugate_by_upper_unipotent(T, B)
    m = 4
    S = np.eye(2 * m)
    S_inv = np.eye(2 * m)
    for i in range(m):
        S[i, m + i] = B.diag[i]
        S_inv[i, m + i] = -B.diag[i]
    expected = S @ T.to_dense() @ S_inv
    assert np.max(np.abs(out.to_dense() - expected)) < 1e-12
    # upper-right block is the square-root block plus B N, entrywise
    for lam, b, x12 in zip(spectrum_floats(s), B.diag, out.b12.diag):
        assert x12 == pytest.approx(math.sqrt(lam) + b * lam, abs=1e-12)


def test_conjugation_keeps_lower_blocks():
    s = make_spectrum("geometric", 5)
    T = build_T(s)
    out = conjugate_by_upper_unipotent(T, DiagonalOperator(tuple(r * Fraction(1, 7)
                                                                 for r in s.roots)))
    assert (out.b22 - T.b22).is_zero()
    # the upper-right block stays graded: sqrt(lambda) (1 + lambda / 7)
    assert out.b12.diag == tuple(r * (1 + lam / 7) for r, lam in zip(s.roots, s.values))


def test_minimal_intertwiner_frozen_values():
    s = make_spectrum("explicit", values=[Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
    solve = minimal_intertwiner(s)
    assert solve.norm == pytest.approx(math.sqrt(8), abs=1e-12)
    assert solve.residual == 0.0
    unit = minimal_intertwiner(make_spectrum("explicit", values=[Fraction(1)]))
    assert unit.norm == 1.0
    large = minimal_intertwiner(make_spectrum("geometric", 20))
    assert large.norm == pytest.approx(1024.0, abs=1e-9)


def test_minimal_intertwiner_least_squares_oracle():
    s = make_spectrum("geometric", 5)
    n_dense = np.diag(spectrum_floats(s))
    root = np.diag(np.sqrt(spectrum_floats(s)))
    # solve B N = N^(1/2) as a full linear system over all of B
    system = np.kron(n_dense.T, np.eye(5))
    solution, *_ = np.linalg.lstsq(system, root.ravel(), rcond=None)
    oracle_norm = np.linalg.norm(solution.reshape(5, 5), 2)
    assert minimal_intertwiner(s).norm == pytest.approx(oracle_norm, abs=1e-10)


def test_growth_sweep_geometric():
    report, _ = similarity_growth_sweep(make_spectrum("geometric", 16), [4, 8, 16])
    assert report.rows == ((4, 4.0), (8, 16.0), (16, 256.0))
    assert report.bounded  # strictly increasing
    assert report.threshold_met and report.tolerance == 0.0  # the sweep has no threshold


def test_growth_sweep_harmonic():
    report, _ = similarity_growth_sweep(make_spectrum("harmonic", 20), [4, 16])
    assert report.rows == ((4, 2.0), (16, 4.0))
    assert report.bounded


def test_growth_sweep_singleton():
    report, _ = similarity_growth_sweep(make_spectrum("geometric", 6), [6])
    assert report.bounded and report.rows == ((6, 8.0),)


# the mixed-grade spectrum of the CI smoke: rational roots at 1, 1/4, 1/9,
# 1/16, and sqrt(2) shared by 2/9 and 1/18
MIXED = make_spectrum("explicit", values=[Fraction(v) for v in (
    "1", "1/2", "1/3", "1/4", "2/9", "1/9", "1/16", "1/18")])


SWEEP_CASES = [
    (make_spectrum("harmonic", 16), [4, 16]),
    (make_spectrum("geometric", 100, ratio=Fraction(9, 10)), [4, 8, 16, 20, 100]),
    (MIXED, [1, 2, 5, 8]),
]


def test_growth_sweep_collects_each_solve():
    """One solve on the whole spectrum: each row's norm is bitwise the norm
    of the solve on that truncation alone, and the residual is zero."""
    for spectrum, truncations in SWEEP_CASES:
        report, solve = similarity_growth_sweep(spectrum, truncations)
        assert solve.truncation == len(spectrum) and solve.residual == 0.0
        prefixes = [make_spectrum("explicit", values=spectrum.values[:m]) for m in truncations]
        assert list(report.rows) == [(m, minimal_intertwiner(p).norm)
                                     for m, p in zip(truncations, prefixes)]
        assert all(type(norm) is float for _, norm in report.rows)


def test_growth_sweep_floats_each_entry_once(monkeypatch):
    """The sweep floats each intertwiner entry once, for the prefix maxima,
    and none of the exact zeros of the residual: M `to_float` calls (3M
    before).  The solve's norm is bitwise `DiagonalOperator.norm` of its B,
    and each prefix maximum that of B's prefix."""
    spectrum = make_spectrum("harmonic", 1024)
    calls = count_calls(monkeypatch, "amenalab.scalars", "to_float")
    report, solve = similarity_growth_sweep(spectrum, [64, 256, 1024])
    assert calls[0] == 1024
    monkeypatch.undo()
    diag = solve.intertwiner.diag
    assert solve.residual == 0.0 and solve.norm.hex() == solve.intertwiner.norm().hex()
    for m in (1, 2, 64, 1000, 1024):
        assert solve.prefix_norms[m - 1].hex() == DiagonalOperator(diag[:m]).norm().hex()
    assert [norm for _, norm in report.rows] == [solve.prefix_norms[m - 1] for m in (64, 256, 1024)]


def test_verify_similarity_solves_each_truncation_once(monkeypatch, tmp_path, capsys):
    """Every truncation is a prefix of the largest, so one solve, at the
    largest, serves them all."""
    from amenalab.cli import main

    calls = []

    def counted(spectrum):
        calls.append(len(spectrum))
        return minimal_intertwiner(spectrum)

    for name, module in list(sys.modules.items()):  # every namespace that binds it
        if name.startswith("amenalab") and getattr(module, "minimal_intertwiner", None) \
                is minimal_intertwiner:
            monkeypatch.setattr(module, "minimal_intertwiner", counted)
    assert main(["verify", "similarity", "--out", str(tmp_path)]) == 0
    assert "[PASS] similarity.exact_solve" in capsys.readouterr().out
    assert calls == [20]  # the largest default truncation


def test_verify_similarity_builds_each_spectrum_once(monkeypatch, tmp_path, capsys):
    """One spectrum that validates the config and one at the largest
    truncation, and each sqrt(lambda_n) once: the sweep, the conjugation
    check and its negative inverse root all read that spectrum's roots."""
    from amenalab.cli import main

    spectra = count_calls(monkeypatch, "amenalab.spectrum", "make_spectrum")
    roots = count_calls(monkeypatch, "amenalab.scalars", "exact_sqrt")
    assert main(["verify", "similarity", "--out", str(tmp_path)]) == 0
    assert "[PASS] similarity.conjugation_zeroing" in capsys.readouterr().out
    assert spectra[0] == 2
    assert roots[0] == 20


def test_growth_sweep_validation():
    s = make_spectrum("geometric", 8)
    with pytest.raises(ValueError, match="truncations"):
        similarity_growth_sweep(s, [8, 4])
    with pytest.raises(ValueError, match="truncations"):
        similarity_growth_sweep(s, [])
    for truncations in ([4, 9], [0, 4]):  # past the spectrum's end, or below 1
        with pytest.raises(ValueError, match="truncations"):
            similarity_growth_sweep(s, truncations)


def test_conjugation_zeroing_with_negative_inverse_root():
    s = make_spectrum("geometric", 6)
    B = DiagonalOperator(tuple(-1 / exact_sqrt(v) for v in s.values))
    out = conjugate_by_upper_unipotent(build_T(s), B)
    assert out.b12.is_zero()
    assert (out.b22 - s.diagonal()).is_zero()
