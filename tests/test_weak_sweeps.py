"""The per-coordinate sweeps behind `verify weak` and the shared interval sups
of `verify character`.

The report rows must equal, bit for bit, the dense definitions taken one n
or one m at a time; the expected values here come only from `idempotent_E`,
`idempotent_partial_sum` and `generation_defect`, and for the membership
trials from the composition `reference_trial` (tests/oracle_utils.py).
Work is guarded by deterministic call counts rather than timings.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

import amenalab.amenability as am
from amenalab import (Polynomial, build_T, generation_defect, idempotent_E,
                      idempotent_partial_sum, make_spectrum, operator_norm)
from amenalab.amenability import generation_sweep, idempotency_sweep
from amenalab.membership import membership_trials
from amenalab.scalars import to_float
from amenalab.spectrum import BlockOperator, DiagonalOperator
from amenalab.cli import (MEMBERSHIP_SEED, MEMBERSHIP_TRIALS, _membership_draws,
                          _membership_polynomials, main)
from oracle_utils import (count_calls, count_method_calls, fraction_membership_polynomials,
                          record_calls, reference_trial)

EXPLICIT = ("9/10", "1/2", "1/4", "1/7", "1/100")  # 1/4 has a rational root

SPECTRA = {
    "geometric_half_16": (["--count", "16"], make_spectrum("geometric", 16)),
    "harmonic_16": (["--kind", "harmonic", "--count", "16"], make_spectrum("harmonic", 16)),
    "ratio_9_10_12": (["--ratio", "9/10", "--count", "12"],
                      make_spectrum("geometric", 12, ratio=Fraction(9, 10))),
    "explicit_5": (None, make_spectrum("explicit", values=[Fraction(v) for v in EXPLICIT])),
    "single": (["--count", "1"], make_spectrum("geometric", 1)),
}


def bits(values):
    return [float(v).hex() for v in values]


def weak_rows(case: str, tmp_path) -> dict[str, list]:
    argv, _ = SPECTRA[case]
    if argv is None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spectrum": {"kind": "explicit", "values": list(EXPLICIT)}}))
        argv = ["--config", str(cfg)]
    out_dir = tmp_path / "reports"
    main(["verify", "weak", *argv, "--format", "json", "--out", str(out_dir)])
    return {stem: json.loads((out_dir / f"{stem}.json").read_text())["rows"]
            for stem in ("weak_idempotency", "weak_generation")}


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_weak_rows_bitwise_equal_dense_definitions(case, tmp_path, capsys):
    s = SPECTRA[case][1]
    m = len(s)
    rows = weak_rows(case, tmp_path)
    out = capsys.readouterr().out
    assert f"exact zeros {m}/{m}" in out and "exact reconstruction: True" in out

    e = [idempotent_E(n, s) for n in range(1, m + 1)]
    defects = [(x @ x) - x for x in e]
    idem = rows["weak_idempotency"]
    assert [r[0] for r in idem] == list(range(1, m + 1))
    assert bits(r[1] for r in idem) == bits(operator_norm(d.to_float()) for d in defects)
    assert bits(r[2] for r in idem) == bits(operator_norm(x.to_float()) for x in e)

    gen = rows["weak_generation"]
    assert [r[0] for r in gen] == list(range(1, m + 1))
    assert bits(r[1] for r in gen) == bits(generation_defect(k, s) for k in range(1, m + 1))
    assert bits(r[2] for r in gen) == bits(operator_norm(idempotent_partial_sum(k, s).to_float())
                                           for k in range(1, m + 1))

    # the exact flags agree with the dense operators too
    assert idempotency_sweep(s).exact == tuple(d.is_zero() for d in defects)


def test_generation_sweep_sees_a_broken_reconstruction(monkeypatch):
    """With one partial-sum entry perturbed, the exact flag drops and the
    defects still equal the dense values on the perturbed operators."""
    s = make_spectrum("harmonic", 6)
    honest = am.idempotent_partial_sum

    def perturbed(m, spectrum):  # S_m with coordinate 3 off by a factor 1001/1000 once m >= 3
        x = honest(m, spectrum)
        if m < 3:
            return x
        top = list(x.b12.diag)
        top[2] *= Fraction(1001, 1000)
        return BlockOperator(x.b11, DiagonalOperator(tuple(top)), x.b22)

    monkeypatch.setattr(am, "idempotent_partial_sum", perturbed)
    sweep = generation_sweep(s)
    assert not sweep.reconstructed
    assert bits(sweep.defects) == bits(generation_defect(k, s) for k in range(1, 7))
    assert bits(sweep.partial_norms) == bits(operator_norm(perturbed(k, s).to_float())
                                             for k in range(1, 7))


def test_verify_weak_work_is_linear_in_M(monkeypatch, tmp_path, capsys):
    """Each sqrt(lambda_n) is taken once per spectrum and each polynomial is
    put over its common denominator once.  The dense per-n loops made 27,264
    exact_sqrt calls and 6,600 common-denominator calls at M = 64."""
    m = 64
    sqrt_calls = count_calls(monkeypatch, "amenalab.scalars", "exact_sqrt")
    den_calls = count_calls(monkeypatch, "amenalab.scalars", "_common_denominator")
    assert main(["verify", "weak", "--count", str(m), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sqrt_calls[0] <= 2 * m
    assert den_calls[0] <= 4 * m


def test_verify_weak_trials_share_one_weight_table(monkeypatch, tmp_path, capsys):
    """The 100 membership trials pass without a Horner pass or a composition:
    each trial takes dot products only at the coordinates that its float
    estimate leaves as candidates for a maximum, with weights built once per
    coordinate that some trial needs: 3 of the 64.  They made 6,400 Horner
    passes at M = 64, each rebuilding the powers of the coordinate's
    denominator, and then built the weights of all 64."""
    m = 64
    horner = count_calls(monkeypatch, "amenalab.spectrum", "_divided_numerators")
    weights = count_calls(monkeypatch, "amenalab.membership", "_trial_weights")
    compositions = count_calls(monkeypatch, "amenalab.spectrum", "apply_poly_to_block")
    assert main(["verify", "weak", "--count", str(m), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert horner[0] == 0
    assert compositions[0] == 0
    assert weights[0] == 3


def test_verify_weak_floats_each_exact_number_once(monkeypatch, tmp_path, capsys):
    """T is read from its spectrum, each root floated once (`root_floats`),
    and each E_n is checked at its own coordinate.  At M = 64 the 32
    irrational roots and the 32 irrational 1/sqrt(lambda_n) are floated
    once each, plus the trials' 98 candidate floats: 162 `surd_float` calls.
    Each irrational root was floated three times (T's block, S_M's block
    and the trials' b), 226 calls, and U and U @ U - U were built."""
    m = 64
    surd_floats = count_calls(monkeypatch, "amenalab.scalars", "surd_float")
    sums = count_calls(monkeypatch, "amenalab.amenability", "idempotent_sum")
    matmuls = [0]
    matmul = BlockOperator.__matmul__

    def counted(self, other):
        matmuls[0] += 1
        return matmul(self, other)

    monkeypatch.setattr(BlockOperator, "__matmul__", counted)
    assert main(["verify", "weak", "--count", str(m), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert surd_floats[0] <= 162
    assert (sums[0], matmuls[0]) == (0, 0)


# The explicit spectrum of CI's mixed-grade smoke: rational roots at 1, 1/4,
# 1/9 and 1/16, and one radicand, sqrt(2), shared by 2/9 and 1/18.
MIXED_GRADE = ("1", "1/2", "1/3", "1/4", "2/9", "1/9", "1/16", "1/18")
ROOT_SPECTRA = {
    "geometric_half_64": make_spectrum("geometric", 64),
    "ratio_9_10_64": make_spectrum("geometric", 64, ratio=Fraction(9, 10)),
    "harmonic_64": make_spectrum("harmonic", 64),
    "mixed_grade": make_spectrum("explicit", values=[Fraction(v) for v in MIXED_GRADE]),
}


@pytest.mark.parametrize("case", sorted(ROOT_SPECTRA))
def test_root_floats_are_the_floats_of_the_roots(case):
    s = ROOT_SPECTRA[case]
    assert bits(s.root_floats) == bits(to_float(r) for r in s.roots)


def test_a_root_beyond_the_float_range_floats_to_inf():
    """A rational root too large for a float is inf in `root_floats`, as a
    Surd's float is; the trials keep its coordinate as they keep any NaN
    input, and equal the block composition there."""
    s = make_spectrum("explicit", values=[Fraction(2 ** 2100), Fraction(1, 2)])
    assert s.root_floats[0] == math.inf
    T = build_T(s)
    polys = [Polynomial((0, Fraction(1, 2 ** 1100))),
             Polynomial((0, Fraction(1, 2 ** 1200), Fraction(1, 2 ** 3200)))]
    for p, trial in zip(polys, membership_trials(polys, s)):
        assert bits(trial) == bits(reference_trial(p, T, s)), p


def test_membership_polynomials_equal_the_fraction_oracle():
    """Born on integers, the trials' polynomials equal those built from
    Fraction coefficients on the same randint stream, coefficient for
    coefficient and in `_integers`; their Fractions are built only once
    `coefficients` is read."""
    got = list(_membership_polynomials())
    want = fraction_membership_polynomials(MEMBERSHIP_SEED, MEMBERSHIP_TRIALS)
    assert len(got) == len(want) == MEMBERSHIP_TRIALS
    assert not any("coefficients" in vars(p) for p in got)
    assert [p._integers for p in got] == [p._integers for p in want]
    assert [p.coefficients for p in got] == [p.coefficients for p in want]


def test_membership_draws_are_randints_values():
    """The trials' raw draws, taken by getrandbits rejection loops, are the
    values of randint(1, 16), randint(-99, 99) and randint(1, 12) on
    random.Random(MEMBERSHIP_SEED), in order, and so is the stream after
    them: 1834 draws in all."""
    rng = random.Random(MEMBERSHIP_SEED)
    want = []
    for _ in range(MEMBERSHIP_TRIALS):
        degree = rng.randint(1, 16)
        want.append([(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(degree)])
    got = list(_membership_draws())
    assert got == want
    assert sum(1 + 2 * len(pairs) for pairs in got) == 1834
    # the draws leave the generator where randint leaves it
    replay = random.Random(MEMBERSHIP_SEED)
    for pairs in got:
        replay.randint(1, 16)
        for _ in pairs:
            replay.randint(-99, 99), replay.randint(1, 12)
    assert replay.getstate() == rng.getstate()


def test_verify_character_sweeps_each_interval_sup_once(monkeypatch, tmp_path, capsys):
    """On a geometric spectrum `kernel_n1` and `unit` get the same controls
    on [0, lambda_1] at every degree: 5 degrees x (3 kernels + unit) = 20
    (polynomial, interval) pairs, all requested in one batch, of which 15
    are distinct, and the batch takes each one's sups of p and p' once: 30
    grid sups.  The hull certificate decides the `kernel_n1`/`unit` p and p'
    at every degree, so 20 rows are swept, all in one sweep."""
    batches = record_calls(monkeypatch, "amenalab.polynomials", "interval_sups_many")
    sups = record_calls(monkeypatch, "amenalab.polynomials", "_grid_sups")
    sweeps = record_calls(monkeypatch, "amenalab.polynomials", "_de_casteljau")
    main(["verify", "character", "--count", "16", "--degrees", "8:128", "--out", str(tmp_path)])
    capsys.readouterr()
    assert [len(requests) for requests, *_ in batches] == [20]
    assert [len(ctrls) for ctrls, in sups] == [30]
    assert [len(rows) for rows, in sweeps] == [20]


def test_verify_character_sweeps_few_columns(monkeypatch, tmp_path, capsys):
    """The perfbench `char_geo16_d128` argv sweeps at most 26 grid columns
    over its 20 swept rows (49 under a bound that spends the largest
    |control| on every column): 19 rows keep one column each, and the
    degree-128 `kernel_n2` overshoot keeps at most 7."""
    sweeps = record_calls(monkeypatch, "amenalab.polynomials", "_de_casteljau")
    main(["verify", "character", "--count", "16", "--degrees", "8:128", "--out", str(tmp_path)])
    capsys.readouterr()
    (rows,), = sweeps
    kept = sorted(len(t) for _, t, _ in rows)
    assert len(kept) == 20 and kept[:19] == [1] * 19 and kept[19] <= 7


@pytest.mark.parametrize("argv", [[], ["--count", "16", "--degrees", "8:128"]],
                         ids=["defaults", "geo16_d128"])
def test_verify_character_stays_in_bernstein_form(monkeypatch, tmp_path, capsys, argv):
    """Every approximant is born as its Bernstein controls, and the steps
    evaluate and bound it on them: no Taylor shift, no Pascal pass and no
    forward differences to t-coefficients, so no coefficient in z is ever
    computed."""
    shifts = count_method_calls(monkeypatch, Polynomial, "_compose_integers")
    pascal = count_calls(monkeypatch, "amenalab.polynomials", "_pascal_controls")
    t_forms = count_calls(monkeypatch, "amenalab.polynomials", "_t_coefficients")
    assert main(["verify", "character", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (shifts[0], pascal[0], t_forms[0]) == (0, 0, 0)


# Spectra of the membership trials: geometric 1/2 has a rational root at every
# even n, harmonic at lambda = 1, 1/4, 1/9, ...
TRIAL_SPECTRA = {
    "geometric_half_64": make_spectrum("geometric", 64),
    "ratio_9_10_16": make_spectrum("geometric", 16, ratio=Fraction(9, 10)),
    "harmonic_64": make_spectrum("harmonic", 64),
}


def cli_trial_polynomials() -> list[Polynomial]:
    """The polynomials of `verify weak`'s membership trials."""
    return list(_membership_polynomials())


def random_polynomials(spectrum) -> list[Polynomial]:
    """Degrees 1-16 with wide coefficients and some zero ones, the zero
    polynomial, and z^2 - lambda_1 z, whose divided difference vanishes at
    lambda_1."""
    rng = random.Random(20261018)
    polys = [Polynomial(()), Polynomial((0, -spectrum.lam(1), 1))]
    for degree in range(1, 17):
        for _ in range(3):
            polys.append(Polynomial((Fraction(0),) + tuple(
                Fraction(rng.randint(-10 ** 6, 10 ** 6) * (rng.random() < 0.8),
                         rng.randint(1, 10 ** 4)) for _ in range(degree))))
    return polys


@pytest.mark.parametrize("case", sorted(TRIAL_SPECTRA))
@pytest.mark.parametrize("source", ["cli_seed", "random"])
def test_membership_trials_bitwise_equal_block_composition(case, source, monkeypatch):
    s = TRIAL_SPECTRA[case]
    T = build_T(s)
    polys = cli_trial_polynomials() if source == "cli_seed" else random_polynomials(s)
    want = [reference_trial(p, T, s) for p in polys]
    compositions = count_calls(monkeypatch, "amenalab.spectrum", "apply_poly_to_block")
    got = membership_trials(polys, s)
    assert compositions[0] == 0  # no trial built the composition
    for p, w, g in zip(polys, want, got):
        assert g.residual == 0.0
        assert bits(g) == bits(w), p


def broken_generators(s):
    """build_T(s) with one entry changed: an upper-right root doubled (at
    lambda_3, irrational on every TRIAL_SPECTRA, or at lambda_4, rational on
    each), the lower-right point moved, or a nonzero upper-left entry."""
    T = build_T(s)

    def change(block, n, value):
        diag = list(getattr(T, block).diag)
        diag[n] = value(diag[n])
        return BlockOperator(**{**vars(T), block: DiagonalOperator(tuple(diag))})

    return {
        "root_doubled": change("b12", 2, lambda x: 2 * x),
        "rational_root_doubled": change("b12", 3, lambda x: 2 * x),
        "point_moved": change("b22", 3, lambda x: x + Fraction(1, 1000)),
        "upper_left": change("b11", 0, lambda x: Fraction(1, 7)),
    }


@pytest.mark.parametrize("case", sorted(TRIAL_SPECTRA))
@pytest.mark.parametrize("broken", ["root_doubled", "rational_root_doubled", "point_moved",
                                    "upper_left"])
def test_membership_trials_reject_a_broken_generator(case, broken):
    """The trials run on the paper's generator alone; the composition oracle
    they are checked against must tell a broken one apart: p(T) for a T
    with one wrong entry is no algebra element, so every trial's residual
    is positive."""
    s = TRIAL_SPECTRA[case]
    T = broken_generators(s)[broken]
    for p in cli_trial_polynomials()[:10]:
        assert reference_trial(p, T, s).residual > 0.0, p


def test_verify_weak_runs_without_numpy_hypot(monkeypatch, tmp_path, capsys):
    """`verify weak` takes every block norm from the scalar `hypot`: with
    numpy.hypot and numpy.reshape made to raise, its exit code, stdout and
    reports equal those of an unpatched run."""
    import numpy as np

    def outcome(out):
        code = main(["verify", "weak", "--count", "64", "--out", str(out)])
        return (code, capsys.readouterr().out.replace(str(out), "OUT"),
                {p.name: p.read_bytes() for p in sorted(out.iterdir())})

    want = outcome(tmp_path / "plain")

    def refuse(*args, **kwargs):
        raise AssertionError("numpy ran on the weak path")

    monkeypatch.setattr(np, "hypot", refuse)
    monkeypatch.setattr(np, "reshape", refuse)
    assert outcome(tmp_path / "patched") == want


def test_membership_trials_reject_a_constant_term():
    s = make_spectrum("harmonic", 4)
    with pytest.raises(ValueError, match="constant term"):
        membership_trials([Polynomial((Fraction(1, 3), 2))], s)


def test_verify_weak_builds_no_operator_for_the_trials(monkeypatch, tmp_path, capsys):
    """`verify weak` reads T from its spectrum: neither T nor any p(T) is
    built, for the trials or for any other check."""
    m = 64
    built = count_calls(monkeypatch, "amenalab.spectrum", "build_T")
    compositions = count_calls(monkeypatch, "amenalab.spectrum", "apply_poly_to_block")
    assert main(["verify", "weak", "--count", str(m), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (built[0], compositions[0]) == (0, 0)


# SHA-256 of each report of `verify weak --kind geometric --ratio 9/10
# --count 16`, recorded with the dense block composition of the trials.  Here
# numpy's hypot and math.hypot differ by one ulp in trial 5's norm.
GOLDEN_RATIO_9_10_16 = {
    "weak_membership.csv": "531814a49c12f2a0ed5c146400431a7e65fed65b0b6d80966c309372fefb5669",
    "weak_idempotency.csv": "d906b91bb9a7c1c44194971a01e75a41565b386db080e33e567242e6ce3ba902",
    "weak_generation.csv": "d9e6c5fd27c3979e41fdab8f544841f9e03dd89e60a469255e371006202ee4f9",
}


def test_verify_weak_ratio_9_10_reports_are_golden(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["verify", "weak", "--kind", "geometric", "--ratio", "9/10", "--count", "16",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in GOLDEN_RATIO_9_10_16}
    assert digests == GOLDEN_RATIO_9_10_16
