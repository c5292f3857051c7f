"""The per-coordinate sweeps behind `verify weak` and the shared interval sups
of `verify character`.

The report rows must equal, bit for bit, the dense definitions taken one n
or one m at a time; the expected values here come only from `idempotent_E`,
`idempotent_partial_sum` and `generation_defect`, and for the membership
trials from `apply_poly_to_block`, `membership_residual`, `operator_norm` and
`sup_norm`.  Work is guarded by deterministic call counts rather than timings.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import amenalab.amenability as am
from amenalab import (Polynomial, apply_poly_to_block, build_T, generation_defect, idempotent_E,
                      idempotent_partial_sum, make_spectrum, membership_residual, operator_norm,
                      sup_norm)
from amenalab.amenability import generation_sweep, idempotency_sweep, membership_trials
from amenalab.spectrum import BlockOperator, DiagonalOperator
from amenalab.cli import _membership_polynomials, main
from oracle_utils import count_calls, count_method_calls

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
    each trial is one dot product per coordinate with weights that are built
    once per coordinate.  They made 6,400 `_horner_numerators` passes at
    M = 64, each rebuilding the powers of the coordinate's denominator."""
    m = 64
    horner = count_calls(monkeypatch, "amenalab.spectrum", "_horner_numerators")
    weights = count_calls(monkeypatch, "amenalab.amenability", "_trial_weights")
    compositions = count_calls(monkeypatch, "amenalab.spectrum", "apply_poly_to_block")
    assert main(["verify", "weak", "--count", str(m), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert horner[0] == 0
    assert compositions[0] == 0
    assert weights[0] == m


def test_verify_character_sweeps_each_interval_sup_once(monkeypatch, tmp_path, capsys):
    """On a geometric spectrum `kernel_n1` and `unit` get the same polynomial
    on [0, lambda_1] at every degree: 5 degrees x (3 kernels + unit) = 20
    (polynomial, interval) pairs, of which 15 are distinct, and each is
    converted to Bernstein form once for both p and p'.  Of the 30 distinct
    sups, the hull certificate decides the `kernel_n1`/`unit` p and p' at
    every degree, so 20 sweeps run.  Each of the 20 approximants takes one
    Taylor shift; the kernel steps read sup|q| from closed forms, with no
    shifted division, and every conversion is on a birth interval, so
    neither takes one."""
    sweeps = count_calls(monkeypatch, "amenalab.polynomials", "_de_casteljau")
    conversions = count_calls(monkeypatch, "amenalab.polynomials", "_bernstein_controls")
    shifts = count_method_calls(monkeypatch, Polynomial, "_compose_integers")
    main(["verify", "character", "--count", "16", "--degrees", "8:128", "--out", str(tmp_path)])
    capsys.readouterr()
    assert conversions[0] == 15
    assert sweeps[0] == 20
    assert shifts[0] == 20


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


def reference_trial(p, T, s):
    X = apply_poly_to_block(p.coefficients, T)
    return membership_residual(X, s), operator_norm(X.to_float()), sup_norm(p, s)


@pytest.mark.parametrize("case", sorted(TRIAL_SPECTRA))
@pytest.mark.parametrize("source", ["cli_seed", "random"])
def test_membership_trials_bitwise_equal_block_composition(case, source, monkeypatch):
    s = TRIAL_SPECTRA[case]
    T = build_T(s)
    polys = cli_trial_polynomials() if source == "cli_seed" else random_polynomials(s)
    want = [reference_trial(p, T, s) for p in polys]
    compositions = count_calls(monkeypatch, "amenalab.spectrum", "apply_poly_to_block")
    got = membership_trials(polys, T, s)
    assert compositions[0] == 0  # every trial passed the integer test
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
    """p(T) for a T that is not the paper's generator is no algebra element:
    the trials report a positive residual, bitwise the block composition's."""
    s = TRIAL_SPECTRA[case]
    T = broken_generators(s)[broken]
    polys = cli_trial_polynomials()[:10]
    for p, got in zip(polys, membership_trials(polys, T, s)):
        assert got.residual > 0.0, p
        assert bits(got) == bits(reference_trial(p, T, s)), p


def test_membership_trials_integer_test_rejects_a_wrong_root(monkeypatch):
    """A doubled root keeps T in the integer pass's shape, so the integer test
    itself must reject each trial before the composition is built."""
    s = make_spectrum("harmonic", 8)
    T = broken_generators(s)["root_doubled"]
    polys = cli_trial_polynomials()[:5]
    compositions = count_calls(monkeypatch, "amenalab.spectrum", "apply_poly_to_block")
    trials = membership_trials(polys, T, s)
    assert compositions[0] == len(polys)
    assert all(t.residual > 0.0 for t in trials)


def test_membership_trials_reject_a_constant_term():
    s = make_spectrum("harmonic", 4)
    with pytest.raises(ValueError, match="constant term"):
        membership_trials([Polynomial((Fraction(1, 3), 2))], build_T(s), s)


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
