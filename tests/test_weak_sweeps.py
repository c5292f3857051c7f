"""The per-coordinate sweeps behind `verify weak` and the shared interval sups
of `verify character`.

The report rows must equal, bit for bit, the dense definitions taken one n
or one m at a time; the expected values here come only from `idempotent_E`,
`idempotent_partial_sum` and `generation_defect`.  Work is guarded by
deterministic call counts rather than timings.
"""

import json
import sys
from fractions import Fraction

import pytest

import amenalab.amenability as am
from amenalab import (generation_defect, idempotent_E, idempotent_partial_sum, make_spectrum,
                      operator_norm)
from amenalab.amenability import generation_sweep, idempotency_sweep
from amenalab.spectrum import BlockOperator, DiagonalOperator
from amenalab.cli import main

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


def count_calls(monkeypatch, module: str, name: str) -> list[int]:
    """Count the calls of `module.name`, patched in every amenalab namespace
    that holds it (modules bind it with `from ... import`)."""
    original = getattr(sys.modules[module], name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "amenalab" or mod_name.startswith("amenalab."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


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

    def perturbed(m, spectrum):  # S_m with coordinate 3 off by 1/1000 once m >= 3
        x = honest(m, spectrum)
        if m < 3:
            return x
        top = list(x.b12.diag)
        top[2] += Fraction(1, 1000)
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


def test_verify_character_sweeps_each_interval_sup_once(monkeypatch, tmp_path, capsys):
    """On a geometric spectrum `kernel_n1` and `unit` get the same polynomial
    on [0, lambda_1] at every degree: 5 degrees x (3 kernels + unit) x (p, p')
    = 40 interval sups, of which 30 are distinct."""
    sweeps = count_calls(monkeypatch, "amenalab.polynomials", "_de_casteljau")
    main(["verify", "character", "--count", "16", "--degrees", "8:128", "--out", str(tmp_path)])
    capsys.readouterr()
    assert sweeps[0] == 30
