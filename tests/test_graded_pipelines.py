"""The pipelines on a spectrum that mixes rational and irrational roots.

Every exact entry a pipeline builds is rational or s*sqrt(lambda_n), so a
spectrum whose roots are rational at some points (1, 1/4, 1/9, 1/16) and
share one radicand at others (sqrt(2/9) = sqrt(2)/3 and sqrt(1/18) =
sqrt(2)/6 in sympy's split) runs every check with no other kind of number.
Floats of those entries come from the integer kernel, never from sympy evalf.
"""

import hashlib
import json

import pytest
import sympy

import amenalab.scalars as scalars
from amenalab.cli import main

MIXED_CONFIG = {
    "spectrum": {"kind": "explicit",
                 "values": ["1", "1/2", "1/3", "1/4", "2/9", "1/9", "1/16", "1/18"]},
    "truncations": [2, 4, 6, 8],
    # at the default degrees 8:64, kernel_n3 does not reach its tolerance
    "degrees": [8, 16, 32, 64, 128, 256],
}

# SHA-256 of each report of `verify all --config` on MIXED_CONFIG, recorded
# while `Surd` was still the general r + s*sqrt(d).
GOLDEN_MIXED = {
    "character_bai.csv": "b940b6a9ffa0685af55a82e116d16cc83fdd2340d9b2e98d8dce43092876efeb",
    "character_kernel_n1.csv": "de719f750c0dc275dd6d0cac834a92e725ad4852d2847e09faafb7782d0b0f92",
    "character_kernel_n2.csv": "9f16ffee8a044a08a0bcc769b9d2af4d3ea725a2697f458b43ab9740bdb44887",
    "character_kernel_n3.csv": "b85a8de4a529d9af0f2fe83b9aa4fbd3299bf03e91dfaaacb1fe9c194461810c",
    "character_unit.csv": "8756b5feba31232ebdfeafb339a31649b7f2c9e3a7c9ffb0dfec07ed14c91751",
    "derivations_dichotomy.csv": "e8cc5ba7f6b5ad0387ed6bfcf4d12937cf985bfa244491aaabbae0dde61a0c35",
    "similarity_growth.csv": "a19e1b7d5428d832c871df3f12168af494bef18fdb5905ba07d6b1aa35cba1f9",
    "weak_generation.csv": "d0f16c3df9a7a59d2dae07678d9c5aac7adfa0c5b6297d1f386f15cd57afc7a2",
    "weak_idempotency.csv": "fcc14e0d0a4adeb4f5da0cb7a0abf7fe9ce34ec52a3d480cbdfb072bbf8a29de",
    "weak_membership.csv": "149e159c58fdafec0bf373a6e1439678625cbc898df9bba8f8ccc71dbf492bcb",
}


@pytest.fixture
def mixed_config(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_CONFIG))
    return str(path)


def _run(argv, out_dir, capsys) -> tuple[int, str]:
    code = main([*argv, "--out", str(out_dir)])
    return code, capsys.readouterr().out


def test_mixed_grade_spectrum_reports_are_golden(tmp_path, capsys, mixed_config):
    out_dir = tmp_path / "reports"
    code, out = _run(["verify", "all", "--config", mixed_config], out_dir, capsys)
    assert code == 0
    assert "16/16 checks passed" in out and "[FAIL]" not in out
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(GOLDEN_MIXED)
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in GOLDEN_MIXED}
    assert digests == GOLDEN_MIXED


@pytest.mark.parametrize("argv", [["verify", "all", "--kind", "harmonic", "--count", "8"],
                                  ["verify", "all", "--config", None]],
                         ids=["all_harmonic_8", "all_mixed"])
def test_pipelines_run_no_sympy_evalf(tmp_path, capsys, monkeypatch, mixed_config, argv):
    argv = [mixed_config if a is None else a for a in argv]
    want = _run(argv, tmp_path / "plain", capsys)

    def no_evalf(*args, **kwargs):
        raise AssertionError("sympy evalf ran")

    monkeypatch.setattr(sympy.core.evalf, "evalf", no_evalf)
    scalars._root_split.cache_clear()  # each radicand is split again, under the patch
    assert _run(argv, tmp_path / "patched", capsys) == want
