"""Report bytes of two pipeline runs beyond the benchmark's workloads.

`verify all --count 8` runs every pipeline at the default geometric ratio
1/2, `verify character --ratio 9/10 --count 32 --degrees 8:128` runs the
character pipeline on spectrum points with denominators up to 10^32, and
`verify character --kind harmonic --count 16 --degrees 8:256` is the only
run above Bernstein degree 128, and `verify all` on the mixed-grade config
(an explicit spectrum with rational roots and the radicand 2, degrees up to
256) runs every pipeline on graded entries.  The first two digests were
recorded before the exact polynomial kernels lost their float branches and
their zero-polynomial special cases, the third before the interval sups lost
their magnitude rows and the character steps their per-coordinate
p(lambda_n), the fourth before the approximants were born as their Bernstein
controls, so a change to any report byte shows here.
"""

import hashlib
import json

import pytest

from amenalab.cli import main

GOLDEN_ALL_8 = {
    "character_bai.csv": "f6316ee8a6c46853a80f1642f4980b6cb6c18abe7ffdc3bbbc7e8a04c0a98f13",
    "character_kernel_n1.csv": "f365013afd284ba3569f5fa9cf0f4ddecaa78bab09134f270db8d264e5d7ca0e",
    "character_kernel_n2.csv": "1d3ebd49ae89668ab4927af292291e3915c2f50a191b0e2f0defadc9289d3ed0",
    "character_kernel_n3.csv": "b7cc3b44c55d83a583e00aa773f3830c080bf021dc6c1ad14e514183dc19409b",
    "character_unit.csv": "83551465019d4e109412daa2f5195889120468fe6e82969cbfea9236fc757df5",
    "derivations_dichotomy.csv": "3de5fbdf2afd39b02174fea46bd9d5ce879444d42b696bab9ac41b82102d78cf",
    "similarity_growth.csv": "ece12d336431d72c8467291ca41de210526e8ad80fdd2b9dd55777c7e2a52c5d",
    "weak_generation.csv": "e888706b9520acd106fc4f2c3353de3eb96d25c454a23a09ac07e1c42c552326",
    "weak_idempotency.csv": "2f00e187e164c26e82f676ac08bbf9b2988a16c8303b5e3bab4c896864c4bc0a",
    "weak_membership.csv": "73b73387805a313e6fb223d1327d89fdd5341942c0e23dbad6a28a183753c456",
}

GOLDEN_CHARACTER_RATIO_9_10_32 = {
    "character_bai.csv": "a0caeefe223ab758cbda77f671c720c6780c061dc8d673883fb1e6ba3346a392",
    "character_kernel_n1.csv": "c3ee63e1e408709325e8c469894618bf1a0255f03601a7ef7aea7010d96342e9",
    "character_kernel_n2.csv": "7ce642209238f861974d8ca44eb188eb0ca375da260c42c2ce6860bf042008f4",
    "character_kernel_n3.csv": "2a967559e3f9cf7567ec9e6a8880da900a969ef011baead64bf6e9cab53db726",
    "character_unit.csv": "829af0ae244bbb9ac52a1693b558cb5c217a6f94aad76c8c33afca89b484c96c",
}

GOLDEN_CHARACTER_HARMONIC_16_256 = {
    "character_bai.csv": "7a1e98e3fef61c5052ea08246b45c700173c8b3f0be7a0fc379fdcdbc94a3aff",
    "character_kernel_n1.csv": "db57190b7b712ceaa6a4a8a5dbe60f1d594bceb42afd2524884ec29aeb726045",
    "character_kernel_n2.csv": "92e7c429455a6cf9d413c737e78d3b70710ebb0ad67e8063626d36f9a11cddd0",
    "character_kernel_n3.csv": "f7ae14a7b8d736d123b5f7b820c84730200005af10bc3ec560f6d62770aa280c",
    "character_unit.csv": "0cddda632a1cb1d6ff9c84ddce7a42c7158afc2e8ce1c6f1ee98f705447d9e65",
}

GOLDEN_MIXED_GRADE = {
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

# the mixed-grade config of the CI smoke step
MIXED_GRADE_CONFIG = {
    "spectrum": {"kind": "explicit",
                 "values": ["1", "1/2", "1/3", "1/4", "2/9", "1/9", "1/16", "1/18"]},
    "truncations": [2, 4, 6, 8], "degrees": [8, 16, 32, 64, 128, 256],
}


@pytest.mark.parametrize("argv, summary, golden", [
    (["verify", "all", "--count", "8"], "16/16 checks passed", GOLDEN_ALL_8),
    (["verify", "character", "--ratio", "9/10", "--count", "32", "--degrees", "8:128"],
     "9/9 checks passed", GOLDEN_CHARACTER_RATIO_9_10_32),
    (["verify", "character", "--kind", "harmonic", "--count", "16", "--degrees", "8:256"],
     "9/9 checks passed", GOLDEN_CHARACTER_HARMONIC_16_256),
    (["verify", "all", "--config", "mixed.json"], "16/16 checks passed", GOLDEN_MIXED_GRADE),
], ids=["all_8", "character_ratio_9_10_32", "character_harmonic_16_256", "all_mixed_grade"])
def test_reports_are_golden(tmp_path, capsys, argv, summary, golden):
    config = tmp_path / "mixed.json"
    config.write_text(json.dumps(MIXED_GRADE_CONFIG))
    argv = [str(config) if a == config.name else a for a in argv]
    out_dir = tmp_path / "reports"
    assert main([*argv, "--out", str(out_dir)]) == 0
    assert summary in capsys.readouterr().out
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(golden)
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in golden}
    assert digests == golden
