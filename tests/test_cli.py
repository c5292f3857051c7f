import json

import pytest

from amenalab.cli import main


def run(argv):
    return main(argv)


def test_spectrum_command_output(capsys):
    assert run(["spectrum", "--kind", "geometric", "--ratio", "0.5", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert "spectrum: geometric(ratio=1/2,count=3)" in out
    assert "0.8660254037844387" in out  # ||T||
    assert "2.23606797749979" in out    # ||E_2||


def test_spectrum_rejects_zero_count(capsys):
    assert run(["spectrum", "--count", "0"]) == 2
    assert "count: must be a positive integer" in capsys.readouterr().err


def test_verify_similarity_writes_table(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code = run(["verify", "similarity", "--truncations", "4,8,16",
                "--out", str(out_dir)])
    assert code == 0
    table = (out_dir / "similarity_growth.csv").read_text().splitlines()
    assert table[1] == "M,intertwiner_norm"
    assert table[2:] == ["4,4.0", "8,16.0", "16,256.0"]
    assert table[0].startswith("# amenalab verify similarity ")


def test_verify_rejects_bad_explicit_spectrum(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spectrum": {"kind": "explicit", "values": [0.3, 0.4]}}))
    code = run(["verify", "all", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "values: not strictly decreasing at index 2" in capsys.readouterr().err


def test_verify_rejects_unsorted_degrees(capsys):
    assert run(["verify", "character", "--degrees", "16,8"]) == 2
    assert "degrees: must be strictly increasing" in capsys.readouterr().err


def test_verify_rejects_bad_tolerance(capsys):
    assert run(["verify", "weak", "--tol-algebraic", "-1"]) == 2
    assert "tol_algebraic: must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("config, flags, field", [
    ({"spectrum": {"count": "abc"}}, [], "count:"),
    ({"tol_algebraic": "x"}, [], "tol_algebraic:"),
    ({"truncations": ["a"]}, [], "truncations:"),
    ({"truncations": []}, [], "truncations:"),
    ({"degrees": 5}, [], "degrees:"),
    ([1, 2], [], "config:"),
    ({"spectrum": 5}, [], "spectrum:"),
    ({"spectrum": {"kind": "explicit", "values": ["x"]}}, [], "spectrum.values:"),
    (None, ["--ratio", "inf"], "spectrum.ratio:"),
    (None, ["--tol-algebraic", "nan"], "tol_algebraic:"),
    (None, ["--tol-analytic", "inf"], "tol_analytic:"),
])
def test_verify_rejects_malformed_values(tmp_path, capsys, config, flags, field):
    argv = ["verify", "similarity", "--out", str(tmp_path / "r"), *flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_degree_range_expansion(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code = run(["verify", "character", "--count", "4", "--degrees", "8:64",
                "--out", str(out_dir)])
    assert code == 0
    rows = (out_dir / "character_kernel_n1.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in rows[2:]] == ["8", "16", "32", "64"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "spectrum": {"kind": "geometric", "ratio": 0.5, "count": 6},
        "truncations": [2, 4],
        "degrees": [8, 16],
        "tol_algebraic": 1e-12,
        "tol_analytic": 1e-3,
        "format": "json",
    }))
    out_dir = tmp_path / "reports"
    code = run(["verify", "similarity", "--config", str(cfg),
                "--truncations", "4,8", "--out", str(out_dir)])
    assert code == 0
    payload = json.loads((out_dir / "similarity_growth.json").read_text())
    assert [row[0] for row in payload["rows"]] == [4, 8]  # flag overrode the file
    assert payload["threshold_met"] is True and payload["bounded"] is True


def test_verify_reports_are_byte_identical(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run(["verify", "similarity", "--truncations", "4,8",
                    "--out", str(d)]) == 0
    first = (dirs[0] / "similarity_growth.csv").read_bytes()
    second = (dirs[1] / "similarity_growth.csv").read_bytes()
    assert first == second


def test_verify_weak_small_truncation(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code = run(["verify", "weak", "--count", "6", "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] weak.idempotency" in out
    assert "[PASS] weak.membership" in out
    assert "[PASS] weak.generation" in out
    header = (out_dir / "weak_generation.csv").read_text().splitlines()[1]
    assert header == "index,residual,u_norm,q_bound"


def test_verify_derivations(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert run(["verify", "derivations", "--out", str(out_dir)]) == 0
    assert "[PASS] derivations.dichotomy" in capsys.readouterr().out
    assert (out_dir / "derivations_dichotomy.csv").exists()
