import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalab.cli import (FLAGS, MAX_SIZE, RUNNERS, USAGE, config_hash, main, parse_argv,
                          resolve_config)
from amenalab.spectrum import SpectrumSequence

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def test_spectrum_command_output(capsys):
    assert run(["spectrum", "--kind", "geometric", "--ratio", "0.5", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert "spectrum: geometric(ratio=1/2,count=3)" in out
    assert "0.8660254037844387" in out  # ||T||
    assert "2.23606797749979" in out    # ||E_2||


def test_spectrum_ratio_decimal_is_exact(tmp_path, capsys):
    assert run(["spectrum", "--ratio", "0.9", "--count", "2"]) == 0
    flag_out = capsys.readouterr().out
    assert "spectrum: geometric(ratio=9/10,count=2)" in flag_out
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"spectrum": {"ratio": 0.9, "count": 2}}')
    assert run(["spectrum", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == flag_out  # same ratio, same config hash


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
    assert "error: spectrum.values: not strictly decreasing at index 2" in capsys.readouterr().err


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
    (None, ["--ratio", "nan"], "spectrum.ratio:"),
    ({"spectrum": {"ratio": "1/0"}}, [], "spectrum.ratio:"),
    ({"spectrum": {"ratio": "1e-999999999"}}, [], "spectrum.ratio:"),
    ({"spectrum": {"ratio": 1e-5, "count": 64}}, [], "spectrum.ratio:"),
    ({"spectrum": {"kind": "explicit", "values": [1e200]}}, [], "spectrum.values:"),
    ({"spectrum": {"kind": "explicit", "values": [5e-324]}}, [], "spectrum.values:"),
    ({"spectrum": {"count": MAX_SIZE + 1}}, [], "count:"),
    ({"spectrum": {"count": 10 ** 30}}, [], "count:"),
    (None, ["--count", str(10 ** 30)], "count:"),
    ({"truncations": [4, MAX_SIZE + 1]}, [], "truncations:"),
    ({"degrees": [8, 10 ** 30]}, [], "degrees:"),
    (None, ["--degrees", f"8:{MAX_SIZE * 2}"], "degrees:"),
    ({"tol_algebraic": True}, [], "tol_algebraic:"),
    ({"spectrum": {"kind": "explicit", "values": [True]}}, [], "spectrum.values:"),
    ({"spectrum": {"ratio": False}}, [], "spectrum.ratio:"),
    (None, ["--count", "abc"], "count:"),
    (None, ["--kind", "bogus"], "spectrum.kind:"),
    (None, ["--format", "xml"], "format:"),
    (None, ["--tol-analytic", "x"], "tol_analytic:"),
    # text that int() reads but that is not a decimal integer, and empty items
    (None, ["--count", "1_6"], "count:"),
    (None, ["--count", "\uff18"], "count:"),  # a full-width 8
    (None, ["--count", "\u0668"], "count:"),  # an Arabic-Indic 8
    (None, ["--count", "8\u2003"], "count:"),  # an em space
    (None, ["--count", ""], "count:"),
    (None, ["--count", "+"], "count:"),
    ({"spectrum": {"count": "1_6"}}, [], "count:"),
    (None, ["--truncations", "4,,8"], "truncations:"),
    (None, ["--truncations", "4,8,"], "truncations:"),
    (None, ["--truncations", ","], "truncations:"),
    (None, ["--truncations", "4,8_0"], "truncations:"),
    ({"truncations": ["4", "1_6"]}, [], "truncations:"),
    (None, ["--degrees", "8,16,"], "degrees:"),
    (None, ["--degrees", ",8,16"], "degrees:"),
    (None, ["--degrees", "8:1_28"], "degrees:"),
    (None, ["--degrees", "\uff18:64"], "degrees:"),
    # a geometric ratio outside (0, 1), and an explicit value list that is no spectrum
    *((None, ["--ratio", r], "spectrum.ratio: must lie strictly between 0 and 1")
      for r in ("0", "1", "-1/2", "3/2")),
    *(({"spectrum": {"ratio": r}}, [], "spectrum.ratio: must lie strictly between 0 and 1")
      for r in (0, 1, "-1/2", "3/2", -0.5, 1.5)),
    ({"spectrum": {"kind": "explicit", "values": ["1/2", "0"]}}, [],
     "spectrum.values: not positive at index 2"),
    ({"spectrum": {"kind": "explicit", "values": ["1/4", "1/2"]}}, [],
     "spectrum.values: not strictly decreasing at index 2"),
    # a ratio for a spectrum that has none, as a flag or a config key
    *((config, flags, "spectrum.ratio: only a geometric spectrum takes a ratio")
      for config, flags in (
          (None, ["--kind", "harmonic", "--ratio", "1"]),
          (None, ["--kind", "harmonic", "--ratio", "1/2"]),
          (None, ["--kind", "explicit", "--ratio", "0.5"]),
          ({"spectrum": {"kind": "harmonic", "ratio": 0.5}}, []),
          ({"spectrum": {"kind": "explicit", "values": ["1", "1/2"], "ratio": "1/2"}}, []),
          ({"spectrum": {"kind": "harmonic"}}, ["--ratio", "1/2"]),
          ({"spectrum": {"ratio": "1/2"}}, ["--kind", "harmonic"]),
          ({"spectrum": {"kind": "explicit", "values": ["1", "1/2"]}}, ["--ratio", "nan"]))),
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


@pytest.mark.parametrize("argv, digest", [
    (["verify", "similarity", "--kind", "harmonic", "--truncations", "4"], "d18262702473"),
    (["verify", "all", "--kind", "harmonic", "--count", "8"], "06109a8ab7fb"),
])
def test_config_digests_without_a_ratio_are_kept(argv, digest):
    """A harmonic run that gives no ratio keeps its digest (recorded before
    harmonic and explicit spectra refused a ratio): the default ratio stays
    in the canonical config."""
    assert config_hash(resolve_config(parse_argv(argv)[2])) == digest


@pytest.mark.parametrize("config, key", [
    ({"degree": [8, 16]}, "degree"),
    ({"spectrum": {"ratios": "9/10"}}, "spectrum.ratios"),
])
def test_config_rejects_unknown_keys(tmp_path, capsys, config, key):
    """A misspelt key exits 2 and is named, rather than run on the defaults."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run(["verify", "weak", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: unknown config key") and "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv, field", [
    (["verify", "weak", "--bogus", "1"], "--bogus: unknown option"),
    (["verify", "weak", "--cou", "8"], "--cou: unknown option"),  # no prefix abbreviations
    (["verify", "weak", "8"], "8: unknown option"),
    (["spectrum", "-x"], "-x: unknown option"),
    (["verify", "weak", "--count"], "--count: expected a value"),
    (["verify", "weak", "--count", "--out", "r"], "--count: expected a value"),
    ([], "command:"),
    (["check"], "command:"),
    (["verify"], "target:"),
    (["verify", "weakly"], "target:"),
    (["verify", "--count", "8", "weak"], "target:"),  # TARGET comes before the flags
])
def test_malformed_argv_exits_2(tmp_path, monkeypatch, capsys, argv, field):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}") and "Traceback" not in captured.err
    assert captured.out == "" and not list(tmp_path.iterdir())


def test_config_naming_a_directory_exits_2(tmp_path, capsys):
    assert run(["verify", "weak", "--config", str(tmp_path), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_config_path_with_a_nul_byte_exits_2(capsys):
    """A NUL byte in the path is a fault of the path, not of the JSON."""
    assert run(["spectrum", "--config", "a\x00b"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "invalid JSON" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["spectrum", "-h"],
                                  ["verify", "--help"], ["verify", "weak", "--count", "8", "-h"]])
def test_help_prints_usage_and_exits_0(argv, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out == USAGE
    assert all(flag in USAGE for flag in FLAGS)


@pytest.mark.parametrize("argv, digest", [
    (["verify", "all", "--count", "8"], "c7c9377e3931"),
    (["verify", "all", "--count", "+8", "--truncations", " 4, 8,16 ", "--degrees", "8:64"],
     "8f08dc4b49d1"),
    (["verify", "similarity", "--truncations", "4,8,16", "--degrees", "8,16,32,64"],
     "b7b0fc5f7013"),
])
def test_decimal_integer_fields_keep_their_digests(argv, digest):
    """Valid integer text, a sign and blanks around items included, gives the
    config digests recorded before integer fields became ASCII-only."""
    assert config_hash(resolve_config(parse_argv(argv)[2])) == digest


def test_flag_value_forms_agree():
    """`--name=value` and `--name value` give the same config and digest; a
    later flag overrides an earlier one."""
    spaced = ["verify", "all", "--kind", "geometric", "--count", "8", "--degrees", "8:64",
              "--tol-analytic", "1e-3", "--format", "json", "--ratio", "9/10"]
    joined = ["verify", "all", "--kind=geometric", "--count=8", "--degrees=8:64",
              "--tol-analytic=1e-3", "--format=json", "--ratio=9/10"]
    a, b = (resolve_config(parse_argv(argv)[2]) for argv in (spaced, joined))
    assert a == b and config_hash(a) == config_hash(b)
    again = resolve_config(parse_argv([*joined, "--count", "16", "--count=8"])[2])
    assert config_hash(again) == config_hash(a)
    assert parse_argv(["spectrum", "--out=a=b", "--ratio", "-1"]) == (
        "spectrum", None, {"out": "a=b", "ratio": "-1"})


def test_verify_rejects_unwritable_out(tmp_path, capsys, monkeypatch):
    def must_not_run(cfg):
        raise AssertionError("a pipeline ran before the output directory was checked")

    monkeypatch.setitem(RUNNERS, "similarity", must_not_run)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert run(["verify", "similarity", "--truncations", "4,8", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out: ") and "Traceback" not in err
    assert taken.read_text() == "not a directory"


def test_closed_stdout_pipe_exits_without_traceback():
    # About 100 kB of rows: more than the pipe and both stdio buffers hold, so
    # the command is still writing when the reader goes away after one line.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "amenalab.cli", "spectrum", "--kind", "harmonic",
         "--count", "1500"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"# amenalab spectrum ")
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_config_hash_is_the_sha256_of_the_canonical_config(tmp_path):
    """The digest in every report header is the first 12 hex digits of the
    SHA-256 of the canonical config, whichever module computes it;
    `hashlib.sha256` is the oracle."""
    import hashlib

    config = tmp_path / "cfg.json"
    config.write_text('{"spectrum": {"kind": "explicit", "values": ["1", "1/2", "2/9"]},'
                      ' "truncations": [1, 3], "degrees": "8:32"}')
    for argv in (["verify", "weak"],
                 ["verify", "character", "--count", "16", "--degrees", "8:128"],
                 ["verify", "all", "--kind", "harmonic", "--count", "8"],
                 ["verify", "similarity", "--ratio", "9/10", "--truncations", "4,8,16"],
                 ["spectrum", "--ratio", "0.9", "--count", "2"],
                 ["verify", "all", "--config", str(config), "--format", "json"]):
        cfg = resolve_config(parse_argv(argv)[2])
        blob = json.dumps(cfg.canonical(), sort_keys=True, separators=(",", ":")).encode()
        assert config_hash(cfg) == hashlib.sha256(blob).hexdigest()[:12], argv


FRESH_VERIFY = """
import sys
from amenalab.cli import main
code = main(["verify", "all", "--count", "8", "--out", sys.argv[1]])
print(code, *(name in sys.modules for name in sys.argv[2:]))
"""


def fresh_verify_all(out_dir, modules):
    """Run `verify all --count 8` in a fresh interpreter; its exit code and,
    for each named module, whether the run loaded it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", FRESH_VERIFY, str(out_dir), *modules],
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout.splitlines()[-1]


def test_verify_never_loads_openssl(tmp_path):
    """In a fresh interpreter a full `verify` run hashes its config with the
    interpreter's built-in SHA-256: neither hashlib nor OpenSSL's _hashlib
    is loaded."""
    assert fresh_verify_all(tmp_path, ["_hashlib", "hashlib"]) == "0 False False"


def test_verify_never_loads_argparse(tmp_path):
    """The CLI reads its argv itself: a full `verify` run loads neither
    argparse nor the gettext and locale modules argparse's messages pull in."""
    assert fresh_verify_all(tmp_path, ["argparse", "gettext", "locale"]) == "0 False False False"


def test_degree_range_expansion(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code = run(["verify", "character", "--count", "4", "--degrees", "8:64",
                "--out", str(out_dir)])
    assert code == 0
    rows = (out_dir / "character_kernel_n1.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in rows[2:]] == ["8", "16", "32", "64"]


@pytest.mark.parametrize("degrees", ["8:64", "8,16,32,64"])
def test_degree_string_in_a_config_file(degrees, tmp_path, capsys):
    """A `degrees` string in a config file is read as the flag reads it: the
    same check lines and the same config hash."""
    assert run(["verify", "character", "--count", "4", "--degrees", degrees,
                "--out", str(tmp_path / "flag")]) == 0
    flag_out = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spectrum": {"count": 4}, "degrees": degrees}))
    assert run(["verify", "character", "--config", str(cfg),
                "--out", str(tmp_path / "file")]) == 0
    assert capsys.readouterr().out == flag_out
    assert "character.kernel_n1" in flag_out


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


@pytest.mark.parametrize("argv, sizes", [(["verify", "weak", "--count", "64"], [64]),
                                         (["verify", "all", "--count", "8"], [8, 20])])
def test_each_run_builds_one_spectrum_per_count(argv, sizes, monkeypatch, tmp_path, capsys):
    """The spectrum `resolve_config` builds to validate the fields is the one
    the pipelines read: `verify weak` builds one, and `verify all --count 8`
    one at 8 for the weak and character stages and one at 20, similarity's
    largest truncation."""
    built = []
    init = SpectrumSequence.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(len(self))

    monkeypatch.setattr(SpectrumSequence, "__init__", counted)
    assert run([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(built) == sizes


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


# Numbers of each JSON type, some at the ends of the float range, and text
# that parses as a decimal or fraction, some of it degenerate.
extreme_floats = st.sampled_from([5e-324, 1e-30, 1e200, 1.7e308])
json_numbers = st.one_of(
    st.integers(-10 ** 6, 10 ** 6), st.floats(allow_nan=True, allow_infinity=True), extreme_floats,
    st.sampled_from(["0.9", "9/10", "1/0", "inf", "-nan", "1e-999999999", "1e400"]))
# No nested key is "count": an integer count within the size cap stays <= 64,
# where json_values would ask for spectra of thousands of points.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), json_numbers, st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=6).filter(lambda k: k != "count"),
                                            inner, max_size=4)),
    max_leaves=12)


def field(valid):
    """A config field: mostly a well-formed value, so that a run gets past the
    other fields to the one under test, otherwise any JSON value."""
    return st.one_of(valid, valid, valid, json_values)


def ascending(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=4, unique=True).map(sorted)


spectrum_objects = st.fixed_dictionaries({}, optional={
    "kind": field(st.sampled_from(["geometric", "harmonic", "explicit"])),
    "ratio": field(st.one_of(st.floats(0, 1), extreme_floats, json_numbers)),
    "count": st.one_of(st.integers(-2, 64), st.integers(MAX_SIZE + 1, 10 ** 30),
                       json_values.filter(lambda v: not isinstance(v, int))),
    "values": field(st.lists(st.one_of(st.floats(0, 2), extreme_floats), max_size=6,
                             unique=True).map(lambda v: sorted(v, reverse=True))),
})
config_objects = st.fixed_dictionaries({}, optional={
    "spectrum": field(spectrum_objects),
    "truncations": field(ascending(1, 64)),
    "degrees": field(st.one_of(ascending(2, 256), st.just("8:64"))),
    "tol_algebraic": field(st.one_of(st.floats(1e-15, 1), json_numbers)),
    "tol_analytic": field(st.one_of(st.floats(1e-15, 1), json_numbers)),
    "format": field(st.sampled_from(["csv", "json"])),
    "out": field(st.text(max_size=8)),
})


@settings(max_examples=200, deadline=None)
@given(st.one_of(config_objects, st.fixed_dictionaries({"spectrum": spectrum_objects}),
                 json_values))
def test_spectrum_fuzzed_config_exits_cleanly(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["spectrum", "--config", str(path)]) in (0, 2)


flag_values = st.one_of(st.text(max_size=8), st.integers(-3, 64).map(str),
                        st.sampled_from(["0.9", "9/10", "1/0", "inf", "nan", "1e400",
                                         "1e-999999999", "8:64", "64:8", "4,8", "explicit",
                                         "harmonic", "json", ".", "", "--count"]))
flag_names = st.one_of(st.sampled_from(FLAGS), st.sampled_from(["--bogus", "-h", "-x", "count"]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(flag_names, flag_values, st.booleans()), max_size=4))
def test_spectrum_fuzzed_flags_exit_cleanly(flags):
    """Any `spectrum` argv, each flag as `--name value` or `--name=value`,
    exits 0 or 2, never with a traceback."""
    argv = ["spectrum"]
    for name, value, joined in flags:
        argv += [f"{name}={value}"] if joined else [name, value]
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # a relative --config or --out stays inside the temporary directory
        try:
            assert main(argv) in (0, 2)
        finally:
            os.chdir(cwd)
