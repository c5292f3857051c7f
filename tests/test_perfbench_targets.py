"""Guards for the benchmark.  Every name that perfbench/tracing.py wraps must
still resolve after `import amenalab.cli`, the only import its children make;
that check runs in a fresh interpreter, so modules that other tests import do
not hide a name the CLI no longer loads.  The reports of all three workloads
must match the digests and verdicts in perfbench/reference.json, which the
benchmark's correctness gate compares against: `weak_geo64` (exact polynomial
evaluation at T over exact square roots, M = 64), `char_geo16_d128` (Bernstein
degree 128) and `all_harm8` (every pipeline)."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from amenalab.cli import main

ROOT = Path(__file__).resolve().parents[1]

RESOLVE = """
import json, sys
import amenalab.cli
missing = []
for module, path in json.loads(sys.argv[1]):
    owner = sys.modules.get(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    if owner is None:
        missing.append(f"{module}:{path}")
print(json.dumps({"missing": missing, "runners": sorted(amenalab.cli.RUNNERS)}))
"""


def traced_targets() -> list[tuple[str, str]]:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(module, path) for _, module, path in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_traced_targets_resolve_after_cli_import():
    targets = traced_targets()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", RESOLVE, json.dumps(targets)],
                         capture_output=True, text=True, env=env, check=True)
    got = json.loads(out.stdout)
    assert got["missing"] == []
    assert {"weak", "character", "similarity", "derivations"} <= set(got["runners"])


def assert_matches_reference(workload, tmp_path, capsys):
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    ref = ref["workloads"][workload]
    out_dir = tmp_path / "reports"
    main([*ref["argv"], "--out", str(out_dir)])
    printed = capsys.readouterr().out
    for name, verdict in ref["checks"].items():
        assert f"[{verdict}] {name}:" in printed
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out_dir.iterdir()}
    assert got == ref["reports"]


def test_weak_geo64_reports_match_reference(tmp_path, capsys):
    assert_matches_reference("weak_geo64", tmp_path, capsys)


def test_all_harm8_reports_match_reference(tmp_path, capsys):
    assert_matches_reference("all_harm8", tmp_path, capsys)


def test_char_geo16_d128_reports_match_reference(tmp_path, capsys):
    assert_matches_reference("char_geo16_d128", tmp_path, capsys)
