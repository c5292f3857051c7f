"""Benchmark of the `amenalab verify` command line.

Each workload is one fixed `amenalab verify` argv.  A run starts one child
process at a time (a closed loop with one client) with BLAS threads pinned to
1, and the run and its children pinned to one CPU; each child imports
`amenalab.cli` and calls `main(argv)` (see child.py).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload, one table
    python3 perfbench/run.py --record-reference            # rewrite reference.json

`--trace 0` repeats (workload child, import-only child) pairs while the next
pair still fits in S seconds and reports the end-to-end metrics of
BENCHMARK.json as medians over the children.  Each child times a fixed
calibration loop before, during and after its work, and its times are scaled
to the speed at which that loop takes CAL_REF_S, which takes out most of the
drift in machine speed (README.md, "Machine speed").  `--trace 1` runs `python -X
importtime` probes, then repeats (untraced child, traced child) pairs and
reports the per-layer metrics.  The seed only shuffles the order of the
children in each pair and of the workloads in `all`; it never changes an argv.

Every child's check lines and report files are compared with reference.json,
recorded at the seed commit.  An operation is one check line or one report
file.  It mismatches when its verdict differs from the reference, or the
report is missing or its SHA-256 differs; a child that crashes mismatches all
of its operations.  `failed` in the result counts mismatches, and `correct`
is true when there are none.  The end-to-end metric `ops_ok_frac` also counts
a check that prints FAIL as a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".perfbench_work"

WORKLOADS = {
    "weak_geo64": ["verify", "weak", "--kind", "geometric", "--ratio", "0.5", "--count", "64"],
    "char_geo16_d128": ["verify", "character", "--count", "16", "--degrees", "8:128"],
    "all_harm8": ["verify", "all", "--kind", "harmonic", "--count", "8"],
}
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONHASHSEED": "0"}
IMPORTTIME_PROBES = 3
# Seconds the calibration loop of child.py took on the reference machine (see
# README.md).  Times are reported as seconds at that speed.  Never change it:
# every reported time scales with it.
CAL_REF_S = 0.20
# One invocation must end within 180 s: a child still running this many
# seconds after the start of its workload is killed and counted as crashed.
RUN_BUDGET_S = 170.0
CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] ([^:\s]+):")


class ChildRun(NamedTuple):
    wall_s: float
    peak_rss_mb: float
    result: dict | None  # the child's own timings; None when it crashed
    stdout: Path
    stderr: Path
    out_dir: Path
    spans: Path | None


class Verdict(NamedTuple):
    ops: int
    mismatched: int  # differs from the reference
    failed: int      # differs from the reference or printed FAIL


class BenchError(Exception):
    """The benchmark cannot run here; the message says why."""


# --- children -------------------------------------------------------------------

class Runner:
    """Runs children one at a time in a scratch directory inside the checkout."""

    def __init__(self):
        self.dir = WORK / str(os.getpid())
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, **THREAD_PINS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def _paths(self, kind: str):
        self.count += 1
        tag = f"{self.count:03d}-{kind}"
        return tag, self.dir / f"{tag}.json", self.dir / f"{tag}.out", self.dir / f"{tag}.err"

    def child(self, mode: str, argv=(), run_id: str = "") -> ChildRun:
        """Run child.py in `mode` ('import', 'verify' or 'trace')."""
        tag, result_path, stdout, stderr = self._paths(mode)
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(result_path)]
        out_dir = self.dir / tag
        spans = None
        if mode == "trace":
            spans = self.dir / f"{tag}.spans.npz"
            cmd += [str(spans), run_id]
        if mode != "import":
            cmd += ["--", *argv, "--out", str(out_dir)]
        wall, rss, code = self._run(cmd, stdout, stderr)
        result = None
        if code == 0 and result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        return ChildRun(wall, rss, result, stdout, stderr, out_dir, spans)

    def importtime(self) -> dict | None:
        """One `python -X importtime` child, parsed into the import.* metrics."""
        _, _, stdout, stderr = self._paths("importtime")
        cmd = [sys.executable, "-X", "importtime", "-c", "import amenalab.cli"]
        _, _, code = self._run(cmd, stdout, stderr)
        if code != 0:
            return None
        return parse_importtime(stderr.read_text(encoding="utf-8"))

    def _run(self, cmd, stdout: Path, stderr: Path):
        """Wall seconds from spawn to exit, peak RSS in MB, and the exit code
        (None when the child was killed at the deadline)."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            killed = []

            def kill(signum, frame):
                killed.append(True)
                proc.kill()

            signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.monotonic(), 0.5))
            try:
                # wait4 gives this child's own peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, None if killed else proc.returncode


def scaled_setup(child: ChildRun) -> float:
    """The child's set-up time at the reference speed, judged by the
    calibration loop that ran just before it."""
    return child.result["setup_s"] * CAL_REF_S / child.result["cal_before"]


def scaled(child: ChildRun, seconds: float) -> float:
    """`seconds` of the child's run at the reference speed, judged by every
    calibration loop of the child."""
    got = child.result
    cal = [got["cal_before"], *got["cal_ticks"], got["cal_after"]]
    return seconds * CAL_REF_S / statistics.mean(cal)


def bare_wall_s(child: ChildRun) -> float:
    """The child's wall time without its calibration loops."""
    got = child.result
    return child.wall_s - got["cal_before"] - got["cal_after"] - got["tick_s"]


def parse_importtime(text: str) -> dict:
    cumulative: dict[str, int] = {}
    amenalab_self = 0
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cum_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        cumulative.setdefault(name, cum_us)
        if name == "amenalab" or name.startswith("amenalab."):
            amenalab_self += self_us
    return {"import.sympy_s": cumulative.get("sympy", 0) / 1e6,
            "import.numpy_s": cumulative.get("numpy", 0) / 1e6,
            "import.amenalab_self_s": amenalab_self / 1e6}


# --- correctness gate ------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_lines(stdout: Path) -> dict[str, str]:
    found = {}
    for line in stdout.read_text(encoding="utf-8", errors="replace").splitlines():
        match = CHECK_LINE.match(line)
        if match:
            found[match.group(2)] = match.group(1)
    return found


def judge(reference: dict, child: ChildRun) -> Verdict:
    """Compare one child's check lines and reports with the reference.
    Checks and files the reference does not name are ignored."""
    checks, reports = reference["checks"], reference["reports"]
    ops = len(checks) + len(reports)
    if child.result is None:
        return Verdict(ops, ops, ops)
    seen = check_lines(child.stdout)
    mismatched = failed = 0
    for name, flag in checks.items():
        bad = seen.get(name) != flag
        mismatched += bad
        failed += bad or seen.get(name) == "FAIL"
    for file, digest in reports.items():
        path = child.out_dir / file
        bad = not path.is_file() or _sha256(path) != digest
        mismatched += bad
        failed += bad
    return Verdict(ops, mismatched, failed)


# --- per-layer metrics from spans -------------------------------------------------

def span_metrics(path: Path, wanted: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced child.  `<span>.calls`, `<span>.self_s`
    and `<span>.cum_s` work for every span name; the rest are listed below.
    Self time is a span's duration minus the time its child spans cover; the
    cumulative time of a name counts only its outermost spans."""
    import numpy as np
    import tracing

    spans = tracing.load(path)
    names, nid, parent = spans["names"], spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    covered = np.zeros_like(dur)
    np.add.at(covered, parent[nested], dur[nested])
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    self_s = np.bincount(nid, weights=dur - covered, minlength=k)
    # A span is outermost for its name when no ancestor carries the same name.
    inner = np.zeros(len(nid), dtype=bool)
    ancestor = parent.copy()
    while (live := ancestor >= 0).any():
        inner[live] |= nid[ancestor[live]] == nid[live]
        ancestor[live] = parent[ancestor[live]]
    cum_s = np.bincount(nid[~inner], weights=dur[~inner], minlength=k)
    index = {name: i for i, name in enumerate(names)}
    stats = {"calls": calls, "self_s": self_s, "cum_s": cum_s}
    facts = spans["facts"]

    def frac(count: int, span: str) -> float:
        total = int(calls[index[span]])
        return count / total if total else 0.0

    svd = nid == index["numpy.linalg.svd"]
    special = {
        "scalars.exact_sqrt.distinct_frac": frac(facts["exact_sqrt_distinct"],
                                                 "scalars.exact_sqrt"),
        "amenability.idempotent_E.distinct_frac": frac(facts["idempotent_E_distinct"],
                                                       "amenability.idempotent_E"),
        "spectrum.operator_norm.svd_calls": int(np.count_nonzero(
            nid[parent[svd & nested]] == index["spectrum.operator_norm"])),
        "polynomials.grid_points": facts["grid_points"],
        "polynomials.max_coeff_bits": facts["max_coeff_bits"],
        "reports.bytes_written": facts["bytes_written"],
    }
    for name in names:
        if name.startswith("cli.stage."):
            special[f"{name}_s"] = float(cum_s[index[name]])
    out = {}
    for metric in wanted:
        if metric in special:
            out[metric] = special[metric]
        else:
            span, _, stat = metric.rpartition(".")
            out[metric] = stats[stat][index[span]].item()
    return out


def span_table(path: Path, top: int = 12) -> list[str]:
    """The spans with the largest cumulative time, for reading a traced run."""
    import tracing

    names = tracing.load(path)["names"]
    wanted = [f"{n}.{s}" for n in names for s in ("calls", "self_s", "cum_s")]
    values = span_metrics(path, wanted)
    rows = sorted(names, key=lambda n: -values[f"{n}.cum_s"])[:top]
    lines = [f"  {'span':44s} {'calls':>8s} {'self_s':>9s} {'cum_s':>9s}"]
    lines += [f"  {n:44s} {values[n + '.calls']:8d} {values[n + '.self_s']:9.3f} "
              f"{values[n + '.cum_s']:9.3f}" for n in rows]
    return lines


# --- one workload ------------------------------------------------------------------

def _crash_report(children: list[ChildRun]) -> str:
    crashed = [c for c in children if c.result is None]
    if not crashed:
        return "no child of this run finished"
    tail = crashed[-1].stderr.read_text(encoding="utf-8", errors="replace")[-2000:]
    return f"{len(crashed)} children crashed; the last one wrote:\n{tail}"


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
            reference: dict, runner: Runner):
    """Run one workload; returns (metrics by name, verdicts of every child, notes)."""
    rng = random.Random(f"{workload}/{seed}")
    argv = WORKLOADS[workload]
    ref = reference["workloads"][workload]
    runner.deadline = time.monotonic() + RUN_BUDGET_S
    runner.child("import")  # warm-up: byte-compiles src/ and fills the file cache
    end = time.monotonic() + seconds
    imports = [runner.importtime() for _ in range(IMPORTTIME_PROBES)] if trace else []
    pair = ["verify", "trace" if trace else "import"]
    children: dict[str, list[ChildRun]] = {"verify": [], "import": [], "trace": []}
    rep = 0
    while True:
        t0 = time.monotonic()
        rng.shuffle(pair)
        for mode in pair:
            children[mode].append(runner.child(mode, argv, f"{workload}-seed{seed}-rep{rep}"))
        rep += 1
        if time.monotonic() + (time.monotonic() - t0) > end:
            break
    verdicts = [judge(ref, c) for c in children["verify"] + children["trace"]]
    runs = [c for c in children["verify"] if c.result]
    traced = [c for c in children["trace"] if c.result]
    if not runs or (trace and not traced):
        raise BenchError(f"{workload}: {_crash_report(children['verify'] + children['trace'])}")
    ops = sum(v.ops for v in verdicts[:len(children["verify"])])
    bad = sum(v.failed for v in verdicts[:len(children["verify"])])
    notes = {"ops_failed_frac": bad / ops, "samples": len(runs)}
    if not trace:
        setups = runs + [c for c in children["import"] if c.result]
        metrics = {
            "wall_s": statistics.median(scaled(c, bare_wall_s(c)) for c in runs),
            "setup_s": statistics.median(scaled_setup(c) for c in setups),
            "verify_s": statistics.median(scaled(c, c.result["verify_s"]) for c in runs),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in runs),
            "ops_ok_frac": 1.0 - bad / ops,
        }
        notes["raw"] = {
            "wall_s": statistics.median(bare_wall_s(c) for c in runs),
            "setup_s": statistics.median(c.result["setup_s"] for c in setups),
            "verify_s": statistics.median(c.result["verify_s"] for c in runs),
            "cal_before": statistics.median(c.result["cal_before"] for c in setups),
        }
        return metrics, verdicts, notes
    wanted = [m["name"] for m in spec["per_layer"]
              if not m["name"].startswith(("import.", "trace."))]
    per_child = [span_metrics(c.spans, wanted) for c in traced]
    metrics = {m: statistics.median(d[m] for d in per_child) for m in wanted}
    probes = [p for p in imports if p]
    for m in ("import.sympy_s", "import.numpy_s", "import.amenalab_self_s"):
        metrics[m] = statistics.median(p[m] for p in probes)
    metrics["trace.overhead_frac"] = (
        statistics.median(scaled(c, c.result["verify_s"]) for c in traced)
        / statistics.median(scaled(c, c.result["verify_s"]) for c in runs) - 1.0)
    notes["span_table"] = span_table(traced[0].spans)
    return metrics, verdicts, notes


# --- records and output -------------------------------------------------------------

def machine_record(cpu: int) -> dict:
    def version(dist: str):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = got.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "sympy": version("sympy"), "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "git_commit": commit, "thread_pins": THREAD_PINS, "cpu_pin": cpu,
            "cal_ref_s": CAL_REF_S, "src_lines": src_lines}


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}")


def record_reference(runner: Runner) -> dict:
    """Run every workload once and record its verdicts and report digests."""
    out = {"workloads": {}}
    for workload, argv in WORKLOADS.items():
        runner.deadline = time.monotonic() + RUN_BUDGET_S
        child = runner.child("verify", argv)
        if child.result is None:
            raise BenchError(f"{workload}: {_crash_report([child])}")
        out["workloads"][workload] = {
            "argv": argv,
            "checks": check_lines(child.stdout),
            "reports": {p.name: _sha256(p) for p in sorted(child.out_dir.iterdir())},
        }
    return out


def _result_line(verdicts, metrics: dict, units: dict) -> str:
    attempted = sum(v.ops for v in verdicts)
    failed = sum(v.mismatched for v in verdicts)
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name.rpartition("/")[2]]}
                    for name, value in metrics.items()}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the program in this tree")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "amenalab" / "cli.py").is_file():
        raise BenchError("src/amenalab is missing: run from a full checkout of the repository")
    # One CPU for the run and all its children, so that each child's
    # calibration loops run on the CPU its work runs on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    runner = Runner()
    try:
        if args.record_reference:
            REFERENCE.write_text(json.dumps(record_reference(runner), indent=2) + "\n",
                                 encoding="utf-8")
            print(f"wrote {REFERENCE.relative_to(ROOT)}")
            return 0
        spec = _load_json(SPEC)
        reference = _load_json(REFERENCE)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        metric_list = spec["per_layer"] if args.trace else spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in metric_list}
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        random.Random(args.seed).shuffle(workloads)
        print(json.dumps({"record": {"workloads": workloads, "seed": args.seed,
                                     "seconds": seconds, "trace": args.trace,
                                     "machine": machine_record(cpu)}}))
        verdicts, metrics = [], {}
        for workload in workloads:
            got, checked, notes = measure(workload, args.seed, seconds, bool(args.trace),
                                          spec, reference, runner)
            verdicts += checked
            prefix = "" if len(workloads) == 1 else f"{workload}/"
            print(f"{workload}: argv {' '.join(WORKLOADS[workload])}; "
                  f"{notes['samples']} untraced runs")
            for name in units:
                print(f"  {name} = {got[name]!r} {units[name]}")
                metrics[prefix + name] = got[name]
            print(f"  ops_failed_frac = {notes['ops_failed_frac']!r} frac")
            if "raw" in notes:
                print("  unscaled medians: " + ", ".join(
                    f"{name} = {value:.4f} s" for name, value in notes["raw"].items()))
            for line in notes.get("span_table", ()):
                print(line)
        print(_result_line(verdicts, metrics, units))
        return 0
    finally:
        runner.close()


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
