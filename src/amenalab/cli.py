"""Command-line front end.

Two commands: `spectrum` prints a truncated spectrum with its derived
constants; `verify` runs the claim pipelines (weak, character, similarity,
derivations, or all), writes report files, prints one summary line per check
naming the matching acceptance test, and exits 0 only if every verdict holds.
Reports are byte-identical across runs with the same configuration.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .amenability import (bai_defect, character_ladders, derivation_dimensions,
                          generation_defect_closed_form, generation_sweep, idempotency_sweep,
                          idempotent_norm_closed_form, idempotent_sum, report_from_steps)
from .membership import membership_trials
from .polynomials import _from_integers
from .reports import ConvergenceReport, write_report
from .scalars import as_fraction
from .similarity import conjugate_by_upper_unipotent, similarity_growth_sweep
from .spectrum import SpectrumSequence, build_T, make_spectrum, operator_norm

WEAK_DEFAULT_COUNT = 64
CHARACTER_DEFAULT_COUNT = 16
SPECTRUM_DEFAULT_COUNT = 16
MEMBERSHIP_TRIALS = 100
MEMBERSHIP_SEED = 7
# Largest count, truncation or degree a config may ask for: four times the
# M = 1024 scale goal, and small enough that every size is built in bounded time.
MAX_SIZE = 4096
VERIFY_TARGETS = ("weak", "character", "similarity", "derivations")
CONFIG_KEYS = set("spectrum truncations degrees tol_algebraic tol_analytic format out".split())
SPECTRUM_KEYS = {"kind", "ratio", "count", "values"}


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


class RunConfig(NamedTuple):
    kind: str
    ratio: Fraction
    count: int | None
    values: tuple | None
    truncations: tuple[int, ...]
    degrees: tuple[int, ...]
    tol_algebraic: float
    tol_analytic: float
    fmt: str
    out: str
    spectrum: SpectrumSequence | None = None  # built by `resolve_config`; not in the digest

    def canonical(self) -> dict:
        return {
            "spectrum": {
                "kind": self.kind,
                "ratio": str(self.ratio),
                "count": self.count,
                "values": None if self.values is None else [str(v) for v in self.values],
            },
            "truncations": list(self.truncations),
            "degrees": list(self.degrees),
            "tol_algebraic": self.tol_algebraic,
            "tol_analytic": self.tol_analytic,
            "format": self.fmt,
        }


try:  # the interpreter's built-in sha256: hashlib would load OpenSSL for one digest
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.canonical(), sort_keys=True, separators=(",", ":"))
    return _sha256(blob.encode()).hexdigest()[:12]


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str
    test_ref: str


def _as_int(value, field: str) -> int:
    """An integer field: a JSON integer, or a string of ASCII digits with an
    optional sign, blanks around it allowed (int() would also take '1_6' and
    non-ASCII digits such as '８')."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        text = value.strip(" \t")
        digits = text[1:] if text[:1] in ("+", "-") else text
        if digits.isascii() and digits.isdigit():
            try:
                return int(text)
            except ValueError:  # more digits than int() converts
                pass
    raise ConfigError(f"{field}: expected an integer, got {value!r}")


def _int_list(items, field: str) -> tuple[int, ...]:
    """A list field, given as a JSON list or a comma-separated string; an
    empty item is an error, not skipped."""
    if isinstance(items, str):
        items = items.split(",")
    if not isinstance(items, (list, tuple)):
        raise ConfigError(f"{field}: expected a list of integers")
    out = tuple(_as_int(x, field) for x in items)
    if not out:
        raise ConfigError(f"{field}: must not be empty")
    return out


def _exact_number(value, field: str) -> Fraction:
    """A ratio or explicit value, exact from its decimal text: a JSON number
    (read as Decimal), a decimal or 'p/q' string, or an integer.  A decimal
    that no float can hold is rejected before its exact value is built."""
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a number, got a boolean")
    if isinstance(value, str):
        try:
            value = Decimal(value)
        except InvalidOperation:
            pass  # a 'p/q' string, or malformed text that as_fraction rejects
    if isinstance(value, Decimal):
        if not value.is_finite():
            raise ConfigError(f"{field}: not a finite number")
        approx = float(value)
        if math.isinf(approx) or (approx == 0 and value != 0):
            raise ConfigError(f"{field}: outside the float range")
        return Fraction(value)
    try:
        return as_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{field}: not a finite number")


def _tolerance(value, field: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a number, got a boolean")
    try:
        tol = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: not a number")
    if not math.isfinite(tol):
        raise ConfigError(f"{field}: must be finite")
    if tol <= 0:
        raise ConfigError(f"{field}: must be positive")
    return tol


def _parse_degrees(text: str) -> tuple[int, ...]:
    if ":" in text:
        lo_s, _, hi_s = text.partition(":")
        lo, hi = _as_int(lo_s, "degrees"), _as_int(hi_s, "degrees")
        if lo < 2 or hi < lo:
            raise ConfigError("degrees: range bounds must satisfy 2 <= a <= b")
        out = []
        k = lo
        while k <= hi:
            out.append(k)
            k *= 2
        return tuple(out)
    return _int_list(text, "degrees")


def _validate_increasing(items: Sequence[int], field: str):
    if any(b <= a for a, b in zip(items, items[1:])):
        raise ConfigError(f"{field}: must be strictly increasing")
    if any(x < 1 for x in items):
        raise ConfigError(f"{field}: entries must be positive")
    if any(x > MAX_SIZE for x in items):
        raise ConfigError(f"{field}: entries must not exceed {MAX_SIZE}")


def resolve_config(flags: dict[str, str]) -> RunConfig:
    """The run's config: each field from its flag's raw string (`parse_argv`),
    else from the JSON file named by `config`, else its default.  Flag and
    file values pass the same checks, so each error names the config field."""
    file_cfg: dict = {}
    path = flags.get("config")
    if path:
        try:
            raw = Path(path).read_bytes()
        except FileNotFoundError:
            raise ConfigError(f"config: file not found: {path}")
        except OSError as exc:  # a directory or an unreadable file
            raise ConfigError(f"config: {exc}")
        except ValueError as exc:  # a NUL byte in the path
            raise ConfigError(f"config: bad path {path!r} ({exc})")
        try:
            file_cfg = json.loads(raw.decode("utf-8"), parse_float=Decimal)
        except ValueError as exc:  # also an undecodable file or an oversized integer
            raise ConfigError(f"config: invalid JSON ({exc})")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config: expected a JSON object")
    spec_cfg = file_cfg.get("spectrum", {})
    if not isinstance(spec_cfg, dict):
        raise ConfigError("spectrum: expected a JSON object")
    unknown = [*sorted(set(file_cfg) - CONFIG_KEYS),
               *(f"spectrum.{key}" for key in sorted(set(spec_cfg) - SPECTRUM_KEYS))]
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown config key")

    kind = flags.get("kind", spec_cfg.get("kind", "geometric"))
    if kind not in ("geometric", "harmonic", "explicit"):
        raise ConfigError(f"spectrum.kind: unknown kind {kind!r}")
    ratio = _exact_number(flags.get("ratio", spec_cfg.get("ratio", "0.5")), "spectrum.ratio")
    count = flags.get("count", spec_cfg.get("count"))
    if count is not None:
        count = _as_int(count, "count")
        if count < 1:
            raise ConfigError("count: must be a positive integer")
        if count > MAX_SIZE:
            raise ConfigError(f"count: must not exceed {MAX_SIZE}")
    values = spec_cfg.get("values")
    if values is not None:
        if not isinstance(values, list):
            raise ConfigError("spectrum.values: expected a list of finite numbers")
        values = tuple(_exact_number(v, "spectrum.values") for v in values)

    truncations = _int_list(flags.get("truncations", file_cfg.get("truncations", (4, 8, 16, 20))),
                            "truncations")
    _validate_increasing(truncations, "truncations")

    degrees = flags.get("degrees", file_cfg.get("degrees", (8, 16, 32, 64)))
    degrees = _parse_degrees(degrees) if isinstance(degrees, str) else _int_list(degrees, "degrees")
    _validate_increasing(degrees, "degrees")
    if any(k < 2 for k in degrees):
        raise ConfigError("degrees: entries must be at least 2")

    tol_algebraic = _tolerance(flags.get("tol_algebraic", file_cfg.get("tol_algebraic", 1e-12)),
                               "tol_algebraic")
    tol_analytic = _tolerance(flags.get("tol_analytic", file_cfg.get("tol_analytic", 1e-3)),
                              "tol_analytic")

    fmt = flags.get("format", file_cfg.get("format", "csv"))
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: must be 'csv' or 'json', got {fmt!r}")
    out = flags.get("out") or file_cfg.get("out", "reports")
    if not isinstance(out, str):
        raise ConfigError("out: expected a directory path")

    cfg = RunConfig(kind, ratio, count, values, truncations, degrees,
                    tol_algebraic, tol_analytic, fmt, out)
    # validates the spectrum fields; a pipeline of the same count reuses it
    return cfg._replace(spectrum=_spectrum_at(cfg, _default_count(cfg, SPECTRUM_DEFAULT_COUNT)))


def _default_count(cfg: RunConfig, fallback: int) -> int:
    if cfg.count is not None:
        return cfg.count
    if cfg.kind == "explicit" and cfg.values is not None:
        return len(cfg.values)
    return fallback


def _spectrum_at(cfg: RunConfig, count: int) -> SpectrumSequence:
    if cfg.spectrum is not None and len(cfg.spectrum) == count:
        return cfg.spectrum
    try:
        if cfg.kind == "explicit":
            if cfg.values is None:
                raise ConfigError("spectrum.values: required for an explicit spectrum")
            if count > len(cfg.values):
                raise ConfigError("truncations: exceed the explicit spectrum length")
            spectrum = make_spectrum("explicit", values=cfg.values[:count])
        else:
            spectrum = make_spectrum(cfg.kind, count, ratio=cfg.ratio)
    except ValueError as exc:  # it names a field of the config's spectrum, as "ratio: ..."
        raise ConfigError(f"spectrum.{exc}")
    # The float tier prints ||E_n|| = sqrt(1/lambda_n + 1) and the tails
    # sqrt(lambda_n + lambda_n^2); both must stay below the largest float.
    top, bottom = spectrum.lam(1), spectrum.lam(len(spectrum))
    if max(top + top ** 2, 1 / bottom + 1) > sys.float_info.max:
        field = "spectrum.values" if cfg.kind == "explicit" else "spectrum.ratio"
        raise ConfigError(f"{field}: the spectrum leaves the float range")
    return spectrum


# --- verify pipelines ---------------------------------------------------------

def _membership_polynomials():
    """The trials' random polynomials, born as integers over the lcm of their denominators."""
    rng = random.Random(MEMBERSHIP_SEED)
    for _ in range(MEMBERSHIP_TRIALS):
        degree = rng.randint(1, 16)
        pairs = [(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(degree)]
        den = math.lcm(*(b for _, b in pairs))
        yield _from_integers([0, *(a * (den // b) for a, b in pairs)], den)


def _verify_weak(cfg: RunConfig):
    spectrum = _spectrum_at(cfg, _default_count(cfg, WEAK_DEFAULT_COUNT))
    m = len(spectrum)
    tol = cfg.tol_algebraic
    ns = range(1, m + 1)

    idem = idempotency_sweep(spectrum)
    closed = [idempotent_norm_closed_form(n, spectrum) for n in ns]
    worst = max(idem.residuals)
    norm_dev = max(abs(a - b) for a, b in zip(idem.norms, closed))
    idem_report = ConvergenceReport(("index", "residual", "u_norm", "q_bound"),
                                    tuple(zip(ns, idem.residuals, idem.norms, closed)),
                                    worst <= tol, norm_dev <= tol, tol)
    checks = [
        Check("weak.idempotency", all(idem.exact) and worst <= tol,
              f"exact zeros {sum(idem.exact)}/{m}, max float residual {worst!r}",
              "tests/test_acceptance.py::test_c01_idempotency"),
    ]

    trials = membership_trials(_membership_polynomials(), spectrum)
    mem_rows = [(i, *trial) for i, trial in enumerate(trials, start=1)]
    mem_worst = max(trial.residual for trial in trials)
    mem_report = ConvergenceReport(("index", "residual", "u_norm", "q_bound"),
                                   tuple(mem_rows), mem_worst == 0.0, True, 0.0)
    checks.append(Check("weak.membership", mem_worst == 0.0,
                        f"{MEMBERSHIP_TRIALS} random polynomials, max residual {mem_worst!r}",
                        "tests/test_acceptance.py::test_c02_membership"))

    gen = generation_sweep(spectrum)
    tails = [generation_defect_closed_form(n, spectrum) for n in ns]
    closed_dev = max(abs(d - tail) for d, tail in zip(gen.defects, tails))
    decreasing = all(b < a for a, b in zip(gen.defects, gen.defects[1:]))
    gen_report = ConvergenceReport(("index", "residual", "u_norm", "q_bound"),
                                   tuple(zip(ns, gen.defects, gen.partial_norms, tails)),
                                   gen.defects[-1] <= tol, closed_dev <= tol and decreasing, tol)
    checks.append(Check("weak.generation", closed_dev <= tol and decreasing and gen.reconstructed
                        and gen.defects[-1] == 0.0,
                        f"max closed-form deviation {closed_dev!r}, strictly decreasing: "
                        f"{decreasing}, exact reconstruction: {gen.reconstructed}",
                        "tests/test_acceptance.py::test_c03_generation"))

    files = [("weak_idempotency", idem_report), ("weak_membership", mem_report),
             ("weak_generation", gen_report)]
    return checks, files


def _verify_character(cfg: RunConfig):
    spectrum = _spectrum_at(cfg, _default_count(cfg, CHARACTER_DEFAULT_COUNT))
    checks = []
    files = []
    kernels = [n for n in (1, 2, 3) if n <= len(spectrum)]
    *ladders, unit_steps = character_ladders(spectrum, [*kernels, None], cfg.degrees)
    for n, steps in zip(kernels, ladders):
        report = report_from_steps(steps, cfg.tol_analytic)
        monotone = all(b.residual <= a.residual + 1e-12 for a, b in zip(steps, steps[1:]))
        mvt_all = all(s.mvt_ok for s in steps)
        passed = report.threshold_met and report.bounded and monotone
        checks.append(Check(f"character.kernel_n{n}", passed,
                            f"top residual {steps[-1].residual!r} (tol {cfg.tol_analytic!r}), "
                            f"monotone: {monotone}, norms bounded: {report.bounded}",
                            "tests/test_acceptance.py::test_c05_bounded_approximate_identity"))
        checks.append(Check(f"character.mvt_n{n}", mvt_all,
                            f"mean-value bound held at every degree: {mvt_all}",
                            "tests/test_acceptance.py::test_c06_mvt_bound"))
        files.append((f"character_kernel_n{n}", report))

    unit_report = report_from_steps(unit_steps, None)
    checks.append(Check("character.unit_trend",
                        unit_report.threshold_met and unit_report.bounded,
                        f"residuals decrease {unit_steps[0].residual!r} -> "
                        f"{unit_steps[-1].residual!r}, norms bounded: {unit_report.bounded}",
                        "tests/test_amenability.py::test_unit_approximation_trend"))
    files.append(("character_unit", unit_report))

    T = build_T(spectrum)
    unit_exact = ((T @ idempotent_sum(spectrum)) - T).is_zero()
    checks.append(Check("character.unit_exact_identity", unit_exact,
                        "unweighted idempotent sum is an exact identity on the truncation",
                        "tests/test_amenability.py::test_unit_exact_identity"))

    jordan2 = [[0, 1], [0, 0]]
    jordan3 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    bai_rows = []
    bai_ok = True
    for i, c in enumerate((10.0, 100.0, 1000.0), start=1):
        defect = bai_defect(jordan2, c)
        bai_rows.append((i, abs(defect - 1.0), defect, c))
        bai_ok = bai_ok and abs(defect - 1.0) <= 1e-9
    unit_defect = bai_defect([[1]], 10.0)
    bai_rows.append((4, unit_defect, unit_defect, 10.0))
    bai_ok = bai_ok and unit_defect <= 1e-9
    floor_defect = bai_defect(jordan3, 1000.0)
    bai_rows.append((5, max(0.0, 0.1 - floor_defect), floor_defect, 1000.0))
    bai_ok = bai_ok and floor_defect > 0.1
    bai_report = ConvergenceReport(("index", "residual", "u_norm", "q_bound"),
                                   tuple(bai_rows), bai_ok, True, 1e-9)
    checks.append(Check("character.bai_defect", bai_ok,
                        f"nilpotent defect pinned at 1 for caps 10..1000, invertible defect "
                        f"{unit_defect!r}, 3x3 floor {floor_defect!r}",
                        "tests/test_acceptance.py::test_c08_bai_defect"))
    files.append(("character_bai", bai_report))
    return checks, files


def _verify_similarity(cfg: RunConfig):
    spectrum = _spectrum_at(cfg, cfg.truncations[-1])
    report, solve = similarity_growth_sweep(spectrum, cfg.truncations)
    residual_ok = solve.residual == 0.0  # bounds the residual of every truncation
    conj = conjugate_by_upper_unipotent(build_T(spectrum), -solve.intertwiner)
    zeroed = conj.b12.is_zero()
    checks = [
        Check("similarity.growth", report.bounded,
              "intertwiner norms strictly increasing: "
              + " ".join(repr(r[1]) for r in report.rows),
              "tests/test_acceptance.py::test_c09_similarity"),
        Check("similarity.exact_solve", residual_ok,
              "intertwiner residual exactly zero at every truncation",
              "tests/test_similarity.py::test_minimal_intertwiner_residual_exact"),
        Check("similarity.conjugation_zeroing", zeroed,
              "conjugation by the negative inverse root zeroes the upper-right block exactly",
              "tests/test_acceptance.py::test_c09_similarity"),
    ]
    return checks, [("similarity_growth", report)]


def _verify_derivations(cfg: RunConfig):
    rows = []
    ok = True
    case = 0
    for dim in range(1, 5):
        for mask in range(1, 2 ** dim):
            case += 1
            diag = [[int(i == j and (mask >> i) & 1) for j in range(dim)]
                    for i in range(dim)]
            dimension, algebra_dim = derivation_dimensions(diag)
            rows.append((case, dimension, dimension, algebra_dim))
            ok = ok and dimension == 0
    nilpotent_dims = []
    for size in (2, 3, 4):
        case += 1
        jordan = [[int(j == i + 1) for j in range(size)] for i in range(size)]
        dimension, algebra_dim = derivation_dimensions(jordan)
        nilpotent_dims.append(dimension)
        rows.append((case, 0 if dimension >= 1 else 1, dimension, algebra_dim))
        ok = ok and dimension >= 1
    report = ConvergenceReport(("index", "residual", "u_norm", "q_bound"),
                               tuple(rows), ok, True, 0.0)
    checks = [Check("derivations.dichotomy", ok,
                    f"idempotent-generated algebras all trivial; nilpotent dimensions "
                    f"{nilpotent_dims}",
                    "tests/test_acceptance.py::test_c07_derivation_dichotomy")]
    return checks, [("derivations_dichotomy", report)]


RUNNERS: dict[str, Callable] = {
    "weak": _verify_weak,
    "character": _verify_character,
    "similarity": _verify_similarity,
    "derivations": _verify_derivations,
}


def cmd_verify(target: str, cfg: RunConfig) -> int:
    names = list(VERIFY_TARGETS) if target == "all" else [target]
    out_dir = Path(cfg.out)
    # An unusable output directory fails here, before any pipeline runs.
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: {exc}")
    checks: list[Check] = []
    pending = []
    for name in names:
        got_checks, got_files = RUNNERS[name](cfg)
        checks.extend(got_checks)
        pending.extend(got_files)
    digest = config_hash(cfg)
    comment = f"amenalab verify {target} {digest}"
    try:
        for stem, report in pending:
            write_report(report, out_dir / f"{stem}.{cfg.fmt}", cfg.fmt, comment)
    except OSError as exc:
        raise ConfigError(f"out: {exc}")
    for check in checks:
        flag = "PASS" if check.passed else "FAIL"
        print(f"[{flag}] {check.name}: {check.detail}  -> {check.test_ref}")
    failed = [c for c in checks if not c.passed]
    print(f"amenalab verify {target}: {len(checks) - len(failed)}/{len(checks)} checks passed"
          f" ({digest})")
    return 1 if failed else 0


def cmd_spectrum(cfg: RunConfig) -> int:
    spectrum = _spectrum_at(cfg, _default_count(cfg, SPECTRUM_DEFAULT_COUNT))
    m = len(spectrum)
    print(f"# amenalab spectrum {config_hash(cfg)}")
    print(f"spectrum: {spectrum.descriptor}")
    print(f"||T|| = {operator_norm(build_T(spectrum).to_float())!r}")
    print("  n  lambda_n  ||E_n||  tail_norm")
    for n in range(1, m + 1):
        e_norm = idempotent_norm_closed_form(n, spectrum)
        tail = generation_defect_closed_form(n, spectrum)
        print(f"  {n}  {float(spectrum.lam(n))!r}  {e_norm!r}  {tail!r}")
    return 0


FLAGS = ("--kind", "--ratio", "--count", "--truncations", "--degrees", "--tol-algebraic",
         "--tol-analytic", "--config", "--out", "--format")
HELP = {"-h", "--help"}
USAGE = """\
usage: amenalab spectrum [flags]         print the spectrum, ||T||, ||E_n||, tail norms
       amenalab verify TARGET [flags]    TARGET: weak | character | similarity | derivations | all

Each flag is --name VALUE or --name=VALUE, after TARGET; every flag overrides the config file.
  --kind {geometric,harmonic,explicit}   spectrum family        (default geometric)
  --ratio R                              geometric ratio, exact decimal or p/q (default 0.5)
  --count N                              truncation size (default: 64 for weak, 16 for character)
  --truncations a,b,c                    similarity sweep sizes (default 4,8,16,20)
  --degrees a:b | a,b,c                  Bernstein degrees; a:b doubles from a to b (default 8:64)
  --tol-algebraic X                      exact-identity float tolerance (default 1e-12)
  --tol-analytic Y                       sweep residual tolerance       (default 1e-3)
  --config PATH                          JSON configuration file
  --out DIR                              report directory (default reports)
  --format {csv,json}                    report format (default csv)
"""


def parse_argv(argv: Sequence[str]) -> tuple[str, str | None, dict[str, str]] | None:
    """`spectrum [flags]` or `verify TARGET [flags]` as (command, target, flags),
    or None for -h/--help.  `flags` maps each given flag's field (`--tol-analytic`
    -> `tol_analytic`) to its raw string, the last one given winning; its
    values are checked by `resolve_config`, with the config file's."""
    if not HELP.isdisjoint(argv):
        return None
    args = iter(argv)
    command = next(args, "")
    target = None
    if command == "verify":
        target = next(args, "")
        if target not in (*VERIFY_TARGETS, "all"):
            raise ConfigError(f"target: expected one of {', '.join(VERIFY_TARGETS)}, all; "
                              f"got {target!r}")
    elif command != "spectrum":
        raise ConfigError(f"command: expected 'spectrum' or 'verify', got {command!r}")
    flags = {}
    for arg in args:
        name, eq, value = arg.partition("=")
        if name not in FLAGS:
            raise ConfigError(f"{name}: unknown option")
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"{name}: expected a value")
        flags[name[2:].replace("-", "_")] = value
    return command, target, flags


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parsed = parse_argv(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            print(USAGE, end="")
            code = 0
        else:
            command, target, flags = parsed
            cfg = resolve_config(flags)
            code = cmd_spectrum(cfg) if command == "spectrum" else cmd_verify(target, cfg)
        sys.stdout.flush()  # a closed pipe then raises here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone (e.g. `| head -1`).  Point stdout at devnull so
        # the flush at exit cannot raise again, and exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
