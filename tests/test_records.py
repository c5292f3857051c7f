"""Contracts of the package's records: the NamedTuples (`RunConfig`,
`IntertwinerSolve`, `DerivationSpace`) and the validating classes
(`ConvergenceReport`, `NotchFunction`, `SpectrumSequence`, `DiagonalOperator`,
`BlockOperator`): constructor errors and their messages, normalisation,
value equality and hashing, immutability, and no tuple behaviour on the
operators."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from amenalab import (BlockOperator, ConvergenceReport, DerivationSpace, DiagonalOperator,
                      IntertwinerSolve, NotchFunction, SpectrumSequence, derivation_space,
                      make_spectrum, minimal_intertwiner, notch)
from amenalab.cli import RunConfig, config_hash, parse_argv, resolve_config

ROOT = Path(__file__).resolve().parents[1]
HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


def test_import_loads_no_dataclasses():
    """A fresh `import amenalab.cli` generates no code: `dataclasses` stays unloaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c",
                          "import sys, amenalab.cli; print('dataclasses' in sys.modules)"],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("values, message", [
    ((), "values: must contain at least one point"),
    ((HALF, Fraction(0)), "values: not positive at index 2"),
    ((Fraction(-1),), "values: not positive at index 1"),
    ((QUARTER, HALF), "values: not strictly decreasing at index 2"),
    ((HALF, QUARTER, QUARTER), "values: not strictly decreasing at index 3"),
])
def test_spectrum_sequence_rejects(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SpectrumSequence(values)


def test_spectrum_sequence_record():
    s = SpectrumSequence((HALF, QUARTER))
    assert (s.values, s.descriptor) == ((HALF, QUARTER), "explicit")
    twin = make_spectrum("explicit", values=[HALF, QUARTER])
    assert s == twin and hash(s) == hash(twin)
    assert s != SpectrumSequence((HALF, QUARTER), "other") and s != (HALF, QUARTER)
    assert s.roots[1] == HALF and s.roots is s.roots and "roots" in vars(s)  # cached
    assert s == twin and hash(s) == hash(twin)  # the cache is not a field
    assert repr(s) == f"SpectrumSequence(values={s.values!r}, descriptor='explicit')"


def test_diagonal_operator_is_no_tuple():
    d = DiagonalOperator([HALF, 1])
    assert d.diag == (HALF, 1) and type(d.diag) is tuple
    assert d == DiagonalOperator((HALF, 1)) and hash(d) == hash(DiagonalOperator((HALF, 1)))
    assert d != (HALF, 1) and d != DiagonalOperator((HALF, 2))
    for op in (lambda: d * 2, lambda: 2 * d, lambda: d[0], lambda: iter(d)):
        with pytest.raises(TypeError):
            op()
    assert repr(d) == "DiagonalOperator(diag=(Fraction(1, 2), 1))"


def test_block_operator_checks_its_blocks():
    one, two = DiagonalOperator.ones(1), DiagonalOperator.ones(2)
    for blocks in ((one, two, two), (two, one, two), (two, two, one)):
        with pytest.raises(ValueError, match="^all three blocks must share one dimension$"):
            BlockOperator(*blocks)
    X = BlockOperator(two, DiagonalOperator.zeros(2), two)
    assert (X.b11, X.b12, X.b22) == (two, DiagonalOperator.zeros(2), two)
    assert X == BlockOperator(two, DiagonalOperator.zeros(2), two)
    assert hash(X) == hash(BlockOperator.zeros(2) + X)
    assert X != BlockOperator.zeros(2)
    for op in (lambda: X * 2, lambda: len(X), lambda: X[0]):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("record", [
    SpectrumSequence((HALF,)), DiagonalOperator((HALF,)),
    BlockOperator.zeros(1), NotchFunction(-HALF, HALF, QUARTER),
    ConvergenceReport(("index",), ((1,),), True, True, 0.0),
], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(record, field)
    with pytest.raises(AttributeError, match="is immutable"):
        record.extra = 1


@pytest.mark.parametrize("args, message", [
    ((-HALF, HALF, Fraction(0)), "delta: must be positive"),
    ((-HALF, HALF, -QUARTER), "delta: must be positive"),
    ((QUARTER, HALF, QUARTER), "the interval must contain the origin"),
    ((-HALF, -QUARTER, QUARTER), "the interval must contain the origin"),
])
def test_notch_function_rejects(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        NotchFunction(*args)


def test_notch_function_record():
    f = NotchFunction(Fraction(-1), HALF, QUARTER)
    assert (f.a, f.b, f.delta, f.anchors) == (Fraction(-1), HALF, QUARTER, ())
    g = notch(1, make_spectrum("geometric", 2))
    assert g == NotchFunction(g.a, g.b, g.delta, g.anchors) and hash(g) == hash(
        NotchFunction(g.a, g.b, g.delta, g.anchors))
    assert g != NotchFunction(g.a, g.b, g.delta)


def test_convergence_report_sorts_rows_and_checks_width():
    r = ConvergenceReport(("M", "x"), [[3, 0.5], (1, 0.25), (2, 0.0)], False, True, 1e-3)
    assert r.rows == ((1, 0.25), (2, 0.0), (3, 0.5)) and type(r.rows[2]) is tuple
    assert (r.columns, r.threshold_met, r.bounded, r.tolerance) == (("M", "x"), False, True, 1e-3)
    same = ConvergenceReport(("M", "x"), ((2, 0.0), (3, 0.5), (1, 0.25)), False, True, 1e-3)
    assert r == same and hash(r) == hash(same)
    assert r != ConvergenceReport(("M", "x"), r.rows, True, True, 1e-3)
    for rows in (((1, 0.5, 2.0),), ((1,),), ((1, 0.5), (2,))):
        with pytest.raises(ValueError, match="^row width does not match the column labels$"):
            ConvergenceReport(("M", "x"), rows, True, True, 0.0)


def test_run_config_replace_keeps_the_digest():
    argv = ["verify", "all", "--kind", "harmonic", "--count", "8"]
    cfg = resolve_config(parse_argv(argv)[2])
    assert isinstance(cfg, RunConfig) and cfg.spectrum == make_spectrum("harmonic", 8)
    bare = cfg._replace(spectrum=None)
    assert bare.spectrum is None and config_hash(bare) == config_hash(cfg)
    assert config_hash(cfg._replace(count=9)) != config_hash(cfg)
    again = resolve_config(parse_argv(argv)[2])
    assert again == cfg and hash(again) == hash(cfg) and again != bare
    assert RunConfig._fields[-1] == "spectrum" and RunConfig._field_defaults == {"spectrum": None}
    assert (cfg.count, cfg.kind, cfg.fmt) == (8, "harmonic", "csv")  # `count` is the field


def test_intertwiner_solve_and_derivation_space_are_named_tuples():
    solve = minimal_intertwiner(make_spectrum("geometric", 3))
    assert isinstance(solve, IntertwinerSolve) and IntertwinerSolve._fields == (
        "truncation", "intertwiner", "norm", "residual", "prefix_norms")
    assert solve == minimal_intertwiner(make_spectrum("geometric", 3))
    assert hash(solve) == hash(minimal_intertwiner(make_spectrum("geometric", 3)))
    assert solve._replace(norm=0.0).norm == 0.0 and solve.norm == solve.prefix_norms[-1]
    space = derivation_space([[[1, 0], [0, 0]]])
    assert isinstance(space, DerivationSpace) and DerivationSpace._fields == (
        "generators", "module_kind", "module_basis", "basis", "algebra_dim")
    assert space.dimension == len(space.basis)
    assert space == derivation_space([[[1, 0], [0, 0]]])
