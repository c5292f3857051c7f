"""Span tracer for the benchmark's traced run.

It wraps public functions of amenalab from outside the package: one span per
call, holding the span name, start, end and the id of the enclosing span.
The spans stay in flat in-memory arrays and are written out once, when the
run ends.  Several amenalab modules bind names with `from ... import`, so each
wrapper replaces the original in every loaded amenalab namespace that holds
it, not only in the defining module.

A few wrappers also record facts about their arguments or results (distinct
inputs, grid sizes, coefficient bit lengths, report bytes); `FACT_KEYS`
lists them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path).  Dotted attribute paths are methods,
# patched on their class.
TARGETS = (
    ("scalars.exact_sqrt", "amenalab.scalars", "exact_sqrt"),
    ("scalars.is_exact_zero", "amenalab.scalars", "is_exact_zero"),
    ("scalars.to_float", "amenalab.scalars", "to_float"),
    # scalars.py reaches simplify through the `sympy` module attribute.
    ("scalars.simplify", "sympy", "simplify"),
    ("spectrum.apply_poly_to_block", "amenalab.spectrum", "apply_poly_to_block"),
    ("spectrum.operator_norm", "amenalab.spectrum", "operator_norm"),
    ("spectrum.build_T", "amenalab.spectrum", "build_T"),
    ("spectrum.build_shifted_T", "amenalab.spectrum", "build_shifted_T"),
    ("spectrum.BlockOperator.add", "amenalab.spectrum", "BlockOperator.__add__"),
    ("spectrum.BlockOperator.scale", "amenalab.spectrum", "BlockOperator.scale"),
    ("spectrum.BlockOperator.matmul", "amenalab.spectrum", "BlockOperator.__matmul__"),
    ("spectrum.BlockOperator.to_float", "amenalab.spectrum", "BlockOperator.to_float"),
    # spectrum.py reaches the SVD through the `numpy.linalg` attribute.
    ("numpy.linalg.svd", "numpy.linalg", "svd"),
    ("amenability.idempotent_E", "amenalab.amenability", "idempotent_E"),
    ("amenability.idempotent_partial_sum", "amenalab.amenability", "idempotent_partial_sum"),
    ("amenability.generation_defect", "amenalab.amenability", "generation_defect"),
    ("amenability.membership_residual", "amenalab.amenability", "membership_residual"),
    ("amenability.approximate_identity_steps", "amenalab.amenability",
     "approximate_identity_steps"),
    ("amenability.unit_approximation_steps", "amenalab.amenability",
     "unit_approximation_steps"),
    ("amenability.bai_defect", "amenalab.amenability", "bai_defect"),
    ("amenability.derivation_space", "amenalab.amenability", "derivation_space"),
    ("polynomials.approximate_with_derivative", "amenalab.polynomials",
     "approximate_with_derivative"),
    ("polynomials.evaluate_on_grid", "amenalab.polynomials", "evaluate_on_grid"),
    ("polynomials.sup_norm", "amenalab.polynomials", "sup_norm"),
    ("polynomials.divide_shifted", "amenalab.polynomials", "divide_shifted"),
    ("polynomials.mvt_bound_check", "amenalab.polynomials", "mvt_bound_check"),
    ("polynomials.Polynomial.compose_affine", "amenalab.polynomials",
     "Polynomial.compose_affine"),
    ("polynomials._bernstein_controls", "amenalab.polynomials", "_bernstein_controls"),
    ("rational_linalg.rref", "amenalab._rational_linalg", "rref"),
    ("rational_linalg.solve_in_span", "amenalab._rational_linalg", "solve_in_span"),
    ("similarity.similarity_growth_sweep", "amenalab.similarity", "similarity_growth_sweep"),
    ("similarity.minimal_intertwiner", "amenalab.similarity", "minimal_intertwiner"),
    ("reports.write_report", "amenalab.reports", "write_report"),
    ("cli.resolve_config", "amenalab.cli", "resolve_config"),
)

FACT_KEYS = ("exact_sqrt_distinct", "idempotent_E_distinct", "grid_points",
             "max_coeff_bits", "bytes_written")


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._sqrt_args: set = set()
        self._idempotent_args: set = set()
        self.facts = dict.fromkeys(FACT_KEYS, 0)

    def wrap(self, name: str, fn, observe=None):
        """Return `fn` wrapped in a span called `name`.  `observe(args,
        result)` runs after the span has closed, so its cost counts toward
        the caller's self time, not toward `name`."""
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, open_spans = (self.name_id, self.parent, self.start,
                                                   self.end, self._open)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_spans.pop()
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every target in place; `amenalab.cli` must already be imported."""
        observers = {
            "scalars.exact_sqrt": self._observe_sqrt,
            "amenability.idempotent_E": self._observe_idempotent,
            "polynomials.evaluate_on_grid": self._observe_grid,
            "polynomials.approximate_with_derivative": self._observe_coefficients,
            "reports.write_report": self._observe_report,
        }
        namespaces = [m for n, m in sys.modules.items()
                      if n == "amenalab" or n.startswith("amenalab.")]
        for name, module, path in TARGETS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, observers.get(name))
            setattr(owner, attr, wrapped)
            if not outer:
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapped)
        runners = sys.modules["amenalab.cli"].RUNNERS
        for stage, runner in list(runners.items()):
            runners[stage] = self.wrap(f"cli.stage.{stage}", runner)

    def _observe_sqrt(self, args, result):
        self._sqrt_args.add(args[0])
        self.facts["exact_sqrt_distinct"] = len(self._sqrt_args)

    def _observe_idempotent(self, args, result):
        self._idempotent_args.add((args[0], args[1]))
        self.facts["idempotent_E_distinct"] = len(self._idempotent_args)

    def _observe_grid(self, args, result):
        self.facts["grid_points"] += len(result)

    def _observe_coefficients(self, args, result):
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in result.coefficients), default=0)
        self.facts["max_coeff_bits"] = max(self.facts["max_coeff_bits"], bits)

    def _observe_report(self, args, result):
        self.facts["bytes_written"] += result.stat().st_size

    def dump(self, path: str):
        """Write the spans and facts as one .npz file."""
        meta = {"run_id": self.run_id, "names": self.names, "facts": self.facts}
        np.savez(path, name_id=np.asarray(self.name_id, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int32),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 meta=np.array(json.dumps(meta)))


def load(path) -> dict:
    """Read a span file written by `Tracer.dump`."""
    with np.load(path, allow_pickle=False) as data:
        out = {key: data[key] for key in ("name_id", "parent", "start", "end")}
        out.update(json.loads(str(data["meta"])))
    return out
